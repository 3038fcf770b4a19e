// Tests for the LZ4-style baseline compressor.
#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "algorithms/lz4/lz4.hpp"
#include "core/error.hpp"
#include "machine/device_registry.hpp"

namespace hpdr::lz4 {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng());
  return v;
}

/// Decompresses a frame into `n` bytes.
std::vector<std::uint8_t> decode(const Device& dev,
                                 std::span<const std::uint8_t> frame,
                                 std::size_t n) {
  std::vector<std::uint8_t> out(n);
  decompress(dev, frame, out);
  return out;
}

class Lz4RoundTrip : public ::testing::TestWithParam<const char*> {
 protected:
  Device dev_ = Device::serial();
  void SetUp() override { dev_ = machine::make_device(GetParam()); }
};

TEST_P(Lz4RoundTrip, HighlyRepetitiveCompressesWell) {
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 3000; ++i) {
    const char* s = "scientific-data-reduction-";
    data.insert(data.end(), s, s + 26);
  }
  auto frame = compress(dev_, data);
  EXPECT_LT(frame.size(), data.size() / 5);
  EXPECT_EQ(decode(dev_, frame, data.size()), data);
}

TEST_P(Lz4RoundTrip, RandomBytesStoredNearRaw) {
  auto data = random_bytes(100000, 7);
  auto frame = compress(dev_, data);
  // Incompressible: stored blocks keep size within framing overhead.
  EXPECT_LT(frame.size(), data.size() + 256);
  EXPECT_EQ(decode(dev_, frame, data.size()), data);
}

TEST_P(Lz4RoundTrip, MultiBlockInput) {
  // Spans multiple 256 KiB framing blocks with mixed compressibility.
  std::vector<std::uint8_t> data = random_bytes(300000, 9);
  data.insert(data.end(), 400000, std::uint8_t{42});
  auto frame = compress(dev_, data);
  EXPECT_LT(frame.size(), data.size());
  EXPECT_EQ(decode(dev_, frame, data.size()), data);
}

TEST_P(Lz4RoundTrip, TinyInputs) {
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{4},
                        std::size_t{5}, std::size_t{13}}) {
    auto data = random_bytes(n, static_cast<unsigned>(100 + n));
    EXPECT_EQ(decode(dev_, compress(dev_, data), n), data) << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Adapters, Lz4RoundTrip,
                         ::testing::Values("serial", "openmp", "V100", "stdthread"));

TEST(Lz4Block, SelfOverlappingMatchesDecodeCorrectly) {
  // RLE-like data forces offset < match length (overlapping copy).
  std::vector<std::uint8_t> data(1000, 7);
  auto blk = compress_block(data);
  std::vector<std::uint8_t> out(data.size());
  decompress_block(blk, out);
  EXPECT_EQ(out, data);
  EXPECT_LT(blk.size(), 32u);
}

TEST(Lz4Block, LongLiteralAndMatchLengthExtensions) {
  // >15 literals then >15+4 match bytes exercises extended length codes.
  std::vector<std::uint8_t> data = random_bytes(300, 3);
  data.insert(data.end(), 500, std::uint8_t{9});
  auto blk = compress_block(data);
  std::vector<std::uint8_t> out(data.size());
  decompress_block(blk, out);
  EXPECT_EQ(out, data);
}

TEST(Lz4, CorruptFrameThrows) {
  const Device dev = Device::serial();
  std::vector<std::uint8_t> data(1000, 5);
  auto frame = compress(dev, data);
  frame.resize(frame.size() - 10);
  EXPECT_THROW(decode(dev, frame, data.size()), Error);
}

TEST(Lz4Block, FuzzRoundTripsAcrossShapes) {
  // Seeded fuzz over the match-finder's hard shapes: incompressible noise,
  // short-period repetition (dense chains), all-zero (maximal RLE), and
  // block-boundary sizes. Every blob must round-trip byte for byte.
  std::mt19937_64 rng(0xF00D);
  for (int iter = 0; iter < 60; ++iter) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng() % 70000);
    std::vector<std::uint8_t> data(n);
    switch (iter % 4) {
      case 0:  // incompressible
        for (auto& b : data) b = static_cast<std::uint8_t>(rng());
        break;
      case 1: {  // periodic with a small, randomly chosen period
        const std::size_t period = 1 + rng() % 24;
        for (std::size_t i = 0; i < n; ++i)
          data[i] = static_cast<std::uint8_t>((i % period) * 7 + iter);
        break;
      }
      case 2:  // all-zero
        break;
      case 3:  // noise with planted runs (mixed literal/match sequences)
        for (std::size_t i = 0; i < n; ++i)
          data[i] = static_cast<std::uint8_t>(rng());
        for (int r = 0; r < 8 && n > 16; ++r) {
          const std::size_t at = rng() % (n - 16);
          const std::size_t len = 4 + rng() % 12;
          std::fill(data.begin() + static_cast<std::ptrdiff_t>(at),
                    data.begin() + static_cast<std::ptrdiff_t>(at + len),
                    static_cast<std::uint8_t>(r));
        }
        break;
    }
    auto blk = compress_block(data);
    std::vector<std::uint8_t> out(data.size());
    decompress_block(blk, out);
    ASSERT_EQ(out, data) << "iter " << iter << " n " << n;
  }
}

TEST(Lz4Block, AdversarialNearOverlapOffsets) {
  // Matches at every offset 1..8 — the decoder's overlap boundary, where
  // the wild 8-byte copy (offset >= 8), the 4-byte-step path (4..7), and
  // the doubling pattern copy (1..3) all meet. Each stream must decode
  // exactly, including matches that extend long past one period.
  for (std::size_t offset = 1; offset <= 8; ++offset) {
    std::vector<std::uint8_t> data;
    // Unique prefix so the match can't start earlier than intended.
    for (std::size_t i = 0; i < 64; ++i)
      data.push_back(static_cast<std::uint8_t>(191 + 13 * i));
    // Seed pattern of `offset` bytes, then a long self-overlapping run.
    for (std::size_t i = 0; i < offset; ++i)
      data.push_back(static_cast<std::uint8_t>(i * 37 + 1));
    const std::size_t seed_at = data.size() - offset;
    for (std::size_t i = 0; i < 300; ++i)
      data.push_back(data[seed_at + (i % offset)]);
    // Tail literals so the run isn't the trailing sequence.
    for (std::size_t i = 0; i < 16; ++i)
      data.push_back(static_cast<std::uint8_t>(251 - i));
    auto blk = compress_block(data);
    std::vector<std::uint8_t> out(data.size());
    decompress_block(blk, out);
    ASSERT_EQ(out, data) << "offset " << offset;
    EXPECT_LT(blk.size(), data.size()) << "offset " << offset;
  }
}

TEST(Lz4Block, NeverExpandsBeyondGreedyBound) {
  // The chain finder exists to find *better* matches; it must never emit a
  // larger block than the format's worst case and should beat 1x on any
  // input with 4-byte structure.
  std::vector<std::uint8_t> syms(40000);
  std::mt19937_64 rng(4242);
  std::geometric_distribution<int> mag(0.25);
  for (std::size_t i = 0; i + 4 <= syms.size(); i += 4) {
    const std::uint32_t v =
        0x8000u + static_cast<std::uint32_t>(mag(rng));
    std::memcpy(&syms[i], &v, 4);
  }
  auto blk = compress_block(syms);
  EXPECT_LT(blk.size(), syms.size() / 2);
  std::vector<std::uint8_t> out(syms.size());
  decompress_block(blk, out);
  EXPECT_EQ(out, syms);
}

TEST(Lz4, FloatDataLowRatio) {
  // The paper's premise (Fig. 17): byte-level LZ on floating-point science
  // data yields ~1.1× — verify our baseline reproduces weak ratios.
  std::vector<float> field(100000);
  std::mt19937_64 rng(77);
  std::normal_distribution<float> noise(0.f, 1.f);
  for (std::size_t i = 0; i < field.size(); ++i)
    field[i] = std::sin(0.01f * static_cast<float>(i)) + 0.1f * noise(rng);
  std::vector<std::uint8_t> bytes(field.size() * 4);
  std::memcpy(bytes.data(), field.data(), bytes.size());
  const Device dev = Device::serial();
  auto frame = compress(dev, bytes);
  const double ratio = double(bytes.size()) / double(frame.size());
  EXPECT_LT(ratio, 1.6);
  EXPECT_GE(ratio, 0.9);
  EXPECT_EQ(decode(dev, frame, bytes.size()), bytes);
}

}  // namespace
}  // namespace hpdr::lz4
