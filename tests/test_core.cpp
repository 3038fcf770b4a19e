// Unit tests for the core layer: Shape, NDArray, bit/byte streams, stats,
// checksums.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string_view>

#include "core/bitstream.hpp"
#include "core/checksum.hpp"
#include "core/error.hpp"
#include "core/ndarray.hpp"
#include "core/shape.hpp"
#include "core/stats.hpp"

namespace hpdr {
namespace {

TEST(Shape, BasicProperties) {
  Shape s{4, 5, 6};
  EXPECT_EQ(s.rank(), 3u);
  EXPECT_EQ(s.size(), 120u);
  EXPECT_EQ(s[0], 4u);
  EXPECT_EQ(s[2], 6u);
  EXPECT_EQ(s.to_string(), "[4x5x6]");
}

TEST(Shape, Strides) {
  Shape s{4, 5, 6};
  auto st = s.strides();
  EXPECT_EQ(st[0], 30u);
  EXPECT_EQ(st[1], 6u);
  EXPECT_EQ(st[2], 1u);
  EXPECT_EQ(s.linearize({1, 2, 3}), 30u + 12u + 3u);
}

TEST(Shape, EqualityAndHash) {
  Shape a{2, 3}, b{2, 3}, c{3, 2};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_NE(a.hash(), c.hash());  // FNV mix distinguishes permutations
}

TEST(Shape, RankZeroAndLimits) {
  Shape s;
  EXPECT_EQ(s.rank(), 0u);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_THROW((Shape{1, 2, 3, 4, 5}), Error);
}

TEST(NDArray, RoundTripFromSpan) {
  std::vector<float> v{1, 2, 3, 4, 5, 6};
  auto a = NDArray<float>::from(Shape{2, 3}, v);
  EXPECT_EQ(a.at(1, 2), 6.0f);
  EXPECT_EQ(a.view().size_bytes(), 24u);
  EXPECT_THROW(NDArray<float>::from(Shape{7}, v), Error);
}

TEST(BitStream, SingleBits) {
  BitWriter w;
  for (int i = 0; i < 100; ++i) w.put_bit(i % 3 == 0);
  auto bytes = w.to_bytes();
  BitReader r(bytes, 100);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.get_bit(), i % 3 == 0) << i;
  EXPECT_THROW(r.get_bit(), Error);
}

TEST(BitStream, MultiBitFields) {
  BitWriter w;
  w.put(0x3, 2);
  w.put(0x1234, 16);
  w.put(0xFFFFFFFFFFFFFFFFull, 64);
  w.put(0, 0);  // zero-width write is a no-op
  w.put(0x5, 3);
  auto bytes = w.to_bytes();
  BitReader r(bytes);
  EXPECT_EQ(r.get(2), 0x3u);
  EXPECT_EQ(r.get(16), 0x1234u);
  EXPECT_EQ(r.get(64), 0xFFFFFFFFFFFFFFFFull);
  EXPECT_EQ(r.get(3), 0x5u);
}

TEST(BitStream, AppendMergesAtBitGranularity) {
  BitWriter a, b;
  a.put(0x5, 3);  // 101
  b.put(0x6, 3);  // 110
  a.append(b);
  EXPECT_EQ(a.bit_size(), 6u);
  auto bytes = a.to_bytes();
  BitReader r(bytes);
  EXPECT_EQ(r.get(3), 0x5u);
  EXPECT_EQ(r.get(3), 0x6u);
}

TEST(BitStream, AppendLongStreams) {
  std::mt19937_64 rng(7);
  BitWriter total;
  std::vector<std::pair<std::uint64_t, unsigned>> record;
  BitWriter parts[5];
  for (int p = 0; p < 5; ++p) {
    for (int i = 0; i < 137; ++i) {
      unsigned n = 1 + static_cast<unsigned>(rng() % 64);
      std::uint64_t v = rng();
      parts[p].put(v, n);
      record.emplace_back(v & (n == 64 ? ~0ull : ((1ull << n) - 1)), n);
    }
  }
  for (auto& p : parts) total.append(p);
  auto bytes = total.to_bytes();
  BitReader r(bytes);
  for (auto [v, n] : record) EXPECT_EQ(r.get(n), v);
}

TEST(BitStream, SeekWithinLimit) {
  BitWriter w;
  w.put(0xABCD, 16);
  auto bytes = w.to_bytes();
  BitReader r(bytes);
  r.seek(8);
  EXPECT_EQ(r.get(8), 0xABu);
  EXPECT_THROW(r.seek(999), Error);
}

TEST(ByteStream, FixedWidthRoundTrip) {
  ByteWriter w;
  w.put_u8(0x12);
  w.put_u64(0x1122334455667788ull);
  w.put_f64(-3.25);
  auto buf = w.take();
  ByteReader r(buf);
  EXPECT_EQ(r.get_u8(), 0x12);
  EXPECT_EQ(r.get_u64(), 0x1122334455667788ull);
  EXPECT_EQ(r.get_f64(), -3.25);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteStream, VarintBoundaries) {
  ByteWriter w;
  const std::uint64_t values[] = {0,    1,    127,        128,
                                  300,  16383, 16384,     UINT64_MAX};
  for (auto v : values) w.put_varint(v);
  auto buf = w.take();
  ByteReader r(buf);
  for (auto v : values) EXPECT_EQ(r.get_varint(), v);
}

TEST(ByteStream, StringsAndTruncation) {
  ByteWriter w;
  w.put_string("hello hpdr");
  w.put_string("");
  auto buf = w.take();
  ByteReader r(buf);
  EXPECT_EQ(r.get_string(), "hello hpdr");
  EXPECT_EQ(r.get_string(), "");
  EXPECT_THROW(r.get_u64(), Error);
}


TEST(BitStream, PeekDoesNotConsume) {
  BitWriter w;
  w.put(0xBEEF, 16);
  auto bytes = w.to_bytes();
  BitReader r(bytes);
  EXPECT_EQ(r.peek(12), 0xEEFu);
  EXPECT_EQ(r.position(), 0u);
  EXPECT_EQ(r.get(12), 0xEEFu);   // same bits, now consumed
  EXPECT_EQ(r.position(), 12u);
}

TEST(BitStream, SkipConsumesAndBoundsChecks) {
  BitWriter w;
  w.put(0xFF, 8);
  auto bytes = w.to_bytes();
  BitReader r(bytes);
  r.skip(3);
  EXPECT_EQ(r.remaining(), 5u);
  EXPECT_THROW(r.skip(6), Error);
}

TEST(Shape, OfRankFill) {
  auto s = Shape::of_rank(3, 7);
  EXPECT_EQ(s.size(), 343u);
  EXPECT_THROW(Shape::of_rank(5), Error);
}

TEST(Stats, ErrorStatsBasics) {
  std::vector<float> a{0, 1, 2, 3, 4};
  std::vector<float> b{0, 1.5f, 2, 3, 4};
  auto s = compute_error_stats(std::span<const float>(a),
                               std::span<const float>(b));
  EXPECT_DOUBLE_EQ(s.max_abs_error, 0.5);
  EXPECT_DOUBLE_EQ(s.max_rel_error, 0.125);
  EXPECT_DOUBLE_EQ(s.original_max, 4.0);
  EXPECT_GT(s.psnr_db, 10.0);
}

TEST(Stats, IdenticalInputsHaveInfinitePsnr) {
  std::vector<double> a{1, 2, 3};
  auto s = compute_error_stats(std::span<const double>(a),
                               std::span<const double>(a));
  EXPECT_EQ(s.max_abs_error, 0.0);
  EXPECT_TRUE(std::isinf(s.psnr_db));
}

TEST(Stats, CompressionRatio) {
  EXPECT_DOUBLE_EQ(compression_ratio(100, 10), 10.0);
  EXPECT_DOUBLE_EQ(compression_ratio(100, 0), 0.0);
}

TEST(Stats, ShannonEntropy) {
  std::vector<std::size_t> uniform(256, 10);
  EXPECT_NEAR(shannon_entropy_bits(uniform), 8.0, 1e-9);
  std::vector<std::size_t> single(256, 0);
  single[7] = 42;
  EXPECT_NEAR(shannon_entropy_bits(single), 0.0, 1e-9);
}

std::uint64_t xxh64_of(std::string_view s) {
  return xxh64({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

// Published XXH64 values (seed 0). The byte ramps cover the 32-byte stripe
// loop (≥32) and every tail path: 8-byte words, one 4-byte word, single
// bytes, and the short-input seed (<32).
TEST(Checksum, Xxh64KnownAnswers) {
  EXPECT_EQ(xxh64_of(""), 0xef46db3751d8e999ull);
  EXPECT_EQ(xxh64_of("a"), 0xd24ec4f1a98c6e5bull);
  EXPECT_EQ(xxh64_of("abc"), 0x44bc2cf5ad770999ull);
  EXPECT_EQ(xxh64_of("Nobody inspects the spammish repetition"),
            0xfbcea83c8a378bf1ull);
  std::vector<std::uint8_t> ramp(257);
  for (std::size_t i = 0; i < ramp.size(); ++i)
    ramp[i] = static_cast<std::uint8_t>(i);
  const std::pair<std::size_t, std::uint64_t> known[] = {
      {8, 0x884a173614b81b8dull},   {15, 0xa948f5f0f6abac2dull},
      {31, 0xc346d2b59b4d8ee1ull},  {32, 0xcbf59c5116ff32b4ull},
      {40, 0xf5da40f1b11741e9ull},  {63, 0xe26aa9e2a95f8e4full},
      {64, 0xf7c67301db6713f0ull},  {100, 0x6ac1e58032166597ull},
      {256, 0x1facbe8406cd904bull}};
  for (const auto& [n, want] : known)
    EXPECT_EQ(xxh64({ramp.data(), n}), want) << "n=" << n;
  // Loads are unaligned-safe: the same 100 bytes from an odd address.
  std::vector<std::uint8_t> shifted(101);
  std::memcpy(shifted.data() + 1, ramp.data(), 100);
  EXPECT_EQ(xxh64({shifted.data() + 1, 100}), 0x6ac1e58032166597ull);
}

}  // namespace
}  // namespace hpdr
