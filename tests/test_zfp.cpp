// Tests for ZFP-X fixed-rate compression: transform invertibility and its
// per-axis definition, negabinary mapping, the bitplane coder against its
// per-bit reference, rate exactness, accuracy-vs-rate, adapter portability,
// non-finite blocks and hostile header fields.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>

#include "algorithms/zfp/zfp.hpp"
#include "core/bitstream.hpp"
#include "core/stats.hpp"
#include "machine/device_registry.hpp"
#include "zfp_reference.hpp"

namespace hpdr::zfp {
namespace {

/// Decompresses `stream` into a fresh tensor of `shape`.
template <class T>
NDArray<T> decode(const Device& dev, std::span<const std::uint8_t> stream,
                  const Shape& shape) {
  NDArray<T> out(shape);
  decompress(dev, stream, out.view());
  return out;
}

TEST(ZfpLift, ForwardInverseIsExactIdentity) {
  std::mt19937_64 rng(3);
  for (int trial = 0; trial < 1000; ++trial) {
    std::int64_t v[4], orig[4];
    for (int i = 0; i < 4; ++i) {
      v[i] = static_cast<std::int64_t>(rng() % (1ull << 50)) -
             (1ll << 49);
      orig[i] = v[i];
    }
    detail::fwd_lift4(v, 1);
    detail::inv_lift4(v, 1);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(v[i], orig[i]);
  }
}

TEST(ZfpLift, StridedAccess) {
  std::int64_t v[16];
  for (int i = 0; i < 16; ++i) v[i] = 100 * i;
  std::int64_t orig[16];
  std::copy(v, v + 16, orig);
  detail::fwd_lift4(v, 4);  // transforms v[0], v[4], v[8], v[12]
  EXPECT_EQ(v[1], orig[1]);  // untouched lanes
  detail::inv_lift4(v, 4);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(v[i], orig[i]);
}

TEST(ZfpLift, ConstantBlockConcentratesEnergy) {
  std::int64_t v[4] = {1000, 1000, 1000, 1000};
  detail::fwd_lift4(v, 1);
  EXPECT_EQ(v[0], 1000);  // DC
  EXPECT_EQ(v[1], 0);
  EXPECT_EQ(v[2], 0);
  EXPECT_EQ(v[3], 0);
}

// fwd_transform is fwd_lift4 along each axis of the 4^rank block, fastest
// axis (stride 1) first; its lane-parallel body must compute exactly that
// on whichever slot the host dispatches to, and inv_transform must undo it.
TEST(ZfpTransform, MatchesPerAxisLifts) {
  constexpr std::size_t kBlocks = 256;
  for (std::size_t rank : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    const std::size_t n = std::size_t{1} << (2 * rank);
    std::mt19937_64 rng(11 + rank);
    std::vector<std::int64_t> src(kBlocks * n);
    for (auto& q : src)
      q = static_cast<std::int64_t>(rng() & 0xFFFFF) - 0x80000;
    std::vector<std::int64_t> fast = src, lifts = src;
    for (std::size_t b = 0; b < kBlocks; ++b) {
      std::int64_t* q = lifts.data() + b * n;
      for (std::size_t stride = 1; stride < n; stride *= 4)
        for (std::size_t base = 0; base < n; ++base)
          if (base / stride % 4 == 0) detail::fwd_lift4(q + base, stride);
      detail::fwd_transform(fast.data() + b * n, rank);
    }
    EXPECT_EQ(fast, lifts) << "rank " << rank;
    for (std::size_t b = 0; b < kBlocks; ++b)
      detail::inv_transform(fast.data() + b * n, rank);
    EXPECT_EQ(fast, src) << "inverse must undo forward, rank " << rank;
  }
}

TEST(ZfpNegabinary, RoundTripAndMagnitudeOrdering) {
  std::mt19937_64 rng(5);
  for (int trial = 0; trial < 1000; ++trial) {
    const std::int64_t x =
        static_cast<std::int64_t>(rng() % (1ull << 60)) - (1ll << 59);
    EXPECT_EQ(detail::from_negabinary(detail::to_negabinary(x)), x);
  }
  // Small magnitudes use few bits: |x| ≤ 2 fits in 3 negabinary digits.
  for (std::int64_t x = -2; x <= 2; ++x)
    EXPECT_LT(detail::to_negabinary(x), 8u);
}

TEST(ZfpSequency, OrderIsAPermutationSortedByFrequency) {
  for (std::size_t rank : {1u, 2u, 3u}) {
    auto order = detail::sequency_order(rank);
    const std::size_t n = std::size_t{1} << (2 * rank);
    ASSERT_EQ(order.size(), n);
    std::vector<bool> seen(n, false);
    for (auto i : order) {
      ASSERT_LT(i, n);
      EXPECT_FALSE(seen[i]);
      seen[i] = true;
    }
    EXPECT_EQ(order[0], 0u);  // DC coefficient first
  }
}

// ---------------------------------------------------------------------------
// Bitplane coder: the word-parallel encode_planes/decode_planes against the
// per-bit coder they replaced, frozen in tests/zfp_reference.hpp.
// ---------------------------------------------------------------------------

/// (rank, f64): n = 4^rank coefficients, intprec of the codec's dtype.
class ZfpPlaneCoder
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {
 protected:
  std::size_t n() const { return std::size_t{1} << (2 * rank()); }
  std::size_t rank() const { return std::get<0>(GetParam()); }
  int intprec() const {
    return (std::get<1>(GetParam()) ? 52 : 28) + static_cast<int>(rank()) + 1;
  }

  /// Seeded blocks: dense, sparse, all-zero, one-hot (first, middle and
  /// last position), and magnitudes decaying along the sequency order the
  /// way transformed smooth data does.
  std::vector<std::vector<std::uint64_t>> blocks() const {
    std::mt19937_64 rng(41 + rank() * 2 + std::get<1>(GetParam()));
    const std::uint64_t top = std::uint64_t{1} << intprec();
    auto below = [&](unsigned bitlen) {
      return bitlen == 0 ? 0 : rng() & ((std::uint64_t{1} << bitlen) - 1);
    };
    std::vector<std::vector<std::uint64_t>> out;
    std::vector<std::uint64_t> dense(n()), sparse(n(), 0), decay(n());
    for (auto& v : dense) v = rng() & (top - 1);
    for (auto& v : sparse)
      if (rng() % 8 == 0) v = below(static_cast<unsigned>(rng() % intprec()));
    for (std::size_t i = 0; i < n(); ++i)
      decay[i] = below(static_cast<unsigned>(
          intprec() - std::min<std::size_t>(intprec(), i * intprec() / n() +
                                                           rng() % 4)));
    out.push_back(dense);
    out.push_back(sparse);
    out.push_back(decay);
    out.emplace_back(n(), 0);
    for (const std::size_t at : {std::size_t{0}, n() / 2, n() - 1}) {
      std::vector<std::uint64_t> hot(n(), 0);
      hot[at] = (top >> 1) | below(static_cast<unsigned>(intprec() / 3));
      out.push_back(hot);
    }
    return out;
  }
};

// Every budget from 0 to the full length cuts the stream in the value pass,
// on a test bit, inside a zero run and on a group's closing one. The words,
// the bit count, the coefficients decoded and the bits consumed must all
// match the per-bit coder. The write position walks every word offset.
TEST_P(ZfpPlaneCoder, MatchesPerBitReferenceAtEveryBudget) {
  const std::size_t nn = n();
  const int P = intprec();
  for (const auto& u : blocks()) {
    BitWriter full;
    const std::size_t len =
        reference::encode_planes(full, u.data(), nn, P, SIZE_MAX / 2);
    for (std::size_t budget = 0; budget <= len; ++budget) {
      const std::size_t pos = budget % 64;
      BitWriter ref;
      ref.put(0, static_cast<unsigned>(pos));
      const std::size_t ref_bits =
          reference::encode_planes(ref, u.data(), nn, P, budget);
      std::vector<std::uint64_t> words(64, 0);
      const std::size_t bits =
          detail::encode_planes(words.data(), pos, u.data(), nn, P, budget);
      ASSERT_EQ(bits, ref_bits) << "budget " << budget;
      const auto rw = ref.words();
      for (std::size_t i = 0; i < words.size(); ++i)
        ASSERT_EQ(words[i], i < rw.size() ? rw[i] : 0)
            << "word " << i << " budget " << budget;

      const auto bytes = ref.to_bytes();
      BitReader rr(bytes, pos + ref_bits), rn(bytes, pos + ref_bits);
      rr.seek(pos);
      rn.seek(pos);
      std::vector<std::uint64_t> ur(nn), un(nn, ~std::uint64_t{0});
      reference::decode_planes(rr, ur.data(), nn, P, budget);
      detail::decode_planes(rn, un.data(), nn, P, budget);
      ASSERT_EQ(un, ur) << "budget " << budget;
      ASSERT_EQ(rn.position(), rr.position());
      if (budget == len) {
        EXPECT_EQ(ur, u);
      }
    }
  }
}

// An unbounded block (budget SIZE_MAX/2) read through a limit that cuts it
// anywhere before its end must throw, never read past the limit.
TEST_P(ZfpPlaneCoder, DecodeCutShortThrows) {
  const std::size_t nn = n();
  const int P = intprec();
  for (const auto& u : blocks()) {
    std::vector<std::uint64_t> words(64, 0);
    const std::size_t end = detail::encode_planes(words.data(), 0, u.data(),
                                                  nn, P, SIZE_MAX / 2);
    std::vector<std::uint8_t> bytes(words.size() * 8);
    std::memcpy(bytes.data(), words.data(), bytes.size());
    std::vector<std::uint64_t> out(nn);
    for (std::size_t limit = 0; limit < end; ++limit) {
      BitReader r(bytes, limit);
      EXPECT_THROW(
          detail::decode_planes(r, out.data(), nn, P, SIZE_MAX / 2), Error)
          << "limit " << limit << " of " << end;
    }
    BitReader whole(bytes, end);
    detail::decode_planes(whole, out.data(), nn, P, SIZE_MAX / 2);
    EXPECT_EQ(whole.position(), end);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RankDtype, ZfpPlaneCoder,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{3}),
                       ::testing::Bool()));

TEST(Zfp, BlockBitsMatchesRate) {
  EXPECT_EQ(block_bits(8.0, 3), 8u * 64);
  EXPECT_EQ(block_bits(16.0, 2), 16u * 16);
  EXPECT_EQ(block_bits(10.5, 1), 42u);
}

class ZfpRoundTrip : public ::testing::TestWithParam<const char*> {
 protected:
  Device dev_ = Device::serial();
  void SetUp() override { dev_ = machine::make_device(GetParam()); }
};

NDArray<float> smooth3d(std::size_t n) {
  NDArray<float> a(Shape{n, n, n});
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t k = 0; k < n; ++k)
        a.at(i, j, k) = std::sin(0.2 * double(i)) *
                            std::cos(0.15 * double(j)) +
                        0.3f * float(k) / float(n);
  return a;
}

TEST_P(ZfpRoundTrip, Smooth3DAccuracyImprovesWithRate) {
  auto data = smooth3d(20);
  double prev_err = 1e30;
  for (double rate : {4.0, 8.0, 12.0, 16.0}) {
    auto stream = compress(dev_, data.view(), rate);
    auto back = decode<float>(dev_, stream, data.shape());
    auto stats = compute_error_stats(data.span(), back.span());
    EXPECT_LT(stats.max_rel_error, prev_err + 1e-12) << "rate " << rate;
    prev_err = stats.max_rel_error;
  }
  EXPECT_LT(prev_err, 1e-3);  // 16 bits/value on smooth data is tight
}

TEST_P(ZfpRoundTrip, FixedRateSizeIsExact) {
  auto data = smooth3d(16);  // 64 whole blocks
  const double rate = 8.0;
  auto stream = compress(dev_, data.view(), rate);
  // Payload = blocks × block_bits, plus a small header.
  const std::size_t blocks = (16 / 4) * (16 / 4) * (16 / 4);
  const std::size_t payload = (blocks * block_bits(rate, 3) + 7) / 8;
  EXPECT_GE(stream.size(), payload);
  EXPECT_LT(stream.size(), payload + 64);
}

TEST_P(ZfpRoundTrip, PartialBlocksAtBoundaries) {
  // 9×7×5 exercises clipped blocks in every dimension.
  NDArray<float> a(Shape{9, 7, 5});
  std::mt19937_64 rng(9);
  std::normal_distribution<float> d(0.f, 1.f);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = d(rng);
  auto back = decode<float>(dev_, compress(dev_, a.view(), 24.0), a.shape());
  auto stats = compute_error_stats(a.span(), back.span());
  EXPECT_LT(stats.max_rel_error, 2e-2);  // random data, high rate
}

TEST_P(ZfpRoundTrip, DoublePrecisionHighRateIsVeryAccurate) {
  NDArray<double> a(Shape{12, 12, 12});
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = std::sin(0.01 * double(i)) * 1e6;
  auto back =
      decode<double>(dev_, compress(dev_, a.view(), 40.0), a.shape());
  auto stats = compute_error_stats(a.span(), back.span());
  EXPECT_LT(stats.max_rel_error, 1e-7);
}

TEST_P(ZfpRoundTrip, Rank1And2) {
  NDArray<float> v(Shape{1000});
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = std::cos(0.01f * float(i));
  auto b1 = decode<float>(dev_, compress(dev_, v.view(), 12.0), v.shape());
  EXPECT_LT(compute_error_stats(v.span(), b1.span()).max_rel_error, 1e-2);

  NDArray<float> m(Shape{33, 47});
  for (std::size_t i = 0; i < m.size(); ++i)
    m[i] = float(i % 100) * 0.01f;
  auto b2 = decode<float>(dev_, compress(dev_, m.view(), 16.0), m.shape());
  EXPECT_LT(compute_error_stats(m.span(), b2.span()).max_rel_error, 1e-2);
}

TEST_P(ZfpRoundTrip, Rank4FoldsAndRestoresShape) {
  NDArray<float> a(Shape{3, 5, 8, 6});
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = std::sin(0.05f * float(i));
  auto stream = compress(dev_, a.view(), 16.0);
  auto back = decode<float>(dev_, stream, a.shape());
  EXPECT_LT(compute_error_stats(a.span(), back.span()).max_rel_error, 1e-2);
}

TEST_P(ZfpRoundTrip, ZeroBlocksAndConstants) {
  NDArray<float> a(Shape{8, 8, 8}, 0.0f);
  auto back = decode<float>(dev_, compress(dev_, a.view(), 8.0), a.shape());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(back[i], 0.0f);

  NDArray<float> c(Shape{8, 8, 8}, 3.75f);
  auto backc =
      decode<float>(dev_, compress(dev_, c.view(), 12.0), c.shape());
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(backc[i], 3.75f, 1e-2f);
}

TEST_P(ZfpRoundTrip, LargeDynamicRange) {
  NDArray<float> a(Shape{16, 16, 16});
  std::mt19937_64 rng(13);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const int mag = static_cast<int>(rng() % 60) - 30;
    a[i] = std::ldexp(1.0f + 0.5f * float(rng() % 100) / 100.f, mag);
  }
  auto back = decode<float>(dev_, compress(dev_, a.view(), 20.0), a.shape());
  // Block floating point: error is relative to each block's max.
  auto stats = compute_error_stats(a.span(), back.span());
  EXPECT_LT(stats.max_rel_error, 1e-2);
}

INSTANTIATE_TEST_SUITE_P(Adapters, ZfpRoundTrip,
                         ::testing::Values("serial", "openmp", "V100", "stdthread"));


TEST(Zfp, PortableAcrossAdapters) {
  auto data = smooth3d(12);
  const Device gpu = machine::make_device("V100");
  const Device cpu = Device::serial();
  auto sg = compress(gpu, data.view(), 12.0);
  auto sc = compress(cpu, data.view(), 12.0);
  EXPECT_EQ(sg, sc);  // bitwise-identical streams on all adapters
  auto bg = decode<float>(cpu, sg, data.shape());
  auto bc = decode<float>(gpu, sc, data.shape());
  for (std::size_t i = 0; i < bg.size(); ++i) EXPECT_EQ(bg[i], bc[i]);
}

TEST(Zfp, DtypeMismatchThrows) {
  const Device dev = Device::serial();
  NDArray<float> a(Shape{8, 8, 8}, 1.0f);
  auto stream = compress(dev, a.view(), 8.0);
  EXPECT_THROW(decode<double>(dev, stream, a.shape()), Error);
}

TEST(Zfp, CorruptStreamThrows) {
  const Device dev = Device::serial();
  NDArray<float> a(Shape{8, 8, 8}, 1.0f);
  auto stream = compress(dev, a.view(), 8.0);
  stream.resize(stream.size() / 2);
  EXPECT_THROW(decode<float>(dev, stream, a.shape()), Error);
}


// The rate sizes every block, so the decoder takes only a rate compress()
// can write, and only its one mode byte. The stream is rank 1, where a rate
// of 1.0 leaves no room for the block exponent.
TEST(Zfp, CorruptRateOrModeThrows) {
  const Device dev = Device::serial();
  NDArray<float> a(Shape{64});
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = std::sin(0.1f * float(i));
  const auto stream = compress(dev, a.view(), 8.0);
  // Magic, version, dtype, rank, one varint extent, the mode byte, the rate.
  constexpr std::size_t kModeAt = 5, kRateAt = 6;
  ASSERT_EQ(stream[kModeAt], 0);
  ASSERT_EQ(ByteReader(std::span(stream).subspan(kRateAt, 8)).get_f64(), 8.0);
  for (const double rate : {std::nan(""), 1e30, -5.0, 1.0}) {
    ByteWriter w;
    w.put_f64(rate);
    const auto bytes = w.take();
    auto patched = stream;
    std::copy(bytes.begin(), bytes.end(), patched.begin() + kRateAt);
    EXPECT_THROW(decode<float>(dev, patched, a.shape()), Error)
        << "rate " << rate;
  }
  for (const std::uint8_t mode : {1, 2, 255}) {
    auto patched = stream;
    patched[kModeAt] = mode;
    EXPECT_THROW(decode<float>(dev, patched, a.shape()), Error)
        << "mode " << +mode;
  }
}

// std::max drops NaNs, so a NaN among finite values must not reach the
// fixed-point cast: its block is stored like one holding +Inf (the all-zero
// exponent marker) and decodes to zeros; the other blocks are untouched.
TEST(Zfp, NanBlockStoredLikeInfBlock) {
  const Device dev = Device::serial();
  const auto clean = smooth3d(8);
  auto with_nan = smooth3d(8), with_inf = smooth3d(8);
  with_nan.at(1, 2, 3) = std::numeric_limits<float>::quiet_NaN();
  with_inf.at(1, 2, 3) = std::numeric_limits<float>::infinity();
  const auto stream = compress(dev, with_nan.view(), 8.0);
  EXPECT_EQ(stream, compress(dev, with_inf.view(), 8.0));
  const auto back = decode<float>(dev, stream, clean.shape());
  const auto ref =
      decode<float>(dev, compress(dev, clean.view(), 8.0), clean.shape());
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 8; ++j)
      for (std::size_t k = 0; k < 8; ++k)
        EXPECT_EQ(back.at(i, j, k),
                  i < 4 && j < 4 && k < 4 ? 0.0f : ref.at(i, j, k))
            << i << "," << j << "," << k;
}

}  // namespace
}  // namespace hpdr::zfp
