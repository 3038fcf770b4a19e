// Tests for ZFP-X fixed-rate compression: transform invertibility,
// negabinary mapping, the bitplane coder against its per-bit reference,
// rate exactness, accuracy-vs-rate, and adapter portability.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>

#include "algorithms/zfp/zfp.hpp"
#include "core/bitstream.hpp"
#include "core/stats.hpp"
#include "machine/device_registry.hpp"
#include "zfp_reference.hpp"

namespace hpdr::zfp {
namespace {

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
  std::vector<int> kmins() const { return {0, intprec() / 2, intprec() - 1}; }

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
  for (const int kmin : kmins()) {
    for (const auto& u : blocks()) {
      BitWriter full;
      const std::size_t len =
          reference::encode_planes(full, u.data(), nn, P, SIZE_MAX / 2, kmin);
      for (std::size_t budget = 0; budget <= len; ++budget) {
        const std::size_t pos = budget % 64;
        BitWriter ref;
        ref.put(0, static_cast<unsigned>(pos));
        const std::size_t ref_bits =
            reference::encode_planes(ref, u.data(), nn, P, budget, kmin);
        std::vector<std::uint64_t> words(64, 0);
        const std::size_t bits = detail::encode_planes(
            words.data(), pos, u.data(), nn, P, budget, kmin);
        ASSERT_EQ(bits, ref_bits) << "kmin " << kmin << " budget " << budget;
        const auto rw = ref.words();
        for (std::size_t i = 0; i < words.size(); ++i)
          ASSERT_EQ(words[i], i < rw.size() ? rw[i] : 0)
              << "word " << i << " kmin " << kmin << " budget " << budget;

        const auto bytes = ref.to_bytes();
        BitReader rr(bytes, pos + ref_bits), rn(bytes, pos + ref_bits);
        rr.seek(pos);
        rn.seek(pos);
        std::vector<std::uint64_t> ur(nn), un(nn, ~std::uint64_t{0});
        reference::decode_planes(rr, ur.data(), nn, P, budget, kmin);
        detail::decode_planes(rn, un.data(), nn, P, budget, kmin);
        ASSERT_EQ(un, ur) << "kmin " << kmin << " budget " << budget;
        ASSERT_EQ(rn.position(), rr.position());
        if (budget == len && kmin == 0) {
          EXPECT_EQ(ur, u);
        }
      }
    }
  }
}

// A variable-mode block (budget SIZE_MAX/2) read through a limit that cuts
// it anywhere before its end must throw, never read past the limit.
TEST_P(ZfpPlaneCoder, DecodeCutShortThrows) {
  const std::size_t nn = n();
  const int P = intprec();
  for (const int kmin : kmins()) {
    for (const auto& u : blocks()) {
      std::vector<std::uint64_t> words(64, 0);
      const std::size_t end = detail::encode_planes(
          words.data(), 0, u.data(), nn, P, SIZE_MAX / 2, kmin);
      std::vector<std::uint8_t> bytes(words.size() * 8);
      std::memcpy(bytes.data(), words.data(), bytes.size());
      std::vector<std::uint64_t> out(nn);
      for (std::size_t limit = 0; limit < end; ++limit) {
        BitReader r(bytes, limit);
        EXPECT_THROW(detail::decode_planes(r, out.data(), nn, P,
                                           SIZE_MAX / 2, kmin),
                     Error)
            << "kmin " << kmin << " limit " << limit << " of " << end;
      }
      BitReader whole(bytes, end);
      detail::decode_planes(whole, out.data(), nn, P, SIZE_MAX / 2, kmin);
      EXPECT_EQ(whole.position(), end);
    }
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
    auto back = decompress_f32(dev_, stream);
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
  auto back = decompress_f32(dev_, compress(dev_, a.view(), 24.0));
  ASSERT_EQ(back.shape(), a.shape());
  auto stats = compute_error_stats(a.span(), back.span());
  EXPECT_LT(stats.max_rel_error, 2e-2);  // random data, high rate
}

TEST_P(ZfpRoundTrip, DoublePrecisionHighRateIsVeryAccurate) {
  NDArray<double> a(Shape{12, 12, 12});
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = std::sin(0.01 * double(i)) * 1e6;
  auto back = decompress_f64(dev_, compress(dev_, a.view(), 40.0));
  auto stats = compute_error_stats(a.span(), back.span());
  EXPECT_LT(stats.max_rel_error, 1e-7);
}

TEST_P(ZfpRoundTrip, Rank1And2) {
  NDArray<float> v(Shape{1000});
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = std::cos(0.01f * float(i));
  auto b1 = decompress_f32(dev_, compress(dev_, v.view(), 12.0));
  EXPECT_LT(compute_error_stats(v.span(), b1.span()).max_rel_error, 1e-2);

  NDArray<float> m(Shape{33, 47});
  for (std::size_t i = 0; i < m.size(); ++i)
    m[i] = float(i % 100) * 0.01f;
  auto b2 = decompress_f32(dev_, compress(dev_, m.view(), 16.0));
  EXPECT_LT(compute_error_stats(m.span(), b2.span()).max_rel_error, 1e-2);
}

TEST_P(ZfpRoundTrip, Rank4FoldsAndRestoresShape) {
  NDArray<float> a(Shape{3, 5, 8, 6});
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = std::sin(0.05f * float(i));
  auto stream = compress(dev_, a.view(), 16.0);
  auto back = decompress_f32(dev_, stream);
  EXPECT_EQ(back.shape(), a.shape());
  EXPECT_LT(compute_error_stats(a.span(), back.span()).max_rel_error, 1e-2);
}

TEST_P(ZfpRoundTrip, ZeroBlocksAndConstants) {
  NDArray<float> a(Shape{8, 8, 8}, 0.0f);
  auto back = decompress_f32(dev_, compress(dev_, a.view(), 8.0));
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(back[i], 0.0f);

  NDArray<float> c(Shape{8, 8, 8}, 3.75f);
  auto backc = decompress_f32(dev_, compress(dev_, c.view(), 12.0));
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
  auto back = decompress_f32(dev_, compress(dev_, a.view(), 20.0));
  // Block floating point: error is relative to each block's max.
  auto stats = compute_error_stats(a.span(), back.span());
  EXPECT_LT(stats.max_rel_error, 1e-2);
}

INSTANTIATE_TEST_SUITE_P(Adapters, ZfpRoundTrip,
                         ::testing::Values("serial", "openmp", "V100", "stdthread"));


TEST(ZfpRegion, RandomAccessMatchesFullDecode) {
  const Device dev = Device::serial();
  auto data = smooth3d(24);
  auto stream = compress(dev, data.view(), 12.0);
  auto full = decompress_f32(dev, stream);
  // Regions: block-aligned, unaligned, single point, whole tensor.
  struct R {
    Shape lo, hi;
  };
  for (const R& r : {R{{0, 0, 0}, {8, 8, 8}},
                     R{{3, 5, 7}, {17, 13, 11}},
                     R{{10, 10, 10}, {11, 11, 11}},
                     R{{0, 0, 0}, {24, 24, 24}}}) {
    auto region = decompress_region_f32(dev, stream, r.lo, r.hi);
    Shape expect = Shape::of_rank(3);
    for (std::size_t d = 0; d < 3; ++d) expect[d] = r.hi[d] - r.lo[d];
    ASSERT_EQ(region.shape(), expect);
    for (std::size_t i = 0; i < expect[0]; ++i)
      for (std::size_t j = 0; j < expect[1]; ++j)
        for (std::size_t k = 0; k < expect[2]; ++k)
          ASSERT_EQ(region.at(i, j, k),
                    full.at(r.lo[0] + i, r.lo[1] + j, r.lo[2] + k));
  }
}


TEST(ZfpRegion, TwoDimensionalRegions) {
  const Device dev = Device::serial();
  NDArray<float> a(Shape{20, 28});
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = std::sin(0.03f * float(i));
  auto stream = compress(dev, a.view(), 14.0);
  auto full = decompress_f32(dev, stream);
  auto region = decompress_region_f32(dev, stream, Shape{5, 9},
                                      Shape{18, 23});
  for (std::size_t i = 0; i < 13; ++i)
    for (std::size_t j = 0; j < 14; ++j)
      ASSERT_EQ(region[i * 14 + j], full[(5 + i) * 28 + (9 + j)]);
}

TEST(ZfpRegion, InvalidRequestsThrow) {
  const Device dev = Device::serial();
  auto data = smooth3d(12);
  auto rate_stream = compress(dev, data.view(), 8.0);
  EXPECT_THROW(
      decompress_region_f32(dev, rate_stream, Shape{0, 0, 0},
                            Shape{13, 4, 4}),
      Error);  // out of bounds
  EXPECT_THROW(
      decompress_region_f32(dev, rate_stream, Shape{4, 4}, Shape{8, 8}),
      Error);  // rank mismatch
  auto acc_stream = compress_accuracy(dev, data.view(), 1e-3);
  EXPECT_THROW(decompress_region_f32(dev, acc_stream, Shape{0, 0, 0},
                                     Shape{4, 4, 4}),
               Error);  // variable-length mode has no random access
}

TEST(Zfp, PortableAcrossAdapters) {
  auto data = smooth3d(12);
  const Device gpu = machine::make_device("V100");
  const Device cpu = Device::serial();
  auto sg = compress(gpu, data.view(), 12.0);
  auto sc = compress(cpu, data.view(), 12.0);
  EXPECT_EQ(sg, sc);  // bitwise-identical streams on all adapters
  auto bg = decompress_f32(cpu, sg);
  auto bc = decompress_f32(gpu, sc);
  for (std::size_t i = 0; i < bg.size(); ++i) EXPECT_EQ(bg[i], bc[i]);
}

TEST(Zfp, DtypeMismatchThrows) {
  const Device dev = Device::serial();
  NDArray<float> a(Shape{8, 8, 8}, 1.0f);
  auto stream = compress(dev, a.view(), 8.0);
  EXPECT_THROW(decompress_f64(dev, stream), Error);
}

TEST(Zfp, CorruptStreamThrows) {
  const Device dev = Device::serial();
  NDArray<float> a(Shape{8, 8, 8}, 1.0f);
  auto stream = compress(dev, a.view(), 8.0);
  stream.resize(stream.size() / 2);
  EXPECT_THROW(decompress_f32(dev, stream), Error);
}


// ---------------------------------------------------------------------------
// Fixed-precision and fixed-accuracy modes (§IV-C: "the other two modes can
// be implemented similarly" — implemented and tested here).
// ---------------------------------------------------------------------------

TEST(ZfpModes, StreamModeIsSelfDescribing) {
  const Device dev = Device::serial();
  auto data = smooth3d(8);
  EXPECT_EQ(stream_mode(compress(dev, data.view(), 8.0)),
            ZfpMode::FixedRate);
  EXPECT_EQ(stream_mode(compress_precision(dev, data.view(), 16)),
            ZfpMode::FixedPrecision);
  EXPECT_EQ(stream_mode(compress_accuracy(dev, data.view(), 1e-3)),
            ZfpMode::FixedAccuracy);
}

TEST(ZfpModes, PrecisionControlsErrorMonotonically) {
  const Device dev = Device::serial();
  auto data = smooth3d(16);
  double prev_err = 1e30;
  std::size_t prev_size = 0;
  for (unsigned prec : {8u, 16u, 24u, 31u}) {
    auto stream = compress_precision(dev, data.view(), prec);
    auto back = decompress_f32(dev, stream);
    auto stats = compute_error_stats(data.span(), back.span());
    EXPECT_LE(stats.max_rel_error, prev_err + 1e-12) << prec;
    EXPECT_GT(stream.size(), prev_size) << prec;  // more planes, more bits
    prev_err = stats.max_rel_error;
    prev_size = stream.size();
  }
  EXPECT_LT(prev_err, 1e-5);
}

class ZfpAccuracyBound
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(ZfpAccuracyBound, AbsoluteToleranceHolds) {
  const auto& [tol, seed] = GetParam();
  const Device dev = Device::serial();
  NDArray<float> a(Shape{19, 13, 11});
  std::mt19937_64 rng(static_cast<unsigned>(seed));
  std::normal_distribution<float> d(0.f, 4.f);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = d(rng);
  auto stream = compress_accuracy(dev, a.view(), tol);
  auto back = decompress_f32(dev, stream);
  auto stats = compute_error_stats(a.span(), back.span());
  EXPECT_LE(stats.max_abs_error, tol) << "tol=" << tol;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ZfpAccuracyBound,
    ::testing::Combine(::testing::Values(1.0, 1e-2, 1e-4, 1e-6),
                       ::testing::Values(1, 2, 3)));

TEST(ZfpModes, AccuracySizeShrinksWithLooserTolerance) {
  const Device dev = Device::serial();
  auto data = smooth3d(16);
  std::size_t prev = SIZE_MAX;
  for (double tol : {1e-6, 1e-4, 1e-2, 1.0}) {
    auto stream = compress_accuracy(dev, data.view(), tol);
    EXPECT_LT(stream.size(), prev) << tol;
    prev = stream.size();
  }
}

TEST(ZfpModes, AccuracySpendsBitsWhereMagnitudeLives) {
  // Fixed-accuracy allocates per block: blocks far below the tolerance
  // need (almost) no planes. A field whose lower half is ~1e-5 must cost
  // fewer bytes than the same field with both halves at full magnitude,
  // at the same absolute tolerance.
  const Device dev = Device::serial();
  std::mt19937_64 rng(7);
  std::normal_distribution<float> d(0.f, 1.f);
  NDArray<float> mixed(Shape{32, 32}), loud(Shape{32, 32});
  for (std::size_t i = 0; i < 32; ++i)
    for (std::size_t j = 0; j < 32; ++j) {
      const float noise = d(rng);
      loud[i * 32 + j] = 100.0f * noise;
      mixed[i * 32 + j] = (i < 16 ? 1e-5f : 100.0f) * noise;
    }
  const double tol = 1e-3;
  auto s_mixed = compress_accuracy(dev, mixed.view(), tol);
  auto s_loud = compress_accuracy(dev, loud.view(), tol);
  EXPECT_LT(s_mixed.size(), s_loud.size() * 3 / 4);
  auto back = decompress_f32(dev, s_mixed);
  EXPECT_LE(compute_error_stats(mixed.span(), back.span()).max_abs_error,
            tol);
}

TEST(ZfpModes, VariableModesPortableAcrossAdapters) {
  auto data = smooth3d(12);
  const Device cpu = Device::serial();
  const Device gpu = machine::make_device("V100");
  EXPECT_EQ(compress_precision(cpu, data.view(), 20),
            compress_precision(gpu, data.view(), 20));
  EXPECT_EQ(compress_accuracy(cpu, data.view(), 1e-4),
            compress_accuracy(gpu, data.view(), 1e-4));
}

TEST(ZfpModes, InvalidParamsThrow) {
  const Device dev = Device::serial();
  auto data = smooth3d(8);
  EXPECT_THROW(compress_precision(dev, data.view(), 0), Error);
  EXPECT_THROW(compress_accuracy(dev, data.view(), 0.0), Error);
  EXPECT_THROW(compress_accuracy(dev, data.view(), -1.0), Error);
}

}  // namespace
}  // namespace hpdr::zfp
