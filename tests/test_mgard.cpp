// Tests for MGARD-X: hierarchy structure, transform invertibility,
// error-bound guarantees, compression ratios, and adapter portability.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>

#include "algorithms/mgard/hierarchy.hpp"
#include "algorithms/mgard/mgard.hpp"
#include "algorithms/mgard/quantize.hpp"
#include "algorithms/mgard/transform.hpp"
#include "core/stats.hpp"
#include "machine/device_registry.hpp"
#include "mgard_reference.hpp"

namespace hpdr::mgard {
namespace {

/// Decompresses `stream` into a fresh tensor of `shape`.
template <class T>
NDArray<T> decode(const Device& dev, std::span<const std::uint8_t> stream,
                  const Shape& shape) {
  NDArray<T> out(shape);
  decompress(dev, stream, out.view());
  return out;
}

TEST(Hierarchy, LevelDimsFollowCoarsening) {
  Hierarchy h(Shape{9, 9, 9});
  EXPECT_EQ(h.num_levels(), 3u);  // floor(log2(8)) = 3
  EXPECT_EQ(h.level_dim(3, 0), 9u);
  EXPECT_EQ(h.level_dim(2, 0), 5u);
  EXPECT_EQ(h.level_dim(1, 0), 3u);
  EXPECT_EQ(h.level_dim(0, 0), 2u);
}

TEST(Hierarchy, NonDyadicAndAnisotropicShapes) {
  Hierarchy h(Shape{37, 6});
  // L limited by the smaller dimension: floor(log2(5)) = 2.
  EXPECT_EQ(h.num_levels(), 2u);
  EXPECT_EQ(h.level_dim(2, 0), 37u);
  EXPECT_EQ(h.level_dim(1, 0), 19u);
  EXPECT_EQ(h.level_dim(0, 0), 10u);
  EXPECT_EQ(h.level_dim(0, 1), 2u);
}

TEST(Hierarchy, LevelOfPartitionsAllNodes) {
  Hierarchy h(Shape{17, 17});
  ASSERT_EQ(h.num_levels(), 4u);
  std::vector<std::size_t> per_level(h.num_levels() + 1, 0);
  for (std::size_t i = 0; i < 17 * 17; ++i) ++per_level[h.level_of(i)];
  // Level counts: cumulative grid sizes are 2², 3², 5², 9², 17².
  EXPECT_EQ(per_level[0], 4u);
  EXPECT_EQ(per_level[1], 9u - 4u);
  EXPECT_EQ(per_level[2], 25u - 9u);
  EXPECT_EQ(per_level[3], 81u - 25u);
  EXPECT_EQ(per_level[4], 289u - 81u);
}

TEST(Hierarchy, LevelOrderIsAPermutationGroupedByLevel) {
  Hierarchy h(Shape{9, 5, 5});
  const auto& order = h.level_order();
  std::vector<bool> seen(order.size(), false);
  for (auto i : order) {
    ASSERT_LT(i, seen.size());
    EXPECT_FALSE(seen[i]);
    seen[i] = true;
  }
  const auto& subsets = h.level_subsets();
  for (const auto& s : subsets)
    for (std::size_t p = s.begin; p < s.end; ++p)
      EXPECT_EQ(h.level_of(order[p]), s.id);
}

TEST(Hierarchy, RejectsTinyDimensions) {
  EXPECT_THROW(Hierarchy(Shape{2, 9}), Error);
}

TEST(TridiagSolverTest, SolvesMassSystem) {
  const std::size_t n = 7;
  TridiagSolver s(n);
  // Build M explicitly and verify M x = rhs.
  std::vector<double> rhs{1, -2, 3, 0, 5, -1, 2};
  std::vector<double> x(rhs);
  s.solve(x.data(), n, 1);
  for (std::size_t j = 0; j < n; ++j) {
    const double diag = (j == 0 || j == n - 1) ? 2.0 / 3.0 : 4.0 / 3.0;
    double mx = diag * x[j];
    if (j > 0) mx += x[j - 1] / 3.0;
    if (j + 1 < n) mx += x[j + 1] / 3.0;
    EXPECT_NEAR(mx, rhs[j], 1e-12) << j;
  }
}

// std::string, not const char*: gtest prints a char pointer's address into
// the test name, which would change on every build.
class TransformInvertibility
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(TransformInvertibility, DecomposeRecomposeIsIdentity) {
  const auto& [devname, rank] = GetParam();
  const Device dev = machine::make_device(devname);
  Shape shape = rank == 1   ? Shape{129}
                : rank == 2 ? Shape{33, 21}
                : rank == 3 ? Shape{17, 12, 9}
                            : Shape{5, 7, 9, 6};
  Hierarchy h(shape);
  NDArray<double> a(shape);
  std::mt19937_64 rng(19);
  std::normal_distribution<double> d(0.0, 10.0);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = d(rng);
  NDArray<double> orig = a;
  decompose(dev, h, a.data());
  // The transform must actually change the data (decorrelation happened).
  bool changed = false;
  for (std::size_t i = 0; i < a.size() && !changed; ++i)
    changed = a[i] != orig[i];
  EXPECT_TRUE(changed);
  recompose(dev, h, a.data());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(a[i], orig[i], 1e-9) << i;
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndAdapters, TransformInvertibility,
    ::testing::Combine(::testing::Values(std::string("serial"),
                                         std::string("openmp"),
                                         std::string("V100"),
                                         std::string("stdthread")),
                       ::testing::Values(1, 2, 3, 4)));

TEST(Transform, SmoothDataYieldsSmallCoefficients) {
  // On a smooth field, multilevel coefficients at the finest level are tiny
  // relative to the data — the whole point of the decomposition.
  Shape shape{65, 65};
  Hierarchy h(shape);
  NDArray<double> a(shape);
  for (std::size_t i = 0; i < 65; ++i)
    for (std::size_t j = 0; j < 65; ++j)
      a[i * 65 + j] = std::sin(0.1 * double(i)) * std::cos(0.08 * double(j));
  const Device dev = Device::serial();
  decompose(dev, h, a.data());
  double max_fine = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (h.level_of(i) == h.num_levels())
      max_fine = std::max(max_fine, std::abs(a[i]));
  EXPECT_LT(max_fine, 0.01);  // data range is ~2
}

TEST(LevelBin, ErrorBudgetSumsWithinBound) {
  // Per-level worst-case contribution is 2.5·rank·τ_l/2; the sum over all
  // levels must not exceed the absolute bound (see level_bin's derivation),
  // and the finest level must receive the dominant share of the budget.
  const double eb = 1e-3;
  for (std::size_t rank : {1u, 2u, 3u, 4u}) {
    for (std::size_t L : {3u, 6u, 9u}) {
      double total = 0;
      for (std::size_t l = 0; l <= L; ++l) {
        total += 2.5 * double(rank) * level_bin(eb, l, L, rank) / 2.0;
        if (l > 0) {
          EXPECT_LT(level_bin(eb, l - 1, L, rank), level_bin(eb, l, L, rank));
        }
      }
      EXPECT_LE(total, eb * 1.000001);
      EXPECT_GE(total, eb * 0.8);  // budget mostly used (ratio matters)
    }
  }
}

// ---------------------------------------------------------------------------
// Level-step differential: the lockstep group kernel against the per-pencil
// level step it replaced, frozen in tests/mgard_reference.hpp. Each lane
// must run the same IEEE operations in the same order, so the outputs must
// be bit-equal.
// ---------------------------------------------------------------------------

enum class Grid { Uniform, NonUniform, Mixed };

std::string to_string(Grid g) {
  return g == Grid::Uniform ? "Uniform"
         : g == Grid::NonUniform ? "NonUniform"
                                 : "Mixed";
}

template <class T>
void expect_level_steps_match_reference(const Device& dev, const Shape& shape,
                                        Grid grid) {
  std::mt19937_64 rng(shape.size() * 31 + static_cast<unsigned>(grid));
  std::vector<std::vector<double>> coords(shape.rank());
  if (grid != Grid::Uniform)
    for (std::size_t d = 0; d < shape.rank(); ++d) {
      if (grid == Grid::Mixed && d % 2 == 1) continue;  // uniform dim
      std::uniform_real_distribution<double> gap(0.25, 2.0);
      double x = -1.0;
      for (std::size_t i = 0; i < shape[d]; ++i) coords[d].push_back(x += gap(rng));
    }
  const Hierarchy h(shape, coords);
  std::normal_distribution<double> noise(0.0, 3.0);
  std::vector<T> input(shape.size());
  for (std::size_t i = 0; i < input.size(); ++i)
    input[i] = static_cast<T>(std::sin(0.01 * double(i)) + noise(rng));

  // The reference runs serially: its pencils are independent, so its
  // output does not depend on the adapter.
  const Device serial = Device::serial();
  std::vector<T> fast = input, slow = input;
  decompose(dev, h, fast.data());
  reference::decompose(serial, h, slow.data());
  EXPECT_EQ(std::memcmp(fast.data(), slow.data(), fast.size() * sizeof(T)), 0)
      << "decompose differs";
  // Recompose the same coefficients through both paths.
  slow = fast;
  recompose(dev, h, fast.data());
  reference::recompose(serial, h, slow.data());
  EXPECT_EQ(std::memcmp(fast.data(), slow.data(), fast.size() * sizeof(T)), 0)
      << "recompose differs";
}

class LevelStepDifferential
    : public ::testing::TestWithParam<std::tuple<std::string, Grid>> {};

TEST_P(LevelStepDifferential, BitEqualToPerPencilReference) {
  const auto& [devname, grid] = GetParam();
  const Device dev = machine::make_device(devname);
  // Ranks 1–4; 3-wide, odd, non-dyadic and anisotropic sizes, and lane
  // counts that are not a multiple of the group width (65, 7, 100, 8).
  for (const Shape& shape :
       {Shape{77}, Shape{100, 7}, Shape{33, 3, 65}, Shape{16, 128, 128},
        Shape{5, 6, 7, 8}}) {
    SCOPED_TRACE(shape.to_string());
    expect_level_steps_match_reference<float>(dev, shape, grid);
    expect_level_steps_match_reference<double>(dev, shape, grid);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AdaptersAndGrids, LevelStepDifferential,
    ::testing::Combine(::testing::Values(std::string("serial"),
                                         std::string("openmp"),
                                         std::string("V100"),
                                         std::string("stdthread")),
                       ::testing::Values(Grid::Uniform, Grid::NonUniform,
                                         Grid::Mixed)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" + to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// The quantizer's range kernel (the host's ISA instance) against its
// definition, symbol_of(quantize(c, bin)), on the coefficients where a
// rounding rule or a range test shows: exact ties (k + ½)·bin, the
// dictionary edges ±R, and values that are not finite numbers.
// ---------------------------------------------------------------------------

template <class T>
void expect_range_kernel_matches_rule(double bin) {
  constexpr double kR = static_cast<double>(kQuantRadius);
  std::vector<double> c;
  for (int k = -6; k <= 5; ++k) c.push_back((k + 0.5) * bin);
  for (const double m : {kR - 0.5, kR, kR - 1, kR + 0.5, kR - 1.5, kR + 1})
    for (const double sign : {1.0, -1.0}) c.push_back(sign * m * bin);
  for (const double x :
       {std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(), 1e300, -1e300,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        static_cast<double>(std::numeric_limits<float>::denorm_min()), 0.0,
        -0.0})
    c.push_back(x);
  std::mt19937_64 rng(7);
  std::normal_distribution<double> noise(0.0, 100.0 * bin);
  for (int i = 0; i < 45; ++i) c.push_back(noise(rng));
  std::vector<T> coef(c.begin(), c.end());
  // Read through a reversed order, so the kernel's gather is exercised.
  std::vector<std::uint64_t> order(coef.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    order[i] = order.size() - 1 - i;
  std::vector<std::uint32_t> symbols(coef.size(), 12345);
  quantize_range(coef.data(), order.data(), bin, symbols.data(),
                 symbols.size());
  for (std::size_t i = 0; i < coef.size(); ++i) {
    const T x = coef[order[i]];
    EXPECT_EQ(symbols[i],
              symbol_of(quantize(static_cast<double>(x), bin)))
        << "coefficient " << x << ", bin " << bin;
  }
}

TEST(MgardQuantize, RangeKernelMatchesPerElementRule) {
  // Ties round to even (std::round or floor(x + ½) would move half of
  // them), −(R + ½) rounds into the dictionary, (R − ½) rounds out of it,
  // and NaN and ±inf are outliers (symbol 0).
  for (const double bin : {1.0, 0.25, 0.1, 3.0}) {
    expect_range_kernel_matches_rule<float>(bin);
    expect_range_kernel_matches_rule<double>(bin);
  }
}

// ---------------------------------------------------------------------------
// Error-bound property tests: the compressor's contract is
// L∞(u − û) ≤ rel_eb · range(u) for every input.
// ---------------------------------------------------------------------------

class MgardErrorBound
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(MgardErrorBound, RandomFieldsRespectBound) {
  const auto& [rel_eb, seed] = GetParam();
  const Device dev = Device::serial();
  std::mt19937_64 rng(static_cast<unsigned>(seed));
  std::normal_distribution<float> d(0.f, 5.f);
  NDArray<float> a(Shape{31, 17, 23});
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = d(rng);
  auto stream = compress(dev, a.view(), rel_eb);
  auto back = decode<float>(dev, stream, a.shape());
  auto stats = compute_error_stats(a.span(), back.span());
  EXPECT_LE(stats.max_rel_error, rel_eb * 1.0001)
      << "eb=" << rel_eb << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MgardErrorBound,
    ::testing::Combine(::testing::Values(1e-1, 1e-2, 1e-3, 1e-4),
                       ::testing::Values(1, 2, 3, 4, 5)));

TEST(Mgard, SmoothFieldCompressesFarBetterThanNoise) {
  const Device dev = Device::serial();
  Shape shape{65, 65, 65};
  NDArray<float> smooth(shape), noise(shape);
  std::mt19937_64 rng(23);
  std::normal_distribution<float> d(0.f, 1.f);
  for (std::size_t i = 0; i < 65; ++i)
    for (std::size_t j = 0; j < 65; ++j)
      for (std::size_t k = 0; k < 65; ++k) {
        smooth.at(i, j, k) =
            std::sin(0.1f * float(i)) * std::cos(0.07f * float(j)) +
            0.5f * std::sin(0.05f * float(k));
        noise.at(i, j, k) = d(rng);
      }
  const double eb = 1e-3;
  auto cs = compress(dev, smooth.view(), eb);
  auto cn = compress(dev, noise.view(), eb);
  const double ratio_smooth =
      compression_ratio(smooth.size_bytes(), cs.size());
  const double ratio_noise = compression_ratio(noise.size_bytes(), cn.size());
  EXPECT_GT(ratio_smooth, 4 * ratio_noise);
  EXPECT_GT(ratio_smooth, 10.0);
}

TEST(Mgard, RatioGrowsAsBoundLoosens) {
  const Device dev = Device::serial();
  NDArray<float> a(Shape{33, 33, 33});
  for (std::size_t i = 0; i < 33; ++i)
    for (std::size_t j = 0; j < 33; ++j)
      for (std::size_t k = 0; k < 33; ++k)
        a.at(i, j, k) = std::exp(-0.01f * float((i - 16) * (i - 16) +
                                                (j - 16) * (j - 16))) *
                        std::sin(0.2f * float(k));
  double prev_ratio = 0;
  for (double eb : {1e-6, 1e-4, 1e-2}) {
    auto stream = compress(dev, a.view(), eb);
    const double ratio = compression_ratio(a.size_bytes(), stream.size());
    EXPECT_GT(ratio, prev_ratio);
    prev_ratio = ratio;
    auto stats = compute_error_stats(
        a.span(), decode<float>(dev, stream, a.shape()).span());
    EXPECT_LE(stats.max_rel_error, eb);
  }
}

TEST(Mgard, DoublePrecision4D) {
  // XGC-like: 4-D double field.
  const Device dev = Device::serial();
  NDArray<double> a(Shape{4, 9, 33, 7});
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = std::sin(0.01 * double(i)) + 1e3;
  auto stream = compress(dev, a.view(), 1e-4);
  auto back = decode<double>(dev, stream, a.shape());
  auto stats = compute_error_stats(a.span(), back.span());
  EXPECT_LE(stats.max_rel_error, 1e-4);
}

TEST(Mgard, ConstantFieldIsExactAndTiny) {
  const Device dev = Device::serial();
  NDArray<float> a(Shape{17, 17, 17}, 42.0f);
  auto stream = compress(dev, a.view(), 1e-3);
  auto back = decode<float>(dev, stream, a.shape());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(back[i], 42.0f, 42.0f * 1e-3f);
  EXPECT_LT(stream.size(), a.size_bytes() / 20);
}

TEST(Mgard, TinyInputsStoredRaw) {
  const Device dev = Device::serial();
  NDArray<float> a(Shape{2, 2}, 1.5f);
  auto stream = compress(dev, a.view(), 1e-2);
  auto back = decode<float>(dev, stream, a.shape());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(back[i], 1.5f);
}

TEST(Mgard, ThinDimensionsAreNormalized) {
  const Device dev = Device::serial();
  // A 2×512×512 chunk (as the chunked pipeline produces): dim 0 merges.
  NDArray<float> a(Shape{2, 48, 48});
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = std::sin(0.01f * float(i));
  auto stream = compress(dev, a.view(), 1e-3);
  auto back = decode<float>(dev, stream, a.shape());
  auto stats = compute_error_stats(a.span(), back.span());
  EXPECT_LE(stats.max_rel_error, 1e-3);
}


// ---------------------------------------------------------------------------
// s-norm quantization (QoI-oriented bins).
// ---------------------------------------------------------------------------

TEST(MgardSnorm, ZeroMatchesDefaultExactly) {
  const Device dev = Device::serial();
  NDArray<float> a(Shape{17, 17, 17});
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = std::sin(0.05f * float(i));
  EXPECT_EQ(compress(dev, a.view(), 1e-3),
            compress(dev, a.view(), 1e-3, 0.0));
}

TEST(MgardSnorm, RatioImprovesWithS) {
  const Device dev = Device::serial();
  NDArray<float> a(Shape{33, 33, 33});
  std::mt19937_64 rng(5);
  std::normal_distribution<float> d(0.f, 1.f);
  for (std::size_t i = 0; i < 33; ++i)
    for (std::size_t j = 0; j < 33; ++j)
      for (std::size_t k = 0; k < 33; ++k)
        a.at(i, j, k) =
            std::sin(0.1f * float(i + j)) + 0.05f * d(rng);  // rough fines
  double prev = 0;
  for (double snorm : {0.0, 0.5, 1.0}) {
    const double ratio =
        compression_ratio(a.size_bytes(),
                          compress(dev, a.view(), 1e-3, snorm).size());
    EXPECT_GT(ratio, prev) << "s=" << snorm;
    prev = ratio;
  }
}

TEST(MgardSnorm, AveragesPreservedWhilePointwiseRelaxes) {
  // The QoI claim: a smooth quantity of interest (the global average)
  // stays within the bound even when s > 0 lets the pointwise error float.
  const Device dev = Device::serial();
  NDArray<float> a(Shape{33, 33, 33});
  std::mt19937_64 rng(11);
  std::normal_distribution<float> d(0.f, 1.f);
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = std::sin(0.002f * float(i)) + 0.2f * d(rng);
  const double eb = 1e-3;
  auto stream = compress(dev, a.view(), eb, /*s=*/1.0);
  auto back = decode<float>(dev, stream, a.shape());
  double sum_a = 0, sum_b = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sum_a += a[i];
    sum_b += back[i];
  }
  const auto range = value_range(a.span());
  const double avg_err = std::abs(sum_a - sum_b) / double(a.size());
  EXPECT_LE(avg_err, eb * double(range.extent()));
  // And the stream decodes with its recorded s (round trip sanity).
  auto stats = compute_error_stats(a.span(), back.span());
  EXPECT_LT(stats.max_rel_error, 0.1);  // relaxed, but not unhinged
}

TEST(MgardSnorm, BinWeightingShape) {
  const double eb = 1e-3;
  // s = 0: identical to level_bin; s > 0: fine levels relax, coarse fixed.
  for (std::size_t l = 0; l <= 5; ++l)
    EXPECT_DOUBLE_EQ(level_bin_s(eb, l, 5, 3, 0.0), level_bin(eb, l, 5, 3));
  EXPECT_DOUBLE_EQ(level_bin_s(eb, 0, 5, 3, 2.0), level_bin(eb, 0, 5, 3));
  EXPECT_GT(level_bin_s(eb, 5, 5, 3, 1.0), 20 * level_bin(eb, 5, 5, 3));
}


TEST(Mgard, CompressionIsDeterministic) {
  const Device dev = Device::openmp();
  NDArray<float> a(Shape{21, 21, 21});
  std::mt19937_64 rng(77);
  std::normal_distribution<float> d(0.f, 1.f);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = d(rng);
  EXPECT_EQ(compress(dev, a.view(), 1e-3), compress(dev, a.view(), 1e-3));
}

TEST(Mgard, RecompressionOfReconstructionIsNearIdempotent) {
  // Compressing a reconstruction at the same bound must not drift: the
  // second reconstruction stays within 2·eb of the original.
  const Device dev = Device::serial();
  NDArray<float> a(Shape{17, 17, 17});
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = std::sin(0.04f * float(i));
  const double eb = 1e-3;
  auto once = decode<float>(dev, compress(dev, a.view(), eb), a.shape());
  auto twice = decode<float>(dev, compress(dev, once.view(), eb), a.shape());
  auto stats = compute_error_stats(a.span(), twice.span());
  EXPECT_LE(stats.max_rel_error, 2.1 * eb);
}

TEST(Mgard, PortableAcrossAdapters) {
  NDArray<float> a(Shape{17, 17, 17});
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = std::cos(0.02f * float(i));
  const Device gpu = machine::make_device("V100");
  const Device cpu = Device::serial();
  auto sg = compress(gpu, a.view(), 1e-3);
  auto sc = compress(cpu, a.view(), 1e-3);
  EXPECT_EQ(sg, sc);
  auto bg = decode<float>(cpu, sg, a.shape());
  auto bc = decode<float>(gpu, sc, a.shape());
  for (std::size_t i = 0; i < bg.size(); ++i) EXPECT_EQ(bg[i], bc[i]);
}

TEST(Mgard, CorruptStreamThrows) {
  const Device dev = Device::serial();
  NDArray<float> a(Shape{9, 9, 9}, 1.0f);
  auto stream = compress(dev, a.view(), 1e-2);
  stream.resize(stream.size() - 5);
  EXPECT_THROW(decode<float>(dev, stream, a.shape()), Error);
}

TEST(Mgard, NonUniformGridStreamsAreRejected) {
  // A 16³ stream's header is magic, version, dtype, rank, three one-byte
  // dims, mode, abs_eb and s: its grid byte sits at offset 24. Marking the
  // grid non-uniform and inserting one empty coordinate list per dimension
  // gives a well-formed non-uniform-grid stream, which the codec must
  // reject rather than decode.
  const Device dev = Device::serial();
  NDArray<float> a(Shape{16, 16, 16});
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = std::sin(0.03f * float(i));
  auto stream = compress(dev, a.view(), 1e-3);
  ASSERT_EQ(stream[24], 0u);
  stream[24] = 1;
  stream.insert(stream.begin() + 25, {0, 0, 0});
  EXPECT_THROW(decode<float>(dev, stream, a.shape()), Error);
}

}  // namespace
}  // namespace hpdr::mgard
