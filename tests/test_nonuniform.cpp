// Tests for non-uniform grid support in MGARD (§IV-A: "designed to
// compress both uniform and non-uniform grids"): operator-table
// correctness, transform invertibility on stretched grids, error bounds,
// and the advantage of spacing-aware decorrelation.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "algorithms/mgard/hierarchy.hpp"
#include "algorithms/mgard/mgard.hpp"
#include "algorithms/mgard/transform.hpp"
#include "core/stats.hpp"
#include "machine/device_registry.hpp"

namespace hpdr::mgard {
namespace {

/// Geometrically stretched coordinates (boundary-layer style grids).
std::vector<double> stretched(std::size_t n, double growth = 1.18) {
  std::vector<double> x(n);
  double pos = 0, h = 1;
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = pos;
    pos += h;
    h *= growth;
  }
  return x;
}

TEST(NonUniform, GeneralTridiagSolvesArbitrarySystems) {
  // Random diagonally dominant system; verify M x = rhs.
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> u(0.1, 1.0);
  const std::size_t n = 9;
  std::vector<double> lower(n - 1), diag(n), upper(n - 1);
  for (std::size_t j = 0; j + 1 < n; ++j) {
    lower[j] = u(rng);
    upper[j] = u(rng);
  }
  for (std::size_t j = 0; j < n; ++j)
    diag[j] = 2.5 + (j > 0 ? lower[j - 1] : 0) + (j + 1 < n ? upper[j] : 0);
  TridiagSolver solver(std::vector<double>(lower), diag, upper);
  std::vector<double> rhs{1, -2, 3, 0, 5, -1, 2, 4, -3};
  std::vector<double> x(rhs);
  solver.solve(x.data(), n, 1);
  for (std::size_t j = 0; j < n; ++j) {
    double mx = diag[j] * x[j];
    if (j > 0) mx += lower[j - 1] * x[j - 1];
    if (j + 1 < n) mx += upper[j] * x[j + 1];
    EXPECT_NEAR(mx, rhs[j], 1e-10) << j;
  }
}

TEST(NonUniform, OpsReduceToUniformConstants) {
  // A linspace coordinate array must generate exactly the uniform weights.
  const std::size_t n = 17;
  std::vector<double> lin(n);
  for (std::size_t i = 0; i < n; ++i) lin[i] = 3.0 * double(i);
  Hierarchy hu(Shape{n, n});
  Hierarchy hn(Shape{n, n}, {lin, lin});
  EXPECT_TRUE(hu.is_uniform());
  EXPECT_FALSE(hn.is_uniform());
  for (std::size_t l = 1; l <= hu.num_levels(); ++l) {
    const auto& a = hu.ops(l, 0);
    const auto& b = hn.ops(l, 0);
    ASSERT_EQ(a.wl.size(), b.wl.size());
    for (std::size_t o = 0; o < a.wl.size(); ++o) {
      EXPECT_DOUBLE_EQ(a.wl[o], b.wl[o]);
      EXPECT_DOUBLE_EQ(a.wr[o], b.wr[o]);
      // Transfer weights scale with spacing; the ratio must match the
      // 3× linspace step.
      EXPECT_NEAR(b.tl[o], 3.0 * a.tl[o], 1e-12);
    }
  }
}

TEST(NonUniform, InterpolationWeightsMatchSpacings) {
  // x = {0, 1, 4}: odd node at 1 sits ¼ of the way; lerp weights ¾/¼.
  std::vector<double> x{0, 1, 4};
  Hierarchy h(Shape{3}, {x});
  const auto& ops = h.ops(1, 0);
  ASSERT_EQ(ops.wl.size(), 1u);
  EXPECT_DOUBLE_EQ(ops.wl[0], 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(ops.wr[0], 1.0 / 4.0);
}

// std::string keeps the test names free of pointer addresses.
class NonUniformInvertibility
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(NonUniformInvertibility, DecomposeRecomposeIsIdentity) {
  const auto& [devname, rank] = GetParam();
  const Device dev = machine::make_device(devname);
  Shape shape = rank == 1   ? Shape{129}
                : rank == 2 ? Shape{33, 21}
                            : Shape{17, 12, 9};
  std::vector<std::vector<double>> coords(shape.rank());
  for (std::size_t d = 0; d < shape.rank(); ++d)
    coords[d] = stretched(shape[d], 1.1 + 0.07 * double(d));
  Hierarchy h(shape, coords);
  NDArray<double> a(shape);
  std::mt19937_64 rng(29);
  std::normal_distribution<double> dist(0.0, 10.0);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = dist(rng);
  NDArray<double> orig = a;
  decompose(dev, h, a.data());
  recompose(dev, h, a.data());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(a[i], orig[i], 1e-8) << i;
}

INSTANTIATE_TEST_SUITE_P(
    Grids, NonUniformInvertibility,
    ::testing::Combine(::testing::Values(std::string("serial"),
                                         std::string("openmp")),
                       ::testing::Values(1, 2, 3)));

TEST(NonUniform, LinearFunctionsHaveZeroCoefficients) {
  // Piecewise-linear interpolation is exact for linear functions on ANY
  // grid — the spacing-aware weights must reproduce this, where uniform
  // ½-weights on a stretched grid would not.
  const std::size_t n = 65;
  auto x = stretched(n, 1.15);
  Hierarchy h(Shape{n}, {x});
  NDArray<double> a(Shape{n});
  for (std::size_t i = 0; i < n; ++i) a[i] = 3.5 * x[i] - 7.0;
  const Device dev = Device::serial();
  decompose(dev, h, a.data());
  for (std::size_t i = 0; i < n; ++i)
    if (h.level_of(i) == h.num_levels()) {
      EXPECT_NEAR(a[i], 0.0, 1e-9) << i;
    }
}

class NonUniformErrorBound
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(NonUniformErrorBound, BoundHoldsOnStretchedGrids) {
  const auto& [rel_eb, seed] = GetParam();
  const Device dev = Device::serial();
  Shape shape{21, 17, 13};
  std::vector<std::vector<double>> coords(3);
  for (std::size_t d = 0; d < 3; ++d)
    coords[d] = stretched(shape[d], 1.05 + 0.1 * double(d));
  NDArray<float> a(shape);
  std::mt19937_64 rng(static_cast<unsigned>(seed));
  std::normal_distribution<float> dist(0.f, 5.f);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = dist(rng);
  auto stream = compress_nonuniform(dev, a.view(), coords, rel_eb);
  auto back = decompress_f32(dev, stream);
  auto stats = compute_error_stats(a.span(), back.span());
  EXPECT_LE(stats.max_rel_error, rel_eb * 1.0001)
      << "eb=" << rel_eb << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NonUniformErrorBound,
    ::testing::Combine(::testing::Values(1e-1, 1e-2, 1e-3),
                       ::testing::Values(1, 2, 3)));

TEST(NonUniform, SpacingAwareDecorrelationBeatsUniformAssumption) {
  // A linear-in-x field on a stretched grid: the spacing-aware transform
  // annihilates it exactly (piecewise-linear reproduction), while the
  // uniform ½-weights — which assume index-space midpoints — leave
  // coefficients proportional to the local spacing imbalance.
  const std::size_t n = 129;
  auto x = stretched(n, 1.07);
  NDArray<double> a(Shape{n}), b(Shape{n});
  for (std::size_t i = 0; i < n; ++i) {
    const double v = 3.5 * x[i] - 7.0;
    a[i] = v;
    b[i] = v;
  }
  const Device dev = Device::serial();
  Hierarchy h_uniform(Shape{n});
  Hierarchy h_coords(Shape{n}, {x});
  decompose(dev, h_uniform, a.data());
  decompose(dev, h_coords, b.data());
  double max_uniform = 0, max_coords = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (h_uniform.level_of(i) != h_uniform.num_levels()) continue;
    max_uniform = std::max(max_uniform, std::abs(a[i]));
    max_coords = std::max(max_coords, std::abs(b[i]));
  }
  EXPECT_GT(max_uniform, 1.0);        // uniform weights mispredict badly
  EXPECT_LT(max_coords, 1e-8);        // spacing-aware is exact
}

TEST(NonUniform, StreamIsSelfContained) {
  // Decompression must not need the caller to resupply coordinates.
  const Device dev = Device::serial();
  Shape shape{17, 9};
  std::vector<std::vector<double>> coords{stretched(17, 1.2),
                                          stretched(9, 1.1)};
  NDArray<float> a(shape);
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = std::cos(0.1f * float(i));
  auto stream = compress_nonuniform(dev, a.view(), coords, 1e-3);
  auto back = decompress_f32(dev, stream);
  EXPECT_EQ(back.shape(), shape);
  EXPECT_LE(compute_error_stats(a.span(), back.span()).max_rel_error, 1e-3);
}

TEST(NonUniform, InvalidCoordinatesThrow) {
  const Device dev = Device::serial();
  NDArray<float> a(Shape{9}, 1.0f);
  EXPECT_THROW(compress_nonuniform(dev, a.view(), {{1, 2, 3}}, 1e-3),
               Error);  // wrong count
  std::vector<double> bad(9, 1.0);  // not increasing
  EXPECT_THROW(compress_nonuniform(dev, a.view(), {bad}, 1e-3), Error);
  EXPECT_THROW(Hierarchy(Shape{9}, {{}, {}}), Error);  // rank mismatch
}

TEST(NonUniform, MixedUniformAndNonUniformDimensions) {
  const Device dev = Device::serial();
  Shape shape{17, 21};
  // Dimension 0 non-uniform, dimension 1 uniform (empty coords).
  std::vector<std::vector<double>> coords{stretched(17, 1.25), {}};
  NDArray<float> a(shape);
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = std::sin(0.02f * float(i));
  auto stream = compress_nonuniform(dev, a.view(), coords, 1e-3);
  auto back = decompress_f32(dev, stream);
  EXPECT_LE(compute_error_stats(a.span(), back.span()).max_rel_error, 1e-3);
}

}  // namespace
}  // namespace hpdr::mgard
