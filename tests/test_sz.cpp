// Tests for the cuSZ-style baseline: dual quantization (prequantize, then
// integer Lorenzo residuals) keeps the error bound on every element.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "algorithms/sz/sz.hpp"
#include "core/stats.hpp"

namespace hpdr::sz {
namespace {

/// Decompresses `stream` into a fresh tensor of `shape`.
template <class T>
NDArray<T> decode(const Device& dev, std::span<const std::uint8_t> stream,
                  const Shape& shape) {
  NDArray<T> out(shape);
  decompress(dev, stream, out.view());
  return out;
}

class DualQuantBound
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(DualQuantBound, RandomFieldsRespectBound) {
  const auto& [rel_eb, rank] = GetParam();
  const Device dev = Device::openmp();
  Shape shape = rank == 1   ? Shape{4000}
                : rank == 2 ? Shape{61, 59}
                            : Shape{23, 19, 17};
  NDArray<float> a(shape);
  std::mt19937_64 rng(static_cast<unsigned>(rank * 7));
  std::normal_distribution<float> d(0.f, 2.f);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = d(rng);
  auto back = decode<float>(dev, compress(dev, a.view(), rel_eb), shape);
  auto stats = compute_error_stats(a.span(), back.span());
  EXPECT_LE(stats.max_rel_error, rel_eb * 1.0001);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DualQuantBound,
    ::testing::Combine(::testing::Values(1e-1, 1e-3, 1e-5),
                       ::testing::Values(1, 2, 3)));

TEST(DualQuant, SmoothDataCompressesWell) {
  const Device dev = Device::serial();
  NDArray<float> a(Shape{64, 64, 64});
  for (std::size_t i = 0; i < 64; ++i)
    for (std::size_t j = 0; j < 64; ++j)
      for (std::size_t k = 0; k < 64; ++k)
        a.at(i, j, k) =
            std::sin(0.1f * float(i)) + std::cos(0.05f * float(j + k));
  auto stream = compress(dev, a.view(), 1e-3);
  EXPECT_GT(compression_ratio(a.size_bytes(), stream.size()), 8.0);
  auto stats = compute_error_stats(
      a.span(), decode<float>(dev, stream, a.shape()).span());
  EXPECT_LE(stats.max_rel_error, 1e-3);
}

TEST(DualQuant, DoubleAnd4D) {
  const Device dev = Device::serial();
  NDArray<double> a(Shape{3, 5, 40, 9});
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = 1e4 * std::sin(0.001 * double(i));
  auto back = decode<double>(dev, compress(dev, a.view(), 1e-4), a.shape());
  EXPECT_LE(compute_error_stats(a.span(), back.span()).max_rel_error, 1e-4);
}

TEST(DualQuant, ConstantField) {
  const Device dev = Device::serial();
  NDArray<float> a(Shape{30, 30}, -7.5f);
  auto stream = compress(dev, a.view(), 1e-3);
  auto back = decode<float>(dev, stream, a.shape());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(back[i], -7.5f, 7.5f * 2e-3f);
  EXPECT_LT(stream.size(), a.size_bytes() / 10);
}

TEST(DualQuant, TinyBoundForcesOutliersButStaysCorrect) {
  const Device dev = Device::serial();
  NDArray<float> a(Shape{32, 32});
  std::mt19937_64 rng(3);
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = (rng() % 89 == 0) ? 3e7f : 0.001f * float(rng() % 100);
  const double eb = 1e-9;  // absurdly tight → huge prequants → outliers
  auto back = decode<float>(dev, compress(dev, a.view(), eb), a.shape());
  auto stats = compute_error_stats(a.span(), back.span());
  EXPECT_LE(stats.max_rel_error, eb * 1.0001);
}

TEST(DualQuant, PortableAndDeterministic) {
  NDArray<float> a(Shape{40, 25});
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = std::sin(0.02f * float(i));
  const Device cpu = Device::serial();
  const Device par = Device::openmp();
  // The parallel prequantization must produce identical streams to serial
  // execution — that's the whole point of dual quantization.
  EXPECT_EQ(compress(cpu, a.view(), 1e-3), compress(par, a.view(), 1e-3));
}

// lorenzo_residuals against its definition: per element, the 7-term
// Lorenzo stencil over the lattice (zero outside the domain), symbol
// r + kRadius + 1 for |r| ≤ kRadius and 0 for an outlier or a residual out
// of range. The lattice is built so residuals land on ±kRadius and
// ±(kRadius + 1), and rows have odd lengths so vector tails run too.
TEST(DualQuant, LorenzoResidualsMatchPerElementStencil) {
  using detail::kRadius;
  for (const Shape& cs : {Shape{301}, Shape{13, 45}, Shape{6, 9, 37}}) {
    const std::size_t nk = cs[cs.rank() - 1];
    const std::size_t nj = cs.rank() >= 2 ? cs[cs.rank() - 2] : 1;
    const std::size_t n = cs.size();
    std::vector<std::int64_t> P(n);
    auto at = [&](std::size_t i, std::size_t j, std::size_t k, std::size_t di,
                  std::size_t dj, std::size_t dk) -> std::int64_t {
      if (i < di || j < dj || k < dk) return 0;
      return P[((i - di) * nj + (j - dj)) * nk + (k - dk)];
    };
    auto pred = [&](std::size_t flat) {
      const std::size_t i = flat / (nj * nk), j = flat / nk % nj,
                        k = flat % nk;
      return at(i, j, k, 0, 0, 1) + at(i, j, k, 0, 1, 0) +
             at(i, j, k, 1, 0, 0) - at(i, j, k, 0, 1, 1) -
             at(i, j, k, 1, 0, 1) - at(i, j, k, 1, 1, 0) +
             at(i, j, k, 1, 1, 1);
    };
    // Pick each element's residual, then solve for P in flat order (the
    // stencil reads only elements already set).
    std::mt19937_64 rng(cs.rank() * 31);
    const std::int64_t edges[] = {kRadius, -kRadius, kRadius + 1,
                                  -(kRadius + 1)};
    std::vector<std::uint8_t> oob(n);
    for (std::size_t flat = 0; flat < n; ++flat) {
      const std::uint64_t u = rng();
      const std::int64_t r = u % 5 == 0
                                 ? edges[u / 5 % 4]
                                 : static_cast<std::int64_t>(u % 4001) - 2000;
      P[flat] = pred(flat) + r;
      oob[flat] = u % 13 == 0;
    }
    std::vector<std::uint32_t> want(n);
    bool edge_seen[4] = {};
    for (std::size_t flat = 0; flat < n; ++flat) {
      const std::int64_t r = P[flat] - pred(flat);
      for (int e = 0; e < 4; ++e)
        edge_seen[e] |= !oob[flat] && r == edges[e];
      want[flat] = (oob[flat] || r < -kRadius || r > kRadius)
                       ? 0u
                       : static_cast<std::uint32_t>(r + kRadius + 1);
    }
    for (int e = 0; e < 4; ++e) EXPECT_TRUE(edge_seen[e]) << edges[e];
    for (const Device& dev : {Device::serial(), Device::openmp()}) {
      std::vector<std::uint32_t> sym(n, 7);
      detail::lorenzo_residuals(dev, P.data(), oob.data(), cs, sym.data());
      EXPECT_EQ(sym, want) << "rank " << cs.rank();
    }
  }
}

TEST(DualQuant, CorruptStreamThrows) {
  const Device dev = Device::serial();
  NDArray<float> a(Shape{16, 16}, 1.0f);
  auto stream = compress(dev, a.view(), 1e-2);
  stream.resize(stream.size() / 2);
  EXPECT_THROW(decode<float>(dev, stream, a.shape()), Error);
}

}  // namespace
}  // namespace hpdr::sz
