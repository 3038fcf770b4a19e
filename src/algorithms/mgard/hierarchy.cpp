#include "algorithms/mgard/hierarchy.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "core/error.hpp"

namespace hpdr::mgard {
namespace {

/// Level at which 1-D coordinate c first appears, for a hierarchy of L
/// levels: coarse grids keep original indices divisible by 2^(L-l).
std::size_t coord_level(std::size_t c, std::size_t L) {
  if (c == 0) return 0;
  const std::size_t v2 = static_cast<std::size_t>(std::countr_zero(c));
  return v2 >= L ? 0 : L - v2;
}

}  // namespace

TridiagSolver::TridiagSolver(std::size_t n) {
  HPDR_REQUIRE(n >= 2, "mass system needs at least 2 nodes");
  // Uniform mass matrix: diag = 2/3 at both boundaries, 4/3 interior;
  // off-diagonals 1/3 (fine spacing 1, coarse spacing 2).
  std::vector<double> lower(n - 1, 1.0 / 3.0);
  std::vector<double> diag(n, 4.0 / 3.0);
  diag.front() = diag.back() = 2.0 / 3.0;
  std::vector<double> upper(n - 1, 1.0 / 3.0);
  *this = TridiagSolver(std::move(lower), diag, upper);
}

TridiagSolver::TridiagSolver(std::vector<double> lower,
                             std::span<const double> diag,
                             std::span<const double> upper) {
  const std::size_t n = diag.size();
  HPDR_REQUIRE(n >= 2, "mass system needs at least 2 nodes");
  HPDR_REQUIRE(lower.size() == n - 1 && upper.size() == n - 1,
               "band sizes inconsistent");
  sub = std::move(lower);
  cp.resize(n - 1);
  inv_denom.resize(n);
  double denom = diag[0];
  HPDR_REQUIRE(denom > 0, "mass matrix not positive");
  inv_denom[0] = 1.0 / denom;
  cp[0] = upper[0] / denom;
  for (std::size_t j = 1; j < n; ++j) {
    denom = diag[j] - sub[j - 1] * cp[j - 1];
    HPDR_REQUIRE(denom > 0, "mass matrix factorization broke down");
    inv_denom[j] = 1.0 / denom;
    if (j < n - 1) cp[j] = upper[j] / denom;
  }
}

Hierarchy::Hierarchy(const Shape& shape)
    : Hierarchy(shape, std::vector<std::vector<double>>(shape.rank())) {}

Hierarchy::Hierarchy(const Shape& shape,
                     std::vector<std::vector<double>> coords)
    : shape_(shape), coords_(std::move(coords)) {
  HPDR_REQUIRE(shape.rank() >= 1, "hierarchy needs rank >= 1");
  HPDR_REQUIRE(coords_.size() == shape.rank(),
               "one coordinate array per dimension required");
  for (std::size_t d = 0; d < shape.rank(); ++d) {
    HPDR_REQUIRE(shape[d] >= 3, "MGARD needs every dimension >= 3, got "
                                    << shape.to_string());
    if (coords_[d].empty()) continue;
    uniform_ = false;
    HPDR_REQUIRE(coords_[d].size() == shape[d],
                 "coords[" << d << "] must have " << shape[d] << " entries");
    for (std::size_t i = 1; i < coords_[d].size(); ++i)
      HPDR_REQUIRE(coords_[d][i] > coords_[d][i - 1],
                   "coordinates must be strictly increasing");
  }
  build_tables();
}

void Hierarchy::build_tables() {
  const Shape& shape = shape_;
  // L = min_d floor(log2(n_d - 1)): coarsening stops before any dimension
  // drops below 2 nodes.
  levels_ = SIZE_MAX;
  for (std::size_t d = 0; d < shape.rank(); ++d) {
    const std::size_t n = shape[d] - 1;
    const std::size_t l = static_cast<std::size_t>(std::bit_width(n)) - 1;
    levels_ = std::min(levels_, l);
  }
  HPDR_ASSERT(levels_ >= 1 && levels_ < 64);

  // Per-level dimensions: n_l = floor((n-1) / 2^(L-l)) + 1.
  level_dims_.resize(levels_ + 1);
  for (std::size_t l = 0; l <= levels_; ++l) {
    level_dims_[l] = Shape::of_rank(shape.rank());
    const std::size_t stride = std::size_t{1} << (levels_ - l);
    for (std::size_t d = 0; d < shape.rank(); ++d)
      level_dims_[l][d] = (shape[d] - 1) / stride + 1;
  }

  // Node → level map: a node's level is the max over dimensions of the
  // level at which each coordinate appears.
  const std::size_t total = shape.size();
  level_of_.resize(total);
  const auto strides = shape.strides();
  for (std::size_t flat = 0; flat < total; ++flat) {
    std::size_t rem = flat;
    std::size_t lvl = 0;
    for (std::size_t d = 0; d < shape.rank(); ++d) {
      const std::size_t c = rem / strides[d];
      rem %= strides[d];
      lvl = std::max(lvl, coord_level(c, levels_));
    }
    level_of_[flat] = static_cast<std::uint8_t>(lvl);
  }

  // Level-ordered permutation + subsets (counting sort by level).
  std::vector<std::size_t> counts(levels_ + 2, 0);
  for (std::uint8_t l : level_of_) ++counts[l + 1];
  std::partial_sum(counts.begin(), counts.end(), counts.begin());
  subsets_.resize(levels_ + 1);
  for (std::size_t l = 0; l <= levels_; ++l)
    subsets_[l] = Subset{l, counts[l], counts[l + 1]};
  level_order_.resize(total);
  std::vector<std::size_t> cursor(counts.begin(), counts.end() - 1);
  for (std::size_t flat = 0; flat < total; ++flat)
    level_order_[cursor[level_of_[flat]]++] = flat;

  // Operator tables for every level step and dimension. The level-l active
  // nodes of dimension d sit at original indices i·2^(L−l); their
  // coordinates come from coords_ (or the indices themselves when uniform).
  ops_.resize(levels_);
  for (std::size_t l = 1; l <= levels_; ++l) {
    auto& per_dim = ops_[l - 1];
    per_dim.resize(shape.rank());
    const std::size_t stride = std::size_t{1} << (levels_ - l);
    for (std::size_t d = 0; d < shape.rank(); ++d) {
      const std::size_t n = level_dims_[l][d];
      if (n < 3) continue;  // no decomposition along this dim at this level
      auto coord = [&](std::size_t i) -> double {
        const std::size_t orig = i * stride;
        return coords_[d].empty() ? static_cast<double>(orig)
                                  : coords_[d][orig];
      };
      LevelDimOps& ops = per_dim[d];
      const std::size_t n_odd = n / 2;
      ops.wl.resize(n_odd);
      ops.wr.resize(n_odd);
      ops.tl.resize(n_odd);
      ops.tr.resize(n_odd);
      for (std::size_t o = 0; o < n_odd; ++o) {
        const std::size_t i = 2 * o + 1;
        const double p = coord(i) - coord(i - 1);  // near-left spacing
        if (i + 1 < n) {
          const double q = coord(i + 1) - coord(i);  // near-right spacing
          // Linear interpolation at x_i between its even neighbours.
          ops.wl[o] = q / (p + q);
          ops.wr[o] = p / (p + q);
          // Transfer mass T = (near + 2·far)/6 toward each side. The
          // coarse mass matrix below carries the same spacing factors, so
          // the correction is scale invariant and reduces to the classic
          // ½-weight / (1/3·[1 4 1]) uniform system when p = q.
          ops.tl[o] = (p + 2 * q) / 6.0;
          ops.tr[o] = (q + 2 * p) / 6.0;
        } else {
          // Boundary odd node: approximate by the left neighbour.
          ops.wl[o] = 1.0;
          ops.wr[o] = 0.0;
          ops.tl[o] = p / 2.0;
          ops.tr[o] = 0.0;
        }
      }
      // Coarse mass matrix from the coarse spacings hc_j.
      const std::size_t nc = (n + 1) / 2;
      std::vector<double> lower(nc - 1), diag(nc, 0), upper(nc - 1);
      for (std::size_t j = 0; j + 1 < nc; ++j) {
        const double hc = coord(2 * (j + 1)) - coord(2 * j);
        lower[j] = hc / 6.0;
        upper[j] = hc / 6.0;
        diag[j] += hc / 3.0;
        diag[j + 1] += hc / 3.0;
      }
      ops.solver = TridiagSolver(std::move(lower), diag, upper);
    }
  }
}

const LevelDimOps& Hierarchy::ops(std::size_t l, std::size_t d) const {
  HPDR_REQUIRE(l >= 1 && l <= levels_, "level out of range");
  HPDR_ASSERT(d < shape_.rank());
  return ops_[l - 1][d];
}

Shape Hierarchy::level_shape(std::size_t l) const {
  HPDR_ASSERT(l <= levels_);
  return level_dims_[l];
}

std::size_t Hierarchy::level_size(std::size_t l) const {
  return level_dims_[l].size();
}

std::size_t Hierarchy::context_bytes() const {
  std::size_t ops_bytes = 0;
  for (const auto& per_dim : ops_)
    for (const auto& o : per_dim)
      ops_bytes += (o.wl.size() + o.wr.size() + o.tl.size() + o.tr.size() +
                    o.solver.cp.size() + o.solver.inv_denom.size() +
                    o.solver.sub.size()) *
                   sizeof(double);
  return level_of_.size() * sizeof(std::uint8_t) +
         level_order_.size() * sizeof(std::uint64_t) +
         subsets_.size() * sizeof(Subset) +
         level_dims_.size() * sizeof(Shape) + ops_bytes;
}

}  // namespace hpdr::mgard
