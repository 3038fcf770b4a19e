#include "algorithms/mgard/transform.hpp"

#include <algorithm>
#include <array>

#include "adapter/abstractions.hpp"
#include "core/error.hpp"

namespace hpdr::mgard {
namespace {

/// How many pencils one GEM group steps in lockstep (the B of the Iterative
/// abstraction, Fig. 3b). A pencil is one 1-D line of the level grid along
/// the dimension being transformed.
constexpr std::size_t kVectorGroup = 16;

/// The pencils of one group: `count` ≤ kVectorGroup lines of `n` active
/// nodes each, `s` apart along a line and `lane` apart from one line (lane)
/// to the next. The group's right-hand sides live lane-major in its
/// scratch: rhs[j·kVectorGroup + k] is coarse node j of lane k.
struct Lanes {
  std::size_t n = 0;
  std::size_t s = 0;
  std::size_t lane = 0;
  std::size_t count = 0;
};

/// Multilinear interpolation at the odd nodes (Alg. 1 line 6; `Sign` −1)
/// or its inverse (+1): u_i ∓= wl·u[i−1] + wr·u[i+1].
template <int Sign, class T>
void lerp(T* v, const Lanes& p, const LevelDimOps& ops) {
  for (std::size_t i = 1; i < p.n; i += 2) {
    const std::size_t o = i / 2;
    const bool right = i + 1 < p.n;
    const double wl = ops.wl[o], wr = ops.wr[o];
    for (std::size_t k = 0; k < p.count; ++k) {
      T* x = v + i * p.s + k * p.lane;
      double approx = wl * static_cast<double>(*(x - p.s));
      if (right) approx += wr * static_cast<double>(*(x + p.s));
      *x = static_cast<T>(Sign < 0 ? static_cast<double>(*x) - approx
                                   : static_cast<double>(*x) + approx);
    }
  }
}

/// Transfer-mass load vector at the coarse nodes (line 8): coarse node j
/// receives tr from the detail on its left (odd index 2j−1) and tl from
/// the detail on its right (odd index 2j+1), per the spacing-derived
/// weights.
template <class T>
void load_vector(const T* v, const Lanes& p, const LevelDimOps& ops,
                 double* rhs) {
  const std::size_t nc = (p.n + 1) / 2;
  for (std::size_t j = 0; j < nc; ++j) {
    double* r = rhs + j * kVectorGroup;
    const bool left = j > 0, right = 2 * j + 1 < p.n;
    const double tr = left ? ops.tr[j - 1] : 0.0;
    const double tl = right ? ops.tl[j] : 0.0;
    for (std::size_t k = 0; k < p.count; ++k) {
      const T* x = v + 2 * j * p.s + k * p.lane;
      double b = 0;
      if (left) b += tr * static_cast<double>(*(x - p.s));
      if (right) b += tl * static_cast<double>(*(x + p.s));
      r[k] = b;
    }
  }
}

/// Tridiagonal L² correction solve (line 9) on every lane at once: the
/// Thomas recurrence runs along j, the inner loop across lanes.
void solve(const TridiagSolver& m, double* rhs, std::size_t nc,
           std::size_t count) {
  HPDR_ASSERT(nc == m.size());
  for (std::size_t k = 0; k < count; ++k) rhs[k] = rhs[k] * m.inv_denom[0];
  for (std::size_t j = 1; j < nc; ++j) {
    double* r = rhs + j * kVectorGroup;
    const double* prev = r - kVectorGroup;
    const double sub = m.sub[j - 1], inv = m.inv_denom[j];
    for (std::size_t k = 0; k < count; ++k)
      r[k] = (r[k] - sub * prev[k]) * inv;
  }
  for (std::size_t j = nc - 1; j-- > 0;) {
    double* r = rhs + j * kVectorGroup;
    const double* next = r + kVectorGroup;
    const double cp = m.cp[j];
    for (std::size_t k = 0; k < count; ++k) r[k] = r[k] - cp * next[k];
  }
}

/// Add (`Sign` +1, line 10) or remove (−1) the correction at the even
/// nodes.
template <int Sign, class T>
void correct(T* v, const Lanes& p, const double* rhs) {
  const std::size_t nc = (p.n + 1) / 2;
  for (std::size_t j = 0; j < nc; ++j) {
    const double* r = rhs + j * kVectorGroup;
    for (std::size_t k = 0; k < p.count; ++k) {
      T* x = v + 2 * j * p.s + k * p.lane;
      *x = static_cast<T>(Sign > 0 ? static_cast<double>(*x) + r[k]
                                   : static_cast<double>(*x) - r[k]);
    }
  }
}

/// One level step along one dimension of one group's pencils. Forward:
/// lerp coefficients at odd nodes, load vector, solve, apply the
/// correction to even nodes. Inverse: recompute the correction from the
/// stored coefficients, remove it, then restore the odd nodes. All
/// weights and solvers come from the hierarchy's per-(level, dim) tables,
/// which handle uniform and non-uniform grids identically.
template <bool Forward, class T>
void step_group(T* v, const Lanes& p, const LevelDimOps& ops, double* rhs) {
  const std::size_t nc = (p.n + 1) / 2;
  if constexpr (Forward) lerp<-1>(v, p, ops);
  load_vector(v, p, ops, rhs);
  solve(ops.solver, rhs, nc, p.count);
  correct<Forward ? 1 : -1>(v, p, rhs);
  if constexpr (!Forward) lerp<1>(v, p, ops);
}

template <class T, bool Forward>
void level_step(const Device& dev, const Hierarchy& h, T* data,
                std::size_t level) {
  const std::size_t rank = h.rank();
  const auto strides = h.shape().strides();
  const std::size_t lvl_stride = std::size_t{1} << (h.num_levels() - level);
  // Forward processes dimensions 0..rank−1; the inverse mirrors in exact
  // reverse order (the steps along different dimensions do not commute).
  for (std::size_t step = 0; step < rank; ++step) {
    const std::size_t dim = Forward ? step : rank - 1 - step;
    Lanes p;
    p.n = h.level_dim(level, dim);
    if (p.n < 3) continue;  // nothing to decompose along this dim
    p.s = strides[dim] * lvl_stride;
    // Lanes run along the innermost other dimension (none at rank 1); the
    // remaining dimensions enumerate rows of lanes.
    const std::size_t lane_dim =
        rank == 1 ? rank : dim == rank - 1 ? rank - 2 : rank - 1;
    std::size_t lanes = 1, rows = 1, row_rank = 0;
    std::array<std::size_t, kMaxRank> row_sizes{}, row_steps{};
    for (std::size_t d = 0; d < rank; ++d) {
      if (d == dim) continue;
      if (d == lane_dim) {
        lanes = h.level_dim(level, d);
        p.lane = strides[d] * lvl_stride;
        continue;
      }
      row_sizes[row_rank] = h.level_dim(level, d);
      row_steps[row_rank] = strides[d] * lvl_stride;
      rows *= row_sizes[row_rank++];
    }
    const LevelDimOps& ops = h.ops(level, dim);
    // lerp + mass transfer are Locality work, the solve is Iterative; the
    // pencil grouping (B vectors per group) realizes both (Table I). The
    // right-hand sides live in group staging memory (Table II), so the
    // recurrence-heavy inner loop performs no allocations.
    const std::size_t nc = (p.n + 1) / 2;
    iterative_staged(
        dev, rows * lanes, kVectorGroup, nc * kVectorGroup * sizeof(double),
        [&](std::size_t begin, std::size_t end, GroupCtx& ctx) {
          double* rhs = ctx.scratch<double>(nc * kVectorGroup).data();
          // A group's pencils are consecutive; split it where it crosses
          // from one row of lanes into the next.
          for (std::size_t v = begin; v < end;) {
            Lanes g = p;
            g.count = std::min(end - v, lanes - v % lanes);
            std::size_t off = (v % lanes) * p.lane;
            for (std::size_t d = row_rank, r = v / lanes; d-- > 0;) {
              off += (r % row_sizes[d]) * row_steps[d];
              r /= row_sizes[d];
            }
            step_group<Forward>(data + off, g, ops, rhs);
            v += g.count;
          }
        });
  }
}

}  // namespace

template <class T>
void decompose(const Device& dev, const Hierarchy& h, T* data) {
  for (std::size_t l = h.num_levels(); l >= 1; --l)
    level_step<T, true>(dev, h, data, l);
}

template <class T>
void recompose(const Device& dev, const Hierarchy& h, T* data) {
  for (std::size_t l = 1; l <= h.num_levels(); ++l)
    level_step<T, false>(dev, h, data, l);
}

template void decompose<float>(const Device&, const Hierarchy&, float*);
template void decompose<double>(const Device&, const Hierarchy&, double*);
template void recompose<float>(const Device&, const Hierarchy&, float*);
template void recompose<double>(const Device&, const Hierarchy&, double*);

}  // namespace hpdr::mgard
