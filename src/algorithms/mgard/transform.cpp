#include "algorithms/mgard/transform.hpp"

#include <algorithm>
#include <array>

#include "adapter/abstractions.hpp"
#include "core/error.hpp"
#include "core/isa.hpp"

namespace hpdr::mgard {
namespace {

/// How many pencils one GEM group steps in lockstep (the B of the Iterative
/// abstraction, Fig. 3b). A pencil is one 1-D line of the level grid along
/// the dimension being transformed.
constexpr std::size_t kVectorGroup = 32;

/// The pencils of one group: `count` lines of `n` active nodes each, `s`
/// apart along a line and `lane` apart from one line (lane) to the next.
/// `width` is the lane stride of the group's scratch rows (B, or the step's
/// pencil count when that is smaller): the right-hand sides live lane-major,
/// rhs[j·width + k] being coarse node j of lane k.
struct Lanes {
  std::size_t n = 0;
  std::size_t s = 0;
  std::size_t lane = 0;
  std::size_t count = 0;
  std::size_t width = 0;
};

// The kernels below take lanes at unit stride (lane k of node i at
// v[i·s + k]) and loop over lanes innermost, so each lane loop is a vector
// loop. Each lane runs the per-pencil operations of
// tests/mgard_reference.hpp on its own pencil, in the same order and with
// the same float/double conversions (DESIGN.md §11.4).

/// x ∓ d in double, rounded back to T (`Sign` −1 subtracts, +1 adds).
template <int Sign, class T>
[[gnu::always_inline]] inline T apply(T x, double d) {
  return static_cast<T>(Sign < 0 ? static_cast<double>(x) - d
                                 : static_cast<double>(x) + d);
}

/// Multilinear interpolation at the odd nodes (Alg. 1 line 6; `Sign` −1)
/// or its inverse (+1): u_i ∓= wl·u[i−1] + wr·u[i+1].
template <int Sign, class T>
[[gnu::always_inline]] inline void lerp(T* v, const Lanes& p,
                                        const LevelDimOps& ops) {
  for (std::size_t i = 1; i < p.n; i += 2) {
    const double wl = ops.wl[i / 2], wr = ops.wr[i / 2];
    T* x = v + i * p.s;
    const T* left = x - p.s;
    if (i + 1 < p.n) {
      const T* right = x + p.s;
#pragma omp simd
      for (std::size_t k = 0; k < p.count; ++k) {
        double approx = wl * static_cast<double>(left[k]);
        approx += wr * static_cast<double>(right[k]);
        x[k] = apply<Sign>(x[k], approx);
      }
    } else {
#pragma omp simd
      for (std::size_t k = 0; k < p.count; ++k)
        x[k] = apply<Sign>(x[k], wl * static_cast<double>(left[k]));
    }
  }
}

/// Transfer-mass load vector at the coarse nodes (line 8): coarse node j
/// receives tr from the detail on its left (odd index 2j−1) and tl from
/// the detail on its right (odd index 2j+1), per the spacing-derived
/// weights. Each sum starts from 0, so a lone −0 term still sums to +0.
template <class T>
[[gnu::always_inline]] inline void load_vector(const T* v, const Lanes& p,
                                               const LevelDimOps& ops,
                                               double* rhs) {
  const std::size_t nc = (p.n + 1) / 2;
  for (std::size_t j = 0; j < nc; ++j) {
    double* r = rhs + j * p.width;
    const T* x = v + 2 * j * p.s;
    const bool left = j > 0, right = 2 * j + 1 < p.n;
    if (left && right) {
      const double tr = ops.tr[j - 1], tl = ops.tl[j];
      const T* xl = x - p.s;
      const T* xr = x + p.s;
#pragma omp simd
      for (std::size_t k = 0; k < p.count; ++k) {
        double b = 0;
        b += tr * static_cast<double>(xl[k]);
        b += tl * static_cast<double>(xr[k]);
        r[k] = b;
      }
    } else if (left) {
      const double tr = ops.tr[j - 1];
      const T* xl = x - p.s;
#pragma omp simd
      for (std::size_t k = 0; k < p.count; ++k) {
        double b = 0;
        b += tr * static_cast<double>(xl[k]);
        r[k] = b;
      }
    } else {  // j = 0: n ≥ 3 gives it a right neighbour
      const double tl = ops.tl[j];
      const T* xr = x + p.s;
#pragma omp simd
      for (std::size_t k = 0; k < p.count; ++k) {
        double b = 0;
        b += tl * static_cast<double>(xr[k]);
        r[k] = b;
      }
    }
  }
}

/// Tridiagonal L² correction solve (line 9) on every lane at once: the
/// Thomas recurrence runs along j, the inner loop across lanes.
[[gnu::always_inline]] inline void solve(const TridiagSolver& m, double* rhs,
                                         const Lanes& p) {
  const std::size_t nc = (p.n + 1) / 2;
  HPDR_ASSERT(nc == m.size());
  const double inv0 = m.inv_denom[0];
#pragma omp simd
  for (std::size_t k = 0; k < p.count; ++k) rhs[k] = rhs[k] * inv0;
  for (std::size_t j = 1; j < nc; ++j) {
    double* r = rhs + j * p.width;
    const double* prev = r - p.width;
    const double sub = m.sub[j - 1], inv = m.inv_denom[j];
#pragma omp simd
    for (std::size_t k = 0; k < p.count; ++k)
      r[k] = (r[k] - sub * prev[k]) * inv;
  }
  for (std::size_t j = nc - 1; j-- > 0;) {
    double* r = rhs + j * p.width;
    const double* next = r + p.width;
    const double cp = m.cp[j];
#pragma omp simd
    for (std::size_t k = 0; k < p.count; ++k) r[k] = r[k] - cp * next[k];
  }
}

/// Add (`Sign` +1, line 10) or remove (−1) the correction at the even
/// nodes.
template <int Sign, class T>
[[gnu::always_inline]] inline void correct(T* v, const Lanes& p,
                                           const double* rhs) {
  const std::size_t nc = (p.n + 1) / 2;
  for (std::size_t j = 0; j < nc; ++j) {
    T* x = v + 2 * j * p.s;
    const double* r = rhs + j * p.width;
#pragma omp simd
    for (std::size_t k = 0; k < p.count; ++k) x[k] = apply<Sign>(x[k], r[k]);
  }
}

/// One level step along one dimension of unit-stride lanes. Forward: lerp
/// coefficients at odd nodes, load vector, solve, apply the correction to
/// even nodes. Inverse: recompute the correction from the stored
/// coefficients, remove it, then restore the odd nodes. All weights and
/// solvers come from the hierarchy's per-(level, dim) tables, which handle
/// uniform and non-uniform grids identically.
template <bool Forward, class T>
[[gnu::always_inline]] inline void step_lanes(T* v, const Lanes& p,
                                              const LevelDimOps& ops,
                                              double* rhs) {
  if constexpr (Forward) lerp<-1>(v, p, ops);
  load_vector(v, p, ops, rhs);
  solve(ops.solver, rhs, p);
  correct<Forward ? 1 : -1>(v, p, rhs);
  if constexpr (!Forward) lerp<1>(v, p, ops);
}

// ---------------------------------------------------------------------------
// The group step, written once. Each isa::Table slot is this body compiled
// for one level (DESIGN.md §16.1): everything it calls is always-inline, so
// the lane loops vectorize with the slot's instruction set. Lanes that are
// adjacent in memory step in place. Any others are copied into the group's
// scratch as a lane-major block of T (buf[i·width + k]), stepped there and
// copied back; copies of T change no value, so every slot and both paths
// give the same bits.
// ---------------------------------------------------------------------------

template <class T>
using StepFn = void (*)(T*, const Lanes&, const LevelDimOps&, double*, T*);

template <bool Forward, class T>
[[gnu::always_inline]] inline void step_group_body(T* v, const Lanes& p,
                                                   const LevelDimOps& ops,
                                                   double* rhs, T* buf) {
  if (p.lane == 1 || p.count == 1) {
    step_lanes<Forward>(v, p, ops, rhs);
    return;
  }
  for (std::size_t i = 0; i < p.n; ++i)
#pragma omp simd
    for (std::size_t k = 0; k < p.count; ++k)
      buf[i * p.width + k] = v[i * p.s + k * p.lane];
  Lanes b = p;
  b.s = p.width;
  step_lanes<Forward>(buf, b, ops, rhs);
  for (std::size_t i = 0; i < p.n; ++i)
#pragma omp simd
    for (std::size_t k = 0; k < p.count; ++k)
      v[i * p.s + k * p.lane] = buf[i * p.width + k];
}

template <bool Forward, class T>
void step_group_scalar(T* v, const Lanes& p, const LevelDimOps& ops,
                       double* rhs, T* buf) {
  step_group_body<Forward>(v, p, ops, rhs, buf);
}

#if HPDR_ISA_X86
template <bool Forward, class T>
HPDR_ISA_TARGET_AVX2 void step_group_avx2(T* v, const Lanes& p,
                                          const LevelDimOps& ops, double* rhs,
                                          T* buf) {
  step_group_body<Forward>(v, p, ops, rhs, buf);
}

template <bool Forward, class T>
HPDR_ISA_TARGET_AVX512 void step_group_avx512(T* v, const Lanes& p,
                                              const LevelDimOps& ops,
                                              double* rhs, T* buf) {
  step_group_body<Forward>(v, p, ops, rhs, buf);
}

template <bool Forward, class T>
const isa::Table<StepFn<T>> kStepGroup = {step_group_scalar<Forward, T>,
                                          step_group_avx2<Forward, T>,
                                          step_group_avx512<Forward, T>};
#else
template <bool Forward, class T>
const isa::Table<StepFn<T>> kStepGroup = {step_group_scalar<Forward, T>};
#endif

template <class T, bool Forward>
void level_step(const Device& dev, const Hierarchy& h, T* data,
                std::size_t level) {
  static const StepFn<T> step_group = kStepGroup<Forward, T>.get();
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
    const std::size_t vectors = rows * lanes;
    p.width = std::min(kVectorGroup, vectors);
    const LevelDimOps& ops = h.ops(level, dim);
    // lerp + mass transfer are Locality work, the solve is Iterative; the
    // pencil grouping (B vectors per group) realizes both (Table I). The
    // right-hand sides, and the pencils of a group whose lanes are not
    // adjacent, live in group staging memory (Table II), so the step
    // performs no allocations.
    const bool gathered = lanes > 1 && p.lane != 1;
    const std::size_t rhs_bytes = (p.n + 1) / 2 * p.width * sizeof(double);
    const std::size_t buf_bytes = gathered ? p.n * p.width * sizeof(T) : 0;
    iterative_staged(
        dev, vectors, kVectorGroup, rhs_bytes + buf_bytes,
        [&](std::size_t begin, std::size_t end, GroupCtx& ctx) {
          std::byte* arena =
              ctx.scratch<std::byte>(rhs_bytes + buf_bytes).data();
          double* rhs = reinterpret_cast<double*>(arena);
          T* buf = reinterpret_cast<T*>(arena + rhs_bytes);
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
            step_group(data + off, g, ops, rhs, buf);
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
