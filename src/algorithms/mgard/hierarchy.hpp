#ifndef HPDR_ALGORITHMS_MGARD_HIERARCHY_HPP
#define HPDR_ALGORITHMS_MGARD_HIERARCHY_HPP

/// \file hierarchy.hpp
/// The multilevel grid hierarchy underlying MGARD (paper §IV-A). The input
/// tensor is viewed as a piecewise-(multi)linear function on the finest
/// grid; each decomposition level keeps the even-indexed nodes per dimension
/// (stride doubling), so level L is the input grid and level 0 the coarsest.
///
/// Both **uniform and non-uniform grids** are supported (the paper's §IV-A
/// opens with exactly this property). A non-uniform dimension carries node
/// coordinates; interpolation weights, the transfer-mass weights, and the
/// coarse mass matrices all derive from the node spacings, reducing to the
/// uniform constants (½, ½; ½, ½; tridiag 1/3·[1 4 1]) when spacings are
/// equal.
///
/// The Hierarchy is exactly the "reduction context" the Context Memory
/// Model caches (§III-B): it owns every size-dependent table — per-level
/// dimensions, the node→level map, the level-ordered permutation, and the
/// per-(level, dimension) operator tables — so repeated compressions of
/// same-shaped data perform no allocations.

#include <cstdint>
#include <span>
#include <vector>

#include "adapter/abstractions.hpp"
#include "core/shape.hpp"

namespace hpdr::mgard {

/// Prefactorized Thomas solver for a (symmetric, diagonally dominant)
/// tridiagonal system — the coarse-grid piecewise-linear mass matrix. The
/// factorization is precomputed once per (level, dimension) by the
/// Hierarchy, which is what makes the Iterative abstraction's inner loop
/// allocation free.
struct TridiagSolver {
  std::vector<double> sub;        ///< subdiagonal (size n-1)
  std::vector<double> cp;         ///< modified superdiagonal factors
  std::vector<double> inv_denom;  ///< reciprocal pivot per row

  TridiagSolver() = default;

  /// Uniform-grid mass matrix of `n` coarse nodes (fine spacing 1, coarse
  /// spacing 2): diag 4/3 (2/3 at boundaries), off-diagonals 1/3.
  explicit TridiagSolver(std::size_t n);

  /// General factorization from bands: `diag` has n entries, `lower` and
  /// `upper` have n-1 (lower[j] couples row j+1 to j).
  TridiagSolver(std::vector<double> lower, std::span<const double> diag,
                std::span<const double> upper);

  std::size_t size() const { return inv_denom.size(); }

  /// Solve M x = rhs in place (rhs becomes x). Templated so float data can
  /// stay in float storage while the solve runs in double.
  template <class T>
  void solve(T* rhs, std::size_t n, std::size_t stride) const {
    HPDR_ASSERT(n == inv_denom.size());
    // Forward elimination.
    double prev = static_cast<double>(rhs[0]) * inv_denom[0];
    rhs[0] = static_cast<T>(prev);
    for (std::size_t j = 1; j < n; ++j) {
      prev = (static_cast<double>(rhs[j * stride]) - sub[j - 1] * prev) *
             inv_denom[j];
      rhs[j * stride] = static_cast<T>(prev);
    }
    // Back substitution.
    for (std::size_t j = n - 1; j-- > 0;) {
      prev = static_cast<double>(rhs[j * stride]) -
             cp[j] * static_cast<double>(rhs[(j + 1) * stride]);
      rhs[j * stride] = static_cast<T>(prev);
    }
  }
};

/// Per-(level, dimension) operator tables: everything a 1-D level step
/// needs, derived from node coordinates at hierarchy construction.
struct LevelDimOps {
  /// Interpolation weights per odd node o (o = 0 is fine index 1):
  /// approx(x_odd) = wl·u[left] + wr·u[right]; boundary odd nodes (no right
  /// neighbour) have wl = 1, wr = 0.
  std::vector<double> wl, wr;
  /// Transfer-mass weights per odd node: contribution of the detail to the
  /// left/right coarse node's load vector, T = (near + 2·far)/6 in the
  /// local spacings (= ½ on uniform grids).
  std::vector<double> tl, tr;
  /// Prefactorized coarse mass matrix for this level/dimension.
  TridiagSolver solver;
};

/// Grid hierarchy for one tensor shape. Immutable after construction.
class Hierarchy {
 public:
  /// Uniform grid: `shape` must have every dimension ≥ 3 (one interior node
  /// at the coarsest level). The number of levels is limited by the
  /// smallest dimension: coarsening stops before any dimension drops below
  /// 2 nodes.
  explicit Hierarchy(const Shape& shape);

  /// Non-uniform grid: `coords[d]` holds shape[d] strictly increasing node
  /// coordinates for dimension d. An empty coords[d] means dimension d is
  /// uniform.
  Hierarchy(const Shape& shape, std::vector<std::vector<double>> coords);

  const Shape& shape() const { return shape_; }
  std::size_t rank() const { return shape_.rank(); }
  bool is_uniform() const { return uniform_; }

  /// Node coordinates of dimension d (empty for uniform dimensions).
  const std::vector<double>& coords(std::size_t d) const {
    return coords_[d];
  }

  /// Number of decomposition levels L. Level indices run 0..L with L the
  /// finest (input) grid; the decomposition loop of Alg. 1 executes L times.
  std::size_t num_levels() const { return levels_; }

  /// Size of dimension `d` at level `l` (l in [0, L]).
  std::size_t level_dim(std::size_t l, std::size_t d) const {
    return level_dims_[l][d];
  }

  /// The level at which a flat node index first appears (0 = coarsest).
  std::uint8_t level_of(std::size_t flat_index) const {
    return level_of_[flat_index];
  }

  /// Permutation sorting flat indices by (level, flat order): positions
  /// [subset(l).begin, subset(l).end) of the permuted array hold exactly
  /// the level-l coefficients. Used by the Map&Process quantization and by
  /// the encoder (level-ordered coefficients compress better).
  const std::vector<std::uint64_t>& level_order() const {
    return level_order_;
  }

  /// Subsets feeding the Map&Process abstraction: one per level, covering
  /// the level-ordered coefficient array.
  const std::vector<Subset>& level_subsets() const { return subsets_; }

  /// Operator tables for the step decomposing level `l` (l in [1, L])
  /// along dimension `d`.
  const LevelDimOps& ops(std::size_t l, std::size_t d) const;

 private:
  void build_tables();

  Shape shape_;
  bool uniform_ = true;
  std::vector<std::vector<double>> coords_;  // per dim; empty = uniform
  std::size_t levels_ = 0;
  std::vector<Shape> level_dims_;            // [l][d]
  std::vector<std::uint8_t> level_of_;       // per flat node
  std::vector<std::uint64_t> level_order_;   // permutation
  std::vector<Subset> subsets_;
  std::vector<std::vector<LevelDimOps>> ops_;  // [l-1][d]
};

}  // namespace hpdr::mgard

#endif  // HPDR_ALGORITHMS_MGARD_HIERARCHY_HPP
