#ifndef HPDR_TESTS_MGARD_REFERENCE_HPP
#define HPDR_TESTS_MGARD_REFERENCE_HPP

/// \file mgard_reference.hpp
/// Frozen reference for the MGARD level step, built the way it worked
/// before the lockstep group kernel: one pencil at a time, each a strided
/// scalar recurrence (lerp, load vector, Thomas solve, correction), 16
/// pencils per GEM group sharing one scratch arena. Only the dispatch
/// adapts to iterative_staged handing each group its vector range.
/// tests/test_mgard.cpp checks the library's decompose/recompose against it
/// bit for bit, and bench/kernels races the library against it.

#include <array>
#include <cstddef>

#include "adapter/abstractions.hpp"
#include "algorithms/mgard/hierarchy.hpp"

namespace hpdr::mgard::reference {

struct PencilSet {
  std::size_t count = 1;   ///< number of pencils
  std::size_t length = 1;  ///< active nodes per pencil
  std::size_t step = 1;    ///< flat stride along the pencil

  std::array<std::size_t, kMaxRank> other_sizes{};
  std::array<std::size_t, kMaxRank> other_steps{};
  std::size_t other_rank = 0;

  std::size_t base_of(std::size_t pencil) const {
    std::size_t off = 0;
    for (std::size_t d = other_rank; d-- > 0;) {
      off += (pencil % other_sizes[d]) * other_steps[d];
      pencil /= other_sizes[d];
    }
    return off;
  }
};

inline PencilSet make_pencils(const Hierarchy& h, std::size_t level,
                              std::size_t dim) {
  const Shape& shape = h.shape();
  const auto strides = shape.strides();
  const std::size_t lvl_stride = std::size_t{1}
                                 << (h.num_levels() - level);
  PencilSet p;
  p.length = h.level_dim(level, dim);
  p.step = strides[dim] * lvl_stride;
  for (std::size_t d = 0; d < shape.rank(); ++d) {
    if (d == dim) continue;
    p.other_sizes[p.other_rank] = h.level_dim(level, d);
    p.other_steps[p.other_rank] = strides[d] * lvl_stride;
    ++p.other_rank;
    p.count *= h.level_dim(level, d);
  }
  return p;
}

template <class T>
void load_vector(const T* v, std::size_t n, std::size_t s,
                 const LevelDimOps& ops, double* rhs) {
  const std::size_t nc = (n + 1) / 2;
  for (std::size_t j = 0; j < nc; ++j) {
    double b = 0;
    if (j > 0)
      b += ops.tr[j - 1] * static_cast<double>(v[(2 * j - 1) * s]);
    if (2 * j + 1 < n)
      b += ops.tl[j] * static_cast<double>(v[(2 * j + 1) * s]);
    rhs[j] = b;
  }
}

template <class T>
void fwd_pencil(T* v, std::size_t n, std::size_t s, const LevelDimOps& ops,
                double* rhs) {
  const std::size_t nc = (n + 1) / 2;
  for (std::size_t i = 1; i < n; i += 2) {
    const std::size_t o = i / 2;
    double approx =
        ops.wl[o] * static_cast<double>(v[(i - 1) * s]);
    if (i + 1 < n)
      approx += ops.wr[o] * static_cast<double>(v[(i + 1) * s]);
    v[i * s] = static_cast<T>(static_cast<double>(v[i * s]) - approx);
  }
  load_vector(v, n, s, ops, rhs);
  ops.solver.solve(rhs, nc, 1);
  for (std::size_t j = 0; j < nc; ++j)
    v[(2 * j) * s] =
        static_cast<T>(static_cast<double>(v[(2 * j) * s]) + rhs[j]);
}

template <class T>
void inv_pencil(T* v, std::size_t n, std::size_t s, const LevelDimOps& ops,
                double* rhs) {
  const std::size_t nc = (n + 1) / 2;
  load_vector(v, n, s, ops, rhs);
  ops.solver.solve(rhs, nc, 1);
  for (std::size_t j = 0; j < nc; ++j)
    v[(2 * j) * s] =
        static_cast<T>(static_cast<double>(v[(2 * j) * s]) - rhs[j]);
  for (std::size_t i = 1; i < n; i += 2) {
    const std::size_t o = i / 2;
    double approx =
        ops.wl[o] * static_cast<double>(v[(i - 1) * s]);
    if (i + 1 < n)
      approx += ops.wr[o] * static_cast<double>(v[(i + 1) * s]);
    v[i * s] = static_cast<T>(static_cast<double>(v[i * s]) + approx);
  }
}

template <class T, bool Forward>
void level_step(const Device& dev, const Hierarchy& h, T* data,
                std::size_t level) {
  const std::size_t rank = h.rank();
  for (std::size_t k = 0; k < rank; ++k) {
    const std::size_t dim = Forward ? k : rank - 1 - k;
    const PencilSet p = make_pencils(h, level, dim);
    if (p.length < 3) continue;
    const LevelDimOps& ops = h.ops(level, dim);
    const std::size_t nc = (p.length + 1) / 2;
    iterative_staged(dev, p.count, 16, nc * sizeof(double),
                     [&](std::size_t begin, std::size_t end, GroupCtx& ctx) {
                       auto rhs = ctx.scratch<double>(nc);
                       for (std::size_t pencil = begin; pencil < end;
                            ++pencil) {
                         T* base = data + p.base_of(pencil);
                         if constexpr (Forward)
                           fwd_pencil(base, p.length, p.step, ops,
                                      rhs.data());
                         else
                           inv_pencil(base, p.length, p.step, ops,
                                      rhs.data());
                       }
                     });
  }
}

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

}  // namespace hpdr::mgard::reference

#endif  // HPDR_TESTS_MGARD_REFERENCE_HPP
