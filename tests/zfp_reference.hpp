#ifndef HPDR_TESTS_ZFP_REFERENCE_HPP
#define HPDR_TESTS_ZFP_REFERENCE_HPP

/// \file zfp_reference.hpp
/// Frozen reference for the ZFP bitplane coder, built the way it worked
/// before the word-parallel group-test coder: per-plane gather/deposit
/// loops and one put_bit/get_bit per group-test and zero-run bit.
/// tests/test_zfp.cpp checks zfp::detail::encode_planes/decode_planes
/// against it bit for bit, and bench/kernels races them against it.

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "core/bitstream.hpp"

namespace hpdr::zfp::reference {

inline std::size_t encode_planes(BitWriter& w, const std::uint64_t* u,
                                 std::size_t n, int intprec,
                                 std::size_t budget, int kmin = 0) {
  std::size_t bits = budget;
  std::size_t sig = 0;
  for (int k = intprec - 1; k >= kmin && bits; --k) {
    // Gather plane k into a word (bit i = coefficient i's bit; n ≤ 64).
    std::uint64_t x = 0;
#pragma omp simd reduction(| : x)
    for (std::size_t i = 0; i < n; ++i) x |= ((u[i] >> k) & 1u) << i;
    // Value pass.
    const std::size_t m = std::min(sig, bits);
    w.put(x, static_cast<unsigned>(m));
    bits -= m;
    x = m < 64 ? x >> m : 0;
    // Group-test pass.
    std::size_t i = sig;
    while (i < n && bits) {
      --bits;
      const bool any = x != 0;
      w.put_bit(any);
      if (!any) break;
      // Emit value bits until a 1 is emitted; the last position's test bit
      // doubles as its value bit (group of one).
      while (i < n - 1 && bits) {
        --bits;
        const bool bit = x & 1u;
        w.put_bit(bit);
        if (bit) break;
        x >>= 1;
        ++i;
      }
      // Consume the significant (or implied/unfinished) position.
      x >>= 1;
      ++i;
    }
    sig = i;
  }
  return budget - bits;
}

inline void decode_planes(BitReader& r, std::uint64_t* u, std::size_t n,
                          int intprec, std::size_t budget, int kmin = 0) {
  std::fill(u, u + n, 0);
  std::size_t bits = budget;
  std::size_t sig = 0;
  for (int k = intprec - 1; k >= kmin && bits; --k) {
    const std::size_t m = std::min(sig, bits);
    std::uint64_t x = r.get(static_cast<unsigned>(m));
    bits -= m;
    std::size_t i = sig;
    while (i < n && bits) {
      --bits;
      const bool any = r.get_bit();
      if (!any) break;
      while (i < n - 1 && bits) {
        --bits;
        const bool bit = r.get_bit();
        if (bit) break;
        ++i;
      }
      x |= std::uint64_t{1} << i;
      ++i;
    }
    sig = i;
    // Branch-free plane deposit (vectorizes; `-(bit)` is an all-ones mask).
#pragma omp simd
    for (std::size_t j = 0; j < n; ++j)
      u[j] |= (std::uint64_t{0} - ((x >> j) & 1u)) & (std::uint64_t{1} << k);
  }
}

}  // namespace hpdr::zfp::reference

#endif  // HPDR_TESTS_ZFP_REFERENCE_HPP
