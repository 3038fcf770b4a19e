#ifndef HPDR_ALGORITHMS_ZFP_ZFP_HPP
#define HPDR_ALGORITHMS_ZFP_ZFP_HPP

/// \file zfp.hpp
/// ZFP-X: fixed-rate block compression (paper §IV-C, Alg. 3, Fig. 7),
/// built on the Locality abstraction — every 4^d block is one GEM group and
/// all stages (exponent alignment, near-orthogonal transform, truncated
/// bitplane serialization) run block-locally, so no global coordination is
/// needed: every block emits exactly `rate × 4^d` bits.
///
/// Pipeline per block:
///   1. exponent alignment — values are scaled by the block's maximum
///      exponent into fixed-point integers (block floating point); a block
///      holding a NaN or ±Inf is stored, and decodes, as all zeros;
///   2. near-orthogonal decorrelating transform — an exactly invertible
///      two-level integer S-transform applied along each dimension (a
///      substitution for ZFP's lifted transform: ours is exactly
///      invertible, which strengthens the round-trip tests; decorrelation
///      behaviour is equivalent — see DESIGN.md);
///   3. total-sequency coefficient reordering;
///   4. two's-complement → negabinary mapping so magnitude ordering is
///      preserved across bitplanes;
///   5. embedded bitplane coding (value pass + unary group-test pass per
///      plane, MSB first) truncated at the per-block bit budget.
///
/// Fixed-rate is the only GPU mode of the reference ZFP at the time of the
/// paper's evaluation and the only mode evaluated, so it is what we build.

#include <cstdint>
#include <span>
#include <vector>

#include "adapter/device.hpp"
#include "core/ndarray.hpp"

namespace hpdr {
class BitReader;
}

namespace hpdr::zfp {

/// Compress a tensor at `rate` bits per value (clamped to [1, 8·sizeof(T)]).
/// Rank 1–3 is native; rank 4 folds the two leading dimensions.
std::vector<std::uint8_t> compress(const Device& dev,
                                   NDView<const float> data, double rate);
std::vector<std::uint8_t> compress(const Device& dev,
                                   NDView<const double> data, double rate);

/// Decompress straight into `out`, whose shape and element type must be
/// the stream's: a stream of any other shape or type throws before a value
/// is written. Throws on corrupt input, including a rate compress() cannot
/// write; a stream that fails mid-decode may leave `out` partly written.
void decompress(const Device& dev, std::span<const std::uint8_t> stream,
                NDView<float> out);
void decompress(const Device& dev, std::span<const std::uint8_t> stream,
                NDView<double> out);

/// The achieved rate is exact by construction: bits = rate_bits × 4^d per
/// block (plus a fixed-size header); exposed for tests.
std::size_t block_bits(double rate, std::size_t rank);

namespace detail {

/// Exactly invertible 4-point integer decorrelating transform (two-level
/// S-transform), exposed for unit tests. `stride` walks the block.
void fwd_lift4(std::int64_t* p, std::size_t stride);
void inv_lift4(std::int64_t* p, std::size_t stride);

/// Two's complement ↔ negabinary.
std::uint64_t to_negabinary(std::int64_t x);
std::int64_t from_negabinary(std::uint64_t u);

/// Total-sequency permutation for a 4^rank block (identity for rank 1).
std::span<const std::uint16_t> sequency_order(std::size_t rank);

/// Full decorrelating transform over a 4^rank block (rank 1..3), applying
/// the lift along every dimension. The cross-row/cross-plane passes run as
/// lane-parallel SIMD lifts; output is bit-identical to applying fwd_lift4
/// serially along each axis. Exposed for unit tests and bench/kernels.
void fwd_transform(std::int64_t* q, std::size_t rank);
void inv_transform(std::int64_t* q, std::size_t rank);

/// Embedded bitplane coder for one block's n ≤ 64 negabinary coefficients:
/// planes intprec−1 down to 0, MSB first, each a value pass over the
/// already-significant prefix and a unary group-test pass, truncated at
/// `budget` bits. encode_planes writes at bit `pos` of `words`, which must
/// be zero from there on and hold the block's bits; it returns the bit
/// count. decode_planes mirrors every bit, including a budget that ends
/// mid-run, and throws hpdr::Error when it would read past `r`'s limit.
/// Exposed for unit tests and bench/kernels.
std::size_t encode_planes(std::uint64_t* words, std::size_t pos,
                          const std::uint64_t* u, std::size_t n, int intprec,
                          std::size_t budget);
void decode_planes(BitReader& r, std::uint64_t* u, std::size_t n,
                   int intprec, std::size_t budget);

}  // namespace detail

}  // namespace hpdr::zfp

#endif  // HPDR_ALGORITHMS_ZFP_ZFP_HPP
