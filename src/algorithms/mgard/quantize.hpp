#ifndef HPDR_ALGORITHMS_MGARD_QUANTIZE_HPP
#define HPDR_ALGORITHMS_MGARD_QUANTIZE_HPP

/// \file quantize.hpp
/// The level-wise linear quantization rule (paper Alg. 1 line 14) shared by
/// both MGARD encoders: the v2 codec (mgard.cpp) and the progressive plane
/// encoder (progressive.cpp). A fully received progressive chunk
/// reproduces the v2 bytes only because both apply this one rule.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace hpdr::mgard {

/// Dictionary radius R: bin indices q ∈ [−R, R) travel as Huffman symbols
/// q + R + 1; symbol 0 marks an outlier stored explicitly.
inline constexpr std::int64_t kQuantRadius = 1 << 15;
/// Huffman alphabet of the quantized symbols (0..2R+1).
inline constexpr std::size_t kQuantAlphabet = 2 * kQuantRadius + 2;

/// One quantized coefficient: its bin index, and whether it is an outlier.
struct Quantized {
  std::int64_t q;
  bool outlier;
};

/// q = nearbyint(coef / bin). A q outside [−R, R), or not finite, is an
/// outlier; an outlier's q is clamped to ±9e18 (0 when not finite) so it
/// fits the int64 outlier list.
inline Quantized quantize(double coef, double bin) {
  const double q = std::nearbyint(coef / bin);
  if (q < static_cast<double>(-kQuantRadius) ||
      q >= static_cast<double>(kQuantRadius) || !std::isfinite(q))
    return {std::isfinite(q)
                ? static_cast<std::int64_t>(std::clamp(q, -9.0e18, 9.0e18))
                : 0,
            true};
  return {static_cast<std::int64_t>(q), false};
}

/// Huffman symbol of a quantized coefficient (0 for an outlier).
inline std::uint32_t symbol_of(Quantized v) {
  return v.outlier ? 0
                   : static_cast<std::uint32_t>(v.q + kQuantRadius + 1);
}

/// The rule over one Map&Process range, as the v2 codec quantizes:
/// symbols[i] = symbol_of(quantize(coef[order[i]], bin)) for i in [0, n).
/// One body, run as the host's ISA instance (DESIGN.md §16.1); an outlier's
/// bin index is left to quantize().
void quantize_range(const float* coef, const std::uint64_t* order, double bin,
                    std::uint32_t* symbols, std::size_t n);
void quantize_range(const double* coef, const std::uint64_t* order,
                    double bin, std::uint32_t* symbols, std::size_t n);

/// Bin index a symbol stands for; the outlier marker reads as 0 until the
/// outlier list overwrites it.
inline std::int64_t bin_of(std::uint32_t symbol) {
  return symbol == 0 ? 0
                     : static_cast<std::int64_t>(symbol) - kQuantRadius - 1;
}

}  // namespace hpdr::mgard

#endif  // HPDR_ALGORITHMS_MGARD_QUANTIZE_HPP
