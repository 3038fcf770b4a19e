#ifndef HPDR_ALGORITHMS_SZ_SZ_HPP
#define HPDR_ALGORITHMS_SZ_SZ_HPP

/// \file sz.hpp
/// cuSZ-style error-bounded lossy compressor (the paper's cuSZ v0.6
/// comparison baseline, Figs. 1, 16, 17), built on cuSZ's dual-quantization
/// scheme — the design that makes its compression kernel embarrassingly
/// parallel (Tian et al., PACT'20): values are *pre*-quantized to integers
/// P = round(x / 2eb) up front, then the Lorenzo predictor runs on the exact
/// integers, so prediction residuals need no sequential error feedback and
/// every element encodes independently. Residuals are Huffman-coded; an
/// element whose residual leaves the quantization alphabet, or whose
/// prequantized value misses the bound, is stored exactly as an outlier.
/// The error bound (≤ eb) comes entirely from the prequantization.
/// Decoding rebuilds P with a raster scan.

#include <cstdint>
#include <span>
#include <vector>

#include "adapter/device.hpp"
#include "core/ndarray.hpp"

namespace hpdr::sz {

/// Compress with a relative L∞ error bound (relative to the value range).
std::vector<std::uint8_t> compress(const Device& dev,
                                   NDView<const float> data, double rel_eb);
std::vector<std::uint8_t> compress(const Device& dev,
                                   NDView<const double> data, double rel_eb);

/// Decompress straight into `out`, whose shape and element type must be
/// the stream's: a stream of any other shape or type throws before the
/// decoder allocates or writes a value. A stream that fails later may
/// leave `out` partly written.
void decompress(const Device& dev, std::span<const std::uint8_t> stream,
                NDView<float> out);
void decompress(const Device& dev, std::span<const std::uint8_t> stream,
                NDView<double> out);

namespace detail {

/// Quantization alphabet geometry of the dual-quant codec: residuals in
/// [-kRadius, kRadius] map to symbols 1..2·kRadius+1; symbol 0 marks an
/// outlier stored exactly. Exposed so tests and bench/kernels agree with
/// the codec bit-for-bit.
inline constexpr std::int64_t kRadius = std::int64_t{1} << 15;
inline constexpr std::size_t kAlphabet = 2 * kRadius + 2;
/// Prequantized integers stay well inside int64 so Lorenzo sums (up to 8
/// terms) cannot overflow.
inline constexpr double kMaxPrequant = 9.0e15;

/// Dual-quantization phase 1: prequantize every element to the integer
/// lattice P = round(x / bin) and flag elements whose reconstruction
/// misses the bound (outliers). Chunked + SIMD inner loops; element
/// results are identical to the scalar definition.
void prequantize(const Device& dev, const float* data, std::size_t n,
                 double bin, double abs_eb, std::int64_t* P,
                 std::uint8_t* oob);
void prequantize(const Device& dev, const double* data, std::size_t n,
                 double bin, double abs_eb, std::int64_t* P,
                 std::uint8_t* oob);

/// Dual-quantization phase 2: integer Lorenzo residuals over the lattice,
/// emitted as Huffman-ready symbols (0 = outlier). Row-wise with hoisted
/// neighbour-row pointers — no per-element coordinate div/mod — and SIMD
/// interior loops; symbols are identical to the per-element definition.
void lorenzo_residuals(const Device& dev, const std::int64_t* P,
                       const std::uint8_t* oob, const Shape& cs,
                       std::uint32_t* symbols);

}  // namespace detail

}  // namespace hpdr::sz

#endif  // HPDR_ALGORITHMS_SZ_SZ_HPP
