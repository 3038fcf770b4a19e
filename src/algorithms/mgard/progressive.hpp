#ifndef HPDR_ALGORITHMS_MGARD_PROGRESSIVE_HPP
#define HPDR_ALGORITHMS_MGARD_PROGRESSIVE_HPP

/// \file progressive.hpp
/// Refinement-component codec for stream-format v3 (DESIGN.md §15): one
/// chunk of the pipeline container is encoded as an ordered sequence of
/// *components* — MGARD decomposition levels outermost (coarsest first),
/// ZFP-style negabinary bitplane groups innermost (most significant
/// first) — such that any prefix of the component sequence decodes to a
/// valid reconstruction with a known L∞ error bound, and appending the
/// next component only ever tightens that bound.
///
/// The quantization is *exactly* the v2 MGARD codec's (same normalized
/// shape, same hierarchy, same per-level bins, same outlier rule), so
/// consuming every component reproduces the v2 decode byte-for-byte: the
/// quantized integers are recovered losslessly from their bitplanes and
/// replayed through the identical dequantize + recompose float ops.
///
/// Per-prefix error bound (recorded by the encoder in the component
/// index, verified by the property suite): with bins τ_l and the v2
/// error model's per-level amplification A = 2.5·rank,
///
///   level absent entirely   e_l = max |coefficient| at level l
///   p low planes missing    e_l = τ_l/2 + τ_l·(2^p − 1)
///   level complete          e_l = τ_l/2
///
/// and the reconstruction error after any prefix is ≤ A·Σ_l e_l. The
/// full-prefix case collapses to the v2 budget A·Σ τ_l/2 ≤ abs_eb.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "adapter/device.hpp"
#include "compressor/compressor.hpp"
#include "core/ndarray.hpp"

namespace hpdr::mgard {

/// Bitplanes per refinement component within one level. Small groups give
/// a finer bound ladder (more refinement stops) at the cost of a little
/// framing overhead; 2 keeps loose-bound prefixes small because each
/// level's outlier block ships in a planeless opener component.
inline constexpr std::size_t kPlanesPerGroup = 2;

/// One self-contained refinement component. `payload` is the frame body
/// (kind byte + level/plane header + packed bitplanes); `bound` is the
/// absolute L∞ error bound guaranteed by the chunk prefix that ends with
/// this component (monotone non-increasing along the sequence).
struct ProgressiveComponent {
  std::vector<std::uint8_t> payload;
  double bound = 0.0;
};

/// A chunk encoded as an ordered refinement-component sequence.
struct ProgressiveChunk {
  std::uint8_t mode = 0;      ///< 0 = raw passthrough, 1 = lossy levels
  double abs_eb = 0.0;        ///< quantization budget (0 for raw chunks)
  double eb_scale = 1.0;      ///< value-range extent: rel bound × this = abs
  double initial_bound = 0.0; ///< bound of the empty prefix (all-zero data)
  std::vector<ProgressiveComponent> components;
};

/// Encode one pipeline chunk. Chunks the v2 MGARD codec would store raw
/// (normalized size < 27 or any normalized dimension < 3) become a single
/// lossless raw component with bound 0.
ProgressiveChunk progressive_encode(const Device& dev, const void* data,
                                    const Shape& shape, DType dtype,
                                    double rel_eb);

/// Incremental reconstruction state for one chunk: feed component payloads
/// in stream order with consume(), then materialize() the current
/// precision into an output buffer. Bytes already consumed are never
/// needed again — refinement only appends.
class ProgressiveChunkDecoder {
 public:
  /// `abs_eb` and `mode` come from the chunk's v3 header entry.
  ProgressiveChunkDecoder(const Device& dev, const Shape& chunk_shape,
                          DType dtype, std::uint8_t mode, double abs_eb);
  ~ProgressiveChunkDecoder();

  /// Parse one component payload (checksum already verified by the
  /// caller) into the accumulator state. Throws hpdr::Error on a
  /// malformed frame. Components must arrive in stream order.
  void consume(std::span<const std::uint8_t> payload);

  /// Dequantize + recompose the current state into `out`
  /// (chunk_shape.size() elements of the constructed dtype).
  void materialize(const Device& dev, void* out) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hpdr::mgard

#endif  // HPDR_ALGORITHMS_MGARD_PROGRESSIVE_HPP
