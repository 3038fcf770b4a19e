#ifndef HPDR_ALGORITHMS_HUFFMAN_HUFFMAN_HPP
#define HPDR_ALGORITHMS_HUFFMAN_HUFFMAN_HPP

/// \file huffman.hpp
/// Huffman-X: the paper's Huffman lossless pipeline (Alg. 2, Fig. 6) built
/// on the HPDR abstractions:
///
///   1. Histogram            — Global abstraction (all threads cooperate on
///                             frequency counters; per-thread privatization
///                             as in the optimized GPU histogram of [43]).
///   2. Sort + filter        — frequencies sorted, zero-frequency keys
///                             dropped (host-side, negligible cost).
///   3. Codebook             — two-phase treeless generation (codebook.hpp).
///   4. Encode               — Locality abstraction: chunks of symbols are
///                             encoded independently by groups.
///   5. Compact serialization— Global abstraction: a prefix sum over chunk
///                             bit counts places every chunk at its final
///                             bit offset in the output stream.
///
/// One coder serves every symbol type: bytes (Huffman-X itself) and the
/// `u32` quantization codes of MGARD-X and SZ run the same encoder and
/// decoder (DESIGN.md §16.3). The encoder counts each chunk's bits before
/// it writes, so every group writes its codes straight into the returned
/// buffer. The chunk structure is retained in the container (per-chunk bit
/// counts), which is what makes *decoding* parallel too.

#include <cstdint>
#include <span>
#include <vector>

#include "adapter/abstractions.hpp"
#include "adapter/device.hpp"

namespace hpdr::huffman {

/// Number of symbols each GEM group encodes; also the parallel-decode
/// granularity recorded in the stream container.
inline constexpr std::size_t kEncodeChunk = 1u << 16;

/// Encode `symbols` (values must be < alphabet_size) into a self-describing
/// compressed buffer.
std::vector<std::uint8_t> encode_u32(const Device& dev,
                                     std::span<const std::uint32_t> symbols,
                                     std::size_t alphabet_size);

/// Inverse of encode_u32.
std::vector<std::uint32_t> decode_u32(const Device& dev,
                                      std::span<const std::uint8_t> stream);

/// Huffman-X as a standalone byte-lossless compressor (alphabet = 256);
/// this is the configuration benchmarked in Fig. 12.
std::vector<std::uint8_t> compress_bytes(const Device& dev,
                                         std::span<const std::uint8_t> data);

/// Inverse of compress_bytes, straight into `out`, which must be exactly as
/// long as the stream says; a stream of any other length throws before a
/// byte is written.
void decompress_bytes(const Device& dev, std::span<const std::uint8_t> stream,
                      std::span<std::uint8_t> out);

/// Step 1 of the pipeline, exposed for reuse and tests: cooperative
/// histogram over the whole domain (Global abstraction).
std::vector<std::uint64_t> histogram_u32(const Device& dev,
                                         std::span<const std::uint32_t> symbols,
                                         std::size_t alphabet_size);

}  // namespace hpdr::huffman

#endif  // HPDR_ALGORITHMS_HUFFMAN_HUFFMAN_HPP
