#ifndef HPDR_ALGORITHMS_LZ4_LZ4_HPP
#define HPDR_ALGORITHMS_LZ4_LZ4_HPP

/// \file lz4.hpp
/// From-scratch LZ4-style lossless compressor standing in for nvCOMP-LZ4
/// v2.2, one of the paper's comparison baselines (Figs. 1, 16, 17). The
/// sequence encoding follows the LZ4 block format (token nibbles, extended
/// lengths, 16-bit offsets, greedy hash-table matching); data is framed in
/// independent 256 KiB blocks so compression and decompression parallelize
/// the way nvCOMP's batched API does.
///
/// Scientific floating-point data has little byte-level redundancy, which is
/// precisely why the paper measures LZ4 at a ~1.1× ratio and finds it cannot
/// accelerate I/O (Fig. 17) — this implementation reproduces that behaviour.

#include <cstdint>
#include <span>
#include <vector>

#include "adapter/device.hpp"

namespace hpdr::lz4 {

/// Independent-block granularity of the frame (parallelism unit).
inline constexpr std::size_t kBlockSize = 256u * 1024;

/// Compress a raw byte buffer. Never fails: incompressible blocks are
/// stored raw (1 + size bytes).
std::vector<std::uint8_t> compress(const Device& dev,
                                   std::span<const std::uint8_t> data);

/// Decompress a frame produced by compress() straight into `out`, which
/// must be exactly as long as the frame says; a frame of any other length
/// throws before a byte is written. Throws hpdr::Error on a corrupt stream.
void decompress(const Device& dev, std::span<const std::uint8_t> frame,
                std::span<std::uint8_t> out);

/// Single-block primitives (exposed for tests).
std::vector<std::uint8_t> compress_block(std::span<const std::uint8_t> src);
void decompress_block(std::span<const std::uint8_t> src,
                      std::span<std::uint8_t> dst);

}  // namespace hpdr::lz4

#endif  // HPDR_ALGORITHMS_LZ4_LZ4_HPP
