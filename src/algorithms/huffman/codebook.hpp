#ifndef HPDR_ALGORITHMS_HUFFMAN_CODEBOOK_HPP
#define HPDR_ALGORITHMS_HUFFMAN_CODEBOOK_HPP

/// \file codebook.hpp
/// Treeless two-phase Huffman codebook generation (paper §IV-B / Alg. 2;
/// cites Ostadzadeh et al.'s two-phase parallel construction). Phase one
/// computes optimal code *lengths* in place from sorted frequencies via the
/// Moffat–Katajainen algorithm — no tree is materialized. Phase two assigns
/// canonical codes from the lengths, which makes the codebook portable: any
/// device adapter reproduces identical codes from the lengths alone, so data
/// encoded on a GPU decodes on a CPU (the paper's portability requirement).

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/bitstream.hpp"

namespace hpdr::huffman {

/// Canonical Huffman codebook over symbols [0, num_symbols).
struct Codebook {
  std::vector<std::uint8_t> lengths;  ///< code length per symbol; 0 = absent
  /// Canonical code per symbol, bit-reversed so the encoder can emit it with
  /// a single BitWriter::put and the bit-serial decoder sees MSB first.
  std::vector<std::uint64_t> codes_reversed;
  std::uint8_t max_length = 0;

  std::size_t num_symbols() const { return lengths.size(); }

  /// Expected encoded size in bits for the frequency distribution used to
  /// build this codebook.
  std::uint64_t encoded_bits(std::span<const std::uint64_t> freq) const;

  /// Header serialization: lengths only (canonical codes are recomputed on
  /// load — smaller headers, identical codes everywhere).
  void serialize(ByteWriter& out) const;
  static Codebook deserialize(ByteReader& in);
};

/// Phase 1: Moffat–Katajainen in-place minimum-redundancy code lengths.
/// `sorted_freq` must be non-empty and sorted ascending; the returned vector
/// holds the code length of each entry in the same order.
std::vector<std::uint8_t> minimum_redundancy_lengths(
    std::span<const std::uint64_t> sorted_freq);

/// Build the full canonical codebook from (unsorted) symbol frequencies.
/// Symbols with zero frequency get no code.
Codebook build_codebook(std::span<const std::uint64_t> freq);

/// Canonical decoding tables derived from a codebook. Three paths:
///  * the canonical bit-serial path (decode_one), always available;
///  * a lookup-table fast path (decode_one_lut) resolving codes of up to
///    kLutBits bits in a single table probe — the standard technique the
///    GPU Huffman decoders the paper builds on use per thread;
///  * the batch path (decode_run): multi-symbol LUT entries resolve up to
///    two complete codewords per probe, the decoder's dominant case for
///    the short center codes of quantization alphabets.
struct DecodeTable {
  /// Prefix width of the fast-path table (2^12 entries × 8 B = 32 KiB —
  /// sized to stay shared-memory/L1 resident).
  static constexpr unsigned kLutBits = 12;

  /// LUT entry layout (0 = slow path):
  ///   bits [3:0]   total bits consumed by all packed symbols (≤ kLutBits)
  ///   bits [7:4]   length of the first codeword alone
  ///   bits [9:8]   number of packed symbols (1 or 2)
  ///   bits [33:10] first symbol
  ///   bits [57:34] second symbol (when two are packed)
  /// Symbols fit 24 bits — the decoders reject larger alphabets up front.
  static constexpr unsigned kEntryTotalShift = 0;
  static constexpr unsigned kEntryLen0Shift = 4;
  static constexpr unsigned kEntryCountShift = 8;
  static constexpr unsigned kEntrySym0Shift = 10;
  static constexpr unsigned kEntrySym1Shift = 34;
  static constexpr std::uint64_t kEntryLenMask = 0xF;
  static constexpr std::uint64_t kEntrySymMask = 0xFFFFFF;

  std::uint8_t max_length = 0;
  /// first_code[l] = canonical code value of the first length-l codeword.
  std::vector<std::uint64_t> first_code;
  /// offset[l] = index into `symbols` of the first length-l symbol.
  std::vector<std::uint32_t> offset;
  /// count[l] = number of length-l codewords.
  std::vector<std::uint32_t> count;
  /// Symbols sorted by (length, symbol) — canonical order.
  std::vector<std::uint32_t> symbols;
  /// Keyed by the next kLutBits stream bits (LSB-first, matching
  /// BitReader); entries pack up to two symbols (layout above).
  std::vector<std::uint64_t> lut;

  static DecodeTable build(const Codebook& cb);

  /// Memoized build: returns a shared table for this codebook's length
  /// vector, constructing it at most once per distinct codebook
  /// process-wide (thread-safe). The chunk-parallel decode workers and the
  /// serving layer hit this cache instead of rebuilding the LUT per chunk.
  static std::shared_ptr<const DecodeTable> cached(const Codebook& cb);

  /// True when the code lengths form a complete prefix code (Kraft sum 1)
  /// or a single one-bit code: the only codebooks build_codebook makes for
  /// a non-empty input. Any other codebook leaves bit patterns that match
  /// no codeword, so decoders reject it up front.
  bool complete() const;

  /// Decode one symbol by consuming bits from `reader` (bit-serial).
  std::uint32_t decode_one(BitReader& reader) const;

  /// Decode one symbol via the LUT, falling back to the serial path for
  /// long codes. Produces identical output to decode_one.
  std::uint32_t decode_one_lut(BitReader& reader) const;

  /// Decode exactly `count` symbols into `out`, taking multi-symbol LUT
  /// entries where the stream allows. Identical output to `count` calls of
  /// decode_one. Instantiated for `std::uint8_t` and `std::uint32_t`.
  template <class T>
  void decode_run(BitReader& reader, T* out, std::size_t count) const;
};

}  // namespace hpdr::huffman

#endif  // HPDR_ALGORITHMS_HUFFMAN_CODEBOOK_HPP
