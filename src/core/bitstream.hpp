#ifndef HPDR_CORE_BITSTREAM_HPP
#define HPDR_CORE_BITSTREAM_HPP

/// \file bitstream.hpp
/// Bit-granular and byte-granular serialization primitives used by every
/// encoder in HPDR (Huffman codes, ZFP bitplanes, container metadata).
///
/// Bit order convention: within each 64-bit word, bits are filled from the
/// least significant position upward; words are stored little-endian. Both
/// the writer and the reader share this convention, so streams are portable
/// across the Serial, OpenMP, and SimGpu adapters — the portability property
/// at the heart of the paper (§II-B "Diverse processor architectures").
///
/// Hot paths are word-at-a-time (DESIGN.md §11): the writer merges whole
/// source words per iteration in append() (with a memcpy fast path at
/// 64-bit-aligned destinations), and the reader serves any get()/peek() of
/// up to 57 bits from a single unaligned little-endian load. Byte-order
/// portability is preserved: big-endian hosts fall back to an explicit
/// little-endian byte gather, so streams stay identical everywhere.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "core/error.hpp"

namespace hpdr {

/// Append-only bit writer backed by a growable word buffer.
///
/// Invariant: `words_.size() == ceil(bit_count_ / 64)` and every bit at
/// position >= bit_count_ is zero. append() and put() rely on both (fresh
/// words can be assigned rather than OR-merged; shifted-in source tails
/// carry zeros).
class BitWriter {
 public:
  BitWriter() { words_.reserve(64); }

  /// Append the low `nbits` bits of `value` (nbits in [0,64]).
  void put(std::uint64_t value, unsigned nbits) {
    HPDR_ASSERT(nbits <= 64);
    if (nbits == 0) return;
    if (nbits < 64) value &= (std::uint64_t{1} << nbits) - 1;
    const unsigned off = bit_count_ & 63u;
    const std::size_t w = bit_count_ >> 6u;
    bit_count_ += nbits;
    const std::size_t need = (bit_count_ + 63) >> 6u;
    if (need > words_.size()) words_.resize(need, 0);
    words_[w] |= value << off;
    if (off + nbits > 64) words_[w + 1] = value >> (64 - off);
  }

  void put_bit(bool b) { put(b ? 1u : 0u, 1); }

  /// Fast path for word-granular payloads: append a full 64-bit word. When
  /// the write position is word-aligned this is a single push_back.
  void put_aligned(std::uint64_t value) {
    if ((bit_count_ & 63u) == 0) {
      words_.push_back(value);
      bit_count_ += 64;
    } else {
      put(value, 64);
    }
  }

  /// Pre-size the buffer for `nbits` more bits (exact word count, no
  /// incremental regrowth inside hot put()/append() loops).
  void reserve_bits(std::size_t nbits) {
    words_.reserve((bit_count_ + nbits + 63) >> 6u);
  }

  /// Append another writer's bits. This is the merge step of parallel
  /// serialization: threads encode disjoint chunks into private writers and
  /// a prefix sum of bit counts places each at its global offset.
  void append(const BitWriter& other) {
    append_words(other.words_, other.bit_count_);
  }

  /// Append the first `nbits` bits of a word buffer laid out like this
  /// writer's (LSB-first). Bits of `src` at positions >= nbits must be zero,
  /// as they are in any BitWriter and in the ZFP codec's zeroed block slots.
  ///
  /// Word-at-a-time: the destination is resized once to the exact final
  /// word count, then source words are either memcpy'd (64-bit-aligned
  /// destination) or funnel-shifted into two destination words each.
  void append_words(std::span<const std::uint64_t> src, std::size_t nbits) {
    if (nbits == 0) return;
    const std::size_t nwords = (nbits + 63) >> 6u;
    HPDR_ASSERT(src.size() >= nwords);
    const unsigned off = bit_count_ & 63u;
    const std::size_t w = bit_count_ >> 6u;
    bit_count_ += nbits;
    const std::size_t need = (bit_count_ + 63) >> 6u;
    if (need > words_.size()) words_.resize(need, 0);
    if (off == 0) {
      std::memcpy(words_.data() + w, src.data(),
                  nwords * sizeof(std::uint64_t));
    } else {
      std::uint64_t* dst = words_.data() + w;
      dst[0] |= src[0] << off;
      for (std::size_t i = 1; i < nwords; ++i)
        dst[i] = (src[i - 1] >> (64 - off)) | (src[i] << off);
      // Spill of the last source word's high bits, when they cross into one
      // more destination word (src tail bits above nbits are zero, so this
      // cannot dirty bits past the new bit_count_).
      if (need - w > nwords) dst[nwords] = src[nwords - 1] >> (64 - off);
    }
  }

  std::size_t bit_size() const { return bit_count_; }
  std::size_t byte_size() const { return (bit_count_ + 7) / 8; }

  /// Serialize to a tightly sized byte vector (little-endian words).
  std::vector<std::uint8_t> to_bytes() const {
    std::vector<std::uint8_t> out(byte_size());
    if (!out.empty())
      std::memcpy(out.data(), words_.data(), out.size());
    return out;
  }

  /// Raw word storage, useful for zero-copy appends into containers.
  std::span<const std::uint64_t> words() const { return words_; }

  void clear() {
    words_.clear();
    bit_count_ = 0;
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t bit_count_ = 0;
};

/// Sequential bit reader over a byte span produced by BitWriter.
class BitReader {
 public:
  BitReader(std::span<const std::uint8_t> bytes)
      : bytes_(bytes), bit_limit_(bytes.size() * 8) {}

  BitReader(std::span<const std::uint8_t> bytes, std::size_t bit_limit)
      : bytes_(bytes), bit_limit_(bit_limit) {
    HPDR_REQUIRE(bit_limit <= bytes.size() * 8, "bit_limit beyond buffer");
  }

  /// Read `nbits` bits; reading past the limit throws (corrupt stream).
  std::uint64_t get(unsigned nbits) {
    HPDR_ASSERT(nbits <= 64);
    HPDR_REQUIRE(pos_ + nbits <= bit_limit_, "bitstream exhausted");
    const std::uint64_t v = extract(pos_, nbits);
    pos_ += nbits;
    return v;
  }

  bool get_bit() { return get(1) != 0; }

  /// Read `nbits` without consuming them (caller must ensure remaining()
  /// >= nbits). Used by table-driven decoders.
  std::uint64_t peek(unsigned nbits) const {
    HPDR_ASSERT(pos_ + nbits <= bit_limit_);
    return extract(pos_, nbits);
  }

  /// Consume `nbits` previously peek()ed.
  void skip(unsigned nbits) {
    HPDR_REQUIRE(pos_ + nbits <= bit_limit_, "skip beyond bitstream");
    pos_ += nbits;
  }

  /// Bits remaining before the limit.
  std::size_t remaining() const { return bit_limit_ - pos_; }
  std::size_t position() const { return pos_; }

  /// Skip forward; used by fixed-rate decoders to jump between blocks.
  void seek(std::size_t bit_pos) {
    HPDR_REQUIRE(bit_pos <= bit_limit_, "seek beyond bitstream");
    pos_ = bit_pos;
  }

 private:
  /// Load up to 64 bits starting at absolute bit `bitpos`, LSB-first,
  /// zero-padded past the end of the buffer. At least 57 bits following
  /// `bitpos` are valid (when that many exist in the buffer).
  std::uint64_t load_word(std::size_t bitpos) const {
    const std::size_t byte = bitpos >> 3u;
    const std::size_t avail = bytes_.size() - byte;
    std::uint64_t word = 0;
    if constexpr (std::endian::native == std::endian::little) {
      if (avail >= sizeof(word)) {
        std::memcpy(&word, bytes_.data() + byte, sizeof(word));
      } else if (avail > 0) {
        std::memcpy(&word, bytes_.data() + byte, avail);
      }
    } else {
      const std::size_t n = std::min<std::size_t>(avail, sizeof(word));
      for (std::size_t i = 0; i < n; ++i)
        word |= static_cast<std::uint64_t>(bytes_[byte + i]) << (8 * i);
    }
    return word >> (bitpos & 7u);
  }

  /// Branch-light multi-bit read: one unaligned word load covers any width
  /// up to 57 bits; widths 58..64 take a second (byte-aligned) load. The
  /// caller has already bounds-checked [bitpos, bitpos + nbits).
  std::uint64_t extract(std::size_t bitpos, unsigned nbits) const {
    if (nbits == 0) return 0;
    std::uint64_t v = load_word(bitpos);
    const unsigned valid = 64 - static_cast<unsigned>(bitpos & 7u);
    if (nbits > valid)  // valid >= 57, so only for the widest reads
      v |= load_word(bitpos + valid) << valid;
    if (nbits < 64) v &= (std::uint64_t{1} << nbits) - 1;
    return v;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t bit_limit_ = 0;
  std::size_t pos_ = 0;
};

/// Growable byte sink with fixed-width and varint primitives. All container
/// metadata in HPDR (Huffman headers, codec headers, chunk tables) goes
/// through this class so the on-disk layout has a single definition.
class ByteWriter {
 public:
  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  void put_u64(std::uint64_t v) { put_le(v); }
  void put_f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    put_u64(bits);
  }

  /// LEB128 unsigned varint.
  void put_varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80u);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  void put_bytes(std::span<const std::uint8_t> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  void put_string(const std::string& s) {
    put_varint(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  void reserve(std::size_t bytes) { buf_.reserve(bytes); }
  std::size_t size() const { return buf_.size(); }
  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  template <class U>
  void put_le(U v) {
    for (unsigned i = 0; i < sizeof(U); ++i)
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  std::vector<std::uint8_t> buf_;
};

/// Sequential reader matching ByteWriter's layout.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t get_u8() { return get_le<std::uint8_t>(); }
  std::uint64_t get_u64() { return get_le<std::uint64_t>(); }
  double get_f64() {
    std::uint64_t bits = get_u64();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }

  std::uint64_t get_varint() {
    std::uint64_t v = 0;
    unsigned shift = 0;
    while (true) {
      HPDR_REQUIRE(pos_ < bytes_.size(), "varint truncated");
      const std::uint8_t b = bytes_[pos_++];
      v |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
      if (!(b & 0x80u)) break;
      shift += 7;
      HPDR_REQUIRE(shift < 64, "varint overlong");
    }
    return v;
  }

  std::span<const std::uint8_t> get_bytes(std::size_t n) {
    HPDR_REQUIRE(pos_ + n <= bytes_.size(), "byte stream truncated");
    auto s = bytes_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  std::string get_string() {
    const std::size_t n = get_varint();
    auto s = get_bytes(n);
    return {reinterpret_cast<const char*>(s.data()), s.size()};
  }

  std::size_t position() const { return pos_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  template <class U>
  U get_le() {
    HPDR_REQUIRE(pos_ + sizeof(U) <= bytes_.size(), "byte stream truncated");
    U v = 0;
    for (unsigned i = 0; i < sizeof(U); ++i)
      v |= static_cast<U>(static_cast<U>(bytes_[pos_ + i]) << (8 * i));
    pos_ += sizeof(U);
    return v;
  }
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace hpdr

#endif  // HPDR_CORE_BITSTREAM_HPP
