#include "algorithms/huffman/huffman.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>

#include "algorithms/huffman/codebook.hpp"
#include "core/bitstream.hpp"
#include "core/error.hpp"

namespace hpdr::huffman {
namespace {

constexpr std::uint8_t kFormatVersion = 1;

/// Chunks one decode group interleaves: four independent bit cursors, so
/// each chunk's serial codeword dependency hides behind the other three.
constexpr unsigned kInterleave = 4;

/// Alphabets up to this size count each chunk in a zeroed table over the
/// whole alphabet and then walk it for the live symbols; the walk is at
/// most a sixteenth of the chunk's own symbols. Larger alphabets (the MGARD
/// and SZ quantization codes) count in a table written only where the
/// chunk has symbols, so no step of a call zeroes or walks the alphabet.
constexpr std::size_t kDenseAlphabet = kEncodeChunk / 16;

/// One slice's symbol counts, sparse: the symbols it holds, ascending, and
/// how often each occurs (never zero). Counts are 64-bit at every size.
struct Counts {
  std::vector<std::uint32_t> symbols;
  std::vector<std::uint64_t> counts;
};

template <class T>
Counts count_slice(std::span<const T> slice, std::size_t alphabet) {
  Counts out;
  if (alphabet <= kDenseAlphabet) {
    std::vector<std::uint64_t> table(alphabet, 0);
    if (sizeof(T) == 1 && alphabet >= 256) {  // every byte is a symbol
      for (const T s : slice) ++table[s];
    } else {
      for (const T s : slice) {
        HPDR_REQUIRE(s < alphabet, "symbol " << std::uint64_t{s}
                                             << " outside alphabet of "
                                             << alphabet);
        ++table[s];
      }
    }
    for (std::size_t s = 0; s < alphabet; ++s) {
      if (!table[s]) continue;
      out.symbols.push_back(static_cast<std::uint32_t>(s));
      out.counts.push_back(table[s]);
    }
    return out;
  }
  // The first pass checks each symbol and clears its counter; the second
  // counts, listing each symbol at its first occurrence. No counter is read
  // before the first pass wrote it.
  const auto table = std::make_unique_for_overwrite<std::uint64_t[]>(alphabet);
  for (const T s : slice) {
    HPDR_REQUIRE(s < alphabet, "symbol " << std::uint64_t{s}
                                         << " outside alphabet of "
                                         << alphabet);
    table[s] = 0;
  }
  for (const T s : slice)
    if (table[s]++ == 0) out.symbols.push_back(s);
  std::sort(out.symbols.begin(), out.symbols.end());
  out.counts.resize(out.symbols.size());
  for (std::size_t i = 0; i < out.symbols.size(); ++i)
    out.counts[i] = table[out.symbols[i]];
  return out;
}

/// Stage 1, the histogram (Global abstraction): each chunk of kEncodeChunk
/// symbols is counted by its own worker (the r-per-block replication
/// strategy of the GPU histogram in [43]), as a sparse list.
template <class T>
std::vector<Counts> count_chunks(const Device& dev, std::span<const T> symbols,
                                 std::size_t alphabet) {
  const std::size_t n = symbols.size();
  std::vector<Counts> part((n + kEncodeChunk - 1) / kEncodeChunk);
  global_stage(dev, part.size(), [&](std::size_t c) {
    const std::size_t begin = c * kEncodeChunk;
    part[c] = count_slice(
        symbols.subspan(begin, std::min(kEncodeChunk, n - begin)), alphabet);
  });
  return part;
}

/// The sum of sparse counts, merged in symbol order: a walk over the live
/// symbols of each part, never the alphabet.
Counts total(const std::vector<Counts>& part) {
  Counts sum;
  for (const Counts& p : part) {
    Counts merged;
    const std::size_t na = sum.symbols.size(), nb = p.symbols.size();
    merged.symbols.reserve(na + nb);
    merged.counts.reserve(na + nb);
    std::size_t a = 0, b = 0;
    while (a < na || b < nb) {
      const std::uint32_t sa = a < na ? sum.symbols[a] : ~std::uint32_t{0};
      const std::uint32_t sb = b < nb ? p.symbols[b] : ~std::uint32_t{0};
      const bool take_a = a < na && sa <= sb, take_b = b < nb && sb <= sa;
      merged.symbols.push_back(take_a ? sa : sb);
      merged.counts.push_back((take_a ? sum.counts[a++] : 0) +
                              (take_b ? p.counts[b++] : 0));
    }
    sum = std::move(merged);
  }
  return sum;
}

/// The payload is little-endian on every host (core/bitstream.hpp).
inline void store_le64(std::uint8_t* p, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, 8);
  } else {
    for (unsigned i = 0; i < 8; ++i)
      p[i] = static_cast<std::uint8_t>(v >> 8 * i);
  }
}

inline std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, 8);
  } else {
    for (unsigned i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << 8 * i;
  }
  return v;
}

/// Writes the codes of `sym[0, m)` from bit `lead` of `dst`, the byte that
/// holds the chunk's first bit (its low `lead` bits belong to the previous
/// chunk and are left zero). Stores only whole bytes below `end`, the byte
/// that holds the chunk's end, and returns the chunk's bits in that byte
/// for the merge after the stage.
///
/// The fast loop ORs S codes into a 64-bit accumulator, stores 8 bytes and
/// steps past the bytes it completed; S · max_length ≤ 56 keeps the
/// accumulator from overflowing. It runs while the 8-byte store stays below
/// `end`. The last bytes, and codes longer than 56 bits (S = 0), go one
/// byte at a time.
template <unsigned S, class T>
std::uint8_t encode_chunk(const T* sym, std::size_t m,
                          const std::uint64_t* code, const std::uint8_t* len,
                          unsigned lead, std::uint8_t* dst,
                          const std::uint8_t* end) {
  std::uint64_t acc = 0;
  unsigned nbits = lead;
  std::size_t i = 0;
  if constexpr (S > 0) {
    for (; i + S <= m && end - dst >= 8; i += S) {
      for (unsigned k = 0; k < S; ++k) {
        acc |= code[sym[i + k]] << nbits;
        nbits += len[sym[i + k]];
      }
      store_le64(dst, acc);
      dst += nbits >> 3;
      acc >>= nbits & 56u;
      nbits &= 7u;
    }
  }
  for (; i < m; ++i) {
    std::uint64_t c = code[sym[i]];
    for (unsigned l = len[sym[i]]; l > 0; c >>= 32) {
      const unsigned w = std::min(l, 32u);
      acc |= (c & 0xFFFFFFFFu) << nbits;
      nbits += w;
      l -= w;
      for (; nbits >= 8; nbits -= 8, acc >>= 8)
        *dst++ = static_cast<std::uint8_t>(acc);
    }
  }
  return static_cast<std::uint8_t>(acc);
}

template <class T>
using ChunkEncoder = std::uint8_t (*)(const T*, std::size_t,
                                      const std::uint64_t*,
                                      const std::uint8_t*, unsigned,
                                      std::uint8_t*, const std::uint8_t*);

template <class T>
ChunkEncoder<T> chunk_encoder(unsigned max_length) {
  if (max_length <= 14) return encode_chunk<4, T>;
  if (max_length <= 18) return encode_chunk<3, T>;
  if (max_length <= 28) return encode_chunk<2, T>;
  if (max_length <= 56) return encode_chunk<1, T>;
  return encode_chunk<0, T>;
}

template <class T>
std::vector<std::uint8_t> encode(const Device& dev, std::span<const T> symbols,
                                 std::size_t alphabet_size) {
  const std::size_t n = symbols.size();
  const std::size_t nchunks = (n + kEncodeChunk - 1) / kEncodeChunk;
  const Shape domain{n}, chunk{kEncodeChunk};

  // Stages 1-3: count each chunk, sum the counts, and build the codebook
  // over the live symbols (Alg. 2 line 3 filters the rest).
  const std::vector<Counts> part = count_chunks(dev, symbols, alphabet_size);
  const Counts freq = total(part);
  const Codebook cb =
      build_codebook(alphabet_size, freq.symbols, freq.counts);
  // The encoder's direct-index code table, written only at the live
  // symbols: the only ones it looks up, so it is never zeroed or walked.
  const auto code =
      std::make_unique_for_overwrite<std::uint64_t[]>(alphabet_size);
  const auto len = std::make_unique_for_overwrite<std::uint8_t[]>(alphabet_size);
  for (std::size_t i = 0; i < cb.symbols.size(); ++i) {
    code[cb.symbols[i]] = cb.codes_reversed[i];
    len[cb.symbols[i]] = cb.lengths[i];
  }
  // Each chunk's bit count: its counts dotted with their code lengths.
  std::vector<std::size_t> offset(nchunks + 1, 0);
  for (std::size_t c = 0; c < nchunks; ++c)
    for (std::size_t i = 0; i < part[c].symbols.size(); ++i)
      offset[c + 1] += part[c].counts[i] * len[part[c].symbols[i]];

  // Stage 5, compact serialization: the prefix sum over the bit counts is
  // every chunk's final bit offset. The header records the counts (the
  // table that makes decode parallel), then the buffer grows once to its
  // final size.
  for (std::size_t c = 0; c < nchunks; ++c) offset[c + 1] += offset[c];
  ByteWriter header;
  header.put_u8(kFormatVersion);
  header.put_varint(n);
  header.put_varint(alphabet_size);
  cb.serialize(header);
  header.put_varint(nchunks);
  for (std::size_t c = 0; c < nchunks; ++c)
    header.put_varint(offset[c + 1] - offset[c]);
  const std::size_t payload_bytes = (offset[nchunks] + 7) / 8;
  header.put_varint(payload_bytes);
  std::vector<std::uint8_t> out = header.take();
  const std::size_t at = out.size();
  out.resize(at + payload_bytes);
  std::uint8_t* payload = out.data() + at;

  // Stage 4: every group writes its chunk's codes at their final bit
  // offset, storing only the bytes from the one that holds its first bit
  // up to the one that holds the next chunk's first bit. Its bits in that
  // shared byte come back as a tail and merge after the stage, so no two
  // groups store to one byte on any adapter.
  std::vector<std::uint8_t> tail(nchunks);
  const ChunkEncoder<T> write = chunk_encoder<T>(cb.max_length);
  locality(dev, domain, chunk, [&](const Block& b) {
    const std::size_t c = b.index;
    tail[c] = write(symbols.data() + b.origin[0], b.extent[0], code.get(),
                    len.get(), static_cast<unsigned>(offset[c] % 8),
                    payload + offset[c] / 8, payload + offset[c + 1] / 8);
  });
  for (std::size_t c = 0; c < nchunks; ++c)
    if (offset[c + 1] % 8) payload[offset[c + 1] / 8] |= tail[c];
  return out;
}

/// A stream whose header passed every check: decoding it writes exactly
/// `n` symbols and reads only inside `payload`.
struct Parsed {
  std::size_t n = 0;
  DecodeTable table;
  std::vector<std::size_t> offset;  ///< nchunks + 1 payload bit offsets
  std::span<const std::uint8_t> payload;
};

/// Parses a stream bound for an output of `n` symbols. A stream of any
/// other length throws before its codebook is read, and the codebook may
/// hold at most that many live symbols, so the caller's span bounds what a
/// hostile header can make it allocate.
Parsed parse(std::span<const std::uint8_t> stream, std::size_t max_alphabet,
             std::size_t n) {
  ByteReader in(stream);
  const std::uint8_t version = in.get_u8();
  HPDR_REQUIRE(version == kFormatVersion,
               "unsupported Huffman stream version " << int(version));
  Parsed p;
  p.n = in.get_varint();
  HPDR_REQUIRE(p.n == n, "Huffman stream holds " << p.n
                                                 << " symbols, output has "
                                                 << n);
  const std::size_t alphabet = in.get_varint();
  // Sanity limits: every symbol costs at least one payload bit and the
  // alphabet must fit the output type (and the LUT's 24-bit symbols).
  HPDR_REQUIRE(p.n <= stream.size() * std::size_t{64} + 64,
               "implausible Huffman symbol count");
  HPDR_REQUIRE(alphabet <= max_alphabet, "implausible Huffman alphabet");
  const Codebook cb = Codebook::deserialize(in, alphabet, p.n);
  const std::size_t nchunks = in.get_varint();
  HPDR_REQUIRE(nchunks == (p.n + kEncodeChunk - 1) / kEncodeChunk,
               "Huffman chunk table does not cover " << p.n << " symbols");
  p.offset.assign(nchunks + 1, 0);
  for (std::size_t c = 0; c < nchunks; ++c) {
    const std::size_t bits = in.get_varint();
    HPDR_REQUIRE(bits <= ~std::size_t{0} - p.offset[c],
                 "Huffman chunk table overflows");
    p.offset[c + 1] = p.offset[c] + bits;
  }
  p.payload = in.get_bytes(in.get_varint());
  HPDR_REQUIRE(p.offset[nchunks] <= p.payload.size() * 8,
               "Huffman payload truncated");
  // Every code is at least one bit long.
  HPDR_REQUIRE(p.n <= p.offset[nchunks],
               "Huffman chunk bits cannot hold " << p.n << " symbols");
  // Built per decode: it walks the live symbols and the fixed-size LUT.
  p.table = DecodeTable::build(cb);
  HPDR_REQUIRE(p.n == 0 || p.table.complete(), "incomplete Huffman codebook");
  return p;
}

/// One chunk's decode state.
template <class T>
struct Cursor {
  std::size_t pos = 0;    ///< next payload bit
  std::size_t limit = 0;  ///< one past the chunk's last bit
  T* out = nullptr;       ///< next output symbol
  T* end = nullptr;       ///< one past the chunk's last output symbol
};

/// Rounds `c` can take with unchecked LUT probes. A round consumes at most
/// kLutBits bits and two symbols; every probe's window must end inside the
/// chunk and its 8-byte load inside the payload.
template <class T>
std::size_t fast_rounds(const Cursor<T>& c, std::size_t payload_bits) {
  constexpr std::size_t kW = DecodeTable::kLutBits;
  if (c.limit < kW || payload_bits < 64) return 0;
  const std::size_t last = std::min(c.limit - kW, payload_bits - 64);
  if (c.pos > last) return 0;
  return std::min<std::size_t>((c.end - c.out) / 2, (last - c.pos) / kW + 1);
}

/// One unchecked probe: emits the entry's one or two symbols (a second
/// slot is always free, since a round needs two symbols left). Returns
/// false, consuming nothing, on a code longer than the LUT window.
template <class T>
bool probe(const std::uint64_t* lut, const std::uint8_t* data, Cursor<T>& c) {
  using DT = DecodeTable;
  const std::uint64_t e =
      lut[(load_le64(data + (c.pos >> 3)) >> (c.pos & 7)) &
          ((std::uint64_t{1} << DT::kLutBits) - 1)];
  if (e == 0) return false;
  const unsigned ns = static_cast<unsigned>((e >> DT::kEntryCountShift) & 3);
  c.pos += (e >> DT::kEntryTotalShift) & DT::kEntryLenMask;
  c.out[0] = static_cast<T>((e >> DT::kEntrySym0Shift) & DT::kEntrySymMask);
  c.out[1] = static_cast<T>((e >> DT::kEntrySym1Shift) & DT::kEntrySymMask);
  c.out += ns;
  return true;
}

/// Decodes the next symbol of `c` bit-serially (a code longer than the LUT
/// window), never reading past the chunk.
template <class T>
void decode_long(const DecodeTable& t, std::span<const std::uint8_t> payload,
                 Cursor<T>& c) {
  BitReader r(payload, c.limit);
  r.seek(c.pos);
  *c.out++ = static_cast<T>(t.decode_one(r));
  c.pos = r.position();
}

/// Decodes the rest of `c` with guarded reads; the chunk's codes must end
/// exactly at its recorded bit count.
template <class T>
void drain(const DecodeTable& t, std::span<const std::uint8_t> payload,
           Cursor<T>& c) {
  BitReader r(payload, c.limit);
  r.seek(c.pos);
  t.decode_run(r, c.out, static_cast<std::size_t>(c.end - c.out));
  HPDR_REQUIRE(r.position() == c.limit, "Huffman chunk bit count mismatch");
}

/// Decodes K chunks round-robin: one LUT probe per chunk per round, as many
/// rounds as every cursor can take unchecked. When one cursor runs out of
/// unchecked rounds (it is near its end) it drains through the guarded
/// path and the other K − 1 carry on interleaved.
template <unsigned K, class T>
void decode_group(const DecodeTable& t, std::span<const std::uint8_t> payload,
                  Cursor<T>* c) {
  const std::uint64_t* lut = t.lut.data();
  const std::size_t payload_bits = payload.size() * 8;
  for (;;) {
    std::size_t rounds = fast_rounds(c[0], payload_bits);
    for (unsigned s = 1; s < K; ++s)
      rounds = std::min(rounds, fast_rounds(c[s], payload_bits));
    if (rounds == 0) break;
    for (; rounds > 0; --rounds) {
      bool slow = false;
      for (unsigned s = 0; s < K; ++s) {
        if (probe(lut, payload.data(), c[s])) continue;
        decode_long(t, payload, c[s]);
        slow = true;  // it may have taken more than kLutBits bits
      }
      if (slow) break;
    }
  }
  unsigned s = 0;
  while (fast_rounds(c[s], payload_bits) != 0) ++s;
  drain(t, payload, c[s]);
  if constexpr (K > 1) {
    std::swap(c[s], c[K - 1]);
    decode_group<K - 1>(t, payload, c);
  }
}

/// Decodes a parsed stream into `out` (p.n symbols). Each group takes
/// kInterleave consecutive chunks, each starting at its recorded bit
/// offset.
template <class T>
void decode_into(const Device& dev, const Parsed& p, T* out) {
  const std::size_t nchunks = p.offset.size() - 1;
  const std::size_t groups = (nchunks + kInterleave - 1) / kInterleave;
  global_stage(dev, groups, [&](std::size_t g) {
    Cursor<T> c[kInterleave];  // chunks past the end stay empty
    for (unsigned k = 0; k < kInterleave; ++k) {
      const std::size_t ch = g * kInterleave + k;
      if (ch >= nchunks) break;
      const std::size_t begin = ch * kEncodeChunk;
      c[k] = {p.offset[ch], p.offset[ch + 1], out + begin,
              out + std::min(p.n, begin + kEncodeChunk)};
    }
    decode_group<kInterleave>(p.table, p.payload, c);
  });
}

constexpr std::size_t kByteAlphabet = 256;
/// DecodeTable packs symbols into 24 bits.
constexpr std::size_t kMaxAlphabet = std::size_t{1} << 24;

}  // namespace

std::vector<std::uint64_t> histogram_u32(
    const Device& dev, std::span<const std::uint32_t> symbols,
    std::size_t alphabet_size) {
  const Counts freq = total(count_chunks(dev, symbols, alphabet_size));
  std::vector<std::uint64_t> hist(alphabet_size, 0);
  for (std::size_t i = 0; i < freq.symbols.size(); ++i)
    hist[freq.symbols[i]] = freq.counts[i];
  return hist;
}

std::vector<std::uint8_t> encode_u32(const Device& dev,
                                     std::span<const std::uint32_t> symbols,
                                     std::size_t alphabet_size) {
  return encode(dev, symbols, alphabet_size);
}

void decode_u32(const Device& dev, std::span<const std::uint8_t> stream,
                std::span<std::uint32_t> out) {
  decode_into(dev, parse(stream, kMaxAlphabet, out.size()), out.data());
}

std::vector<std::uint8_t> compress_bytes(const Device& dev,
                                         std::span<const std::uint8_t> data) {
  return encode(dev, data, kByteAlphabet);
}

void decompress_bytes(const Device& dev, std::span<const std::uint8_t> stream,
                      std::span<std::uint8_t> out) {
  decode_into(dev, parse(stream, kByteAlphabet, out.size()), out.data());
}

}  // namespace hpdr::huffman
