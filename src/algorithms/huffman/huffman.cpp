#include "algorithms/huffman/huffman.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <exception>
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

/// Alphabets up to this size count one table per chunk when encoding. Such
/// a table is small next to its chunk's symbols, and a chunk's bit count is
/// then its table dotted with the code lengths, with no second pass over
/// the input. Larger alphabets (the MGARD and SZ quantization codes) count
/// one table per worker and sum code lengths chunk by chunk, since zeroing,
/// merging and dotting an alphabet-sized table per chunk would cost about
/// as much as the chunk itself. Each way is the faster one on its side
/// (measured in DESIGN.md §16.3): the length-sum pass makes a byte chunk's
/// encode 1.2-1.4x slower, and tables per chunk make an MGARD chunk's
/// 1.1-1.6x slower.
constexpr std::size_t kChunkTableAlphabet = kEncodeChunk / 16;

constexpr std::uint64_t kAllValid = ~std::uint64_t{0};

/// Counts `symbols` into `hist`. Returns the first symbol outside the
/// alphabet (counting stops there), or kAllValid.
template <class T>
std::uint64_t count_slice(std::span<const T> symbols, std::uint64_t* hist,
                          std::size_t alphabet_size) {
  if (sizeof(T) == 1 && alphabet_size >= 256) {  // every byte is a symbol
    for (const T s : symbols) ++hist[s];
    return kAllValid;
  }
  for (const T s : symbols) {
    if (s >= alphabet_size) return s;
    ++hist[s];
  }
  return kAllValid;
}

/// Counts consecutive slices of `per` symbols, one table of `alphabet_size`
/// counters per slice, each zeroed and filled by its own worker (Global
/// abstraction; the r-per-block replication strategy of the GPU histogram
/// in [43]). A symbol outside the alphabet ends its slice; the throw waits
/// until after the stage, because it must not cross an OpenMP region.
template <class T>
std::vector<std::vector<std::uint64_t>> count_slices(
    const Device& dev, std::span<const T> symbols, std::size_t alphabet_size,
    std::size_t per) {
  const std::size_t n = symbols.size();
  const std::size_t parts = std::max<std::size_t>(1, (n + per - 1) / per);
  std::vector<std::vector<std::uint64_t>> table(parts);
  std::vector<std::uint64_t> bad(parts, kAllValid);
  global_stage(dev, parts, [&](std::size_t p) {
    table[p].assign(alphabet_size, 0);
    const std::size_t begin = std::min(n, p * per);
    bad[p] = count_slice(symbols.subspan(begin, std::min(per, n - begin)),
                         table[p].data(), alphabet_size);
  });
  for (const std::uint64_t s : bad)
    HPDR_REQUIRE(s == kAllValid,
                 "symbol " << s << " outside alphabet of " << alphabet_size);
  return table;
}

template <class T>
std::vector<std::uint64_t> histogram(const Device& dev,
                                     std::span<const T> symbols,
                                     std::size_t alphabet_size) {
  // All threads cooperatively build the frequency counters and the tables
  // merge — identical result on every adapter. The table count follows the
  // device's parallel width, capped at one table per kEncodeChunk symbols,
  // so a Serial call zeroes one alphabet-sized table and merges nothing.
  const std::size_t n = symbols.size();
  const std::size_t parts = std::clamp<std::size_t>(
      dev.parallel_width(), 1,
      std::max<std::size_t>(1, (n + kEncodeChunk - 1) / kEncodeChunk));
  const std::size_t per = std::max<std::size_t>(1, (n + parts - 1) / parts);
  std::vector<std::vector<std::uint64_t>> partial =
      count_slices(dev, symbols, alphabet_size, per);
  std::vector<std::uint64_t>& hist = partial[0];
  if (partial.size() > 1)  // merge parallelized over the alphabet
    global_stage(dev, alphabet_size, [&](std::size_t s) {
      for (std::size_t p = 1; p < partial.size(); ++p) hist[s] += partial[p][s];
    });
  return std::move(hist);
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
std::uint8_t encode_chunk(const T* sym, std::size_t m, const Codebook& cb,
                          unsigned lead, std::uint8_t* dst,
                          const std::uint8_t* end) {
  const std::uint64_t* code = cb.codes_reversed.data();
  const std::uint8_t* len = cb.lengths.data();
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
using ChunkEncoder = std::uint8_t (*)(const T*, std::size_t, const Codebook&,
                                      unsigned, std::uint8_t*,
                                      const std::uint8_t*);

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

  // Stages 1-3, then each chunk's bit count: histogram → codebook (sort +
  // filter live inside build_codebook; their cost is O(alphabet)).
  std::vector<std::size_t> offset(nchunks + 1, 0);
  Codebook cb;
  if (alphabet_size <= kChunkTableAlphabet) {
    const std::vector<std::vector<std::uint64_t>> table =
        count_slices(dev, symbols, alphabet_size, kEncodeChunk);
    std::vector<std::uint64_t> freq(alphabet_size, 0);
    global_stage(dev, alphabet_size, [&](std::size_t s) {
      for (const std::vector<std::uint64_t>& t : table) freq[s] += t[s];
    });
    cb = build_codebook(freq);
    global_stage(dev, nchunks, [&](std::size_t c) {
      std::size_t bits = 0;
      for (std::size_t s = 0; s < alphabet_size; ++s)
        bits += table[c][s] * cb.lengths[s];
      offset[c + 1] = bits;
    });
  } else {
    cb = build_codebook(histogram(dev, symbols, alphabet_size));
    locality(dev, domain, chunk, [&](const Block& b) {
      const T* sym = symbols.data() + b.origin[0];
      std::size_t bits = 0;
      for (std::size_t i = 0; i < b.extent[0]; ++i)
        bits += cb.lengths[sym[i]];
      offset[b.index + 1] = bits;
    });
  }

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
    tail[c] = write(symbols.data() + b.origin[0], b.extent[0], cb,
                    static_cast<unsigned>(offset[c] % 8),
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
  std::shared_ptr<const DecodeTable> table;
  std::vector<std::size_t> offset;  ///< nchunks + 1 payload bit offsets
  std::span<const std::uint8_t> payload;
};

Parsed parse(std::span<const std::uint8_t> stream, std::size_t max_alphabet) {
  ByteReader in(stream);
  const std::uint8_t version = in.get_u8();
  HPDR_REQUIRE(version == kFormatVersion,
               "unsupported Huffman stream version " << int(version));
  Parsed p;
  p.n = in.get_varint();
  const std::size_t alphabet = in.get_varint();
  // Sanity limits: every symbol costs at least one payload bit and the
  // alphabet must fit the output type (and the LUT's 24-bit symbols) —
  // these bounds reject hostile headers before any allocation.
  HPDR_REQUIRE(p.n <= stream.size() * std::size_t{64} + 64,
               "implausible Huffman symbol count");
  HPDR_REQUIRE(alphabet <= max_alphabet, "implausible Huffman alphabet");
  const Codebook cb = Codebook::deserialize(in);
  HPDR_REQUIRE(cb.num_symbols() == alphabet, "codebook/alphabet mismatch");
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
  // One table per distinct codebook process-wide: chunk-parallel workers
  // and repeated decodes of same-codebook streams (the serving layer's
  // steady state) share it instead of rebuilding the LUT.
  p.table = DecodeTable::cached(cb);
  HPDR_REQUIRE(p.n == 0 || p.table->complete(), "incomplete Huffman codebook");
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
/// offset. A corrupt chunk's error is caught in its group and rethrown
/// after the stage, so no throw crosses an OpenMP region.
template <class T>
void decode_into(const Device& dev, const Parsed& p, T* out) {
  const std::size_t nchunks = p.offset.size() - 1;
  const std::size_t groups = (nchunks + kInterleave - 1) / kInterleave;
  std::vector<std::exception_ptr> failed(groups);
  global_stage(dev, groups, [&](std::size_t g) {
    try {
      Cursor<T> c[kInterleave];  // chunks past the end stay empty
      for (unsigned k = 0; k < kInterleave; ++k) {
        const std::size_t ch = g * kInterleave + k;
        if (ch >= nchunks) break;
        const std::size_t begin = ch * kEncodeChunk;
        c[k] = {p.offset[ch], p.offset[ch + 1], out + begin,
                out + std::min(p.n, begin + kEncodeChunk)};
      }
      decode_group<kInterleave>(*p.table, p.payload, c);
    } catch (...) {
      failed[g] = std::current_exception();
    }
  });
  for (const std::exception_ptr& e : failed)
    if (e) std::rethrow_exception(e);
}

/// Decodes a parsed stream into `out`, which must hold exactly p.n symbols;
/// any other length throws before a symbol is written.
template <class T>
void decode(const Device& dev, const Parsed& p, std::span<T> out) {
  HPDR_REQUIRE(p.n == out.size(), "Huffman stream holds "
                                      << p.n << " symbols, output has "
                                      << out.size());
  decode_into(dev, p, out.data());
}

constexpr std::size_t kByteAlphabet = 256;
/// DecodeTable packs symbols into 24 bits.
constexpr std::size_t kMaxAlphabet = std::size_t{1} << 24;

}  // namespace

std::vector<std::uint64_t> histogram_u32(
    const Device& dev, std::span<const std::uint32_t> symbols,
    std::size_t alphabet_size) {
  return histogram(dev, symbols, alphabet_size);
}

std::vector<std::uint8_t> encode_u32(const Device& dev,
                                     std::span<const std::uint32_t> symbols,
                                     std::size_t alphabet_size) {
  return encode(dev, symbols, alphabet_size);
}

void decode_u32(const Device& dev, std::span<const std::uint8_t> stream,
                std::span<std::uint32_t> out) {
  decode(dev, parse(stream, kMaxAlphabet), out);
}

std::vector<std::uint8_t> compress_bytes(const Device& dev,
                                         std::span<const std::uint8_t> data) {
  return encode(dev, data, kByteAlphabet);
}

void decompress_bytes(const Device& dev, std::span<const std::uint8_t> stream,
                      std::span<std::uint8_t> out) {
  decode(dev, parse(stream, kByteAlphabet), out);
}

}  // namespace hpdr::huffman
