#include "algorithms/huffman/codebook.hpp"

#include <algorithm>
#include <numeric>

#include "core/error.hpp"

namespace hpdr::huffman {

std::vector<std::uint8_t> minimum_redundancy_lengths(
    std::span<const std::uint64_t> sorted_freq) {
  const std::size_t n = sorted_freq.size();
  HPDR_REQUIRE(n > 0, "empty frequency list");
  if (n == 1) return {1};
  for (std::size_t i = 1; i < n; ++i)
    HPDR_ASSERT(sorted_freq[i - 1] <= sorted_freq[i]);

  // Moffat & Katajainen, "In-place calculation of minimum-redundancy
  // codes" (1995). A[] is reused for frequencies, then parent indices, then
  // internal-node depths, then leaf depths.
  std::vector<std::uint64_t> A(sorted_freq.begin(), sorted_freq.end());
  std::size_t leaf = 0, root = 0;
  for (std::size_t next = 0; next < n - 1; ++next) {
    // First child.
    if (leaf >= n || (root < next && A[root] < A[leaf])) {
      A[next] = A[root];
      A[root++] = next;
    } else {
      A[next] = A[leaf++];
    }
    // Second child.
    if (leaf >= n || (root < next && A[root] < A[leaf])) {
      A[next] += A[root];
      A[root++] = next;
    } else {
      A[next] += A[leaf++];
    }
  }
  // Convert parent pointers to internal-node depths.
  A[n - 2] = 0;
  for (std::size_t next = n - 2; next-- > 0;) A[next] = A[A[next]] + 1;
  // Convert internal depths to leaf depths (code lengths).
  std::int64_t avail = 1, used = 0, depth = 0;
  std::int64_t r = static_cast<std::int64_t>(n) - 2;
  std::int64_t next = static_cast<std::int64_t>(n) - 1;
  while (avail > 0) {
    while (r >= 0 && static_cast<std::int64_t>(A[r]) == depth) {
      ++used;
      --r;
    }
    while (avail > used) {
      A[next--] = static_cast<std::uint64_t>(depth);
      --avail;
    }
    avail = 2 * used;
    ++depth;
    used = 0;
  }
  // A now holds leaf depths in *descending* order matching ascending
  // frequency order of the input.
  std::vector<std::uint8_t> lengths(n);
  for (std::size_t i = 0; i < n; ++i) {
    HPDR_ASSERT(A[i] > 0 && A[i] <= 64);
    lengths[i] = static_cast<std::uint8_t>(A[i]);
  }
  return lengths;
}

namespace {

std::uint64_t reverse_bits(std::uint64_t v, unsigned nbits) {
  std::uint64_t r = 0;
  for (unsigned i = 0; i < nbits; ++i) {
    r = (r << 1) | (v & 1u);
    v >>= 1;
  }
  return r;
}

/// Assigns canonical codes over (length, symbol) among the live symbols;
/// fills codes_reversed and max_length.
void assign_canonical(Codebook& cb) {
  cb.max_length = 0;
  for (std::uint8_t l : cb.lengths) cb.max_length = std::max(cb.max_length, l);
  cb.codes_reversed.assign(cb.lengths.size(), 0);
  if (cb.max_length == 0) return;
  // Count codewords per length and compute the first canonical code of each
  // length (Kraft ordering).
  std::vector<std::uint32_t> count(cb.max_length + 1, 0);
  for (std::uint8_t l : cb.lengths) ++count[l];
  std::vector<std::uint64_t> next_code(cb.max_length + 2, 0);
  std::uint64_t code = 0;
  for (unsigned l = 1; l <= cb.max_length; ++l) {
    code = (code + count[l - 1]) << 1;
    next_code[l] = code;
  }
  // The live symbols are ascending, so visiting them in order assigns each
  // length's codes in symbol order: canonical order.
  for (std::size_t i = 0; i < cb.lengths.size(); ++i)
    cb.codes_reversed[i] = reverse_bits(next_code[cb.lengths[i]]++,
                                        cb.lengths[i]);
}

/// The longest run one header entry records.
constexpr std::size_t kMaxRun = 0x0FFFFFFF;

}  // namespace

Codebook build_codebook(std::size_t alphabet,
                        std::span<const std::uint32_t> symbols,
                        std::span<const std::uint64_t> freq) {
  HPDR_ASSERT(symbols.size() == freq.size());
  Codebook cb;
  cb.alphabet = alphabet;
  cb.symbols.assign(symbols.begin(), symbols.end());
  cb.lengths.assign(symbols.size(), 0);
  if (symbols.empty()) return cb;
  // Sort the live symbols (Alg. 2 line 3 already filtered the absent ones)
  // by frequency. Index order is symbol order, so ties break by symbol:
  // deterministic, hence portable, codebooks.
  std::vector<std::uint32_t> order(symbols.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (freq[a] != freq[b]) return freq[a] < freq[b];
    return a < b;
  });
  std::vector<std::uint64_t> sorted_freq(order.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    sorted_freq[i] = freq[order[i]];
  const std::vector<std::uint8_t> lens =
      minimum_redundancy_lengths(sorted_freq);
  for (std::size_t i = 0; i < order.size(); ++i) cb.lengths[order[i]] = lens[i];
  assign_canonical(cb);
  return cb;
}

void Codebook::serialize(ByteWriter& out) const {
  out.put_varint(alphabet);
  // Run-length code the length of every symbol of the alphabet: a run of
  // zeros for each gap between live symbols, and one run for consecutive
  // live symbols of equal length.
  std::size_t pos = 0;
  for (std::size_t i = 0; pos < alphabet;) {
    const std::size_t next = i < symbols.size() ? symbols[i] : alphabet;
    std::uint8_t len = 0;
    std::size_t run = 1;
    if (pos < next) {
      run = std::min(next - pos, kMaxRun);
    } else {
      len = lengths[i];
      while (i + run < symbols.size() && symbols[i + run] == pos + run &&
             lengths[i + run] == len && run < kMaxRun)
        ++run;
      i += run;
    }
    out.put_u8(len);
    out.put_varint(run);
    pos += run;
  }
}

Codebook Codebook::deserialize(ByteReader& in, std::size_t alphabet,
                               std::size_t max_live) {
  Codebook cb;
  cb.alphabet = in.get_varint();
  HPDR_REQUIRE(cb.alphabet == alphabet, "codebook of "
                                            << cb.alphabet
                                            << " symbols for an alphabet of "
                                            << alphabet);
  for (std::size_t pos = 0; pos < alphabet;) {
    const std::uint8_t len = in.get_u8();
    const std::size_t run = in.get_varint();
    HPDR_REQUIRE(run > 0 && run <= alphabet - pos, "corrupt codebook RLE");
    if (len) {
      HPDR_REQUIRE(run <= max_live - cb.symbols.size(),
                   "codebook has more live symbols than the stream's "
                       << max_live << " symbols");
      for (std::size_t s = pos; s < pos + run; ++s)
        cb.symbols.push_back(static_cast<std::uint32_t>(s));
      cb.lengths.insert(cb.lengths.end(), run, len);
    }
    pos += run;
  }
  assign_canonical(cb);
  return cb;
}

DecodeTable DecodeTable::build(const Codebook& cb) {
  DecodeTable t;
  t.max_length = cb.max_length;
  t.first_code.assign(t.max_length + 1, 0);
  t.offset.assign(t.max_length + 1, 0);
  t.count.assign(t.max_length + 1, 0);
  for (std::uint8_t l : cb.lengths) ++t.count[l];
  // Canonical symbol order: (length, symbol).
  std::uint64_t code = 0;
  std::uint32_t off = 0;
  for (unsigned l = 1; l <= t.max_length; ++l) {
    code = (code + (l > 1 ? t.count[l - 1] : 0)) << 1;
    if (l == 1) code = 0;
    t.first_code[l] = code;
    t.offset[l] = off;
    off += t.count[l];
  }
  t.symbols.resize(off);
  std::vector<std::uint32_t> fill(t.max_length + 1, 0);
  for (std::size_t i = 0; i < cb.symbols.size(); ++i) {
    const std::uint8_t l = cb.lengths[i];
    t.symbols[t.offset[l] + fill[l]++] = cb.symbols[i];
  }
  // Fast path: resolve every bit pattern whose leading code is ≤ kLutBits
  // long with a single probe. The table is keyed by the next kLutBits
  // stream bits; a code of length l occupies the low l bits as the
  // bit-reversed canonical code (exactly codes_reversed), so each short
  // code claims 2^(kLutBits−l) filler patterns above it.
  t.lut.assign(std::size_t{1} << kLutBits, 0);
  for (std::size_t i = 0; i < cb.symbols.size(); ++i) {
    const std::uint8_t l = cb.lengths[i];
    if (l > kLutBits) continue;
    const std::uint64_t base = cb.codes_reversed[i];
    const std::uint64_t entry =
        (std::uint64_t{1} << kEntryCountShift) |
        (static_cast<std::uint64_t>(l) << kEntryLen0Shift) |
        (static_cast<std::uint64_t>(l) << kEntryTotalShift) |
        (static_cast<std::uint64_t>(cb.symbols[i]) << kEntrySym0Shift);
    for (std::uint64_t f = 0; f < (std::uint64_t{1} << (kLutBits - l));
         ++f)
      t.lut[base | (f << l)] = entry;
  }
  // Multi-symbol pass: where a second complete codeword fits in the probe
  // window after the first, pack both. `lut[p >> l0]` identifies the
  // following code because filler replication made every entry independent
  // of bits above its own code — the second lookup is only trusted when
  // that code fits inside the window's remaining kLutBits − l0 bits. The
  // pass runs from the top down, so p >> l0 (below p, or p itself at 0)
  // still holds its one-symbol entry.
  for (std::size_t p = t.lut.size(); p-- > 0;) {
    const std::uint64_t e0 = t.lut[p];
    if (!e0) continue;
    const unsigned l0 =
        static_cast<unsigned>((e0 >> kEntryLen0Shift) & kEntryLenMask);
    const std::uint64_t e1 = t.lut[p >> l0];
    if (!e1) continue;
    const unsigned l1 =
        static_cast<unsigned>((e1 >> kEntryLen0Shift) & kEntryLenMask);
    if (l0 + l1 > kLutBits) continue;
    const std::uint64_t s0 = (e0 >> kEntrySym0Shift) & kEntrySymMask;
    const std::uint64_t s1 = (e1 >> kEntrySym0Shift) & kEntrySymMask;
    t.lut[p] = (std::uint64_t{2} << kEntryCountShift) |
               (static_cast<std::uint64_t>(l0) << kEntryLen0Shift) |
               (static_cast<std::uint64_t>(l0 + l1) << kEntryTotalShift) |
               (s0 << kEntrySym0Shift) | (s1 << kEntrySym1Shift);
  }
  return t;
}

template <class T>
void DecodeTable::decode_run(BitReader& reader, T* out,
                             std::size_t count) const {
  const std::uint64_t* tbl = lut.data();
  std::size_t i = 0;
  while (i < count) {
    if (reader.remaining() >= kLutBits) {
      const std::uint64_t e = tbl[reader.peek(kLutBits)];
      const unsigned ns = static_cast<unsigned>((e >> kEntryCountShift) & 3);
      if (ns == 2 && count - i >= 2) {
        reader.skip(
            static_cast<unsigned>((e >> kEntryTotalShift) & kEntryLenMask));
        out[i] = static_cast<T>((e >> kEntrySym0Shift) & kEntrySymMask);
        out[i + 1] = static_cast<T>((e >> kEntrySym1Shift) & kEntrySymMask);
        i += 2;
        continue;
      }
      if (ns != 0) {
        reader.skip(
            static_cast<unsigned>((e >> kEntryLen0Shift) & kEntryLenMask));
        out[i++] = static_cast<T>((e >> kEntrySym0Shift) & kEntrySymMask);
        continue;
      }
    }
    // Long code or fewer than kLutBits left before the chunk boundary.
    out[i++] = static_cast<T>(decode_one(reader));
  }
}

template void DecodeTable::decode_run(BitReader&, std::uint8_t*,
                                      std::size_t) const;
template void DecodeTable::decode_run(BitReader&, std::uint32_t*,
                                      std::size_t) const;

bool DecodeTable::complete() const {
  const std::size_t live = symbols.size();
  if (live <= 1) return live == 1 && max_length == 1;
  // Walk the code tree level by level; `open` counts the unassigned nodes
  // at depth l. Each open node needs at least one deeper leaf, so more open
  // nodes than unplaced symbols can never close (which also keeps `open`
  // far from overflow).
  std::size_t open = 1, unplaced = live;
  for (unsigned l = 1; l <= max_length; ++l) {
    open *= 2;
    if (count[l] > open) return false;  // over-subscribed
    open -= count[l];
    unplaced -= count[l];
    if (open > unplaced) return false;
  }
  return open == 0;
}

std::uint32_t DecodeTable::decode_one(BitReader& reader) const {
  std::uint64_t code = 0;
  for (unsigned l = 1; l <= max_length; ++l) {
    code = (code << 1) | (reader.get_bit() ? 1u : 0u);
    if (count[l] && code - first_code[l] < count[l]) {
      return symbols[offset[l] + static_cast<std::uint32_t>(
                                     code - first_code[l])];
    }
  }
  HPDR_REQUIRE(false, "corrupt Huffman stream: no codeword matched");
  return 0;
}

}  // namespace hpdr::huffman
