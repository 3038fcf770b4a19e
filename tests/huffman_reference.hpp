#ifndef HPDR_TESTS_HUFFMAN_REFERENCE_HPP
#define HPDR_TESTS_HUFFMAN_REFERENCE_HPP

/// \file huffman_reference.hpp
/// Frozen reference for the Huffman-X container (version 1), built the way
/// the coder worked before it wrote chunks in place and before its codebook
/// went sparse: a serial dense histogram, per-symbol length and code arrays
/// over the whole alphabet, the header's run-length loop over those
/// lengths, one BitWriter per chunk with one put per symbol, then append,
/// to_bytes and put_bytes. Only the Moffat–Katajainen lengths come from the
/// library. Decode runs DecodeTable::decode_run per chunk into a u32
/// vector. tests/test_huffman.cpp checks the library's streams against it
/// byte for byte, and bench/kernels races the library against it.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "algorithms/huffman/codebook.hpp"
#include "algorithms/huffman/huffman.hpp"
#include "core/bitstream.hpp"
#include "core/error.hpp"

namespace hpdr::huffman::reference {

/// A codebook indexed by symbol over the whole alphabet: length 0 marks an
/// absent symbol.
struct DenseCodebook {
  std::vector<std::uint8_t> lengths;
  std::vector<std::uint64_t> codes_reversed;
};

/// The codebook of `freq` (one count per symbol): the live symbols sorted
/// by (frequency, symbol), their minimum-redundancy lengths, then canonical
/// codes assigned over the whole alphabet in symbol order per length.
inline DenseCodebook dense_codebook(std::span<const std::uint64_t> freq) {
  DenseCodebook cb;
  cb.lengths.assign(freq.size(), 0);
  cb.codes_reversed.assign(freq.size(), 0);
  std::vector<std::uint32_t> live;
  for (std::uint32_t s = 0; s < freq.size(); ++s)
    if (freq[s] > 0) live.push_back(s);
  if (live.empty()) return cb;
  std::sort(live.begin(), live.end(), [&](std::uint32_t a, std::uint32_t b) {
    return freq[a] != freq[b] ? freq[a] < freq[b] : a < b;
  });
  std::vector<std::uint64_t> sorted_freq(live.size());
  for (std::size_t i = 0; i < live.size(); ++i) sorted_freq[i] = freq[live[i]];
  const auto lens = minimum_redundancy_lengths(sorted_freq);
  for (std::size_t i = 0; i < live.size(); ++i) cb.lengths[live[i]] = lens[i];
  const unsigned max_length =
      *std::max_element(cb.lengths.begin(), cb.lengths.end());
  std::vector<std::uint32_t> count(max_length + 1, 0);
  for (const std::uint8_t l : cb.lengths)
    if (l) ++count[l];
  std::vector<std::uint64_t> next_code(max_length + 1, 0);
  std::uint64_t code = 0;
  for (unsigned l = 1; l <= max_length; ++l) {
    code = (code + count[l - 1]) << 1;
    next_code[l] = code;
  }
  for (std::size_t s = 0; s < freq.size(); ++s) {
    const unsigned l = cb.lengths[s];
    if (!l) continue;
    const std::uint64_t c = next_code[l]++;
    for (unsigned k = 0; k < l; ++k)
      cb.codes_reversed[s] |= ((c >> k) & 1u) << (l - 1 - k);
  }
  return cb;
}

/// The codebook header: the alphabet size, then (length, run) pairs over
/// every symbol's length, each run capped at 0x0FFFFFFF.
inline void write_codebook(ByteWriter& out,
                           std::span<const std::uint8_t> lengths) {
  out.put_varint(lengths.size());
  std::size_t i = 0;
  while (i < lengths.size()) {
    std::size_t run = 1;
    while (i + run < lengths.size() && lengths[i + run] == lengths[i] &&
           run < 0x0FFFFFFF)
      ++run;
    out.put_u8(lengths[i]);
    out.put_varint(run);
    i += run;
  }
}

/// The library's (sparse) codebook of `freq`, one count per symbol.
inline Codebook codebook(std::span<const std::uint64_t> freq) {
  std::vector<std::uint32_t> live;
  std::vector<std::uint64_t> counts;
  for (std::uint32_t s = 0; s < freq.size(); ++s) {
    if (!freq[s]) continue;
    live.push_back(s);
    counts.push_back(freq[s]);
  }
  return build_codebook(freq.size(), live, counts);
}

template <class T>
std::vector<std::uint8_t> encode(std::span<const T> symbols,
                                 std::size_t alphabet) {
  std::vector<std::uint64_t> freq(alphabet, 0);
  for (const T s : symbols) {
    HPDR_REQUIRE(s < alphabet, "symbol outside alphabet");
    ++freq[s];
  }
  const DenseCodebook cb = dense_codebook(freq);
  const std::size_t nchunks =
      (symbols.size() + kEncodeChunk - 1) / kEncodeChunk;
  std::vector<BitWriter> writers(nchunks);
  for (std::size_t i = 0; i < symbols.size(); ++i)
    writers[i / kEncodeChunk].put(cb.codes_reversed[symbols[i]],
                                  cb.lengths[symbols[i]]);
  ByteWriter out;
  out.put_u8(1);
  out.put_varint(symbols.size());
  out.put_varint(alphabet);
  write_codebook(out, cb.lengths);
  out.put_varint(nchunks);
  std::size_t total_bits = 0;
  for (const BitWriter& w : writers) {
    out.put_varint(w.bit_size());
    total_bits += w.bit_size();
  }
  BitWriter payload;
  payload.reserve_bits(total_bits);
  for (const BitWriter& w : writers) payload.append(w);
  const std::vector<std::uint8_t> bytes = payload.to_bytes();
  out.put_varint(bytes.size());
  out.put_bytes(bytes);
  return out.take();
}

inline std::vector<std::uint32_t> decode(std::span<const std::uint8_t> stream) {
  ByteReader in(stream);
  HPDR_REQUIRE(in.get_u8() == 1, "unsupported Huffman stream version");
  const std::size_t n = in.get_varint();
  const std::size_t alphabet = in.get_varint();
  const Codebook cb = Codebook::deserialize(in, alphabet, n);
  const std::size_t nchunks = in.get_varint();
  std::vector<std::size_t> bit_offset(nchunks + 1, 0);
  for (std::size_t c = 0; c < nchunks; ++c)
    bit_offset[c + 1] = bit_offset[c] + in.get_varint();
  const auto payload = in.get_bytes(in.get_varint());
  const DecodeTable table = DecodeTable::build(cb);
  std::vector<std::uint32_t> out(n);
  for (std::size_t c = 0; c < nchunks; ++c) {
    const std::size_t begin = c * kEncodeChunk;
    BitReader reader(payload, bit_offset[c + 1]);
    reader.seek(bit_offset[c]);
    table.decode_run(reader, out.data() + begin,
                     std::min(kEncodeChunk, n - begin));
  }
  return out;
}

}  // namespace hpdr::huffman::reference

#endif  // HPDR_TESTS_HUFFMAN_REFERENCE_HPP
