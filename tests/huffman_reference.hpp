#ifndef HPDR_TESTS_HUFFMAN_REFERENCE_HPP
#define HPDR_TESTS_HUFFMAN_REFERENCE_HPP

/// \file huffman_reference.hpp
/// Frozen reference for the Huffman-X container (version 1), built the way
/// the coder worked before it wrote chunks in place: a serial histogram,
/// one BitWriter per chunk with one put per symbol, then append, to_bytes
/// and put_bytes; decode runs DecodeTable::decode_run per chunk into a u32
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

template <class T>
std::vector<std::uint8_t> encode(std::span<const T> symbols,
                                 std::size_t alphabet) {
  std::vector<std::uint64_t> freq(alphabet, 0);
  for (const T s : symbols) {
    HPDR_REQUIRE(s < alphabet, "symbol outside alphabet");
    ++freq[s];
  }
  const Codebook cb = build_codebook(freq);
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
  cb.serialize(out);
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
  const Codebook cb = Codebook::deserialize(in);
  HPDR_REQUIRE(cb.num_symbols() == alphabet, "codebook/alphabet mismatch");
  const std::size_t nchunks = in.get_varint();
  std::vector<std::size_t> bit_offset(nchunks + 1, 0);
  for (std::size_t c = 0; c < nchunks; ++c)
    bit_offset[c + 1] = bit_offset[c] + in.get_varint();
  const auto payload = in.get_bytes(in.get_varint());
  const auto table = DecodeTable::cached(cb);
  std::vector<std::uint32_t> out(n);
  for (std::size_t c = 0; c < nchunks; ++c) {
    const std::size_t begin = c * kEncodeChunk;
    BitReader reader(payload, bit_offset[c + 1]);
    reader.seek(bit_offset[c]);
    table->decode_run(reader, out.data() + begin,
                      std::min(kEncodeChunk, n - begin));
  }
  return out;
}

}  // namespace hpdr::huffman::reference

#endif  // HPDR_TESTS_HUFFMAN_REFERENCE_HPP
