#include "algorithms/huffman/huffman.hpp"

#include <algorithm>
#include <cstring>

#include "algorithms/huffman/codebook.hpp"
#include "core/bitstream.hpp"
#include "core/error.hpp"

namespace hpdr::huffman {
namespace {

constexpr std::uint8_t kFormatVersion = 1;
/// Version 2 adds a sub-stream count K after the alphabet and records K bit
/// counts per chunk instead of one; everything else matches version 1. The
/// default wire format stays version 1 (K = 1), so every pre-existing
/// stream — and every stream the pipeline writes today — is unchanged.
constexpr std::uint8_t kFormatVersionMulti = 2;

/// Symbol count of sub-stream `s` when `m` chunk symbols split across `K`
/// streams: contiguous segments, the first m % K streams one longer.
inline std::size_t stream_count(std::size_t m, std::size_t K, std::size_t s) {
  return m / K + (s < m % K ? 1 : 0);
}

constexpr std::uint64_t kAllValid = ~std::uint64_t{0};

/// Counts `symbols` into `hist`. Returns the first symbol outside the
/// alphabet (counting stops there), or kAllValid.
std::uint64_t count_slice(std::span<const std::uint32_t> symbols,
                          std::uint64_t* hist, std::size_t alphabet_size) {
  for (const std::uint32_t s : symbols) {
    if (s >= alphabet_size) return s;
    ++hist[s];
  }
  return kAllValid;
}

}  // namespace

std::vector<std::uint64_t> histogram_u32(
    const Device& dev, std::span<const std::uint32_t> symbols,
    std::size_t alphabet_size) {
  // Global abstraction: all threads cooperatively build the frequency
  // counters. Each worker privatizes one table over a contiguous slice
  // (the r-per-block replication strategy of the GPU histogram in [43])
  // and the tables merge — identical result on every adapter. The table
  // count follows the device's parallel width, capped at one table per
  // kEncodeChunk symbols, so a Serial call zeroes one alphabet-sized
  // table and merges nothing.
  const std::size_t n = symbols.size();
  const std::size_t parts = std::clamp<std::size_t>(
      dev.parallel_width(), 1,
      std::max<std::size_t>(1, (n + kEncodeChunk - 1) / kEncodeChunk));
  std::vector<std::vector<std::uint64_t>> partial(parts);
  // A symbol outside the alphabet ends its slice; the throw waits until
  // after the stage, because it must not cross an OpenMP region.
  std::vector<std::uint64_t> bad(parts, kAllValid);
  global_stage(dev, parts, [&](std::size_t p) {
    partial[p].assign(alphabet_size, 0);
    bad[p] = count_slice(symbols.subspan(p * n / parts,
                                         (p + 1) * n / parts - p * n / parts),
                         partial[p].data(), alphabet_size);
  });
  for (const std::uint64_t s : bad)
    HPDR_REQUIRE(s == kAllValid,
                 "symbol " << s << " outside alphabet of " << alphabet_size);
  std::vector<std::uint64_t>& hist = partial[0];
  if (parts > 1)  // merge parallelized over the alphabet (second stage)
    global_stage(dev, alphabet_size, [&](std::size_t s) {
      for (std::size_t p = 1; p < parts; ++p) hist[s] += partial[p][s];
    });
  return std::move(hist);
}

std::vector<std::uint8_t> encode_u32(const Device& dev,
                                     std::span<const std::uint32_t> symbols,
                                     std::size_t alphabet_size,
                                     std::size_t streams) {
  HPDR_REQUIRE(streams >= 1 && streams <= kMaxStreams,
               "Huffman stream count must be 1.." << kMaxStreams);
  // Stages 1-3: histogram → codebook (sort + filter live inside
  // build_codebook; their cost is O(alphabet) and negligible).
  const std::vector<std::uint64_t> freq =
      histogram_u32(dev, symbols, alphabet_size);
  const Codebook cb = build_codebook(freq);

  // Stage 4: encode chunks independently (Locality abstraction — one chunk
  // per group). With K > 1 each chunk's symbols split into K contiguous
  // segments encoded as independent bitstreams, so the decoder can keep K
  // codeword chains in flight per chunk.
  const std::size_t K = streams;
  const std::size_t nchunks =
      symbols.empty() ? 0 : (symbols.size() + kEncodeChunk - 1) / kEncodeChunk;
  std::vector<BitWriter> writers(nchunks * K);
  locality(dev, Shape{symbols.size()}, Shape{kEncodeChunk},
           [&](const Block& b) {
             const std::size_t begin = b.origin[0];
             const std::size_t m = b.extent[0];
             std::size_t start = begin;
             for (std::size_t s = 0; s < K; ++s) {
               BitWriter& w = writers[b.index * K + s];
               const std::size_t cnt = stream_count(m, K, s);
               for (std::size_t i = start; i < start + cnt; ++i) {
                 const std::uint32_t sym = symbols[i];
                 w.put(cb.codes_reversed[sym], cb.lengths[sym]);
               }
               start += cnt;
             }
           });

  // Stage 5: compact serialization. The container records per-(chunk,
  // stream) bit counts (the prefix-sum table that on a GPU would drive the
  // scatter of each chunk to its global bit offset, and that makes decode
  // parallel).
  ByteWriter out;
  out.put_u8(K == 1 ? kFormatVersion : kFormatVersionMulti);
  out.put_varint(symbols.size());
  out.put_varint(alphabet_size);
  if (K > 1) out.put_u8(static_cast<std::uint8_t>(K));
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
  const auto bytes = payload.to_bytes();
  out.put_varint(bytes.size());
  out.put_bytes(bytes);
  return out.take();
}

std::vector<std::uint32_t> decode_u32(const Device& dev,
                                      std::span<const std::uint8_t> stream) {
  ByteReader in(stream);
  const std::uint8_t version = in.get_u8();
  HPDR_REQUIRE(version == kFormatVersion || version == kFormatVersionMulti,
               "unsupported Huffman stream version " << int(version));
  const std::size_t n = in.get_varint();
  const std::size_t alphabet = in.get_varint();
  // Sanity limits: every symbol costs at least one payload bit and the
  // alphabet cannot exceed the dictionary sizes any HPDR pipeline uses —
  // these bounds reject hostile headers before any allocation.
  HPDR_REQUIRE(n <= stream.size() * std::size_t{64} + 64,
               "implausible Huffman symbol count");
  HPDR_REQUIRE(alphabet <= (std::size_t{1} << 24),
               "implausible Huffman alphabet");
  std::size_t K = 1;
  if (version == kFormatVersionMulti) {
    K = in.get_u8();
    HPDR_REQUIRE(K >= 1 && K <= kMaxStreams,
                 "implausible Huffman stream count");
  }
  const Codebook cb = Codebook::deserialize(in);
  HPDR_REQUIRE(cb.num_symbols() == alphabet, "codebook/alphabet mismatch");
  const std::size_t nchunks = in.get_varint();
  HPDR_REQUIRE(nchunks <= n / kEncodeChunk + 1,
               "implausible Huffman chunk count");
  std::vector<std::size_t> bit_offset(nchunks * K + 1, 0);
  for (std::size_t i = 0; i < nchunks * K; ++i)
    bit_offset[i + 1] = bit_offset[i] + in.get_varint();
  const std::size_t payload_bytes = in.get_varint();
  auto payload = in.get_bytes(payload_bytes);
  HPDR_REQUIRE(payload.size() * 8 >= bit_offset[nchunks * K],
               "Huffman payload truncated");

  // One table per distinct codebook process-wide: chunk-parallel workers
  // and repeated decodes of same-codebook streams (the serving layer's
  // steady state) share it instead of rebuilding the LUT.
  const std::shared_ptr<const DecodeTable> table = DecodeTable::cached(cb);
  std::vector<std::uint32_t> out(n);
  // Parallel decode: each (chunk, stream) starts at a known bit offset.
  global_stage(dev, nchunks, [&](std::size_t c) {
    const std::size_t begin = c * kEncodeChunk;
    const std::size_t end = std::min(begin + kEncodeChunk, n);
    if (K == 1) {
      BitReader reader(payload, bit_offset[c + 1]);
      reader.seek(bit_offset[c]);
      table->decode_run(reader, out.data() + begin, end - begin);
      return;
    }
    DecodeTable::StreamSeg segs[kMaxStreams];
    std::size_t start = begin;
    for (std::size_t s = 0; s < K; ++s) {
      const std::size_t cnt = stream_count(end - begin, K, s);
      segs[s] = {bit_offset[c * K + s], bit_offset[c * K + s + 1], cnt,
                 out.data() + start};
      start += cnt;
    }
    table->decode_streams(payload, segs, static_cast<unsigned>(K));
  });
  return out;
}

std::vector<std::uint8_t> compress_bytes(const Device& dev,
                                         std::span<const std::uint8_t> data) {
  std::vector<std::uint32_t> symbols(data.size());
  global_stage(dev, data.size(),
               [&](std::size_t i) { symbols[i] = data[i]; });
  return encode_u32(dev, symbols, 256);
}

std::vector<std::uint8_t> decompress_bytes(
    const Device& dev, std::span<const std::uint8_t> stream) {
  const std::vector<std::uint32_t> symbols = decode_u32(dev, stream);
  std::vector<std::uint8_t> out(symbols.size());
  global_stage(dev, symbols.size(), [&](std::size_t i) {
    out[i] = static_cast<std::uint8_t>(symbols[i]);
  });
  return out;
}

}  // namespace hpdr::huffman
