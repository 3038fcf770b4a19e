// Golden-stream compatibility corpus (tests/golden/, regenerated with
// `hpdr write-golden`): byte-exact v1, v2, v3 and v4 reference containers
// plus the expected decodes. Three guarantees are locked here:
//   * decoder compatibility — today's reader decodes streams written by
//     the v1 (legacy, unframed) and v2 (tagged + FNV-1a framed) writers to
//     exactly the recorded bytes;
//   * writer stability — re-encoding the recorded input with the recorded
//     configuration reproduces the committed v4 (tagged + XXH64 framed)
//     streams bit for bit, so any accidental format drift fails loudly
//     instead of shipping;
//   * v4 changed only the frame hash — each v4 stream is its v2 twin with
//     a new version byte and new checksum fields.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "core/bitstream.hpp"
#include "core/checksum.hpp"
#include "hpdr.hpp"

#ifndef HPDR_GOLDEN_DIR
#error "tests/CMakeLists.txt must define HPDR_GOLDEN_DIR"
#endif

namespace hpdr {
namespace {

std::vector<std::uint8_t> slurp(const std::string& name) {
  const std::string path = std::string(HPDR_GOLDEN_DIR) + "/" + name;
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(f.good()) << "missing golden file " << path
                        << " (regenerate with `hpdr write-golden`)";
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(f.tellg()));
  f.seekg(0);
  f.read(reinterpret_cast<char*>(bytes.data()),
         static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

Shape golden_shape() {
  Shape s = Shape::of_rank(3);
  s[0] = s[1] = s[2] = 16;
  return s;
}

/// The exact configuration write-golden used: serial device, fixed 4-row
/// chunks, eb 1e-3.
pipeline::Options golden_opts() {
  pipeline::Options opts;
  opts.mode = pipeline::Mode::Fixed;
  opts.fixed_chunk_bytes = 4 * 16 * 16 * sizeof(float);
  opts.param = 1e-3;
  return opts;
}

/// The chunk table of a framed (v2/v4) stream: where each checksum sits,
/// its value, and each chunk's blob.
struct Frames {
  std::vector<std::size_t> checksum_at;
  std::vector<std::uint64_t> checksums;
  std::vector<std::span<const std::uint8_t>> blobs;
};

Frames parse_frames(std::span<const std::uint8_t> s) {
  ByteReader in(s);
  in.get_u8();  // magic
  in.get_u8();  // version
  in.get_string();
  in.get_u8();  // dtype
  const std::size_t rank = in.get_u8();
  for (std::size_t d = 0; d < rank; ++d) in.get_varint();
  in.get_u8();  // mode
  const std::size_t nchunks = in.get_varint();
  Frames f;
  std::vector<std::size_t> sizes;
  for (std::size_t c = 0; c < nchunks; ++c) {
    in.get_varint();  // rows
    sizes.push_back(in.get_varint());
    in.get_u8();  // codec tag
    f.checksum_at.push_back(s.size() - in.remaining());
    f.checksums.push_back(in.get_u64());
  }
  std::size_t off = s.size() - in.remaining();
  for (std::size_t size : sizes) {
    f.blobs.push_back(s.subspan(off, size));
    off += size;
  }
  return f;
}

TEST(Golden, CorpusInputIsTheRecordedGenerator) {
  const auto input = slurp("input.raw");
  const auto field = data::nyx_density(golden_shape(), 1234);
  ASSERT_EQ(input.size(), golden_shape().size() * sizeof(float));
  EXPECT_EQ(0, std::memcmp(input.data(), field.data(), input.size()))
      << "data::nyx_density(16^3, seed 1234) drifted from the corpus";
}

TEST(Golden, InspectReportsBothContainerVersions) {
  const auto v1 = pipeline::inspect(slurp("v1_zfp.hpdr"));
  EXPECT_EQ(v1.version, 1);
  EXPECT_EQ(v1.compressor, "zfp-x");
  EXPECT_EQ(v1.num_chunks, 4u);
  const auto v2 = pipeline::inspect(slurp("v2_zfp.hpdr"));
  EXPECT_EQ(v2.version, 2);
  EXPECT_EQ(v2.compressor, "zfp-x");
  EXPECT_EQ(v2.num_chunks, 4u);
  const auto v4 = pipeline::inspect(slurp("v4_zfp.hpdr"));
  EXPECT_EQ(v4.version, 4);
  EXPECT_EQ(v4.compressor, "zfp-x");
  EXPECT_EQ(v4.num_chunks, 4u);
}

TEST(Golden, V1LegacyStreamDecodesToRecordedBytes) {
  const auto stream = slurp("v1_zfp.hpdr");
  const auto expected = slurp("v2_zfp.raw");
  const Device dev = machine::make_device("serial");
  auto comp = make_compressor("zfp-x");
  std::vector<std::uint8_t> out(expected.size());
  pipeline::decompress(dev, *comp, stream, out.data(), golden_shape(),
                       DType::F32, {});
  EXPECT_EQ(out, expected);
}

TEST(Golden, V2StreamDecodesToRecordedBytes) {
  const auto stream = slurp("v2_zfp.hpdr");
  const auto expected = slurp("v2_zfp.raw");
  const Device dev = machine::make_device("serial");
  auto comp = make_compressor("zfp-x");
  std::vector<std::uint8_t> out(expected.size());
  pipeline::decompress(dev, *comp, stream, out.data(), golden_shape(),
                       DType::F32, {});
  EXPECT_EQ(out, expected);
}

TEST(Golden, LosslessStreamRoundTripsToInput) {
  const auto stream = slurp("v2_huffman.hpdr");
  const auto input = slurp("input.raw");
  const Device dev = machine::make_device("serial");
  auto comp = make_compressor("huffman-x");
  std::vector<std::uint8_t> out(input.size());
  pipeline::decompress(dev, *comp, stream, out.data(), golden_shape(),
                       DType::F32, {});
  EXPECT_EQ(out, input);
}

TEST(Golden, RecordedDecodeHonorsTheErrorBound) {
  const auto input = slurp("input.raw");
  const auto decoded = slurp("v2_zfp.raw");
  const auto stats = compute_error_stats(
      {reinterpret_cast<const float*>(input.data()), input.size() / 4},
      {reinterpret_cast<const float*>(decoded.data()), decoded.size() / 4});
  EXPECT_LE(stats.max_rel_error, 1e-2);  // zfp at eb 1e-3 (rate-bounded)
}

TEST(Golden, WriterIsByteStable) {
  const auto input = slurp("input.raw");
  const Device dev = machine::make_device("serial");
  const auto opts = golden_opts();
  auto zfp = make_compressor("zfp-x");
  const auto again_zfp = pipeline::compress(dev, *zfp, input.data(),
                                            golden_shape(), DType::F32, opts);
  EXPECT_EQ(again_zfp.stream, slurp("v4_zfp.hpdr"))
      << "v4 writer drifted: bump kVersion (and add a new golden stream) "
         "instead of silently changing the format";
  auto huff = make_compressor("huffman-x");
  const auto again_huff = pipeline::compress(
      dev, *huff, input.data(), golden_shape(), DType::F32, opts);
  EXPECT_EQ(again_huff.stream, slurp("v4_huffman.hpdr"));
}

// v4 changed the frame hash and nothing else: same length as the v2 twin,
// the same bytes outside byte 1 (the version) and the checksum fields, and
// each field holds its blob's XXH64 where v2's held its FNV-1a.
TEST(Golden, V4FramesCarryTheV2Payloads) {
  for (const std::string codec : {"zfp", "huffman"}) {
    const auto v2 = slurp("v2_" + codec + ".hpdr");
    const auto v4 = slurp("v4_" + codec + ".hpdr");
    ASSERT_EQ(v4.size(), v2.size()) << codec;
    EXPECT_EQ(v2[1], 2);
    EXPECT_EQ(v4[1], 4);
    const Frames f2 = parse_frames(v2);
    const Frames f4 = parse_frames(v4);
    ASSERT_EQ(f4.checksum_at, f2.checksum_at) << codec;
    std::vector<bool> field(v4.size(), false);
    field[1] = true;
    for (std::size_t at : f4.checksum_at)
      std::fill_n(field.begin() + static_cast<std::ptrdiff_t>(at), 8, true);
    std::size_t differ = 0;
    for (std::size_t i = 0; i < v4.size(); ++i)
      differ += !field[i] && v4[i] != v2[i];
    EXPECT_EQ(differ, 0u) << codec;
    for (std::size_t c = 0; c < f4.blobs.size(); ++c) {
      EXPECT_EQ(f4.checksums[c], xxh64(f4.blobs[c])) << codec << c;
      EXPECT_EQ(f2.checksums[c], fnv1a64(f2.blobs[c])) << codec << c;
    }
  }
}

// mgard-x and cusz Huffman-code their quantization codes over a 65,538
// symbol alphabet, so these two streams pin that coder's bytes: its
// codebook header and payload. v3_mgard.raw is the mgard-x decode of this
// raster (V3FullRefineMatchesOneShotV2MgardDecode); cusz has no recorded
// decode, so its decode is held to the error bound instead.
TEST(Golden, QuantCodecStreamsDecode) {
  const auto input = slurp("input.raw");
  const Device dev = machine::make_device("serial");
  std::vector<std::uint8_t> out(input.size());
  auto mg = make_compressor("mgard-x");
  pipeline::decompress(dev, *mg, slurp("v4_mgard.hpdr"), out.data(),
                       golden_shape(), DType::F32, {});
  EXPECT_EQ(out, slurp("v3_mgard.raw"));
  auto cusz = make_compressor("cusz");
  pipeline::decompress(dev, *cusz, slurp("v4_cusz.hpdr"), out.data(),
                       golden_shape(), DType::F32, {});
  const auto stats = compute_error_stats(
      {reinterpret_cast<const float*>(input.data()), input.size() / 4},
      {reinterpret_cast<const float*>(out.data()), out.size() / 4});
  EXPECT_LE(stats.max_rel_error, 1e-3 * (1 + 1e-6));
}

TEST(Golden, QuantCodecWritersAreByteStable) {
  const auto input = slurp("input.raw");
  const Device dev = machine::make_device("serial");
  for (const std::string codec : {"mgard", "cusz"}) {
    auto comp = make_compressor(codec == "mgard" ? "mgard-x" : "cusz");
    const auto again = pipeline::compress(dev, *comp, input.data(),
                                          golden_shape(), DType::F32,
                                          golden_opts());
    EXPECT_EQ(again.stream, slurp("v4_" + codec + ".hpdr")) << codec;
  }
}

TEST(Golden, V4StreamDecodesToRecordedBytes) {
  const auto stream = slurp("v4_zfp.hpdr");
  const auto expected = slurp("v2_zfp.raw");
  const Device dev = machine::make_device("serial");
  auto comp = make_compressor("zfp-x");
  std::vector<std::uint8_t> out(expected.size());
  pipeline::decompress(dev, *comp, stream, out.data(), golden_shape(),
                       DType::F32, {});
  EXPECT_EQ(out, expected);
}

/// Flip byte `at` of `stream` and expect Strict to reject it and Skip to
/// zero-fill exactly chunk `c` (4 rows) and decode the rest to `expected`.
void expect_flip_caught(std::vector<std::uint8_t> stream, std::size_t at,
                        std::size_t c,
                        const std::vector<std::uint8_t>& expected,
                        const Compressor& comp) {
  stream[at] ^= 0xFF;
  const Device dev = machine::make_device("serial");
  std::vector<std::uint8_t> out(expected.size());
  EXPECT_THROW(pipeline::decompress(dev, comp, stream, out.data(),
                                    golden_shape(), DType::F32, {}),
               Error)
      << "byte " << at;
  pipeline::Options skip;
  skip.recovery = pipeline::ChunkRecovery::Skip;
  const auto res = pipeline::decompress(dev, comp, stream, out.data(),
                                        golden_shape(), DType::F32, skip);
  ASSERT_EQ(res.corrupt_chunks, std::vector<std::size_t>{c}) << "byte " << at;
  const std::size_t chunk_bytes = out.size() / 4;
  auto want = expected;
  std::fill_n(want.begin() + static_cast<std::ptrdiff_t>(c * chunk_bytes),
              chunk_bytes, std::uint8_t{0});
  EXPECT_EQ(out, want) << "byte " << at;
}

// The XXH64 frame rejects every single-byte flip of a chunk's payload.
TEST(Golden, V4ChecksumRejectsEveryPayloadByteFlip) {
  const auto stream = slurp("v4_zfp.hpdr");
  const auto expected = slurp("v2_zfp.raw");
  auto comp = make_compressor("zfp-x");
  const Frames f = parse_frames(stream);
  const std::size_t c = 1;
  const std::size_t begin = f.blobs[c].data() - stream.data();
  ASSERT_GT(f.blobs[c].size(), 0u);
  for (std::size_t at = begin; at < begin + f.blobs[c].size(); ++at)
    expect_flip_caught(stream, at, c, expected, *comp);
}

// v2 frames still verify with FNV-1a.
TEST(Golden, V2ChecksumStillRejectsAPayloadFlip) {
  const auto stream = slurp("v2_zfp.hpdr");
  const Frames f = parse_frames(stream);
  const std::size_t c = 2;
  auto comp = make_compressor("zfp-x");
  expect_flip_caught(stream, f.blobs[c].data() - stream.data() + 5, c,
                     slurp("v2_zfp.raw"), *comp);
}

// ---- Stream-format v3: the progressive refinement container
// (DESIGN.md §15). Same raster, same chunk split, mgard-x refinement
// components. The committed v3_mgard.raw is the full-refinement decode,
// which the byte-identity guarantee makes equal to a one-shot decode.

TEST(Golden, V3InspectReportsProgressiveContainer) {
  const auto stream = slurp("v3_mgard.hpdr");
  const auto info = pipeline::inspect(stream);
  EXPECT_EQ(info.version, 3);
  EXPECT_EQ(info.compressor, "mgard-x");
  EXPECT_EQ(info.num_chunks, 4u);
  EXPECT_GT(info.components, info.num_chunks);  // several per chunk
  EXPECT_EQ(info.fallback_chunks, 0u);
  EXPECT_EQ(info.shape.to_string(), golden_shape().to_string());
  // The one-shot decoder must refuse the v3 container loudly instead of
  // misparsing it; ProgressiveReader is the only v3 read path.
  const Device dev = machine::make_device("serial");
  auto mg = make_compressor("mgard-x");
  std::vector<std::uint8_t> out(golden_shape().size() * sizeof(float));
  EXPECT_THROW(pipeline::decompress(dev, *mg, stream, out.data(),
                                    golden_shape(), DType::F32, {}),
               Error);
}

TEST(Golden, V3FullRefineDecodesToRecordedBytes) {
  const auto stream = slurp("v3_mgard.hpdr");
  const auto expected = slurp("v3_mgard.raw");
  const Device dev = machine::make_device("serial");
  pipeline::ProgressiveReader reader(stream);
  reader.refine_full(dev);
  ASSERT_EQ(reader.data().size(), expected.size());
  EXPECT_EQ(0, std::memcmp(reader.data().data(), expected.data(),
                           expected.size()));
  EXPECT_EQ(reader.bytes_reread(), 0u);
  EXPECT_EQ(reader.components_consumed(), reader.components_total());
}

TEST(Golden, V3FullRefineMatchesOneShotV2MgardDecode) {
  // Differential oracle for the byte-identity guarantee: a fresh v2
  // mgard-x pipeline decode of the same tensor and options must equal the
  // committed v3 full-refinement bytes exactly.
  const auto input = slurp("input.raw");
  const auto expected = slurp("v3_mgard.raw");
  const Device dev = machine::make_device("serial");
  auto mg = make_compressor("mgard-x");
  const auto v2 = pipeline::compress(dev, *mg, input.data(), golden_shape(),
                                     DType::F32, golden_opts());
  std::vector<std::uint8_t> out(input.size());
  pipeline::decompress(dev, *mg, v2.stream, out.data(), golden_shape(),
                       DType::F32, {});
  EXPECT_EQ(out, expected)
      << "v3 refinement decode drifted from the v2 mgard-x decode";
}

TEST(Golden, V3WriterIsByteStable) {
  const auto input = slurp("input.raw");
  const Device dev = machine::make_device("serial");
  const auto stream = pipeline::progressive_compress(
      dev, input.data(), golden_shape(), DType::F32, golden_opts());
  EXPECT_EQ(stream, slurp("v3_mgard.hpdr"))
      << "v3 writer drifted: bump the container version (and add a new "
         "golden stream) instead of silently changing the format";
}

TEST(Golden, V3WriterIsByteStableAcrossThreadWidths) {
  const auto input = slurp("input.raw");
  const auto expected = slurp("v3_mgard.hpdr");
  const Device dev = machine::make_device("serial");
  for (unsigned threads : {1u, 3u, 8u}) {
    ThreadPool::instance().resize(threads);
    const auto stream = pipeline::progressive_compress(
        dev, input.data(), golden_shape(), DType::F32, golden_opts());
    EXPECT_EQ(stream, expected) << "threads=" << threads;
  }
  ThreadPool::instance().resize(ThreadPool::default_threads());
}

TEST(Golden, WriterIsByteStableAcrossThreadWidths) {
  const auto input = slurp("input.raw");
  const auto expected = slurp("v4_zfp.hpdr");
  const Device dev = machine::make_device("serial");
  auto zfp = make_compressor("zfp-x");
  for (unsigned threads : {1u, 3u, 8u}) {
    ThreadPool::instance().resize(threads);
    const auto stream = pipeline::compress(dev, *zfp, input.data(),
                                           golden_shape(), DType::F32,
                                           golden_opts())
                            .stream;
    EXPECT_EQ(stream, expected) << "threads=" << threads;
  }
  ThreadPool::instance().resize(ThreadPool::default_threads());
}

}  // namespace
}  // namespace hpdr
