// Robustness: corrupt streams must never crash a decoder. Every truncation
// or byte flip either throws hpdr::Error or decodes to (possibly wrong)
// data — no UB, no unbounded allocation, no hang. This is the contract a
// reduction framework needs before its streams cross facility boundaries.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>

#include "algorithms/mgard/mgard.hpp"
#include "core/bitstream.hpp"
#include "compressor/compressor.hpp"
#include "core/stats.hpp"
#include "data/generators.hpp"
#include "io/bplite.hpp"
#include "machine/device_registry.hpp"
#include "pipeline/pipeline.hpp"
#include "runtime/trace.hpp"

namespace hpdr {
namespace {

const data::Dataset& tiny_nyx() {
  static data::Dataset ds = data::make("nyx", data::Size::Tiny);
  return ds;
}

/// Attempt to decode; the only acceptable outcomes are success or Error.
template <class Fn>
void expect_no_crash(Fn&& decode) {
  try {
    decode();
  } catch (const Error&) {
    // rejected — fine
  }
}

class CorruptStreams : public ::testing::TestWithParam<const char*> {};

TEST_P(CorruptStreams, TruncationsNeverCrash) {
  const Device dev = Device::serial();
  auto comp = make_compressor(GetParam());
  const auto& ds = tiny_nyx();
  pipeline::Options opts;
  opts.mode = pipeline::Mode::Fixed;
  opts.param = 1e-2;
  opts.fixed_chunk_bytes = 16 << 10;
  auto result =
      pipeline::compress(dev, *comp, ds.data(), ds.shape, ds.dtype, opts);
  std::vector<std::uint8_t> out(ds.size_bytes());
  // Truncate at a spread of positions including boundaries.
  for (double frac : {0.0, 0.01, 0.1, 0.5, 0.9, 0.99}) {
    auto cut = result.stream;
    cut.resize(static_cast<std::size_t>(cut.size() * frac));
    expect_no_crash([&] {
      pipeline::decompress(dev, *comp, cut, out.data(), ds.shape, ds.dtype,
                           opts);
    });
  }
}

TEST_P(CorruptStreams, ByteFlipsNeverCrash) {
  const Device dev = Device::serial();
  auto comp = make_compressor(GetParam());
  const auto& ds = tiny_nyx();
  pipeline::Options opts;
  opts.mode = pipeline::Mode::Fixed;
  opts.param = 1e-2;
  opts.fixed_chunk_bytes = 16 << 10;
  auto result =
      pipeline::compress(dev, *comp, ds.data(), ds.shape, ds.dtype, opts);
  std::vector<std::uint8_t> out(ds.size_bytes());
  std::mt19937_64 rng(1234);
  for (int trial = 0; trial < 60; ++trial) {
    auto bad = result.stream;
    // Flip 1-4 random bytes (headers, tables, and payload all get hit).
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f)
      bad[rng() % bad.size()] ^= static_cast<std::uint8_t>(1 + rng() % 255);
    expect_no_crash([&] {
      pipeline::decompress(dev, *comp, bad, out.data(), ds.shape, ds.dtype,
                           opts);
    });
  }
}

INSTANTIATE_TEST_SUITE_P(AllPipelines, CorruptStreams,
                         ::testing::Values("mgard-x", "zfp-x", "huffman-x",
                                           "cusz", "nvcomp-lz4"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

TEST(CorruptStreamsExtra, EmptyAndGarbageInputsThrow) {
  const Device dev = Device::serial();
  std::vector<std::uint8_t> empty;
  std::vector<std::uint8_t> garbage(64, 0xAB);
  std::vector<std::uint8_t> out(tiny_nyx().size_bytes());
  for (const auto& name : compressor_names()) {
    auto comp = make_compressor(name);
    EXPECT_THROW(pipeline::decompress(dev, *comp, empty, out.data(),
                                      tiny_nyx().shape, tiny_nyx().dtype,
                                      {}),
                 Error)
        << name;
    EXPECT_THROW(pipeline::decompress(dev, *comp, garbage, out.data(),
                                      tiny_nyx().shape, tiny_nyx().dtype,
                                      {}),
                 Error)
        << name;
  }
}

TEST(CorruptStreamsExtra, HostileHeaderSizesAreRejectedBeforeAllocation) {
  // A forged container claiming a petabyte tensor must be rejected by the
  // sanity checks, not by the allocator.
  const Device dev = Device::serial();
  ByteWriter w;
  w.put_u8(0x47);  // MGARD magic
  w.put_u8(1);     // version
  w.put_u8(0);     // f32
  w.put_u8(3);     // rank
  w.put_varint(std::size_t{1} << 20);
  w.put_varint(std::size_t{1} << 20);
  w.put_varint(std::size_t{1} << 20);  // 2^60 elements
  w.put_u8(1);     // lossy mode
  w.put_f64(1e-3);
  w.put_varint(0);
  auto forged = w.take();
  EXPECT_THROW(mgard::decompress_f32(dev, forged), Error);
}

/// `stream` (a framed v2/v4 pipeline container) with every chunk's row count
/// replaced. The chunk table carries no checksum, so nothing else flags
/// the edit.
std::vector<std::uint8_t> with_chunk_rows(
    std::span<const std::uint8_t> stream,
    const std::vector<std::uint64_t>& rows) {
  ByteReader in(stream);
  ByteWriter w;
  w.put_u8(in.get_u8());  // magic
  w.put_u8(in.get_u8());  // version
  w.put_string(in.get_string());
  w.put_u8(in.get_u8());  // dtype
  const std::uint8_t rank = in.get_u8();
  w.put_u8(rank);
  for (std::size_t d = 0; d < rank; ++d) w.put_varint(in.get_varint());
  w.put_u8(in.get_u8());  // mode
  const std::size_t nchunks = in.get_varint();
  EXPECT_EQ(nchunks, rows.size());
  w.put_varint(nchunks);
  for (std::size_t c = 0; c < nchunks; ++c) {
    in.get_varint();
    w.put_varint(rows[c]);
    w.put_varint(in.get_varint());  // blob size
    w.put_u8(in.get_u8());          // codec tag
    w.put_u64(in.get_u64());        // checksum
  }
  auto out = w.take();
  const auto payload = stream.subspan(stream.size() - in.remaining());
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

TEST(CorruptStreamsExtra, WrappingChunkRowCountsAreRejected) {
  // Chunk 1 claims 2^64 - 4 rows: the running row total wraps and the
  // counts still sum to the tensor height. Unless the chunk table check
  // is wrap-proof, chunk 1's decode target (and, under Skip, its
  // zero-fill) spans far past the output buffer.
  const Device dev = Device::serial();
  auto comp = make_compressor("zfp-x");
  const auto ds = data::make("nyx", data::Size::Small);  // 64 rows
  pipeline::Options opts;
  opts.mode = pipeline::Mode::Fixed;
  opts.param = 1e-2;
  opts.fixed_chunk_bytes = ds.size_bytes() / 8;  // 8 chunks of 8 rows
  const auto good =
      pipeline::compress(dev, *comp, ds.data(), ds.shape, ds.dtype, opts)
          .stream;
  const auto bad = with_chunk_rows(
      good, {8, ~std::uint64_t{0} - 3, 20, 8, 8, 8, 8, 8});
  std::vector<float> out(ds.elements());
  for (const auto recovery :
       {pipeline::ChunkRecovery::Strict, pipeline::ChunkRecovery::Skip}) {
    opts.recovery = recovery;
    EXPECT_THROW(pipeline::decompress(dev, *comp, bad, out.data(), ds.shape,
                                      ds.dtype, opts),
                 Error);
    EXPECT_THROW(pipeline::decompress_rows(dev, *comp, bad, out.data(),
                                           ds.shape, ds.dtype, 0, 8, opts),
                 Error);
  }
}

// ---------------------------------------------------------------------------
// BPLite containers under hostile bytes: every truncation or byte flip must
// either throw hpdr::Error on open/read or yield data that fails the
// payload checksum — never crash, hang, or allocate unboundedly from a
// forged size field.
// ---------------------------------------------------------------------------

namespace {

struct ScratchFile {
  std::string path;
  explicit ScratchFile(const std::string& name)
      : path((std::filesystem::temp_directory_path() / name).string()) {}
  ~ScratchFile() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
};

std::vector<std::uint8_t> valid_bplite_bytes(const std::string& path) {
  {
    io::BPWriter w(path);
    std::vector<float> vals(256);
    for (std::size_t i = 0; i < vals.size(); ++i)
      vals[i] = static_cast<float>(i) * 0.5f;
    for (int step = 0; step < 2; ++step) {
      w.begin_step();
      w.put("rho", Shape{16, 16}, DType::F32,
            {reinterpret_cast<const std::uint8_t*>(vals.data()),
             vals.size() * 4});
      w.put("vx", Shape{256}, DType::F32,
            {reinterpret_cast<const std::uint8_t*>(vals.data()),
             vals.size() * 4});
      w.end_step();
    }
    w.close();
  }
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Open + fully read a BPLite file; success and Error are the only
/// acceptable outcomes.
void expect_bplite_no_crash(const std::string& path) {
  expect_no_crash([&] {
    io::BPReader r(path);
    for (std::size_t s = 0; s < r.num_steps(); ++s)
      for (const auto& v : r.variables(s)) r.read_payload(s, v);
  });
}

}  // namespace

TEST(BPLiteRobustness, TruncationsNeverCrash) {
  ScratchFile tmp("hpdr_rob_bplite_trunc.bp");
  const auto bytes = valid_bplite_bytes(tmp.path);
  for (double frac : {0.0, 0.01, 0.1, 0.5, 0.9, 0.99}) {
    auto cut = bytes;
    cut.resize(static_cast<std::size_t>(cut.size() * frac));
    write_bytes(tmp.path, cut);
    expect_bplite_no_crash(tmp.path);
  }
  // Off-by-a-few truncations around the trailer (u64 offset + magic).
  for (std::size_t back = 1; back <= 16; ++back) {
    auto cut = bytes;
    cut.resize(bytes.size() - back);
    write_bytes(tmp.path, cut);
    expect_bplite_no_crash(tmp.path);
  }
}

TEST(BPLiteRobustness, ByteFlipsNeverCrash) {
  ScratchFile tmp("hpdr_rob_bplite_flip.bp");
  const auto bytes = valid_bplite_bytes(tmp.path);
  std::mt19937_64 rng(2026);
  std::uniform_int_distribution<std::size_t> pos(0, bytes.size() - 1);
  // Single-byte flips at random offsets plus every byte of the trailer
  // (index offset and magic — the highest-leverage corruption targets).
  std::vector<std::size_t> targets;
  for (int i = 0; i < 64; ++i) targets.push_back(pos(rng));
  for (std::size_t back = 1; back <= 12; ++back)
    targets.push_back(bytes.size() - back);
  for (std::size_t t : targets) {
    auto bad = bytes;
    bad[t] ^= 0xFF;
    write_bytes(tmp.path, bad);
    expect_bplite_no_crash(tmp.path);
  }
}

TEST(BPLiteRobustness, ForgedIndexCountsAreRejectedWithoutAllocating) {
  ScratchFile tmp("hpdr_rob_bplite_forged.bp");
  // A minimal file whose index claims 2^60 steps: header, one-varint index
  // region, trailer pointing at it. The reader must reject the count
  // against the file size instead of trying to reserve 2^60 records.
  ByteWriter w;
  w.put_u32(0x544C5042u);  // "BPLT"
  w.put_u32(2);            // version
  const std::uint64_t index_offset = w.size();
  w.put_varint(std::size_t{1} << 60);  // nsteps, absurd
  const std::uint64_t trailer_offset_field = index_offset;
  w.put_u64(trailer_offset_field);
  w.put_u32(0x544C5042u);
  write_bytes(tmp.path, w.take());
  EXPECT_THROW(io::BPReader r(tmp.path), Error);
}

TEST(BPLiteRobustness, PayloadCorruptionFailsChecksumNotDecode) {
  ScratchFile tmp("hpdr_rob_bplite_payload.bp");
  auto bytes = valid_bplite_bytes(tmp.path);
  // Flip one byte inside the first payload (data region starts at 8).
  bytes[12] ^= 0x01;
  write_bytes(tmp.path, bytes);
  io::BPReader r(tmp.path);
  EXPECT_THROW(r.read_payload(0, "rho"), Error);
}

TEST(Trace, ChromeJsonIsWellFormedEnough) {
  const Device dev = machine::make_device("V100");
  auto comp = make_compressor("zfp-x");
  const auto& ds = tiny_nyx();
  pipeline::Options opts;
  opts.mode = pipeline::Mode::Fixed;
  opts.param = 1e-2;
  opts.fixed_chunk_bytes = 16 << 10;
  auto result =
      pipeline::compress(dev, *comp, ds.data(), ds.shape, ds.dtype, opts);
  const std::string json = to_chrome_trace(result.timeline);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  // Balanced braces and one slice per nonzero-duration task.
  std::size_t opens = 0, closes = 0;
  for (char c : json) {
    opens += c == '{';
    closes += c == '}';
  }
  EXPECT_EQ(opens, closes);
  std::size_t slices = 0;
  for (std::size_t p = json.find("\"ph\":\"X\""); p != std::string::npos;
       p = json.find("\"ph\":\"X\"", p + 1))
    ++slices;
  std::size_t nonzero = 0;
  for (const auto& t : result.timeline.tasks)
    if (t.duration() > 0) ++nonzero;
  EXPECT_EQ(slices, nonzero);
}

}  // namespace
}  // namespace hpdr
