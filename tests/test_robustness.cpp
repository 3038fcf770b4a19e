// Robustness: corrupt streams must never crash a decoder. Every truncation
// or byte flip either throws hpdr::Error or decodes to (possibly wrong)
// data — no UB, no unbounded allocation, no hang. This is the contract a
// reduction framework needs before its streams cross facility boundaries.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cmath>
#include <random>

#include "algorithms/huffman/huffman.hpp"
#include "compressor/compressor.hpp"
#include "core/bitstream.hpp"
#include "core/stats.hpp"
#include "data/generators.hpp"
#include "machine/context_memory.hpp"
#include "machine/device_registry.hpp"
#include "pipeline/pipeline.hpp"
#include "telemetry/span.hpp"

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

/// A 16³ f32 field every codec compresses.
std::vector<float> cube16() {
  std::vector<float> v(16 * 16 * 16);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = std::sin(0.01f * static_cast<float>(i));
  return v;
}

TEST(CorruptStreamsExtra, HostileHeaderSizesAreRejectedBeforeAllocation) {
  // Current-format mgard-x and cusz headers that declare 2^16 + 1
  // elements (a shape no other test decodes), decoded into a 16³ tensor:
  // the shape check must reject them before the decoder allocates for, or
  // builds a hierarchy of, the declared shape.
  const Device dev = Device::serial();
  const Shape cube{16, 16, 16};
  const std::size_t declared = (std::size_t{1} << 16) + 1;
  ByteWriter mgard;
  mgard.put_u8(0x47);  // MGARD magic
  mgard.put_u8(2);     // version
  mgard.put_u8(0);     // f32
  mgard.put_u8(1);     // rank
  mgard.put_varint(declared);
  mgard.put_u8(1);      // lossy mode
  mgard.put_f64(1e-3);  // abs_eb
  mgard.put_f64(0.0);   // s
  mgard.put_u8(0);      // uniform grid
  ByteWriter cusz;
  cusz.put_u8(0x44);  // dual-quant magic
  cusz.put_u8(1);     // version
  cusz.put_u8(0);     // f32
  cusz.put_u8(1);     // rank
  cusz.put_varint(declared);
  cusz.put_f64(1e-3);  // abs_eb
  cusz.put_varint(0);  // outliers
  const std::pair<const char*, std::vector<std::uint8_t>> forged[] = {
      {"mgard-x", mgard.take()}, {"cusz", cusz.take()}};
  const auto src = cube16();
  std::vector<float> out(src.size());
  for (const auto& [name, blob] : forged) {
    auto comp = make_compressor(name);
    // A forged header with a stale magic or version would fail that check
    // first and prove nothing about the shape check.
    const auto real = comp->compress(dev, src.data(), cube, DType::F32, 1e-3);
    ASSERT_EQ(real[0], blob[0]) << name;
    ASSERT_EQ(real[1], blob[1]) << name;
    const std::size_t contexts = ContextCache::instance().size();
    EXPECT_THROW(comp->decompress(dev, blob, out.data(), cube, DType::F32),
                 Error)
        << name;
    EXPECT_EQ(ContextCache::instance().size(), contexts) << name;
  }
}

TEST(CorruptStreamsExtra, CodecBlobOfAnotherShapeThrowsBeforeWriting) {
  // Every codec checks the stream's shape (lossy) or byte length
  // (lossless) against the caller's tensor before it writes: a valid blob
  // decoded into a tensor of another shape throws and leaves it untouched.
  // A lossless stream records only its length, so only the lossy codecs
  // can tell a 16x256 tensor from the 16³ one.
  const Device dev = Device::serial();
  const Shape cube{16, 16, 16};
  const auto src = cube16();
  for (const auto& name : compressor_names()) {
    auto comp = make_compressor(name);
    const auto blob = comp->compress(dev, src.data(), cube, DType::F32, 1e-3);
    std::vector<Shape> others{Shape{16, 16, 15}, Shape{16, 16, 17}};
    if (!comp->lossless()) others.push_back(Shape{16, 256});
    for (const Shape& other : others) {
      std::vector<float> out(other.size(), 7.0f);
      EXPECT_THROW(comp->decompress(dev, blob, out.data(), other, DType::F32),
                   Error)
          << name << " into " << other.to_string();
      EXPECT_EQ(out, std::vector<float>(other.size(), 7.0f)) << name;
    }
    std::vector<float> out(src.size());
    EXPECT_NO_THROW(comp->decompress(dev, blob, out.data(), cube, DType::F32))
        << name;
  }
}

/// The process's peak resident set, in KiB.
long max_rss_kib() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return u.ru_maxrss;
}

TEST(CorruptStreamsExtra, HostileHuffmanCodebookIsRejectedBeforeAllocation) {
  // A 4-symbol Huffman stream whose codebook declares 2^24 symbols in one
  // run of 24-bit codes. Through the byte decoder (alphabet 256) the
  // codebook's size must match the alphabet before a run is read; through
  // decode_u32, with the alphabet raised to match, the run's live symbols
  // must not exceed the 4 the stream holds. Neither may allocate for the
  // declared codebook (ctest runs each test in its own process, so the
  // peak RSS starts low).
  const std::size_t huge = std::size_t{1} << 24;
  auto blob = [&](std::size_t alphabet) {
    ByteWriter w;
    w.put_u8(1);  // version
    w.put_varint(4);
    w.put_varint(alphabet);
    w.put_varint(huge);  // codebook size
    w.put_u8(24);        // one run of 24-bit codes...
    w.put_varint(huge);  // ...over every symbol
    return w.take();
  };
  const Device dev = Device::serial();
  const long before = max_rss_kib();
  std::vector<std::uint8_t> bytes(4);
  EXPECT_THROW(huffman::decompress_bytes(dev, blob(256), bytes), Error);
  std::vector<std::uint32_t> symbols(4);
  EXPECT_THROW(huffman::decode_u32(dev, blob(256), symbols), Error);
  EXPECT_THROW(huffman::decode_u32(dev, blob(huge), symbols), Error);
  EXPECT_LT(max_rss_kib() - before, 16 * 1024);
}

TEST(CorruptStreamsExtra, CorruptLz4BlockThrowsOnEveryDevice) {
  // One flipped byte in the nvcomp-lz4 blob of a 256 KiB tensor (one LZ4
  // block) fails inside the decode stage. On OpenMP and SimGpu that stage
  // is an OpenMP region, which must hand the error back as hpdr::Error
  // instead of aborting the process.
  const Shape shape{64, 32, 32};
  std::vector<float> src(shape.size());
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = static_cast<float>(i / 16 % 32);  // repetitive: LZ4-coded
  auto comp = make_compressor("nvcomp-lz4");
  auto blob = comp->compress(Device::serial(), src.data(), shape, DType::F32,
                             0.0);
  ByteReader in(blob);
  in.get_varint();  // raw size
  ASSERT_EQ(in.get_varint(), 1u);  // one block
  in.get_varint();                 // its size
  const std::size_t body = blob.size() - in.remaining() + 1;  // past flag
  ASSERT_EQ(blob[body - 1], 1) << "the block must be LZ4-coded";
  blob[body] ^= 0xFF;  // the first sequence's token
  for (const char* name : {"serial", "openmp", "V100"}) {
    std::vector<float> out(src.size());
    EXPECT_THROW(comp->decompress(machine::make_device(name), blob,
                                  out.data(), shape, DType::F32),
                 Error)
        << name;
  }
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
  }
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
  const std::string json =
      telemetry::merged_chrome_trace(&result.timeline, {});
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
