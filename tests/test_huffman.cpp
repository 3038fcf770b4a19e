// Tests for the Huffman-X pipeline: codebook optimality/canonicality,
// encode/decode round trips, portability across device adapters, the
// in-place coder against the frozen reference (huffman_reference.hpp), and
// malformed headers.
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <random>

#include "algorithms/huffman/codebook.hpp"
#include "algorithms/huffman/huffman.hpp"
#include "algorithms/mgard/quantize.hpp"
#include "core/error.hpp"
#include "huffman_reference.hpp"
#include "machine/device_registry.hpp"

namespace hpdr::huffman {
namespace {

TEST(Codebook, MinimumRedundancyKnownCase) {
  // Frequencies 1,1,2,3,5 → optimal lengths 4,4,3,2,1? Kraft: 2^-4*2 +
  // 2^-3 + 2^-2 + 2^-1 = 0.9375 ≤ 1; optimal total = 1*4+1*4+2*3+3*2+5*1 =
  // 25 bits. Moffat-Katajainen yields depths 4,4,3,2,1 for this input.
  std::vector<std::uint64_t> freq{1, 1, 2, 3, 5};
  auto lens = minimum_redundancy_lengths(freq);
  std::vector<std::uint8_t> expect{4, 4, 3, 2, 1};
  EXPECT_EQ(lens, expect);
}

TEST(Codebook, SingleSymbolGetsOneBit) {
  std::vector<std::uint64_t> freq{42};
  auto lens = minimum_redundancy_lengths(freq);
  ASSERT_EQ(lens.size(), 1u);
  EXPECT_EQ(lens[0], 1);
}

TEST(Codebook, UniformFrequenciesGiveBalancedCode) {
  std::vector<std::uint64_t> freq(8, 10);
  auto lens = minimum_redundancy_lengths(freq);
  for (auto l : lens) EXPECT_EQ(l, 3);
}

TEST(Codebook, KraftEqualityHolds) {
  // Minimum-redundancy codes are complete: Σ 2^-l == 1.
  std::mt19937_64 rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + rng() % 300;
    std::vector<std::uint64_t> freq(n);
    for (auto& f : freq) f = 1 + rng() % 1000;
    std::sort(freq.begin(), freq.end());
    auto lens = minimum_redundancy_lengths(freq);
    double kraft = 0;
    for (auto l : lens) kraft += std::ldexp(1.0, -static_cast<int>(l));
    EXPECT_NEAR(kraft, 1.0, 1e-12);
  }
}

TEST(Codebook, EncodedSizeWithinOneBitOfEntropyPerSymbol) {
  std::mt19937_64 rng(11);
  std::vector<std::uint64_t> freq(64);
  for (auto& f : freq) f = 1 + rng() % 5000;
  auto cb = reference::codebook(freq);
  const std::uint64_t total =
      std::accumulate(freq.begin(), freq.end(), std::uint64_t{0});
  double entropy_bits = 0;
  for (auto f : freq) {
    const double p = double(f) / double(total);
    entropy_bits -= double(f) * std::log2(p);
  }
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < cb.symbols.size(); ++i)
    bits += freq[cb.symbols[i]] * cb.lengths[i];
  const double coded = static_cast<double>(bits);
  EXPECT_GE(coded + 1e-9, entropy_bits);             // Shannon bound
  EXPECT_LE(coded, entropy_bits + double(total));    // redundancy < 1 bit/sym
}

TEST(Codebook, SerializationPreservesCodes) {
  std::vector<std::uint64_t> freq(100, 0);
  freq[3] = 5;
  freq[50] = 100;
  freq[99] = 1;
  auto cb = reference::codebook(freq);
  ByteWriter w;
  cb.serialize(w);
  auto buf = w.take();
  ByteReader r(buf);
  auto cb2 = Codebook::deserialize(r, freq.size(), 3);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(cb2.alphabet, 100u);
  EXPECT_EQ(cb.symbols, (std::vector<std::uint32_t>{3, 50, 99}));
  EXPECT_EQ(cb.symbols, cb2.symbols);
  EXPECT_EQ(cb.lengths, cb2.lengths);
  EXPECT_EQ(cb.codes_reversed, cb2.codes_reversed);
  EXPECT_EQ(cb.max_length, cb2.max_length);
}

TEST(Codebook, DecodeTableInvertsEveryCode) {
  std::mt19937_64 rng(5);
  std::vector<std::uint64_t> freq(300);
  for (auto& f : freq) f = rng() % 50;  // some zeros
  freq[0] = 1;                          // ensure at least one symbol
  auto cb = reference::codebook(freq);
  auto table = DecodeTable::build(cb);
  for (std::size_t i = 0; i < cb.symbols.size(); ++i) {
    BitWriter w;
    w.put(cb.codes_reversed[i], cb.lengths[i]);
    auto bytes = w.to_bytes();
    BitReader r(bytes, cb.lengths[i]);
    EXPECT_EQ(table.decode_one(r), cb.symbols[i]);
  }
}


TEST(Codebook, DecodeRunMatchesSerialDecode) {
  // The batch decoder (multi-symbol LUT probes) must produce the same
  // symbols and leave the reader at the same bit position as decode_one,
  // for every run length, including runs ending mid-probe.
  std::mt19937_64 rng(73);
  std::vector<std::uint64_t> freq(500);
  for (std::size_t i = 0; i < freq.size(); ++i)
    freq[i] = 1 + (std::uint64_t{1} << std::min<std::size_t>(i / 10, 40));
  auto cb = reference::codebook(freq);
  // Every symbol is live, so entry s of the codebook is symbol s.
  ASSERT_EQ(cb.symbols.size(), freq.size());
  EXPECT_GT(cb.max_length, DecodeTable::kLutBits);  // long codes exist
  auto table = DecodeTable::build(cb);
  // Short codes exist too, so two-symbol entries are actually exercised.
  bool has_multi = false;
  for (std::uint64_t e : table.lut)
    has_multi |= ((e >> DecodeTable::kEntryCountShift) & 3) == 2;
  EXPECT_TRUE(has_multi);
  std::vector<std::uint32_t> symbols(30000);
  for (auto& s : symbols) s = static_cast<std::uint32_t>(rng() % freq.size());
  BitWriter w;
  for (auto s : symbols) w.put(cb.codes_reversed[s], cb.lengths[s]);
  auto bytes = w.to_bytes();
  for (std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                            std::size_t{3}, std::size_t{777}, symbols.size()}) {
    BitReader serial(bytes, w.bit_size());
    BitReader batch(bytes, w.bit_size());
    std::vector<std::uint32_t> got(count);
    table.decode_run(batch, got.data(), count);
    for (std::size_t i = 0; i < count; ++i)
      ASSERT_EQ(table.decode_one(serial), got[i]) << "count=" << count;
    EXPECT_EQ(serial.position(), batch.position()) << "count=" << count;
  }
}

/// Decodes a u32 stream into `n` symbols.
std::vector<std::uint32_t> decode_symbols(const Device& dev,
                                          std::span<const std::uint8_t> stream,
                                          std::size_t n) {
  std::vector<std::uint32_t> out(n);
  decode_u32(dev, stream, out);
  return out;
}

class HuffmanRoundTrip : public ::testing::TestWithParam<const char*> {
 protected:
  Device dev_ = [] {
    return machine::make_device(
        ::testing::UnitTest::GetInstance() ? "serial" : "serial");
  }();
  void SetUp() override { dev_ = machine::make_device(GetParam()); }
};

TEST_P(HuffmanRoundTrip, SkewedSymbols) {
  std::mt19937_64 rng(17);
  std::geometric_distribution<int> dist(0.3);
  std::vector<std::uint32_t> symbols(200000);
  for (auto& s : symbols) s = std::min(dist(rng), 99);
  auto blob = encode_u32(dev_, symbols, 100);
  EXPECT_LT(blob.size(), symbols.size() * 4);  // actually compresses
  auto back = decode_symbols(dev_, blob, symbols.size());
  EXPECT_EQ(back, symbols);
}

TEST_P(HuffmanRoundTrip, SingleDistinctSymbol) {
  std::vector<std::uint32_t> symbols(5000, 7);
  auto blob = encode_u32(dev_, symbols, 16);
  auto back = decode_symbols(dev_, blob, symbols.size());
  EXPECT_EQ(back, symbols);
  EXPECT_LT(blob.size(), 1200u);  // ~1 bit per symbol plus header
}

TEST_P(HuffmanRoundTrip, EmptyInput) {
  std::vector<std::uint32_t> symbols;
  auto blob = encode_u32(dev_, symbols, 8);
  EXPECT_NO_THROW(decode_u32(dev_, blob, {}));
  std::vector<std::uint32_t> one(1);
  EXPECT_THROW(decode_u32(dev_, blob, one), Error);
}

TEST_P(HuffmanRoundTrip, ChunkBoundaryExactMultiple) {
  // Exactly two encode chunks.
  std::vector<std::uint32_t> symbols(2 * kEncodeChunk);
  std::mt19937_64 rng(23);
  for (auto& s : symbols) s = rng() % 17;
  auto back =
      decode_symbols(dev_, encode_u32(dev_, symbols, 17), symbols.size());
  EXPECT_EQ(back, symbols);
}

TEST_P(HuffmanRoundTrip, BytesLossless) {
  std::vector<std::uint8_t> data(100000);
  std::mt19937_64 rng(31);
  std::exponential_distribution<double> e(1.0 / 20.0);
  for (auto& b : data)
    b = static_cast<std::uint8_t>(std::min(255.0, e(rng)));
  auto blob = compress_bytes(dev_, data);
  EXPECT_LT(blob.size(), data.size());
  std::vector<std::uint8_t> back(data.size());
  decompress_bytes(dev_, blob, back);
  EXPECT_EQ(back, data);
}

INSTANTIATE_TEST_SUITE_P(Adapters, HuffmanRoundTrip,
                         ::testing::Values("serial", "openmp", "V100", "stdthread"));

TEST(Huffman, HistogramMatchesDirectCount) {
  const Device dev = Device::openmp();
  std::mt19937_64 rng(41);
  std::vector<std::uint32_t> symbols(250000);
  std::vector<std::uint64_t> expect(32, 0);
  for (auto& s : symbols) {
    s = rng() % 32;
    ++expect[s];
  }
  EXPECT_EQ(histogram_u32(dev, symbols, 32), expect);
}

TEST(Huffman, OutOfAlphabetSymbolThrows) {
  const Device dev = Device::serial();
  std::vector<std::uint32_t> symbols{1, 2, 99};
  EXPECT_THROW(encode_u32(dev, symbols, 10), Error);
}

TEST(Huffman, CorruptStreamThrows) {
  const Device dev = Device::serial();
  std::vector<std::uint32_t> symbols(100, 3);
  auto blob = encode_u32(dev, symbols, 8);
  blob.resize(blob.size() / 2);  // truncate
  EXPECT_THROW(decode_symbols(dev, blob, symbols.size()), Error);
}

TEST(Huffman, PortableAcrossAdapters) {
  // The portability property of §II-B: data encoded with one adapter must
  // decode bit-identically on every other adapter.
  std::mt19937_64 rng(53);
  std::vector<std::uint32_t> symbols(50000);
  for (auto& s : symbols) s = rng() % 40;
  const Device gpu = machine::make_device("V100");
  const Device cpu = Device::serial();
  auto blob_gpu = encode_u32(gpu, symbols, 40);
  auto blob_cpu = encode_u32(cpu, symbols, 40);
  EXPECT_EQ(blob_gpu, blob_cpu);  // bitwise-identical streams
  EXPECT_EQ(decode_symbols(cpu, blob_gpu, symbols.size()), symbols);
  EXPECT_EQ(decode_symbols(gpu, blob_cpu, symbols.size()), symbols);
}

// ---- Malformed headers --------------------------------------------------

/// Decodes a byte stream into `n` bytes, the size its header declares, so
/// the check under test is the only one that can fail.
std::vector<std::uint8_t> decode_bytes(const Device& dev,
                                       std::span<const std::uint8_t> stream,
                                       std::size_t n) {
  std::vector<std::uint8_t> out(n);
  decompress_bytes(dev, stream, out);
  return out;
}

/// A version-1 container taken apart, so tests can rebuild it with one
/// field changed.
struct StreamParts {
  std::uint8_t version = 1;
  std::size_t n = 0;
  std::size_t alphabet = 0;
  std::vector<std::uint8_t> lengths;
  std::vector<std::size_t> bits;
  std::vector<std::uint8_t> payload;
};

StreamParts split(std::span<const std::uint8_t> stream) {
  ByteReader in(stream);
  StreamParts p;
  p.version = in.get_u8();
  p.n = in.get_varint();
  p.alphabet = in.get_varint();
  const Codebook cb = Codebook::deserialize(in, p.alphabet, p.n);
  p.lengths.assign(p.alphabet, 0);
  for (std::size_t i = 0; i < cb.symbols.size(); ++i)
    p.lengths[cb.symbols[i]] = cb.lengths[i];
  p.bits.resize(in.get_varint());
  for (std::size_t& b : p.bits) b = in.get_varint();
  const auto payload = in.get_bytes(in.get_varint());
  p.payload.assign(payload.begin(), payload.end());
  return p;
}

std::vector<std::uint8_t> join(const StreamParts& p) {
  ByteWriter w;
  w.put_u8(p.version);
  w.put_varint(p.n);
  w.put_varint(p.alphabet);
  reference::write_codebook(w, p.lengths);
  w.put_varint(p.bits.size());
  for (const std::size_t b : p.bits) w.put_varint(b);
  w.put_varint(p.payload.size());
  w.put_bytes(p.payload);
  return w.take();
}

TEST(Huffman, ChunkTableMustCoverDeclaredSymbols) {
  // 100 declared bytes, a two-symbol codebook and no chunks at all: there
  // is nothing to decode them from, so the stream must not decode.
  StreamParts p;
  p.n = 100;
  p.alphabet = 256;
  p.lengths.assign(256, 0);
  p.lengths[10] = p.lengths[100] = 1;
  const auto stream = join(p);
  ASSERT_EQ(stream.size(), 19u);
  const Device dev = Device::serial();
  EXPECT_THROW(decode_symbols(dev, stream, 100), Error);
  std::vector<std::uint8_t> out(100, 0xAB);
  EXPECT_THROW(decompress_bytes(dev, stream, out), Error);
  EXPECT_EQ(out, std::vector<std::uint8_t>(100, 0xAB));
}

TEST(Huffman, OverDeclaredSymbolCountThrows) {
  // One full chunk re-declared as 1000 symbols longer: the chunk table no
  // longer covers the symbols, so the tail would have no bits behind it.
  const Device dev = Device::serial();
  std::vector<std::uint8_t> data(kEncodeChunk);
  std::mt19937_64 rng(7);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng() % 5);
  StreamParts p = split(compress_bytes(dev, data));
  ASSERT_EQ(p.bits.size(), 1u);
  p.n += 1000;
  EXPECT_THROW(decode_bytes(dev, join(p), p.n), Error);
  // More symbols than payload bits can hold, with a matching chunk count.
  p.n = 9 * kEncodeChunk;
  p.bits.resize(9, 1);
  EXPECT_THROW(decode_bytes(dev, join(p), p.n), Error);
}

TEST(Huffman, OutputSizeMismatchThrowsBeforeWriting) {
  const Device dev = Device::serial();
  const std::vector<std::uint8_t> data(5000, 42);
  const auto blob = compress_bytes(dev, data);
  const std::vector<std::uint32_t> symbols(5000, 42);
  const auto wblob = encode_u32(dev, symbols, 64);
  for (const std::size_t size : {std::size_t{4999}, std::size_t{5001}}) {
    std::vector<std::uint8_t> out(size, 7);
    EXPECT_THROW(decompress_bytes(dev, blob, out), Error);
    EXPECT_EQ(out, std::vector<std::uint8_t>(size, 7));
    std::vector<std::uint32_t> wout(size, 7);
    EXPECT_THROW(decode_u32(dev, wblob, wout), Error);
    EXPECT_EQ(wout, std::vector<std::uint32_t>(size, 7));
  }
  std::vector<std::uint8_t> out(data.size());
  decompress_bytes(dev, blob, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(decode_symbols(dev, wblob, symbols.size()), symbols);
}

TEST(Huffman, MultiStreamVersionIsRejected) {
  // Version 2 (K sub-streams per chunk) is no longer written or read.
  const Device dev = Device::serial();
  const std::vector<std::uint32_t> symbols(1000, 3);
  auto blob = encode_u32(dev, symbols, 8);
  blob[0] = 2;
  EXPECT_THROW(decode_symbols(dev, blob, symbols.size()), Error);
}

TEST(Huffman, LongCodesMatchReference) {
  // Fibonacci frequencies give codes of up to ~30 bits, past the widths
  // the in-place writer batches several codes per store for.
  std::vector<std::uint32_t> symbols;
  std::uint64_t a = 1, b = 1;
  for (std::uint32_t s = 0; s < 31; ++s, b += a, a = b - a)
    symbols.insert(symbols.end(), a, s);
  std::shuffle(symbols.begin(), symbols.end(), std::mt19937_64(9));
  std::vector<std::uint64_t> freq(40, 0);
  for (const auto s : symbols) ++freq[s];
  ASSERT_GT(reference::codebook(freq).max_length, 28);
  for (const char* name : {"serial", "stdthread"}) {
    const Device dev = machine::make_device(name);
    const auto blob = encode_u32(dev, symbols, 40);
    EXPECT_EQ(blob, reference::encode<std::uint32_t>(symbols, 40)) << name;
    EXPECT_EQ(decode_symbols(dev, blob, symbols.size()), symbols) << name;
  }
}

// ---- Property matrix: the in-place coder against the reference ----------

/// The matrix's alphabets: one live symbol; two; 256 uniform; a skewed one
/// whose longest codes exceed 12 bits (at the larger sizes); and (u32 only)
/// MGARD's and SZ's 65,538-symbol quantization codes.
enum class Draw { One, Two, Uniform, Skewed, Quant };

constexpr std::size_t kQuantAlphabet = mgard::kQuantAlphabet;
constexpr int kZeroBin = mgard::kQuantRadius + 1;

template <class T>
std::vector<T> draw(Draw kind, std::size_t n, std::mt19937_64& rng) {
  std::geometric_distribution<int> skew(0.45);
  std::vector<T> out(n);
  for (T& s : out) {
    switch (kind) {
      case Draw::One: s = 7; break;
      case Draw::Two: s = (rng() & 1) ? 3 : 200; break;
      case Draw::Uniform: s = static_cast<T>(rng() % 256); break;
      case Draw::Skewed: s = static_cast<T>(std::min(skew(rng), 255)); break;
      case Draw::Quant: {
        // Clustered around the zero bin's symbol, as quantization codes are.
        const int m = std::min(skew(rng), 1000);
        s = static_cast<T>((rng() & 1) ? kZeroBin + m : kZeroBin - m);
        break;
      }
    }
  }
  // The escape symbol and the top one, so the codebook header's first and
  // last runs are live symbols rather than gaps.
  if (kind == Draw::Quant && n > 0) {
    out.front() = 0;
    out.back() = static_cast<T>(kQuantAlphabet - 1);
  }
  return out;
}

constexpr std::size_t kMatrixSizes[] = {
    0, 1, 3, kEncodeChunk - 1, kEncodeChunk, kEncodeChunk + 1,
    4 * kEncodeChunk + 5, 9 * kEncodeChunk + 3};
constexpr Draw kDraws[] = {Draw::One, Draw::Two, Draw::Uniform, Draw::Skewed};

class HuffmanMatrix : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override { dev_ = machine::make_device(GetParam()); }
  Device dev_ = Device::serial();
};

TEST_P(HuffmanMatrix, StreamsMatchReferenceAndRoundTrip) {
  std::mt19937_64 rng(101);
  bool long_codes = false;
  for (const Draw kind : kDraws) {
    for (const std::size_t n : kMatrixSizes) {
      const auto bytes = draw<std::uint8_t>(kind, n, rng);
      const auto blob = compress_bytes(dev_, bytes);
      ASSERT_EQ(blob, reference::encode<std::uint8_t>(bytes, 256))
          << "u8 draw " << int(kind) << " n " << n;
      std::vector<std::uint8_t> out(n, 0x5A);
      decompress_bytes(dev_, blob, out);
      ASSERT_EQ(out, bytes);

      const auto wide = draw<std::uint32_t>(kind, n, rng);
      const std::size_t alphabet = kind == Draw::Skewed ? 600 : 256;
      const auto wblob = encode_u32(dev_, wide, alphabet);
      ASSERT_EQ(wblob, reference::encode<std::uint32_t>(wide, alphabet))
          << "u32 draw " << int(kind) << " n " << n;
      ASSERT_EQ(decode_symbols(dev_, wblob, n), wide);
      ByteReader in(wblob);
      in.get_u8();
      in.get_varint();
      in.get_varint();  // the alphabet
      long_codes |= Codebook::deserialize(in, alphabet, n).max_length >
                    DecodeTable::kLutBits;
    }
  }
  EXPECT_TRUE(long_codes);
  // The alphabet MGARD-X and cuSZ code with, which the sparse codebook
  // serves without walking it.
  for (const std::size_t n : kMatrixSizes) {
    const auto quant = draw<std::uint32_t>(Draw::Quant, n, rng);
    const auto qblob = encode_u32(dev_, quant, kQuantAlphabet);
    ASSERT_EQ(qblob, reference::encode<std::uint32_t>(quant, kQuantAlphabet))
        << "quant n " << n;
    ASSERT_EQ(decode_symbols(dev_, qblob, n), quant);
  }
}

TEST_P(HuffmanMatrix, IncompleteCodebookThrows) {
  // Lengths {1, 2} (Kraft sum 3/4) leave the pattern "11" unmatched.
  StreamParts p;
  p.n = 4;
  p.alphabet = 256;
  p.lengths.assign(256, 0);
  p.lengths[0] = 1;
  p.lengths[1] = 2;
  p.bits = {8};
  p.payload = {0xFF};
  EXPECT_THROW(decode_bytes(dev_, join(p), p.n), Error);
  p.lengths.resize(4);
  p.alphabet = 4;
  EXPECT_THROW(decode_symbols(dev_, join(p), p.n), Error);
}

TEST_P(HuffmanMatrix, TruncatedPayloadThrows) {
  std::mt19937_64 rng(103);
  const auto bytes =
      draw<std::uint8_t>(Draw::Skewed, 4 * kEncodeChunk + 5, rng);
  const auto blob = compress_bytes(dev_, bytes);
  // Cut inside the payload: the declared payload size overruns the stream.
  for (const std::size_t cut : {std::size_t{1}, blob.size() / 3})
    EXPECT_THROW(decode_bytes(dev_, std::span(blob).first(blob.size() - cut),
                              bytes.size()),
                 Error);
  // A consistent but shorter payload: the chunk bits overrun it.
  StreamParts p = split(blob);
  p.payload.resize(p.payload.size() - 2);
  EXPECT_THROW(decode_bytes(dev_, join(p), p.n), Error);
  // A chunk whose codes end before its recorded bit count.
  p = split(blob);
  p.bits[1] += 8;
  p.payload.push_back(0);
  EXPECT_THROW(decode_bytes(dev_, join(p), p.n), Error);
}

INSTANTIATE_TEST_SUITE_P(Adapters, HuffmanMatrix,
                         ::testing::Values("serial", "openmp", "V100",
                                           "stdthread"));

}  // namespace
}  // namespace hpdr::huffman
