// Single-thread throughput of the hot serial kernels every codec rides on
// (DESIGN.md §11/§16): bitstream put/read/append, Huffman encode/decode
// (MGARD's u32 quantization codes and the Huffman-X byte path on XGC
// bytes), the v4 frame checksum (XXH64 against FNV-1a), LZ4 block
// compress/decompress, the ZFP block
// transform and bitplane coder, the MGARD level step (decompose and
// recompose), and SZ dual-quantization. Each optimized
// kernel is raced against an in-binary *reference* implementation — a
// faithful copy of the pre-optimization code — and the outputs are
// compared bit-for-bit, so this binary is both a perf gate and a
// correctness differential. Gates
// (HPDR_EXPECT_GE on the speedup ratios) trip the exit code for CI; the
// measured numbers go to BENCH_kernels.json (--out F overrides). The
// SIMD-dispatched kernels (ZFP transforms, SZ) run the host's instance of
// their one body (DESIGN.md §16.1).
#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <random>
#include <thread>
#include <tuple>

#include "algorithms/huffman/codebook.hpp"
#include "algorithms/mgard/quantize.hpp"
#include "check.hpp"
#include "common.hpp"
#include "core/checksum.hpp"
#include "core/isa.hpp"
#include "huffman_reference.hpp"
#include "mgard_reference.hpp"
#include "zfp_reference.hpp"

using namespace hpdr;

namespace {

double best_of(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

/// Interleaved race: alternates the two closures within each rep so a
/// multi-rep noise burst (scheduler preemption on a shared box) degrades
/// both sides instead of swallowing one side's whole measurement window.
/// Returns {best_a, best_b}.
std::pair<double, double> best_of_pair(int reps,
                                       const std::function<void()>& a,
                                       const std::function<void()>& b) {
  double best_a = 1e300, best_b = 1e300;
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    a();
    auto t1 = std::chrono::steady_clock::now();
    b();
    const auto t2 = std::chrono::steady_clock::now();
    best_a = std::min(best_a, std::chrono::duration<double>(t1 - t0).count());
    best_b = std::min(best_b, std::chrono::duration<double>(t2 - t1).count());
  }
  return {best_a, best_b};
}

// ---------------------------------------------------------------------------
// Reference implementations: verbatim ports of the pre-optimization kernels,
// kept here so the speedup baseline cannot drift as the library evolves.
// The Huffman coder, MGARD level step and ZFP plane coder references live
// in tests/*_reference.hpp, shared with the unit tests that check the
// library against them.
// ---------------------------------------------------------------------------

/// Pre-optimization BitReader: assembles every read one byte at a time.
class RefBitReader {
 public:
  RefBitReader(std::span<const std::uint8_t> bytes, std::size_t bit_limit)
      : bytes_(bytes), bit_limit_(bit_limit) {}

  std::uint64_t get(unsigned nbits) {
    HPDR_REQUIRE(pos_ + nbits <= bit_limit_, "bitstream exhausted");
    std::uint64_t v = 0;
    unsigned got = 0;
    while (got < nbits) {
      const std::size_t byte = (pos_ + got) >> 3u;
      const unsigned off = (pos_ + got) & 7u;
      const unsigned take = std::min<unsigned>(8 - off, nbits - got);
      const std::uint64_t chunk =
          (static_cast<std::uint64_t>(bytes_[byte]) >> off) &
          ((std::uint64_t{1} << take) - 1);
      v |= chunk << got;
      got += take;
    }
    pos_ += nbits;
    return v;
  }

  std::uint64_t peek(unsigned nbits) const {
    std::uint64_t v = 0;
    unsigned got = 0;
    while (got < nbits) {
      const std::size_t byte = (pos_ + got) >> 3u;
      const unsigned off = (pos_ + got) & 7u;
      const unsigned take = std::min<unsigned>(8 - off, nbits - got);
      const std::uint64_t chunk =
          (static_cast<std::uint64_t>(bytes_[byte]) >> off) &
          ((std::uint64_t{1} << take) - 1);
      v |= chunk << got;
      got += take;
    }
    return v;
  }

  void skip(unsigned nbits) { pos_ += nbits; }
  std::size_t remaining() const { return bit_limit_ - pos_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t bit_limit_ = 0;
  std::size_t pos_ = 0;
};

/// Pre-optimization BitWriter: assembles every write one byte at a time
/// into a byte vector (no word buffer, no single-shift fast path).
class RefBitWriter {
 public:
  void put(std::uint64_t v, unsigned nbits) {
    while (nbits > 0) {
      const unsigned off = bits_ & 7u;
      if (off == 0) bytes_.push_back(0);
      const unsigned take = std::min(8u - off, nbits);
      bytes_.back() |= static_cast<std::uint8_t>(
          (v & ((std::uint64_t{1} << take) - 1)) << off);
      v >>= take;
      bits_ += take;
      nbits -= take;
    }
  }
  void clear() {
    bytes_.clear();
    bits_ = 0;
  }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t bits_ = 0;
};

/// Pre-optimization BitWriter::append: one put() per source word.
void ref_append(BitWriter& w, const BitWriter& other) {
  const std::size_t nbits = other.bit_size();
  const auto words = other.words();
  std::size_t done = 0;
  for (std::size_t i = 0; done < nbits; ++i) {
    const unsigned take =
        static_cast<unsigned>(std::min<std::size_t>(64, nbits - done));
    w.put(words[i], take);
    done += take;
  }
}

/// Pre-optimization Huffman bit-serial decode (identical logic, but driven
/// by the byte-at-a-time reader above).
std::uint32_t ref_decode_one(const huffman::DecodeTable& t,
                             RefBitReader& r) {
  std::uint64_t code = 0;
  for (unsigned l = 1; l <= t.max_length; ++l) {
    code = (code << 1) | (r.get(1) ? 1u : 0u);
    if (t.count[l] && code - t.first_code[l] < t.count[l])
      return t.symbols[t.offset[l] +
                       static_cast<std::uint32_t>(code - t.first_code[l])];
  }
  HPDR_REQUIRE(false, "corrupt Huffman stream: no codeword matched");
  return 0;
}

/// Pre-optimization LUT decode: one symbol per probe, serial fallback.
std::uint32_t ref_decode_lut(const huffman::DecodeTable& t,
                             RefBitReader& r) {
  using DT = huffman::DecodeTable;
  if (r.remaining() >= DT::kLutBits) {
    const std::uint64_t e = t.lut[r.peek(DT::kLutBits)];
    if (e != 0) {
      r.skip(static_cast<unsigned>((e >> DT::kEntryLen0Shift) &
                                   DT::kEntryLenMask));
      return static_cast<std::uint32_t>((e >> DT::kEntrySym0Shift) &
                                        DT::kEntrySymMask);
    }
  }
  return ref_decode_one(t, r);
}

// Pre-optimization LZ4 block codec: greedy single-entry hash table (no
// chains, no skip acceleration, byte-wise match extension) emitting through
// push_back/insert, and a byte-wise decoder. Verbatim copy of the code the
// hash-chain match finder and wild-copy decoder replaced.
namespace ref_lz4 {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kHashBits = 14;
constexpr std::size_t kMaxOffset = 65535;

inline std::uint32_t read32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline std::uint32_t hash4(std::uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashBits);
}

void put_length(std::vector<std::uint8_t>& out, std::size_t len) {
  while (len >= 255) {
    out.push_back(255);
    len -= 255;
  }
  out.push_back(static_cast<std::uint8_t>(len));
}

std::size_t get_length(std::span<const std::uint8_t> src, std::size_t& pos,
                       std::size_t base) {
  std::size_t len = base;
  if (base == 15) {
    std::uint8_t b;
    do {
      HPDR_REQUIRE(pos < src.size(), "LZ4 block truncated in length");
      b = src[pos++];
      len += b;
    } while (b == 255);
  }
  return len;
}

std::vector<std::uint8_t> compress_block(std::span<const std::uint8_t> src) {
  std::vector<std::uint8_t> out;
  out.reserve(src.size() / 2 + 16);
  const std::size_t n = src.size();
  std::vector<std::int64_t> table(std::size_t{1} << kHashBits, -1);
  std::size_t anchor = 0;
  std::size_t pos = 0;
  const std::size_t match_limit = n > kMinMatch + 1 ? n - kMinMatch - 1 : 0;
  while (pos < match_limit) {
    const std::uint32_t h = hash4(read32(src.data() + pos));
    const std::int64_t cand = table[h];
    table[h] = static_cast<std::int64_t>(pos);
    if (cand >= 0 && pos - static_cast<std::size_t>(cand) <= kMaxOffset &&
        read32(src.data() + cand) == read32(src.data() + pos)) {
      std::size_t m = kMinMatch;
      const std::size_t cap = n - pos;
      while (m < cap &&
             src[static_cast<std::size_t>(cand) + m] == src[pos + m])
        ++m;
      const std::size_t lit = pos - anchor;
      const std::size_t match_extra = m - kMinMatch;
      std::uint8_t token =
          static_cast<std::uint8_t>(std::min<std::size_t>(lit, 15) << 4 |
                                    std::min<std::size_t>(match_extra, 15));
      out.push_back(token);
      if (lit >= 15) put_length(out, lit - 15);
      out.insert(out.end(), src.begin() + anchor, src.begin() + pos);
      const std::uint16_t offset =
          static_cast<std::uint16_t>(pos - static_cast<std::size_t>(cand));
      out.push_back(static_cast<std::uint8_t>(offset));
      out.push_back(static_cast<std::uint8_t>(offset >> 8));
      if (match_extra >= 15) put_length(out, match_extra - 15);
      pos += m;
      anchor = pos;
    } else {
      ++pos;
    }
  }
  const std::size_t lit = n - anchor;
  out.push_back(static_cast<std::uint8_t>(std::min<std::size_t>(lit, 15) << 4));
  if (lit >= 15) put_length(out, lit - 15);
  out.insert(out.end(), src.begin() + anchor, src.end());
  return out;
}

void decompress_block(std::span<const std::uint8_t> src,
                      std::span<std::uint8_t> dst) {
  std::size_t ip = 0, op = 0;
  while (ip < src.size()) {
    const std::uint8_t token = src[ip++];
    std::size_t lit = get_length(src, ip, token >> 4);
    HPDR_REQUIRE(ip + lit <= src.size() && op + lit <= dst.size(),
                 "LZ4 literal run out of bounds");
    std::memcpy(dst.data() + op, src.data() + ip, lit);
    ip += lit;
    op += lit;
    if (ip >= src.size()) break;
    HPDR_REQUIRE(ip + 2 <= src.size(), "LZ4 block truncated at offset");
    const std::size_t offset = src[ip] | (std::size_t{src[ip + 1]} << 8);
    ip += 2;
    HPDR_REQUIRE(offset > 0 && offset <= op, "LZ4 invalid match offset");
    std::size_t mlen = kMinMatch + get_length(src, ip, token & 0x0F);
    HPDR_REQUIRE(op + mlen <= dst.size(), "LZ4 match overruns output");
    for (std::size_t i = 0; i < mlen; ++i, ++op)
      dst[op] = dst[op - offset];
  }
  HPDR_REQUIRE(op == dst.size(), "LZ4 block decoded to wrong size");
}

}  // namespace ref_lz4

/// Pre-optimization ZFP transforms: one scalar 4-point lift per call along
/// every axis.
void ref_fwd_transform(std::int64_t* q, std::size_t rank) {
  if (rank == 1) {
    zfp::detail::fwd_lift4(q, 1);
    return;
  }
  if (rank == 2) {
    for (std::size_t i = 0; i < 4; ++i) zfp::detail::fwd_lift4(q + 4 * i, 1);
    for (std::size_t i = 0; i < 4; ++i) zfp::detail::fwd_lift4(q + i, 4);
    return;
  }
  for (std::size_t i = 0; i < 16; ++i) zfp::detail::fwd_lift4(q + 4 * i, 1);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t k = 0; k < 4; ++k)
      zfp::detail::fwd_lift4(q + 16 * i + k, 4);
  for (std::size_t j = 0; j < 4; ++j)
    for (std::size_t k = 0; k < 4; ++k)
      zfp::detail::fwd_lift4(q + 4 * j + k, 16);
}

void ref_inv_transform(std::int64_t* q, std::size_t rank) {
  if (rank == 1) {
    zfp::detail::inv_lift4(q, 1);
    return;
  }
  if (rank == 2) {
    for (std::size_t i = 0; i < 4; ++i) zfp::detail::inv_lift4(q + i, 4);
    for (std::size_t i = 0; i < 4; ++i) zfp::detail::inv_lift4(q + 4 * i, 1);
    return;
  }
  for (std::size_t j = 0; j < 4; ++j)
    for (std::size_t k = 0; k < 4; ++k)
      zfp::detail::inv_lift4(q + 4 * j + k, 16);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t k = 0; k < 4; ++k)
      zfp::detail::inv_lift4(q + 16 * i + k, 4);
  for (std::size_t i = 0; i < 16; ++i) zfp::detail::inv_lift4(q + 4 * i, 1);
}

/// Negabinary coefficients of the interior 4³ blocks of an f32 field, as
/// zfp-x computes them: block floating point at 28 bits, the decorrelating
/// transform, total-sequency order. Zero blocks (no planes) are skipped.
std::vector<std::uint64_t> zfp_block_coefficients(const NDArray<float>& f,
                                                  std::size_t max_blocks) {
  const Shape& s = f.shape();
  const auto order = zfp::detail::sequency_order(3);
  std::vector<std::uint64_t> out;
  for (std::size_t x = 0; x + 4 <= s[0]; x += 4)
    for (std::size_t y = 0; y + 4 <= s[1]; y += 4)
      for (std::size_t z = 0; z + 4 <= s[2]; z += 4) {
        if (out.size() >= max_blocks * 64) return out;
        double vals[64];
        double vmax = 0;
        for (std::size_t i = 0; i < 64; ++i) {
          vals[i] = f.at(x + i / 16, y + i / 4 % 4, z + i % 4);
          vmax = std::max(vmax, std::abs(vals[i]));
        }
        if (vmax == 0) continue;
        int e;
        std::frexp(vmax, &e);
        const double scale = std::ldexp(1.0, 28 - e);
        std::int64_t q[64];
        for (std::size_t i = 0; i < 64; ++i)
          q[i] = static_cast<std::int64_t>(vals[i] * scale);
        zfp::detail::fwd_transform(q, 3);
        for (std::size_t i = 0; i < 64; ++i)
          out.push_back(zfp::detail::to_negabinary(q[order[i]]));
      }
  return out;
}

/// Pre-optimization SZ Lorenzo prediction: per-element coordinate recovery
/// (div/mod against the strides) and a stencil that re-derives the strides
/// on every call.
std::int64_t ref_lorenzo_int(const std::int64_t* p, const Shape& cs,
                             std::size_t rank, std::size_t i, std::size_t j,
                             std::size_t k) {
  const auto strides = cs.strides();
  auto at = [&](std::size_t a, std::size_t b, std::size_t c) {
    std::size_t flat = c * strides[rank - 1];
    if (rank >= 2) flat += b * strides[rank - 2];
    if (rank >= 3) flat += a * strides[0];
    return p[flat];
  };
  switch (rank) {
    case 1:
      return k > 0 ? at(0, 0, k - 1) : 0;
    case 2: {
      const std::int64_t left = k > 0 ? at(0, j, k - 1) : 0;
      const std::int64_t top = j > 0 ? at(0, j - 1, k) : 0;
      const std::int64_t tl = (j > 0 && k > 0) ? at(0, j - 1, k - 1) : 0;
      return left + top - tl;
    }
    default: {
      auto v = [&](std::size_t a, std::size_t b, std::size_t c) {
        return (i >= a && j >= b && k >= c) ? at(i - a, j - b, k - c)
                                            : std::int64_t{0};
      };
      return v(0, 0, 1) + v(0, 1, 0) + v(1, 0, 0) - v(0, 1, 1) -
             v(1, 0, 1) - v(1, 1, 0) + v(1, 1, 1);
    }
  }
}

/// Pre-optimization SZ dual-quantization, both phases per-element.
void ref_sz_quantize(const Device& dev, const double* data, const Shape& cs,
                     double bin, double abs_eb, std::int64_t* P,
                     std::uint8_t* oob, std::uint32_t* symbols) {
  using sz::detail::kMaxPrequant;
  using sz::detail::kRadius;
  const std::size_t n = cs.size();
  const std::size_t rank = cs.rank();
  global_stage(dev, n, [&](std::size_t flat) {
    const double x = data[flat];
    const double q = std::nearbyint(x / bin);
    const std::int64_t Pq =
        std::isfinite(q) ? static_cast<std::int64_t>(
                               std::clamp(q, -kMaxPrequant, kMaxPrequant))
                         : 0;
    P[flat] = Pq;
    const double rec = static_cast<double>(Pq) * bin;
    oob[flat] = !std::isfinite(q) || std::abs(q) > kMaxPrequant ||
                std::abs(rec - x) > abs_eb;
  });
  const auto strides = cs.strides();
  global_stage(dev, n, [&](std::size_t flat) {
    std::size_t rem = flat;
    std::size_t c[3] = {0, 0, 0};
    for (std::size_t d = 0; d < rank; ++d) {
      c[d] = rem / strides[d];
      rem %= strides[d];
    }
    std::size_t i = 0, j = 0, k = 0;
    if (rank == 1) {
      k = c[0];
    } else if (rank == 2) {
      j = c[0];
      k = c[1];
    } else {
      i = c[0];
      j = c[1];
      k = c[2];
    }
    const std::int64_t r = P[flat] - ref_lorenzo_int(P, cs, rank, i, j, k);
    if (oob[flat] || r < -kRadius || r > kRadius)
      symbols[flat] = 0;
    else
      symbols[flat] = static_cast<std::uint32_t>(r + kRadius + 1);
  });
}

// ---------------------------------------------------------------------------

struct KernelResult {
  double fast_gbps = 0;
  double ref_gbps = 0;  // 0 = no reference for this kernel
  double speedup = 0;
};

telemetry::Value to_json(const KernelResult& k) {
  telemetry::Value v = telemetry::Value::object();
  v.set("fast_gbps", telemetry::Value(k.fast_gbps));
  if (k.ref_gbps > 0) {
    v.set("ref_gbps", telemetry::Value(k.ref_gbps));
    v.set("speedup", telemetry::Value(k.speedup));
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  bench::header("Kernel hot paths — optimized vs pre-optimization reference",
                "bitstream / Huffman / ZFP / MGARD / SZ serial kernels, DESIGN.md §11");
  const bool tiny = bench::has_flag(argc, argv, "--tiny");
  const unsigned threads = bench::apply_threads(argc, argv);
  const int reps = tiny ? 3 : 5;
  const Device dev = Device::serial();
  std::printf("isa: %s\n", isa::to_string(isa::level()));

  bench::Table t({"kernel", "fast GB/s", "ref GB/s", "speedup", "gate"});
  telemetry::Value kernels = telemetry::Value::object();
  auto record = [&](const char* name, KernelResult k, double gate) {
    const bool gated = k.ref_gbps > 0 && gate > 0;
    t.row({name, bench::fmt(k.fast_gbps, 3),
           k.ref_gbps > 0 ? bench::fmt(k.ref_gbps, 3) : "-",
           k.ref_gbps > 0 ? bench::fmt(k.speedup, 2) : "-",
           gated ? (">=" + bench::fmt(gate, 1)) : "-"});
    kernels.set(name, to_json(k));
    if (gated) HPDR_EXPECT_GE(k.speedup, gate);
  };

  // Deterministic inputs: fixed seeds, fixed sizes per --tiny/default.
  std::mt19937_64 rng(20260806);

  // ---- bitstream put: mixed-width writes (the Huffman encoder's shape).
  {
    const std::size_t n = tiny ? (1u << 20) : (1u << 23);
    std::vector<std::uint8_t> widths(n);
    std::vector<std::uint64_t> vals(n);
    std::size_t total_bits = 0;
    for (std::size_t i = 0; i < n; ++i) {
      widths[i] = static_cast<std::uint8_t>(1 + rng() % 24);
      vals[i] = rng();
      total_bits += widths[i];
    }
    BitWriter w;
    const double s = best_of(reps, [&] {
      w.clear();
      w.reserve_bits(total_bits);
      for (std::size_t i = 0; i < n; ++i) w.put(vals[i], widths[i]);
    });
    RefBitWriter wr;
    const double sp = best_of(reps, [&] {
      wr.clear();
      for (std::size_t i = 0; i < n; ++i) wr.put(vals[i], widths[i]);
    });
    HPDR_EXPECT_TRUE(w.to_bytes() == wr.bytes());
    KernelResult k;
    k.fast_gbps = static_cast<double>(total_bits) / 8 / 1e9 / s;
    k.ref_gbps = static_cast<double>(total_bits) / 8 / 1e9 / sp;
    k.speedup = sp / s;
    record("bitstream_put", k, 1.2);

    // ---- bitstream read: same mixed widths, word-at-a-time reader vs
    // the byte-at-a-time reference; checksums must agree.
    const auto bytes = w.to_bytes();
    std::uint64_t sum_fast = 0, sum_ref = 0;
    const double sf = best_of(reps, [&] {
      sum_fast = 0;
      BitReader r(bytes, total_bits);
      for (std::size_t i = 0; i < n; ++i) sum_fast += r.get(widths[i]);
    });
    const double sr = best_of(reps, [&] {
      sum_ref = 0;
      RefBitReader r(bytes, total_bits);
      for (std::size_t i = 0; i < n; ++i) sum_ref += r.get(widths[i]);
    });
    HPDR_EXPECT_EQ(sum_fast, sum_ref);
    KernelResult kr;
    kr.fast_gbps = static_cast<double>(total_bits) / 8 / 1e9 / sf;
    kr.ref_gbps = static_cast<double>(total_bits) / 8 / 1e9 / sr;
    kr.speedup = sr / sf;
    record("bitstream_read", kr, 1.2);
  }

  // ---- bitstream append: merging per-chunk writers (the serialization
  // step of every parallel encoder). Chunk bit counts are deliberately not
  // word-aligned so the shifted path dominates, as in real streams.
  {
    const std::size_t nchunks = 64;
    const std::size_t chunk_words = tiny ? (1u << 12) : (1u << 15);
    std::vector<BitWriter> chunks(nchunks);
    std::size_t total_bits = 0;
    for (std::size_t c = 0; c < nchunks; ++c) {
      for (std::size_t i = 0; i < chunk_words; ++i)
        chunks[c].put(rng(), 64);
      chunks[c].put(rng(), static_cast<unsigned>(1 + c % 63));  // misalign
      total_bits += chunks[c].bit_size();
    }
    BitWriter fast, ref;
    const double sf = best_of(reps, [&] {
      fast.clear();
      fast.reserve_bits(total_bits);
      for (const auto& c : chunks) fast.append(c);
    });
    const double sr = best_of(reps, [&] {
      ref.clear();
      for (const auto& c : chunks) ref_append(ref, c);
    });
    HPDR_EXPECT_TRUE(fast.to_bytes() == ref.to_bytes());
    KernelResult k;
    k.fast_gbps = static_cast<double>(total_bits) / 8 / 1e9 / sf;
    k.ref_gbps = static_cast<double>(total_bits) / 8 / 1e9 / sr;
    k.speedup = sr / sf;
    record("bitstream_append", k, 1.2);
  }

  // ---- Huffman encode/decode of quantization codes, the u32 path MGARD-X
  // and SZ take: their alphabet of 65,538 symbols, a two-sided geometric
  // around the zero bin's symbol (sharply peaked, short center codes, long
  // tail). Short codes are what the two-symbol LUT entries pack.
  {
    const std::size_t n = tiny ? (1u << 20) : (1u << 22);
    const std::size_t alphabet = mgard::kQuantAlphabet;
    const int center = static_cast<int>(mgard::kQuantRadius) + 1;
    std::vector<std::uint32_t> symbols(n);
    {
      std::geometric_distribution<int> mag(0.18);
      for (auto& s : symbols) {
        const int m = mag(rng);
        s = static_cast<std::uint32_t>((rng() & 1) ? center + m : center - m);
      }
    }
    const double in_bytes = static_cast<double>(n) * sizeof(std::uint32_t);
    // Encode against the reference encoder (tests/huffman_reference.hpp):
    // one BitWriter per chunk, append, to_bytes. Informational, no gate.
    std::vector<std::uint8_t> blob, blob_ref;
    const auto [se, se_ref] = best_of_pair(
        reps, [&] { blob = huffman::encode_u32(dev, symbols, alphabet); },
        [&] {
          blob_ref = huffman::reference::encode<std::uint32_t>(symbols,
                                                               alphabet);
        });
    HPDR_EXPECT_TRUE(blob == blob_ref);
    KernelResult ke;
    ke.fast_gbps = in_bytes / 1e9 / se;
    ke.ref_gbps = in_bytes / 1e9 / se_ref;
    ke.speedup = se_ref / se;
    record("huffman_encode", ke, 0);

    // Decode: the production decoder (decode_u32, four chunks per group)
    // on that stream vs the pre-optimization per-symbol LUT path with its
    // byte-at-a-time reader and per-decode table rebuild, over the same
    // codes concatenated into one payload — the stream's own payload, as
    // its chunks are laid end to end. Both sides fill a preallocated
    // buffer, so neither times an allocation.
    std::vector<std::uint64_t> freq(alphabet, 0);
    for (auto s : symbols) ++freq[s];
    const huffman::Codebook cb = huffman::reference::codebook(freq);
    const auto dense = huffman::reference::dense_codebook(freq);
    BitWriter w;
    for (auto s : symbols) w.put(dense.codes_reversed[s], dense.lengths[s]);
    const auto payload = w.to_bytes();
    const std::size_t payload_bits = w.bit_size();
    HPDR_EXPECT_TRUE(blob.size() >= payload.size() &&
                     std::equal(payload.begin(), payload.end(),
                                blob.end() - payload.size()));
    std::vector<std::uint32_t> out_fast(n), out_ref(n);
    const auto [sf, sr] = best_of_pair(
        reps, [&] { huffman::decode_u32(dev, blob, out_fast); },
        [&] {
          const huffman::DecodeTable table = huffman::DecodeTable::build(cb);
          RefBitReader r(payload, payload_bits);
          for (std::size_t i = 0; i < n; ++i)
            out_ref[i] = ref_decode_lut(table, r);
        });
    HPDR_EXPECT_TRUE(out_fast == out_ref);
    HPDR_EXPECT_TRUE(out_fast == symbols);
    KernelResult kd;
    kd.fast_gbps = in_bytes / 1e9 / sf;
    kd.ref_gbps = in_bytes / 1e9 / sr;
    kd.speedup = sr / sf;
    record("huffman_decode", kd, 2.0);
  }

  // ---- Huffman cost by alphabet: one symbol, and a 4,096-symbol
  // MGARD-shaped chunk (the two-sided geometric above, around the zero
  // bin's symbol alphabet / 2), each coded at alphabet 65,538 (MGARD-X and
  // cuSZ) and at 4,096 in this binary, on the same offsets. Gate: in each
  // direction the 65,538 call takes at most 2x the 4,096 call, on the
  // median of 101 interleaved calls. The coder must cost what it codes,
  // not what the alphabet could hold.
  {
    constexpr int kCalls = 101;
    constexpr double kGate = 2.0;
    constexpr std::size_t kWide = mgard::kQuantAlphabet, kNarrow = 4096;
    std::vector<int> chunk(4096);
    {
      // Its own generator, so the rows after it see the inputs they had.
      std::mt19937_64 arng(20261020);
      std::geometric_distribution<int> mag(0.18);
      for (int& o : chunk) {
        const int m = std::min(mag(arng), 1000);
        o = (arng() & 1) ? m : -m;
      }
    }
    const std::pair<const char*, std::vector<int>> inputs[] = {
        {"one", {0}}, {"chunk", chunk}};
    auto median_us = [](std::vector<double> t) {
      std::nth_element(t.begin(), t.begin() + t.size() / 2, t.end());
      return t[t.size() / 2] * 1e6;
    };
    auto seconds = [](const std::function<void()>& fn) {
      const auto t0 = std::chrono::steady_clock::now();
      fn();
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
          .count();
    };
    bench::Table ta({"huffman_alphabet", "65,538 us", "4,096 us", "ratio",
                     "gate"});
    telemetry::Value row = telemetry::Value::object();
    for (const auto& [name, offsets] : inputs) {
      std::vector<std::uint32_t> wide(offsets.size()), narrow(offsets.size());
      for (std::size_t i = 0; i < offsets.size(); ++i) {
        wide[i] = static_cast<std::uint32_t>(int{kWide / 2} + offsets[i]);
        narrow[i] = static_cast<std::uint32_t>(int{kNarrow / 2} + offsets[i]);
      }
      std::vector<std::uint8_t> blob_w, blob_n;
      std::vector<std::uint32_t> out_w(wide.size()), out_n(wide.size());
      std::vector<double> enc_w, enc_n, dec_w, dec_n;
      for (int r = 0; r < kCalls; ++r) {
        enc_w.push_back(seconds(
            [&] { blob_w = huffman::encode_u32(dev, wide, kWide); }));
        enc_n.push_back(seconds(
            [&] { blob_n = huffman::encode_u32(dev, narrow, kNarrow); }));
        dec_w.push_back(
            seconds([&] { huffman::decode_u32(dev, blob_w, out_w); }));
        dec_n.push_back(
            seconds([&] { huffman::decode_u32(dev, blob_n, out_n); }));
      }
      HPDR_EXPECT_TRUE(out_w == wide && out_n == narrow);
      for (const auto& [dir, tw, tn] :
           {std::tuple{"encode", median_us(enc_w), median_us(enc_n)},
            std::tuple{"decode", median_us(dec_w), median_us(dec_n)}}) {
        const std::string key = std::string(dir) + "_" + name;
        ta.row({key, bench::fmt(tw, 1), bench::fmt(tn, 1),
                bench::fmt(tw / tn, 2), "<=" + bench::fmt(kGate, 1)});
        telemetry::Value v = telemetry::Value::object();
        v.set("us_65538", telemetry::Value(tw));
        v.set("us_4096", telemetry::Value(tn));
        v.set("ratio", telemetry::Value(tw / tn));
        row.set(key, std::move(v));
        HPDR_EXPECT_LE(tw / tn, kGate);
      }
    }
    row.set("gate", telemetry::Value(kGate));
    row.set("calls", telemetry::Value(kCalls));
    ta.print();
    kernels.set("huffman_alphabet", std::move(row));
  }

  // ---- Huffman-X byte path in the codec's own units: GB/s of raw XGC f64
  // bytes (Tiny under --tiny, otherwise one 9.6 MiB chunk of Small, the
  // chunk xgc-lossless hands the codec). The reference is the byte path as
  // it was before the in-place coder (tests/huffman_reference.hpp): widen
  // to u32, one BitWriter per chunk, append, to_bytes; decode per chunk
  // into u32, then narrow. Streams must be byte-identical and the decode
  // must return the input.
  {
    const data::Dataset ds =
        data::make("xgc", tiny ? data::Size::Tiny : data::Size::Small);
    const std::span<const std::uint8_t> raw(
        ds.bytes.data(), tiny ? ds.bytes.size() : ds.bytes.size() / 2);
    const double in_bytes = static_cast<double>(raw.size());
    std::vector<std::uint8_t> blob, blob_ref;
    const auto [se, se_ref] = best_of_pair(
        reps, [&] { blob = huffman::compress_bytes(dev, raw); },
        [&] {
          std::vector<std::uint32_t> wide(raw.size());
          global_stage(dev, raw.size(),
                       [&](std::size_t i) { wide[i] = raw[i]; });
          blob_ref = huffman::reference::encode<std::uint32_t>(wide, 256);
        });
    HPDR_EXPECT_TRUE(blob == blob_ref);
    KernelResult ke;
    ke.fast_gbps = in_bytes / 1e9 / se;
    ke.ref_gbps = in_bytes / 1e9 / se_ref;
    ke.speedup = se_ref / se;
    record("huffman_bytes_encode", ke, 3.0);

    std::vector<std::uint8_t> back(raw.size()), back_ref;
    const auto [sd, sd_ref] = best_of_pair(
        reps, [&] { huffman::decompress_bytes(dev, blob, back); },
        [&] {
          const std::vector<std::uint32_t> wide =
              huffman::reference::decode(blob);
          back_ref.resize(wide.size());
          global_stage(dev, wide.size(), [&](std::size_t i) {
            back_ref[i] = static_cast<std::uint8_t>(wide[i]);
          });
        });
    HPDR_EXPECT_TRUE(
        std::equal(raw.begin(), raw.end(), back.begin(), back.end()));
    HPDR_EXPECT_TRUE(back_ref == back);
    KernelResult kd;
    kd.fast_gbps = in_bytes / 1e9 / sd;
    kd.ref_gbps = in_bytes / 1e9 / sd_ref;
    kd.speedup = sd_ref / sd;
    record("huffman_bytes_decode", kd, 2.0);

    // The frame checksum over that chunk's huffman-x frame, in GB/s of
    // frame bytes: XXH64 (stream v4) against FNV-1a (stream v2).
    const double frame_bytes = static_cast<double>(blob.size());
    std::uint64_t hx = 0, hf = 0;
    const auto [sx, sf] = best_of_pair(
        reps, [&] { hx = xxh64(blob); }, [&] { hf = fnv1a64(blob); });
    HPDR_EXPECT_TRUE(hx != hf);
    KernelResult kc;
    kc.fast_gbps = frame_bytes / 1e9 / sx;
    kc.ref_gbps = frame_bytes / 1e9 / sf;
    kc.speedup = sf / sx;
    record("frame_checksum", kc, 5.0);
  }

  // ---- LZ4 block codec: hash-chain match finder + wild-copy decoder vs
  // the greedy single-entry matcher and byte-wise decoder they replaced.
  // Input mirrors what the serving path feeds LZ4: half raw float32 field
  // bytes (the nvcomp-lz4 scenario — mantissas are noise, exponents
  // periodic, so the literal-run skip acceleration carries it), a quarter
  // periodic record structure (chunk metadata), and a quarter serialized
  // u32 quantization symbols (dense short matches). Encoded bytes
  // legitimately differ (a better matcher emits a different parse), so the
  // encode check is a round-trip plus a no-worse-ratio bound; the decode
  // race runs both decoders over the *same* blob and must match
  // bit-for-bit.
  {
    const std::size_t quarter = tiny ? (1u << 20) : (1u << 22);
    std::vector<std::uint8_t> src(4 * quarter);
    for (std::size_t i = 0; i < 2 * quarter; i += 4) {
      const float v = std::sin(0.001f * static_cast<float>(i)) *
                      (1.0f + 0.001f * static_cast<float>(i % 997));
      std::memcpy(&src[i], &v, 4);
    }
    for (std::size_t i = 0; i < quarter; ++i) {
      // Periodic records with a slowly varying field: long matches at
      // several distances, the common shape of chunked metadata.
      src[2 * quarter + i] = static_cast<std::uint8_t>(
          (i % 64 < 56) ? (i % 64) : (i / 512) & 0xFF);
    }
    {
      std::geometric_distribution<int> mag(0.25);
      for (std::size_t i = 0; i < quarter; i += 4) {
        const int m = mag(rng);
        const std::uint32_t v =
            0x8000u + static_cast<std::uint32_t>((rng() & 1) ? m : -m);
        std::memcpy(&src[3 * quarter + i], &v, 4);
      }
    }
    const double bytes = static_cast<double>(src.size());

    std::vector<std::uint8_t> blob_fast, blob_ref;
    const auto [se, ser] = best_of_pair(
        reps + 2, [&] { blob_fast = lz4::compress_block(src); },
        [&] { blob_ref = ref_lz4::compress_block(src); });
    // The better matcher must not compress worse than the greedy one.
    HPDR_EXPECT_TRUE(blob_fast.size() <= blob_ref.size());
    std::vector<std::uint8_t> rt(src.size());
    lz4::decompress_block(blob_fast, rt);
    HPDR_EXPECT_TRUE(rt == src);
    KernelResult ke;
    ke.fast_gbps = bytes / 1e9 / se;
    ke.ref_gbps = bytes / 1e9 / ser;
    ke.speedup = ser / se;
    record("lz4_compress", ke, 2.0);

    std::vector<std::uint8_t> out_fast(src.size()), out_ref(src.size());
    const auto [sd, sdr] = best_of_pair(
        reps + 2, [&] { lz4::decompress_block(blob_fast, out_fast); },
        [&] { ref_lz4::decompress_block(blob_fast, out_ref); });
    HPDR_EXPECT_TRUE(out_fast == out_ref);
    HPDR_EXPECT_TRUE(out_fast == src);
    KernelResult kd;
    kd.fast_gbps = bytes / 1e9 / sd;
    kd.ref_gbps = bytes / 1e9 / sdr;
    kd.speedup = sdr / sd;
    record("lz4_decompress", kd, 1.5);
  }

  // ---- ZFP 4³ block transform: lane-parallel SIMD lifts vs scalar lifts.
  {
    const std::size_t nblocks = tiny ? (1u << 13) : (1u << 15);
    const std::size_t bn = 64;
    std::vector<std::int64_t> src(nblocks * bn);
    for (auto& v : src)
      v = static_cast<std::int64_t>(rng() & 0xFFFFF) - 0x80000;
    std::vector<std::int64_t> fast(src.size()), ref(src.size());
    const double bytes = static_cast<double>(src.size()) * sizeof(std::int64_t);
    const double sf = best_of(reps, [&] {
      std::memcpy(fast.data(), src.data(), src.size() * sizeof(std::int64_t));
      for (std::size_t b = 0; b < nblocks; ++b)
        zfp::detail::fwd_transform(fast.data() + b * bn, 3);
    });
    const double sr = best_of(reps, [&] {
      std::memcpy(ref.data(), src.data(), src.size() * sizeof(std::int64_t));
      for (std::size_t b = 0; b < nblocks; ++b)
        ref_fwd_transform(ref.data() + b * bn, 3);
    });
    HPDR_EXPECT_TRUE(fast == ref);
    KernelResult kf;
    kf.fast_gbps = bytes / 1e9 / sf;
    kf.ref_gbps = bytes / 1e9 / sr;
    kf.speedup = sr / sf;
    record("zfp_fwd_transform", kf, 1.2);

    // Inverse on the transformed coefficients; must reproduce src exactly.
    const std::vector<std::int64_t> coeffs = fast;
    const double si = best_of(reps, [&] {
      std::memcpy(fast.data(), coeffs.data(),
                  coeffs.size() * sizeof(std::int64_t));
      for (std::size_t b = 0; b < nblocks; ++b)
        zfp::detail::inv_transform(fast.data() + b * bn, 3);
    });
    const double sir = best_of(reps, [&] {
      std::memcpy(ref.data(), coeffs.data(),
                  coeffs.size() * sizeof(std::int64_t));
      for (std::size_t b = 0; b < nblocks; ++b)
        ref_inv_transform(ref.data() + b * bn, 3);
    });
    HPDR_EXPECT_TRUE(fast == ref);
    HPDR_EXPECT_TRUE(fast == src);
    KernelResult ki;
    ki.fast_gbps = bytes / 1e9 / si;
    ki.ref_gbps = bytes / 1e9 / sir;
    ki.speedup = sir / si;
    record("zfp_inv_transform", ki, 1.2);
  }

  // ---- ZFP bitplane coder: one bit-matrix transpose per block and one put
  // (or peek) per group vs per-plane gather/deposit loops and one bit per
  // call. Real NYX 4³ blocks at zfp-x's rate 11 (704 − 9 exponent
  // bits = 695 per block) and unbounded (the variable modes); both budgets
  // run in each timed pass.
  {
    const std::size_t max_blocks = tiny ? (1u << 13) : (1u << 15);
    const auto field =
        data::nyx_density(data::dataset_shape("nyx", data::Size::Medium), 1);
    const std::vector<std::uint64_t> u =
        zfp_block_coefficients(field, max_blocks);
    const std::size_t nblocks = u.size() / 64;
    constexpr int kIntprec = 28 + 3 + 1;  // f32, rank 3
    const std::size_t budgets[2] = {695, SIZE_MAX / 2};
    // Worst case of an unbounded f32 block: n + 1 bits per plane plus n.
    const std::size_t slot_words[2] = {(695 + 63) / 64,
                                       (kIntprec * 65 + 64 + 63) / 64};
    std::vector<std::uint64_t> slots[2];
    std::vector<std::size_t> nbits[2];
    std::vector<BitWriter> ref_out[2];
    for (int p = 0; p < 2; ++p) {
      slots[p].resize(nblocks * slot_words[p]);
      nbits[p].resize(nblocks);
      ref_out[p].resize(nblocks);
    }
    const double bytes = 2.0 * static_cast<double>(u.size()) * 8;
    const auto [se, ser] = best_of_pair(
        reps,
        [&] {
          for (int p = 0; p < 2; ++p) {
            std::fill(slots[p].begin(), slots[p].end(), 0);
            for (std::size_t b = 0; b < nblocks; ++b)
              nbits[p][b] = zfp::detail::encode_planes(
                  slots[p].data() + b * slot_words[p], 0, u.data() + 64 * b,
                  64, kIntprec, budgets[p]);
          }
        },
        [&] {
          for (int p = 0; p < 2; ++p)
            for (std::size_t b = 0; b < nblocks; ++b) {
              ref_out[p][b].clear();
              zfp::reference::encode_planes(ref_out[p][b], u.data() + 64 * b,
                                            64, kIntprec, budgets[p]);
            }
        });
    bool same = true;
    for (int p = 0; p < 2; ++p)
      for (std::size_t b = 0; b < nblocks; ++b) {
        const auto rw = ref_out[p][b].words();
        same = same && nbits[p][b] == ref_out[p][b].bit_size() &&
               std::equal(rw.begin(), rw.end(),
                          slots[p].begin() + b * slot_words[p]);
      }
    HPDR_EXPECT_TRUE(same);
    KernelResult ke;
    ke.fast_gbps = bytes / 1e9 / se;
    ke.ref_gbps = bytes / 1e9 / ser;
    ke.speedup = ser / se;
    record("zfp_encode_planes", ke, 2.0);

    // Decode the same streams; the unbounded pass must give u back.
    std::vector<std::uint8_t> stream[2];
    for (int p = 0; p < 2; ++p) {
      stream[p].resize(slots[p].size() * 8);
      std::memcpy(stream[p].data(), slots[p].data(), stream[p].size());
    }
    std::vector<std::uint64_t> out_fast[2], out_ref[2];
    for (int p = 0; p < 2; ++p) {
      out_fast[p].resize(u.size());
      out_ref[p].resize(u.size());
    }
    auto decode_all = [&](bool fast, std::vector<std::uint64_t>* out) {
      for (int p = 0; p < 2; ++p)
        for (std::size_t b = 0; b < nblocks; ++b) {
          const std::span<const std::uint8_t> block(
              stream[p].data() + b * slot_words[p] * 8, slot_words[p] * 8);
          BitReader r(block, nbits[p][b]);
          std::uint64_t* o = out[p].data() + 64 * b;
          if (fast)
            zfp::detail::decode_planes(r, o, 64, kIntprec, budgets[p]);
          else
            zfp::reference::decode_planes(r, o, 64, kIntprec, budgets[p]);
        }
    };
    const auto [sd, sdr] =
        best_of_pair(reps, [&] { decode_all(true, out_fast); },
                     [&] { decode_all(false, out_ref); });
    HPDR_EXPECT_TRUE(out_fast[0] == out_ref[0]);
    HPDR_EXPECT_TRUE(out_fast[1] == out_ref[1]);
    HPDR_EXPECT_TRUE(out_fast[1] == u);
    KernelResult kd;
    kd.fast_gbps = bytes / 1e9 / sd;
    kd.ref_gbps = bytes / 1e9 / sdr;
    kd.speedup = sdr / sd;
    record("zfp_decode_planes", kd, 1.8);
  }

  // ---- MGARD level step: 16 pencils stepped in lockstep per group (the
  // inner loop over lanes) vs one strided scalar recurrence per pencil, on
  // one NYX Medium chunk as the pipeline hands it to mgard-x (16×128×128
  // f32, 1 MiB). Each rep copies the input in both closures.
  {
    const auto field =
        data::nyx_density(data::dataset_shape("nyx", data::Size::Medium), 1);
    const Shape cs{16, 128, 128};
    const std::vector<float> chunk(field.data(), field.data() + cs.size());
    const mgard::Hierarchy h(cs);
    const double bytes = static_cast<double>(chunk.size()) * sizeof(float);
    std::vector<float> fast(chunk.size()), ref(chunk.size());
    const auto [sd, sdr] = best_of_pair(
        reps + 2,
        [&] {
          std::copy(chunk.begin(), chunk.end(), fast.begin());
          mgard::decompose(dev, h, fast.data());
        },
        [&] {
          std::copy(chunk.begin(), chunk.end(), ref.begin());
          mgard::reference::decompose(dev, h, ref.data());
        });
    // Bit for bit: float == would let −0 match +0.
    auto same_bits = [&] {
      return std::memcmp(fast.data(), ref.data(),
                         fast.size() * sizeof(float)) == 0;
    };
    HPDR_EXPECT_TRUE(same_bits());
    KernelResult kd;
    kd.fast_gbps = bytes / 1e9 / sd;
    kd.ref_gbps = bytes / 1e9 / sdr;
    kd.speedup = sdr / sd;
    record("mgard_decompose", kd, 2.0);

    const std::vector<float> coeffs = fast;
    const auto [sr, srr] = best_of_pair(
        reps + 2,
        [&] {
          std::copy(coeffs.begin(), coeffs.end(), fast.begin());
          mgard::recompose(dev, h, fast.data());
        },
        [&] {
          std::copy(coeffs.begin(), coeffs.end(), ref.begin());
          mgard::reference::recompose(dev, h, ref.data());
        });
    HPDR_EXPECT_TRUE(same_bits());
    KernelResult kr;
    kr.fast_gbps = bytes / 1e9 / sr;
    kr.ref_gbps = bytes / 1e9 / srr;
    kr.speedup = srr / sr;
    record("mgard_recompose", kr, 2.0);
  }

  // ---- SZ dual-quantization (prequantize + Lorenzo residuals): row-wise
  // SIMD kernels vs the per-element reference with coordinate div/mod.
  {
    const Shape cs = tiny ? Shape{32, 64, 64} : Shape{64, 128, 128};
    const std::size_t n = cs.size();
    std::vector<double> field(n);
    {
      // Smooth separable field plus noise: realistic Lorenzo residuals
      // with a sprinkle of outliers.
      std::size_t idx = 0;
      std::uniform_real_distribution<double> noise(-5e-4, 5e-4);
      for (std::size_t i = 0; i < cs[0]; ++i)
        for (std::size_t j = 0; j < cs[1]; ++j)
          for (std::size_t k = 0; k < cs[2]; ++k, ++idx)
            field[idx] = std::sin(0.11 * double(i)) *
                             std::cos(0.07 * double(j)) *
                             std::sin(0.05 * double(k)) +
                         noise(rng);
    }
    const double abs_eb = 1e-4;
    const double bin = 2.0 * abs_eb;
    std::vector<std::int64_t> P_fast(n), P_ref(n);
    std::vector<std::uint8_t> oob_fast(n), oob_ref(n);
    std::vector<std::uint32_t> sym_fast(n), sym_ref(n);
    const double bytes = static_cast<double>(n) * sizeof(double);
    const double sf = best_of(reps, [&] {
      sz::detail::prequantize(dev, field.data(), n, bin, abs_eb,
                              P_fast.data(), oob_fast.data());
      sz::detail::lorenzo_residuals(dev, P_fast.data(), oob_fast.data(), cs,
                                    sym_fast.data());
    });
    const double sr = best_of(reps, [&] {
      ref_sz_quantize(dev, field.data(), cs, bin, abs_eb, P_ref.data(),
                      oob_ref.data(), sym_ref.data());
    });
    HPDR_EXPECT_TRUE(sym_fast == sym_ref);
    HPDR_EXPECT_TRUE(P_fast == P_ref);
    KernelResult k;
    k.fast_gbps = bytes / 1e9 / sf;
    k.ref_gbps = bytes / 1e9 / sr;
    k.speedup = sr / sf;
    record("sz_dualquant", k, 1.2);
  }

  t.print();

  std::string out_path = bench::flag_value(argc, argv, "--out");
  if (out_path.empty()) out_path = "BENCH_kernels.json";
  telemetry::Value doc = telemetry::Value::object();
  doc.set("bench", telemetry::Value("kernels"));
  doc.set("threads", telemetry::Value(threads));
  doc.set("hardware_concurrency",
          telemetry::Value(std::thread::hardware_concurrency()));
  doc.set("tiny", telemetry::Value(tiny));
  doc.set("reps", telemetry::Value(reps));
  {
    telemetry::Value i = telemetry::Value::object();
    i.set("level", telemetry::Value(isa::to_string(isa::level())));
    doc.set("isa", std::move(i));
  }
  doc.set("kernels", std::move(kernels));
  std::ofstream f(out_path, std::ios::trunc);
  f << telemetry::dump(doc, /*indent=*/2) << "\n";
  std::printf("\nwrote %s\n", out_path.c_str());

  bench::maybe_write_manifest(argc, argv, "kernels");
  return bench::check_failures();
}
