// Single-thread throughput of the hot serial kernels every codec rides on
// (DESIGN.md §11/§16): bitstream put/read/append, Huffman encode/decode
// (single- and multi-stream), LZ4 block compress/decompress, the ZFP block
// transform and bitplane coder, and SZ dual-quantization. Each optimized
// kernel is raced against an in-binary *reference* implementation — a
// faithful copy of the pre-optimization code — and the outputs are
// compared bit-for-bit, so this binary is both a perf gate and a
// correctness differential. Gates
// (HPDR_EXPECT_GE on the speedup ratios) trip the exit code for CI; the
// measured numbers go to BENCH_kernels.json (--out F overrides). Under
// HPDR_ISA=scalar the SIMD-dispatched kernels (ZFP transforms, SZ) run their
// scalar reference slots, so their gates relax to a no-regression check.
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <random>
#include <thread>

#include "algorithms/huffman/codebook.hpp"
#include "check.hpp"
#include "common.hpp"
#include "core/isa.hpp"

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

/// Pre-optimization ZFP bitplane coder: per-plane gather/deposit loops and
/// one put_bit/get_bit per group-test and zero-run bit.
std::size_t ref_encode_planes(BitWriter& w, const std::uint64_t* u,
                              std::size_t n, int intprec, std::size_t budget,
                              int kmin = 0) {
  std::size_t bits = budget;
  std::size_t sig = 0;
  for (int k = intprec - 1; k >= kmin && bits; --k) {
    // Gather plane k into a word (bit i = coefficient i's bit; n ≤ 64).
    std::uint64_t x = 0;
#pragma omp simd reduction(| : x)
    for (std::size_t i = 0; i < n; ++i) x |= ((u[i] >> k) & 1u) << i;
    // Value pass.
    const std::size_t m = std::min(sig, bits);
    w.put(x, static_cast<unsigned>(m));
    bits -= m;
    x = m < 64 ? x >> m : 0;
    // Group-test pass.
    std::size_t i = sig;
    while (i < n && bits) {
      --bits;
      const bool any = x != 0;
      w.put_bit(any);
      if (!any) break;
      // Emit value bits until a 1 is emitted; the last position's test bit
      // doubles as its value bit (group of one).
      while (i < n - 1 && bits) {
        --bits;
        const bool bit = x & 1u;
        w.put_bit(bit);
        if (bit) break;
        x >>= 1;
        ++i;
      }
      // Consume the significant (or implied/unfinished) position.
      x >>= 1;
      ++i;
    }
    sig = i;
  }
  return budget - bits;
}

void ref_decode_planes(BitReader& r, std::uint64_t* u, std::size_t n,
                       int intprec, std::size_t budget, int kmin = 0) {
  std::fill(u, u + n, 0);
  std::size_t bits = budget;
  std::size_t sig = 0;
  for (int k = intprec - 1; k >= kmin && bits; --k) {
    const std::size_t m = std::min(sig, bits);
    std::uint64_t x = r.get(static_cast<unsigned>(m));
    bits -= m;
    std::size_t i = sig;
    while (i < n && bits) {
      --bits;
      const bool any = r.get_bit();
      if (!any) break;
      while (i < n - 1 && bits) {
        --bits;
        const bool bit = r.get_bit();
        if (bit) break;
        ++i;
      }
      x |= std::uint64_t{1} << i;
      ++i;
    }
    sig = i;
    // Branch-free plane deposit (vectorizes; `-(bit)` is an all-ones mask).
#pragma omp simd
    for (std::size_t j = 0; j < n; ++j)
      u[j] |= (std::uint64_t{0} - ((x >> j) & 1u)) & (std::uint64_t{1} << k);
  }
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
                "bitstream / Huffman / ZFP / SZ serial kernels, DESIGN.md §11");
  const bool tiny = bench::has_flag(argc, argv, "--tiny");
  const unsigned threads = bench::apply_threads(argc, argv);
  const int reps = tiny ? 3 : 5;
  const Device dev = Device::serial();
  // SIMD-dispatched kernels (ZFP transforms, SZ dual-quant) race their
  // intrinsic path against the pre-PR-5 per-element reference. With
  // HPDR_ISA=scalar they run the PR-5 scalar slot instead, so the gate
  // drops to a no-regression check (the differential still runs).
  const bool scalar_forced = isa::level() == isa::Level::Scalar;
  const double simd_gate = scalar_forced ? 0.9 : 1.2;
  std::printf("isa: %s%s\n", isa::to_string(isa::level()),
              isa::overridden() ? " (HPDR_ISA override)" : "");

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

  // ---- Huffman encode/decode over a skewed quantization-like alphabet.
  {
    const std::size_t n = tiny ? (1u << 20) : (1u << 22);
    const std::size_t alphabet = 4096;
    std::vector<std::uint32_t> symbols(n);
    {
      // Two-sided geometric around the center symbol — the shape SZ/ZFP
      // quantization codes have (sharply peaked, short center codes, long
      // tail). Short codes are what the multi-symbol LUT packs.
      std::geometric_distribution<int> mag(0.18);
      const int center = static_cast<int>(alphabet) / 2;
      for (auto& s : symbols) {
        const int m = mag(rng);
        const int v = (rng() & 1) ? center + m : center - m;
        s = static_cast<std::uint32_t>(
            std::clamp(v, 0, static_cast<int>(alphabet) - 1));
      }
    }
    const double in_bytes = static_cast<double>(n) * sizeof(std::uint32_t);
    std::vector<std::uint8_t> blob;
    const double se = best_of(reps, [&] {
      blob = huffman::encode_u32(dev, symbols, alphabet);
    });
    KernelResult ke;
    ke.fast_gbps = in_bytes / 1e9 / se;
    record("huffman_encode", ke, 0);

    // Kernel-level decode comparison: same codebook and payload, the batch
    // multi-symbol LUT path vs the pre-optimization per-symbol LUT path
    // with its byte-at-a-time reader and per-decode table rebuild.
    std::vector<std::uint64_t> freq(alphabet, 0);
    for (auto s : symbols) ++freq[s];
    const huffman::Codebook cb = huffman::build_codebook(freq);
    BitWriter w;
    for (auto s : symbols) w.put(cb.codes_reversed[s], cb.lengths[s]);
    const auto payload = w.to_bytes();
    const std::size_t payload_bits = w.bit_size();
    std::vector<std::uint32_t> out_fast(n), out_ref(n);
    const double sf = best_of(reps, [&] {
      const auto table = huffman::DecodeTable::cached(cb);
      BitReader r(payload, payload_bits);
      table->decode_run(r, out_fast.data(), n);
    });
    const double sr = best_of(reps, [&] {
      const huffman::DecodeTable table = huffman::DecodeTable::build(cb);
      RefBitReader r(payload, payload_bits);
      for (std::size_t i = 0; i < n; ++i) out_ref[i] = ref_decode_lut(table, r);
    });
    HPDR_EXPECT_TRUE(out_fast == out_ref);
    HPDR_EXPECT_TRUE(out_fast == symbols);
    KernelResult kd;
    kd.fast_gbps = in_bytes / 1e9 / sf;
    kd.ref_gbps = in_bytes / 1e9 / sr;
    kd.speedup = sr / sf;
    record("huffman_decode", kd, 2.0);

    // Multi-stream decode (DESIGN.md §16): the same symbols split into
    // K = 4 independent bitstreams decoded round-robin — one LUT probe per
    // stream per round, so each stream's serial bit-position dependency
    // hides behind the others'. Raced against the same pre-optimization
    // per-symbol reference as huffman_decode; output must equal the
    // single-stream decode exactly.
    {
      constexpr std::size_t K = 4;
      std::size_t counts[K], starts[K];
      std::size_t acc = 0;
      for (std::size_t s = 0; s < K; ++s) {
        counts[s] = n / K + (s < n % K ? 1 : 0);
        starts[s] = acc;
        acc += counts[s];
      }
      std::vector<BitWriter> sw(K);
      std::size_t bit_begin[K + 1];
      bit_begin[0] = 0;
      for (std::size_t s = 0; s < K; ++s) {
        for (std::size_t i = starts[s]; i < starts[s] + counts[s]; ++i)
          sw[s].put(cb.codes_reversed[symbols[i]], cb.lengths[symbols[i]]);
        bit_begin[s + 1] = bit_begin[s] + sw[s].bit_size();
      }
      BitWriter pw;
      pw.reserve_bits(bit_begin[K]);
      for (const auto& s : sw) pw.append(s);
      const auto payload_ms = pw.to_bytes();
      const auto table = huffman::DecodeTable::cached(cb);
      std::vector<std::uint32_t> out_ms(n);
      huffman::DecodeTable::StreamSeg segs[K];
      const double sm = best_of(reps, [&] {
        for (std::size_t s = 0; s < K; ++s)
          segs[s] = {bit_begin[s], bit_begin[s + 1], counts[s],
                     out_ms.data() + starts[s]};
        table->decode_streams(payload_ms, segs, K);
      });
      HPDR_EXPECT_TRUE(out_ms == symbols);
      KernelResult km;
      km.fast_gbps = in_bytes / 1e9 / sm;
      km.ref_gbps = kd.ref_gbps;
      km.speedup = km.fast_gbps / kd.ref_gbps;
      record("huffman_decode_ms4", km, 2.5);
    }
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
    record("zfp_fwd_transform", kf, simd_gate);

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
    record("zfp_inv_transform", ki, simd_gate);
  }

  // ---- ZFP bitplane coder: one bit-matrix transpose per block and one put
  // (or peek) per group vs per-plane gather/deposit loops and one bit per
  // call. Real NYX 4³ blocks at zfp-x's rate 11 (704 − 9 exponent
  // bits = 695 per block) and unbounded (the variable modes); both budgets
  // run in each timed pass. The coder has no ISA slot, so its gates hold
  // under HPDR_ISA=scalar too.
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
              ref_encode_planes(ref_out[p][b], u.data() + 64 * b, 64,
                                kIntprec, budgets[p]);
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
            ref_decode_planes(r, o, 64, kIntprec, budgets[p]);
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
    record("sz_dualquant", k, simd_gate);
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
    i.set("requested", telemetry::Value(isa::requested()));
    doc.set("isa", std::move(i));
  }
  doc.set("kernels", std::move(kernels));
  std::ofstream f(out_path, std::ios::trunc);
  f << telemetry::dump(doc, /*indent=*/2) << "\n";
  std::printf("\nwrote %s\n", out_path.c_str());

  bench::maybe_write_manifest(argc, argv, "kernels");
  return bench::check_failures();
}
