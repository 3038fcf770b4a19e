#include "algorithms/mgard/mgard.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "algorithms/huffman/huffman.hpp"
#include "algorithms/mgard/quantize.hpp"
#include "algorithms/mgard/transform.hpp"
#include "core/bitstream.hpp"
#include "core/error.hpp"
#include "core/isa.hpp"
#include "core/stats.hpp"
#include "machine/context_memory.hpp"

namespace hpdr::mgard {
namespace {

constexpr std::uint8_t kMagic = 0x47;  // 'G'
constexpr std::uint8_t kVersion = 2;
constexpr std::uint8_t kModeRaw = 0;     // stored uncompressed (tiny input)
constexpr std::uint8_t kModeLossy = 1;
/// Grid byte of a lossy stream: 0 is a uniform grid, the only kind this
/// codec writes or reads; any other value is rejected.
constexpr std::uint8_t kGridUniform = 0;

template <class T>
constexpr std::uint8_t dtype_of() {
  return sizeof(T) == 4 ? 0 : 1;
}

}  // namespace

/// Drop size-1 dims; merge dims smaller than 3 into a neighbour. MGARD
/// needs ≥ 3 nodes per dimension to decompose.
Shape normalize_shape(const Shape& s) {
  std::vector<std::size_t> dims;
  for (std::size_t d = 0; d < s.rank(); ++d)
    if (s[d] != 1) dims.push_back(s[d]);
  if (dims.empty()) dims.push_back(s.size());
  // Merge undersized dims into the following (or preceding) one.
  for (std::size_t d = 0; d < dims.size();) {
    if (dims[d] >= 3 || dims.size() == 1) {
      ++d;
      continue;
    }
    if (d + 1 < dims.size()) {
      dims[d + 1] *= dims[d];
      dims.erase(dims.begin() + static_cast<std::ptrdiff_t>(d));
    } else {
      dims[d - 1] *= dims[d];
      dims.pop_back();
    }
  }
  // Rank cap.
  while (dims.size() > kMaxRank) {
    dims[1] *= dims[0];
    dims.erase(dims.begin());
  }
  Shape out = Shape::of_rank(dims.size());
  for (std::size_t d = 0; d < dims.size(); ++d) out[d] = dims[d];
  return out;
}

bool too_small_to_decompose(const Shape& shape) {
  if (shape.size() < 27 || shape.rank() < 1) return true;
  for (std::size_t d = 0; d < shape.rank(); ++d)
    if (shape[d] < 3) return true;
  return false;
}

/// Hierarchies are the expensive reduction context — cached in the CMM so
/// repeated calls on same-shaped data allocate nothing (§III-B).
std::shared_ptr<Hierarchy> cached_hierarchy(const Device& dev,
                                            const Shape& shape) {
  ContextKey key{"mgard-hierarchy", shape.hash(), 0, 0.0, dev.name()};
  return ContextCache::instance().get_or_create<Hierarchy>(
      key, [&] { return std::make_shared<Hierarchy>(shape); });
}

namespace {

// ---------------------------------------------------------------------------
// The quantizer's range loop, written once (DESIGN.md §16.1). The in-range
// test needs no early exit: NaN and ±inf fail both comparisons, so they get
// symbol 0 as quantize() marks them. Under the AVX2 and AVX-512 attributes
// GCC emits std::nearbyint as vroundpd/vrndscalepd $12 (current rounding
// mode, no inexact exception), which is nearbyint exactly; the baseline
// slot keeps the libm call. The level-order gather runs first, a block at a
// time into a local array of doubles: GCC does not vectorize a loop that
// gathers f32 through 64-bit indices, and this way the arithmetic
// vectorizes whatever the gather does.
// ---------------------------------------------------------------------------

template <class T>
using QuantizeRangeFn = void (*)(const T*, const std::uint64_t*, double,
                                 std::uint32_t*, std::size_t);

template <class T>
[[gnu::always_inline]] inline void quantize_range_body(
    const T* coef, const std::uint64_t* order, double bin,
    std::uint32_t* symbols, std::size_t n) {
  constexpr double kR = static_cast<double>(kQuantRadius);
  constexpr std::size_t kBlock = 256;
  double x[kBlock];
  for (std::size_t b = 0; b < n; b += kBlock) {
    const std::size_t m = std::min(kBlock, n - b);
    for (std::size_t i = 0; i < m; ++i)
      x[i] = static_cast<double>(coef[order[b + i]]);
#pragma omp simd
    for (std::size_t i = 0; i < m; ++i) {
      const double q = std::nearbyint(x[i] / bin);
      const bool in = q >= -kR && q < kR;
      // An outlier converts −R − 1, which lands on symbol 0.
      symbols[b + i] = static_cast<std::uint32_t>(
          static_cast<std::int32_t>(in ? q : -kR - 1) + (kQuantRadius + 1));
    }
  }
}

template <class T>
void quantize_range_scalar(const T* coef, const std::uint64_t* order,
                           double bin, std::uint32_t* symbols, std::size_t n) {
  quantize_range_body(coef, order, bin, symbols, n);
}

#if HPDR_ISA_X86
template <class T>
HPDR_ISA_TARGET_AVX2 void quantize_range_avx2(const T* coef,
                                              const std::uint64_t* order,
                                              double bin,
                                              std::uint32_t* symbols,
                                              std::size_t n) {
  quantize_range_body(coef, order, bin, symbols, n);
}

template <class T>
HPDR_ISA_TARGET_AVX512 void quantize_range_avx512(const T* coef,
                                                  const std::uint64_t* order,
                                                  double bin,
                                                  std::uint32_t* symbols,
                                                  std::size_t n) {
  quantize_range_body(coef, order, bin, symbols, n);
}

template <class T>
const isa::Table<QuantizeRangeFn<T>> kQuantizeRange = {
    quantize_range_scalar<T>, quantize_range_avx2<T>,
    quantize_range_avx512<T>};
#else
template <class T>
const isa::Table<QuantizeRangeFn<T>> kQuantizeRange = {
    quantize_range_scalar<T>};
#endif

template <class T>
std::vector<std::uint8_t> compress_impl(const Device& dev,
                                        NDView<const T> data,
                                        double rel_eb, double snorm) {
  HPDR_REQUIRE(data.size() > 0, "empty input");
  HPDR_REQUIRE(rel_eb > 0, "error bound must be positive");
  HPDR_REQUIRE(snorm >= 0, "s must be non-negative");
  const Shape orig = data.shape();

  ByteWriter out;
  out.put_u8(kMagic);
  out.put_u8(kVersion);
  out.put_u8(dtype_of<T>());
  out.put_u8(static_cast<std::uint8_t>(orig.rank()));
  for (std::size_t d = 0; d < orig.rank(); ++d) out.put_varint(orig[d]);

  const Shape shape = normalize_shape(orig);
  if (too_small_to_decompose(shape)) {
    // Too small to decompose — store raw.
    out.put_u8(kModeRaw);
    out.put_varint(data.size_bytes());
    out.put_bytes({reinterpret_cast<const std::uint8_t*>(data.data()),
                   data.size_bytes()});
    return out.take();
  }
  out.put_u8(kModeLossy);

  const auto range = value_range(data.span());
  double abs_eb = rel_eb * static_cast<double>(range.extent());
  if (abs_eb <= 0)  // constant field: any positive bin works
    abs_eb = rel_eb * std::max(1.0, std::abs(double(range.lo)));
  out.put_f64(abs_eb);
  out.put_f64(snorm);
  out.put_u8(kGridUniform);

  std::shared_ptr<Hierarchy> h = cached_hierarchy(dev, shape);
  const std::size_t L = h->num_levels();

  // Alg. 1 lines 5-13: multilevel decomposition (in a working copy).
  std::vector<T> work(data.data(), data.data() + data.size());
  decompose(dev, *h, work.data());

  // Alg. 1 line 14: level-wise linear quantization via Map&Process.
  const auto& order = h->level_order();
  std::vector<std::uint32_t> symbols(work.size());
  // Outliers are rare; collect per-subset then merge to keep the parallel
  // stage race free.
  const auto& subsets = h->level_subsets();
  std::vector<std::vector<std::pair<std::uint64_t, std::int64_t>>>
      outlier_parts(subsets.size());
  std::vector<double> bins(L + 1);
  for (std::size_t l = 0; l <= L; ++l)
    bins[l] = level_bin_s(abs_eb, l, L, shape.rank(), snorm);
  map_and_process(dev, subsets,
                  [&](const Subset& s, std::size_t begin, std::size_t end) {
                    quantize_range(work.data(), order.data() + begin,
                                   bins[s.id], symbols.data() + begin,
                                   end - begin);
                  });
  // Second pass for outliers (sequential per subset; rare path).
  for (std::size_t si = 0; si < subsets.size(); ++si) {
    const Subset& s = subsets[si];
    for (std::size_t pos = s.begin; pos < s.end; ++pos)
      if (symbols[pos] == 0)
        outlier_parts[si].emplace_back(
            pos,
            quantize(static_cast<double>(work[order[pos]]), bins[s.id]).q);
  }
  std::size_t n_outliers = 0;
  for (const auto& partition : outlier_parts) n_outliers += partition.size();
  out.put_varint(n_outliers);
  std::uint64_t prev = 0;
  for (const auto& partition : outlier_parts)
    for (auto [pos, q] : partition) {
      out.put_varint(pos - prev);  // positions ascend across subsets
      prev = pos;
      const std::uint64_t zz =
          (static_cast<std::uint64_t>(q) << 1) ^
          static_cast<std::uint64_t>(q >> 63);
      out.put_varint(zz);
    }

  // Alg. 1 line 15: Huffman entropy coding of level-ordered symbols.
  const auto blob = huffman::encode_u32(dev, symbols, kQuantAlphabet);
  out.put_varint(blob.size());
  out.put_bytes(blob);
  return out.take();
}

template <class T>
void decompress_impl(const Device& dev, std::span<const std::uint8_t> stream,
                     NDView<T> out) {
  ByteReader in(stream);
  HPDR_REQUIRE(in.get_u8() == kMagic, "not an MGARD stream");
  HPDR_REQUIRE(in.get_u8() == kVersion, "MGARD stream version mismatch");
  HPDR_REQUIRE(in.get_u8() == dtype_of<T>(), "MGARD dtype mismatch");
  const std::size_t rank = in.get_u8();
  HPDR_REQUIRE(rank >= 1 && rank <= kMaxRank, "corrupt MGARD rank");
  Shape orig = Shape::of_rank(rank);
  for (std::size_t d = 0; d < rank; ++d) orig[d] = in.get_varint();
  HPDR_REQUIRE(orig.size() > 0, "MGARD stream has empty shape");
  HPDR_REQUIRE(orig == out.shape(), "MGARD stream shape "
                                        << orig.to_string() << " != output "
                                        << out.shape().to_string());

  const std::uint8_t mode = in.get_u8();
  if (mode == kModeRaw) {
    const std::size_t nbytes = in.get_varint();
    HPDR_REQUIRE(nbytes == out.size_bytes(), "raw payload size mismatch");
    auto bytes = in.get_bytes(nbytes);
    std::memcpy(out.data(), bytes.data(), nbytes);
    return;
  }
  HPDR_REQUIRE(mode == kModeLossy, "corrupt MGARD mode byte");
  const double abs_eb = in.get_f64();
  const double snorm = in.get_f64();
  HPDR_REQUIRE(in.get_u8() == kGridUniform,
               "non-uniform MGARD grids are not supported");

  const Shape shape = normalize_shape(orig);
  std::shared_ptr<Hierarchy> h = cached_hierarchy(dev, shape);
  const std::size_t L = h->num_levels();

  const std::size_t n_outliers = in.get_varint();
  HPDR_REQUIRE(n_outliers <= shape.size(), "implausible outlier count");
  std::vector<std::pair<std::uint64_t, std::int64_t>> outliers(n_outliers);
  std::uint64_t prev = 0;
  for (auto& [pos, q] : outliers) {
    pos = prev + in.get_varint();
    prev = pos;
    const std::uint64_t zz = in.get_varint();
    q = static_cast<std::int64_t>((zz >> 1) ^ (~(zz & 1) + 1));
  }

  const std::size_t blob_size = in.get_varint();
  std::vector<std::uint32_t> symbols(shape.size());
  huffman::decode_u32(dev, in.get_bytes(blob_size), symbols);

  // Dequantize into decomposition layout, in place in `out`: the
  // normalized shape keeps the row-major layout and `order` is a
  // permutation, so every element is written.
  const auto& order = h->level_order();
  const auto& subsets = h->level_subsets();
  std::vector<double> bins(L + 1);
  for (std::size_t l = 0; l <= L; ++l)
    bins[l] = level_bin_s(abs_eb, l, L, shape.rank(), snorm);
  T* work = out.data();
  map_and_process(dev, subsets,
                  [&](const Subset& s, std::size_t begin, std::size_t end) {
                    const double bin = bins[s.id];
                    for (std::size_t pos = begin; pos < end; ++pos)
                      work[order[pos]] = static_cast<T>(
                          static_cast<double>(bin_of(symbols[pos])) * bin);
                  });
  for (auto [pos, q] : outliers) {
    HPDR_REQUIRE(pos < order.size(), "outlier position out of range");
    const std::uint8_t lvl = h->level_of(order[pos]);
    work[order[pos]] = static_cast<T>(static_cast<double>(q) * bins[lvl]);
  }

  recompose(dev, *h, work);
}

}  // namespace

void quantize_range(const float* coef, const std::uint64_t* order, double bin,
                    std::uint32_t* symbols, std::size_t n) {
  static const QuantizeRangeFn<float> fn = kQuantizeRange<float>.get();
  fn(coef, order, bin, symbols, n);
}
void quantize_range(const double* coef, const std::uint64_t* order,
                    double bin, std::uint32_t* symbols, std::size_t n) {
  static const QuantizeRangeFn<double> fn = kQuantizeRange<double>.get();
  fn(coef, order, bin, symbols, n);
}

double level_bin(double abs_eb, std::size_t l, std::size_t L,
                 std::size_t rank) {
  // L∞ error budget. A level-l coefficient quantization error e = τ_l/2
  // enters the reconstruction through (per 1-D pass):
  //   * the odd-node restore u = d + lerp(evens):   factor 1 directly,
  //   * the correction solve c = M⁻¹(T d):          ‖M⁻¹‖∞·‖T‖∞ ≤ 1.5·1,
  // so one pass amplifies by at most 2.5, and a rank-r level step chains r
  // passes additively: per-level contribution ≤ 2.5·r·τ_l/2. We allocate
  // the abs_eb budget geometrically, α(1−α)^(L−l) to level l with α = ½:
  //   Σ_l 2.5·r·τ_l/2 = abs_eb·(1 − (1−α)^(L+1)) ≤ abs_eb,
  // which is rigorous for any L while giving the finest level — which holds
  // the overwhelming majority of the nodes — a bin only 2× tighter than the
  // single-level optimum, instead of the (L+1)× of a uniform split.
  constexpr double kAlpha = 0.5;
  const double amplification = 2.5 * static_cast<double>(rank);
  const double share =
      kAlpha * std::pow(1.0 - kAlpha, static_cast<double>(L - l));
  return 2.0 * abs_eb * share / amplification;
}

double level_bin_s(double abs_eb, std::size_t l, std::size_t L,
                   std::size_t rank, double s) {
  return level_bin(abs_eb, l, L, rank) * std::exp2(s * double(l));
}

std::vector<std::uint8_t> compress(const Device& dev,
                                   NDView<const float> data, double rel_eb,
                                   double s) {
  return compress_impl(dev, data, rel_eb, s);
}
std::vector<std::uint8_t> compress(const Device& dev,
                                   NDView<const double> data, double rel_eb,
                                   double s) {
  return compress_impl(dev, data, rel_eb, s);
}

void decompress(const Device& dev, std::span<const std::uint8_t> stream,
                NDView<float> out) {
  decompress_impl(dev, stream, out);
}
void decompress(const Device& dev, std::span<const std::uint8_t> stream,
                NDView<double> out) {
  decompress_impl(dev, stream, out);
}

}  // namespace hpdr::mgard
