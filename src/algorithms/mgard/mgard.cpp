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
#include "core/stats.hpp"
#include "machine/context_memory.hpp"

namespace hpdr::mgard {
namespace {

constexpr std::uint8_t kMagic = 0x47;  // 'G'
constexpr std::uint8_t kVersion = 2;
constexpr std::uint8_t kModeRaw = 0;     // stored uncompressed (tiny input)
constexpr std::uint8_t kModeLossy = 1;

template <class T>
constexpr std::uint8_t dtype_of() {
  return sizeof(T) == 4 ? 0 : 1;
}

using Coords = std::vector<std::vector<double>>;

std::uint64_t coords_hash(const Coords& coords) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const auto& c : coords) {
    mix(c.size());
    for (double x : c) {
      std::uint64_t bits;
      std::memcpy(&bits, &x, 8);
      mix(bits);
    }
  }
  return h;
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

namespace {

/// Hierarchies are the expensive reduction context — cached in the CMM so
/// repeated calls on same-shaped (and same-grid) data allocate nothing
/// (§III-B).
std::shared_ptr<Hierarchy> cached_hierarchy(const Device& dev,
                                            const Shape& shape,
                                            const Coords& coords = {}) {
  ContextKey key{"mgard-hierarchy", shape.hash() ^ coords_hash(coords), 0,
                 0.0, dev.name()};
  return ContextCache::instance().get_or_create<Hierarchy>(key, [&] {
    AllocationStats::instance().record_alloc(shape.size() * 9);
    return coords.empty()
               ? std::make_shared<Hierarchy>(shape)
               : std::make_shared<Hierarchy>(
                     shape, Coords(coords));
  });
}

template <class T>
std::vector<std::uint8_t> compress_impl(const Device& dev,
                                        NDView<const T> data,
                                        double rel_eb, double snorm,
                                        const Coords& coords = {}) {
  HPDR_REQUIRE(data.size() > 0, "empty input");
  HPDR_REQUIRE(rel_eb > 0, "error bound must be positive");
  HPDR_REQUIRE(snorm >= 0, "s must be non-negative");
  const Shape orig = data.shape();
  const bool nonuniform = !coords.empty();
  if (nonuniform) {
    HPDR_REQUIRE(coords.size() == orig.rank(),
                 "one coordinate array per dimension required");
    for (std::size_t d = 0; d < orig.rank(); ++d) {
      HPDR_REQUIRE(orig[d] >= 3,
                   "non-uniform grids need every dimension >= 3");
      if (coords[d].empty()) continue;
      HPDR_REQUIRE(coords[d].size() == orig[d],
                   "coords[" << d << "] must have " << orig[d]
                             << " entries");
      for (std::size_t i = 1; i < coords[d].size(); ++i)
        HPDR_REQUIRE(coords[d][i] > coords[d][i - 1],
                     "coordinates must be strictly increasing");
    }
  }

  ByteWriter out;
  out.put_u8(kMagic);
  out.put_u8(kVersion);
  out.put_u8(dtype_of<T>());
  out.put_u8(static_cast<std::uint8_t>(orig.rank()));
  for (std::size_t d = 0; d < orig.rank(); ++d) out.put_varint(orig[d]);

  const Shape shape = nonuniform ? orig : normalize_shape(orig);
  if (shape.size() < 27 || shape.rank() < 1 ||
      [&] {
        for (std::size_t d = 0; d < shape.rank(); ++d)
          if (shape[d] < 3) return true;
        return false;
      }()) {
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
  // Grid block: coordinates travel with the stream so reconstruction on
  // any system sees the same geometry.
  out.put_u8(nonuniform ? 1 : 0);
  if (nonuniform)
    for (const auto& c : coords) {
      out.put_varint(c.size());
      for (double x : c) out.put_f64(x);
    }

  std::shared_ptr<Hierarchy> h = cached_hierarchy(dev, shape, coords);
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
  map_and_process(dev, subsets, [&](const Subset& s, std::size_t pos) {
    symbols[pos] = symbol_of(
        quantize(static_cast<double>(work[order[pos]]), bins[s.id]));
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
NDArray<T> decompress_impl(const Device& dev,
                           std::span<const std::uint8_t> stream) {
  ByteReader in(stream);
  HPDR_REQUIRE(in.get_u8() == kMagic, "not an MGARD stream");
  HPDR_REQUIRE(in.get_u8() == kVersion, "MGARD stream version mismatch");
  HPDR_REQUIRE(in.get_u8() == dtype_of<T>(), "MGARD dtype mismatch");
  const std::size_t rank = in.get_u8();
  HPDR_REQUIRE(rank >= 1 && rank <= kMaxRank, "corrupt MGARD rank");
  Shape orig = Shape::of_rank(rank);
  for (std::size_t d = 0; d < rank; ++d) orig[d] = in.get_varint();
  HPDR_REQUIRE(orig.size() > 0 && orig.size() <= (std::size_t{1} << 40),
               "implausible MGARD tensor size");
  NDArray<T> result(orig);

  const std::uint8_t mode = in.get_u8();
  if (mode == kModeRaw) {
    const std::size_t nbytes = in.get_varint();
    HPDR_REQUIRE(nbytes == result.size_bytes(), "raw payload size mismatch");
    auto bytes = in.get_bytes(nbytes);
    std::memcpy(result.data(), bytes.data(), nbytes);
    return result;
  }
  HPDR_REQUIRE(mode == kModeLossy, "corrupt MGARD mode byte");
  const double abs_eb = in.get_f64();
  const double snorm = in.get_f64();
  const bool nonuniform = in.get_u8() != 0;
  Coords coords;
  if (nonuniform) {
    coords.resize(rank);
    for (std::size_t d = 0; d < rank; ++d) {
      const std::size_t n = in.get_varint();
      HPDR_REQUIRE(n == 0 || n == orig[d], "coordinate count mismatch");
      coords[d].resize(n);
      for (auto& x : coords[d]) x = in.get_f64();
    }
  }

  const Shape shape = nonuniform ? orig : normalize_shape(orig);
  std::shared_ptr<Hierarchy> h = cached_hierarchy(dev, shape, coords);
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
  const auto symbols = huffman::decode_u32(dev, in.get_bytes(blob_size));
  HPDR_REQUIRE(symbols.size() == shape.size(),
               "decoded symbol count mismatch");

  // Dequantize into decomposition layout.
  const auto& order = h->level_order();
  const auto& subsets = h->level_subsets();
  std::vector<double> bins(L + 1);
  for (std::size_t l = 0; l <= L; ++l)
    bins[l] = level_bin_s(abs_eb, l, L, shape.rank(), snorm);
  std::vector<T> work(shape.size());
  map_and_process(dev, subsets, [&](const Subset& s, std::size_t pos) {
    work[order[pos]] = static_cast<T>(
        static_cast<double>(bin_of(symbols[pos])) * bins[s.id]);
  });
  for (auto [pos, q] : outliers) {
    HPDR_REQUIRE(pos < order.size(), "outlier position out of range");
    const std::uint8_t lvl = h->level_of(order[pos]);
    work[order[pos]] = static_cast<T>(static_cast<double>(q) * bins[lvl]);
  }

  recompose(dev, *h, work.data());
  HPDR_ASSERT(work.size() == result.size());
  std::memcpy(result.data(), work.data(), result.size_bytes());
  return result;
}

}  // namespace

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

std::vector<std::uint8_t> compress_nonuniform(
    const Device& dev, NDView<const float> data,
    const std::vector<std::vector<double>>& coords, double rel_eb,
    double s) {
  HPDR_REQUIRE(!coords.empty(), "coords required; use compress() otherwise");
  return compress_impl(dev, data, rel_eb, s, coords);
}
std::vector<std::uint8_t> compress_nonuniform(
    const Device& dev, NDView<const double> data,
    const std::vector<std::vector<double>>& coords, double rel_eb,
    double s) {
  HPDR_REQUIRE(!coords.empty(), "coords required; use compress() otherwise");
  return compress_impl(dev, data, rel_eb, s, coords);
}
NDArray<float> decompress_f32(const Device& dev,
                              std::span<const std::uint8_t> stream) {
  return decompress_impl<float>(dev, stream);
}
NDArray<double> decompress_f64(const Device& dev,
                               std::span<const std::uint8_t> stream) {
  return decompress_impl<double>(dev, stream);
}

}  // namespace hpdr::mgard
