#include "algorithms/mgard/progressive.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <memory>

#include "algorithms/mgard/hierarchy.hpp"
#include "algorithms/mgard/mgard.hpp"
#include "algorithms/mgard/quantize.hpp"
#include "algorithms/mgard/transform.hpp"
#include "algorithms/zfp/zfp.hpp"
#include "core/bitstream.hpp"
#include "core/error.hpp"
#include "core/stats.hpp"
#include "machine/context_memory.hpp"

namespace hpdr::mgard {
namespace {

// Component frame kinds. Raw chunks (too small for the v2 codec to
// decompose) travel as one lossless component; lossy chunks as
// (level, plane-group) components.
constexpr std::uint8_t kKindRaw = 0;
constexpr std::uint8_t kKindPlanes = 1;

/// Same hierarchy cache key the v2 codec uses (uniform grid: the empty
/// coords hash is the FNV offset basis), so progressive encode/decode
/// shares the cached reduction context with plain compress/decompress.
std::shared_ptr<Hierarchy> cached_hierarchy(const Device& dev,
                                            const Shape& shape) {
  ContextKey key{"mgard-hierarchy", shape.hash() ^ 1469598103934665603ull, 0,
                 0.0, dev.name()};
  return ContextCache::instance().get_or_create<Hierarchy>(key, [&] {
    AllocationStats::instance().record_alloc(shape.size() * 9);
    return std::make_shared<Hierarchy>(shape);
  });
}

bool too_small_to_decompose(const Shape& shape) {
  if (shape.size() < 27 || shape.rank() < 1) return true;
  for (std::size_t d = 0; d < shape.rank(); ++d)
    if (shape[d] < 3) return true;
  return false;
}

/// Per-level quantization state gathered by the encoder.
struct LevelPlan {
  std::vector<std::uint64_t> u;  ///< negabinary quantized ints (0 = outlier)
  std::vector<std::pair<std::uint64_t, std::int64_t>> outliers;  ///< rel pos
  double max_abs = 0.0;  ///< max |coefficient| (absent-level error bound)
  std::size_t nbits = 0; ///< significant negabinary planes
};

template <class T>
ProgressiveChunk encode_impl(const Device& dev, const T* data,
                             const Shape& orig, double rel_eb) {
  HPDR_REQUIRE(orig.size() > 0, "empty progressive chunk");
  HPDR_REQUIRE(rel_eb > 0, "error bound must be positive");
  ProgressiveChunk out;
  const std::size_t n = orig.size();
  const auto range = value_range(std::span<const T>(data, n));
  double eb_scale = static_cast<double>(range.extent());
  if (eb_scale <= 0) eb_scale = std::max(1.0, std::abs(double(range.lo)));
  out.eb_scale = eb_scale;

  const Shape shape = normalize_shape(orig);
  if (too_small_to_decompose(shape)) {
    out.mode = 0;
    double mx = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      mx = std::max(mx, std::abs(static_cast<double>(data[i])));
    out.initial_bound = mx;
    ByteWriter w;
    w.put_u8(kKindRaw);
    w.put_varint(n * sizeof(T));
    w.put_bytes({reinterpret_cast<const std::uint8_t*>(data), n * sizeof(T)});
    out.components.push_back({w.take(), 0.0});
    return out;
  }

  out.mode = 1;
  // Identical to the v2 codec: abs_eb from the value range with the
  // constant-field fallback, bins from level_bin_s at s = 0.
  double abs_eb = rel_eb * static_cast<double>(range.extent());
  if (abs_eb <= 0) abs_eb = rel_eb * std::max(1.0, std::abs(double(range.lo)));
  out.abs_eb = abs_eb;

  std::shared_ptr<Hierarchy> h = cached_hierarchy(dev, shape);
  const std::size_t L = h->num_levels();
  const double amp = 2.5 * static_cast<double>(shape.rank());
  std::vector<double> bins(L + 1);
  for (std::size_t l = 0; l <= L; ++l)
    bins[l] = level_bin_s(abs_eb, l, L, shape.rank(), 0.0);

  std::vector<T> work(data, data + n);
  decompose(dev, *h, work.data());

  // Quantize exactly as the v2 codec (same rounding, same outlier rule):
  // the planes carry the very integers compress_impl would huffman-code.
  const auto& order = h->level_order();
  const auto& subsets = h->level_subsets();
  std::vector<LevelPlan> plans(subsets.size());
  for (std::size_t si = 0; si < subsets.size(); ++si) {
    const Subset& s = subsets[si];
    LevelPlan& plan = plans[si];
    plan.u.resize(s.size());
    for (std::size_t pos = s.begin; pos < s.end; ++pos) {
      const double coef = static_cast<double>(work[order[pos]]);
      plan.max_abs = std::max(plan.max_abs, std::abs(coef));
      const Quantized v = quantize(coef, bins[s.id]);
      if (v.outlier) plan.outliers.emplace_back(pos - s.begin, v.q);
      plan.u[pos - s.begin] = v.outlier ? 0 : zfp::detail::to_negabinary(v.q);
    }
    std::uint64_t all = 0;
    for (std::uint64_t u : plan.u) all |= u;
    plan.nbits = static_cast<std::size_t>(std::bit_width(all));
  }

  // Per-level error state e[l]; the chunk bound after any prefix is
  // amp · Σ e[l] (see the header comment for the three regimes).
  std::vector<double> e(subsets.size());
  for (std::size_t si = 0; si < subsets.size(); ++si)
    e[si] = plans[si].max_abs;
  auto chunk_bound = [&] {
    double sum = 0.0;
    for (double el : e) sum += el;
    return amp * sum;
  };
  out.initial_bound = chunk_bound();

  // Emit components: levels outermost (coarsest first), plane groups
  // innermost (MSB group first, outliers riding in each level's first
  // group). The first group of a level extends downward until its bound
  // no longer exceeds the absent-level bound, which keeps the recorded
  // ladder monotone by construction.
  for (std::size_t si = 0; si < subsets.size(); ++si) {
    const Subset& s = subsets[si];
    const LevelPlan& plan = plans[si];
    const double bin = bins[s.id];
    auto plane_bound = [&](std::size_t p) {
      // p missing low planes: quantization + masked-negabinary slack.
      return bin / 2 +
             bin * static_cast<double>((std::uint64_t{1} << p) - 1);
    };
    std::size_t hi = plan.nbits;  // next unemitted plane + 1
    bool first = true;
    while (first || hi > 0) {
      std::size_t lo;
      if (first) {
        // Outlier-only opener: resolving the outliers alone usually drops
        // the level below its absent bound (outliers are the largest
        // coefficients); extend downward only when monotonicity demands
        // planes too. Keeps the cheap opener cheap — the loose-bound
        // fetch fraction depends on it.
        lo = hi;
        while (lo > 0 && plane_bound(lo) > plan.max_abs) --lo;
      } else {
        lo = hi > kPlanesPerGroup ? hi - kPlanesPerGroup : 0;
      }
      ByteWriter w;
      w.put_u8(kKindPlanes);
      w.put_varint(s.id);
      w.put_u8(static_cast<std::uint8_t>(plan.nbits));
      w.put_u8(static_cast<std::uint8_t>(hi));
      w.put_u8(static_cast<std::uint8_t>(lo));
      if (first) {
        w.put_varint(plan.outliers.size());
        std::uint64_t prev = 0;
        for (auto [pos, q] : plan.outliers) {
          w.put_varint(pos - prev);
          prev = pos;
          const std::uint64_t zz = (static_cast<std::uint64_t>(q) << 1) ^
                                   static_cast<std::uint64_t>(q >> 63);
          w.put_varint(zz);
        }
      }
      if (hi > lo) {
        BitWriter bw;
        for (std::size_t pl = hi; pl-- > lo;) {
          std::uint64_t any = 0;
          for (std::uint64_t u : plan.u) any |= (u >> pl) & 1;
          bw.put_bit(any != 0);
          if (any)
            for (std::uint64_t u : plan.u)
              bw.put_bit(((u >> pl) & 1) != 0);
        }
        const auto packed = bw.to_bytes();
        w.put_bytes(packed);
      }
      e[si] = lo == 0 ? std::min(bin / 2, plan.max_abs) : plane_bound(lo);
      out.components.push_back({w.take(), chunk_bound()});
      hi = lo;
      first = false;
    }
  }
  return out;
}

}  // namespace

ProgressiveChunk progressive_encode(const Device& dev, const void* data,
                                    const Shape& shape, DType dtype,
                                    double rel_eb) {
  return dtype == DType::F32
             ? encode_impl(dev, static_cast<const float*>(data), shape,
                           rel_eb)
             : encode_impl(dev, static_cast<const double*>(data), shape,
                           rel_eb);
}

/// Accumulated receive state for one chunk.
struct ProgressiveChunkDecoder::Impl {
  Shape orig = Shape::of_rank(1);
  Shape shape = Shape::of_rank(1);  ///< normalized
  DType dtype = DType::F32;
  std::uint8_t mode = 0;
  double abs_eb = 0.0;
  std::shared_ptr<Hierarchy> h;
  std::vector<double> bins;

  std::vector<std::uint8_t> raw;  ///< kKindRaw payload once received

  struct Level {
    std::vector<std::uint64_t> acc;  ///< negabinary planes received so far
    std::vector<std::pair<std::uint64_t, std::int64_t>> outliers;
    std::size_t next_hi = 0;  ///< expected `hi` of the next group
    bool seen = false;
  };
  std::vector<Level> levels;

  template <class T>
  void materialize_t(const Device& dev, T* out) const {
    const std::size_t n = orig.size();
    if (mode == 0) {
      std::memset(out, 0, n * sizeof(T));
      if (!raw.empty()) std::memcpy(out, raw.data(), raw.size());
      return;
    }
    // Replays the v2 decode's float ops exactly (mgard.cpp
    // decompress_impl): symbol dequantize in level order, outlier
    // overwrite, recompose. Unreceived planes leave q at its partial
    // value; a fully-received chunk reproduces the v2 bytes.
    const auto& order = h->level_order();
    const auto& subsets = h->level_subsets();
    std::vector<T> work(shape.size());
    for (std::size_t si = 0; si < subsets.size(); ++si) {
      const Subset& s = subsets[si];
      const Level& lv = levels[si];
      for (std::size_t j = 0; j < s.size(); ++j) {
        const double q = lv.acc.empty()
                             ? 0.0
                             : static_cast<double>(
                                   zfp::detail::from_negabinary(lv.acc[j]));
        work[order[s.begin + j]] = static_cast<T>(q * bins[s.id]);
      }
      for (auto [pos, q] : lv.outliers) {
        const std::size_t flat = order[s.begin + pos];
        work[flat] = static_cast<T>(static_cast<double>(q) * bins[s.id]);
      }
    }
    recompose(dev, *h, work.data());
    HPDR_ASSERT(work.size() == n);
    std::memcpy(out, work.data(), n * sizeof(T));
  }
};

ProgressiveChunkDecoder::ProgressiveChunkDecoder(const Device& dev,
                                                 const Shape& chunk_shape,
                                                 DType dtype,
                                                 std::uint8_t mode,
                                                 double abs_eb)
    : impl_(std::make_unique<Impl>()) {
  impl_->orig = chunk_shape;
  impl_->dtype = dtype;
  impl_->mode = mode;
  impl_->abs_eb = abs_eb;
  if (mode != 0) {
    impl_->shape = normalize_shape(chunk_shape);
    HPDR_REQUIRE(!too_small_to_decompose(impl_->shape),
                 "lossy progressive chunk too small to decompose");
    impl_->h = cached_hierarchy(dev, impl_->shape);
    const std::size_t L = impl_->h->num_levels();
    impl_->bins.resize(L + 1);
    for (std::size_t l = 0; l <= L; ++l)
      impl_->bins[l] =
          level_bin_s(abs_eb, l, L, impl_->shape.rank(), 0.0);
    impl_->levels.resize(impl_->h->level_subsets().size());
  }
}

ProgressiveChunkDecoder::~ProgressiveChunkDecoder() = default;

void ProgressiveChunkDecoder::consume(std::span<const std::uint8_t> payload) {
  ByteReader in(payload);
  const std::uint8_t kind = in.get_u8();
  if (kind == kKindRaw) {
    HPDR_REQUIRE(impl_->mode == 0, "raw component in a lossy chunk");
    const std::size_t nbytes = in.get_varint();
    HPDR_REQUIRE(nbytes == impl_->orig.size() * dtype_size(impl_->dtype),
                 "raw component size mismatch");
    const auto bytes = in.get_bytes(nbytes);
    impl_->raw.assign(bytes.begin(), bytes.end());
    ++consumed_;
    return;
  }
  HPDR_REQUIRE(kind == kKindPlanes, "unknown progressive component kind");
  HPDR_REQUIRE(impl_->mode == 1, "plane component in a raw chunk");
  const std::size_t level = in.get_varint();
  HPDR_REQUIRE(level < impl_->levels.size(),
               "progressive component level out of range");
  const Subset& s = impl_->h->level_subsets()[level];
  Impl::Level& lv = impl_->levels[level];
  const std::size_t nbits = in.get_u8();
  const std::size_t hi = in.get_u8();
  const std::size_t lo = in.get_u8();
  HPDR_REQUIRE(nbits <= 64 && hi <= nbits && lo <= hi,
               "corrupt progressive plane header");
  const bool first = !lv.seen;
  HPDR_REQUIRE(hi == (first ? nbits : lv.next_hi),
               "progressive component out of order");
  if (first) {
    lv.acc.assign(s.size(), 0);
    const std::size_t n_out = in.get_varint();
    HPDR_REQUIRE(n_out <= s.size(), "implausible outlier count");
    lv.outliers.resize(n_out);
    std::uint64_t prev = 0;
    for (auto& [pos, q] : lv.outliers) {
      pos = prev + in.get_varint();
      prev = pos;
      HPDR_REQUIRE(pos < s.size(), "outlier position out of range");
      const std::uint64_t zz = in.get_varint();
      q = static_cast<std::int64_t>((zz >> 1) ^ (~(zz & 1) + 1));
    }
    lv.seen = true;
  }
  if (hi > lo) {
    const auto packed = in.get_bytes(in.remaining());
    BitReader br(packed);
    for (std::size_t pl = hi; pl-- > lo;) {
      if (br.get(1) == 0) continue;
      for (std::size_t j = 0; j < s.size(); ++j)
        lv.acc[j] |= static_cast<std::uint64_t>(br.get(1)) << pl;
    }
  }
  lv.next_hi = lo;
  ++consumed_;
}

void ProgressiveChunkDecoder::materialize(const Device& dev,
                                          void* out) const {
  if (impl_->dtype == DType::F32)
    impl_->materialize_t(dev, static_cast<float*>(out));
  else
    impl_->materialize_t(dev, static_cast<double*>(out));
}

}  // namespace hpdr::mgard
