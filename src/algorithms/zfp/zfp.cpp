#include "algorithms/zfp/zfp.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <mutex>
#include <numeric>

#include "adapter/abstractions.hpp"
#include "core/bitstream.hpp"
#include "core/error.hpp"
#include "core/isa.hpp"

namespace hpdr::zfp {
namespace detail {

void fwd_lift4(std::int64_t* p, std::size_t s) {
  // Two-level integer S-transform: exactly invertible, near-orthogonal.
  // Level 1 on pairs (p0,p1), (p2,p3): mean + difference.
  std::int64_t a0 = p[0], b0 = p[s], a1 = p[2 * s], b1 = p[3 * s];
  const std::int64_t d0 = b0 - a0;
  a0 += d0 >> 1;
  const std::int64_t d1 = b1 - a1;
  a1 += d1 >> 1;
  // Level 2 on the two means.
  const std::int64_t D = a1 - a0;
  const std::int64_t A = a0 + (D >> 1);
  p[0] = A;      // lowest frequency
  p[s] = D;      // mid
  p[2 * s] = d0; // high
  p[3 * s] = d1; // high
}

void inv_lift4(std::int64_t* p, std::size_t s) {
  const std::int64_t A = p[0], D = p[s], d0 = p[2 * s], d1 = p[3 * s];
  std::int64_t a0 = A - (D >> 1);
  std::int64_t a1 = D + a0;
  std::int64_t x0 = a0 - (d0 >> 1);
  std::int64_t x1 = d0 + x0;
  std::int64_t x2 = a1 - (d1 >> 1);
  std::int64_t x3 = d1 + x2;
  p[0] = x0;
  p[s] = x1;
  p[2 * s] = x2;
  p[3 * s] = x3;
}

namespace {

constexpr std::uint64_t kNbMask = 0xaaaaaaaaaaaaaaaaull;

/// `kLanes` independent 4-point lifts, lane l operating on elements
/// p[l + j*s] for j = 0..3. Lanes are contiguous in memory, so the lane
/// loop vectorizes to plain vector loads/stores (the block never exceeds
/// 64 values — all of it sits in registers/L1). The arithmetic is the
/// exact integer sequence of fwd_lift4, so results are bit-identical.
template <int kLanes>
[[gnu::always_inline]] inline void fwd_lift_lanes(std::int64_t* p,
                                                  std::size_t s) {
#pragma omp simd
  for (int l = 0; l < kLanes; ++l) {
    std::int64_t a0 = p[l], b0 = p[l + s];
    std::int64_t a1 = p[l + 2 * s], b1 = p[l + 3 * s];
    const std::int64_t d0 = b0 - a0;
    a0 += d0 >> 1;
    const std::int64_t d1 = b1 - a1;
    a1 += d1 >> 1;
    const std::int64_t D = a1 - a0;
    p[l] = a0 + (D >> 1);
    p[l + s] = D;
    p[l + 2 * s] = d0;
    p[l + 3 * s] = d1;
  }
}

template <int kLanes>
[[gnu::always_inline]] inline void inv_lift_lanes(std::int64_t* p,
                                                  std::size_t s) {
#pragma omp simd
  for (int l = 0; l < kLanes; ++l) {
    const std::int64_t A = p[l], D = p[l + s];
    const std::int64_t d0 = p[l + 2 * s], d1 = p[l + 3 * s];
    const std::int64_t a0 = A - (D >> 1);
    const std::int64_t a1 = D + a0;
    const std::int64_t x0 = a0 - (d0 >> 1);
    const std::int64_t x2 = a1 - (d1 >> 1);
    p[l] = x0;
    p[l + s] = d0 + x0;
    p[l + 2 * s] = x2;
    p[l + 3 * s] = d1 + x2;
  }
}

}  // namespace

std::uint64_t to_negabinary(std::int64_t x) {
  return (static_cast<std::uint64_t>(x) + kNbMask) ^ kNbMask;
}

std::int64_t from_negabinary(std::uint64_t u) {
  return static_cast<std::int64_t>((u ^ kNbMask) - kNbMask);
}

std::span<const std::uint16_t> sequency_order(std::size_t rank) {
  HPDR_REQUIRE(rank >= 1 && rank <= 3, "zfp codec rank must be 1..3");
  static std::array<std::vector<std::uint16_t>, 4> tables;
  static std::once_flag once;
  std::call_once(once, [] {
    // Per-axis frequency weight of the transform output positions
    // [A, D, d0, d1] → weights 0,1,2,2 (d0/d1 are both high frequency).
    constexpr int w[4] = {0, 1, 2, 2};
    for (std::size_t r = 1; r <= 3; ++r) {
      const std::size_t n = std::size_t{1} << (2 * r);  // 4^r
      std::vector<std::uint16_t> idx(n);
      std::iota(idx.begin(), idx.end(), 0);
      auto weight = [&](std::uint16_t i) {
        int total = 0;
        for (std::size_t d = 0; d < r; ++d) {
          total += w[i & 3];
          i >>= 2;
        }
        return total;
      };
      std::stable_sort(idx.begin(), idx.end(),
                       [&](std::uint16_t a, std::uint16_t b) {
                         return weight(a) < weight(b);
                       });
      tables[r] = std::move(idx);
    }
  });
  return tables[rank];
}

namespace {

// ---------------------------------------------------------------------------
// The transform body, written once. Unit-stride rows run one lift at a
// time (good scalar ILP); the cross-row/cross-plane passes have contiguous
// lanes, so they run as lane-parallel lifts. Same integer ops in the same
// per-lift order as fwd_lift4/inv_lift4 along each axis, so every slot
// below gives the same bytes. Each slot is this body compiled for one
// level (DESIGN.md §16.1): everything it calls is always-inline, so the
// compiler vectorizes the lanes with the slot's instruction set.
// ---------------------------------------------------------------------------

using TransformFn = void (*)(std::int64_t*, std::size_t);

[[gnu::always_inline]] inline void fwd_transform_body(std::int64_t* q,
                                                      std::size_t rank) {
  if (rank == 1) {
    fwd_lift_lanes<1>(q, 1);
    return;
  }
  if (rank == 2) {
    for (std::size_t i = 0; i < 4; ++i) fwd_lift_lanes<1>(q + 4 * i, 1);
    fwd_lift_lanes<4>(q, 4);
    return;
  }
  for (std::size_t i = 0; i < 16; ++i) fwd_lift_lanes<1>(q + 4 * i, 1);
  for (std::size_t i = 0; i < 4; ++i) fwd_lift_lanes<4>(q + 16 * i, 4);
  fwd_lift_lanes<16>(q, 16);
}

[[gnu::always_inline]] inline void inv_transform_body(std::int64_t* q,
                                                      std::size_t rank) {
  if (rank == 1) {
    inv_lift_lanes<1>(q, 1);
    return;
  }
  if (rank == 2) {
    inv_lift_lanes<4>(q, 4);
    for (std::size_t i = 0; i < 4; ++i) inv_lift_lanes<1>(q + 4 * i, 1);
    return;
  }
  inv_lift_lanes<16>(q, 16);
  for (std::size_t i = 0; i < 4; ++i) inv_lift_lanes<4>(q + 16 * i, 4);
  for (std::size_t i = 0; i < 16; ++i) inv_lift_lanes<1>(q + 4 * i, 1);
}

void fwd_transform_scalar(std::int64_t* q, std::size_t rank) {
  fwd_transform_body(q, rank);
}
void inv_transform_scalar(std::int64_t* q, std::size_t rank) {
  inv_transform_body(q, rank);
}

#if HPDR_ISA_X86
HPDR_ISA_TARGET_AVX2 void fwd_transform_avx2(std::int64_t* q,
                                             std::size_t rank) {
  fwd_transform_body(q, rank);
}
HPDR_ISA_TARGET_AVX2 void inv_transform_avx2(std::int64_t* q,
                                             std::size_t rank) {
  inv_transform_body(q, rank);
}
HPDR_ISA_TARGET_AVX512 void fwd_transform_avx512(std::int64_t* q,
                                                 std::size_t rank) {
  fwd_transform_body(q, rank);
}
HPDR_ISA_TARGET_AVX512 void inv_transform_avx512(std::int64_t* q,
                                                 std::size_t rank) {
  inv_transform_body(q, rank);
}

const isa::Table<TransformFn> kFwdTransform = {
    fwd_transform_scalar, fwd_transform_avx2, fwd_transform_avx512};
const isa::Table<TransformFn> kInvTransform = {
    inv_transform_scalar, inv_transform_avx2, inv_transform_avx512};
#else
const isa::Table<TransformFn> kFwdTransform = {fwd_transform_scalar};
const isa::Table<TransformFn> kInvTransform = {inv_transform_scalar};
#endif

}  // namespace

void fwd_transform(std::int64_t* q, std::size_t rank) {
  static const TransformFn fn = kFwdTransform.get();
  fn(q, rank);
}

void inv_transform(std::int64_t* q, std::size_t rank) {
  static const TransformFn fn = kInvTransform.get();
  fn(q, rank);
}

namespace {

// A 64×64 bit matrix is held as 64 row words, bit c of a[r] being column c.
// Transposing it swaps bit J of the row index with bit J of the column
// index for J = 32, 16, ..., 1, one round each; the rounds commute.

/// Round J on rows [0, rows): swaps bit c + J of row k with bit c of row
/// k + J wherever bit J of k and of c is clear (`M` selects those c).
template <unsigned J, std::uint64_t M>
inline void transpose_round(std::uint64_t* a, unsigned rows) {
  for (unsigned b = 0; b < rows; b += 2 * J)
    for (unsigned k = b; k < b + J; ++k) {
      const std::uint64_t t = ((a[k] >> J) ^ a[k + J]) & M;
      a[k] ^= t << J;
      a[k + J] ^= t;
    }
}

inline void transpose_rounds_below_32(std::uint64_t* a, unsigned rows) {
  transpose_round<16, 0x0000ffff0000ffffull>(a, rows);
  transpose_round<8, 0x00ff00ff00ff00ffull>(a, rows);
  transpose_round<4, 0x0f0f0f0f0f0f0f0full>(a, rows);
  transpose_round<2, 0x3333333333333333ull>(a, rows);
  transpose_round<1, 0x5555555555555555ull>(a, rows);
}

/// Coefficients (rows) → plane words: bit i of a[k] becomes bit k of the
/// old a[i]. With intprec ≤ 32 (f32) planes 32..63 are never coded, so
/// round 32 only folds the low halves of rows 32..63 into rows 0..31 and
/// the other rounds run on those 32 rows: half the work.
void coefficients_to_planes(std::uint64_t* a, int intprec) {
  if (intprec <= 32) {
    for (unsigned k = 0; k < 32; ++k)
      a[k] = (a[k] & 0xffffffffull) | (a[k + 32] << 32);
    transpose_rounds_below_32(a, 32);
  } else {
    transpose_round<32, 0x00000000ffffffffull>(a, 64);
    transpose_rounds_below_32(a, 64);
  }
}

/// The inverse (the same transpose). With intprec ≤ 32 planes 32..63 are
/// zero, so the rounds below 32 leave them be and round 32 is a split.
void planes_to_coefficients(std::uint64_t* a, int intprec) {
  if (intprec <= 32) {
    transpose_rounds_below_32(a, 32);
    for (unsigned k = 0; k < 32; ++k) {
      a[k + 32] = a[k] >> 32;
      a[k] &= 0xffffffffull;
    }
  } else {
    transpose_rounds_below_32(a, 64);
    transpose_round<32, 0x00000000ffffffffull>(a, 64);
  }
}

/// BitWriter::put over a caller-sized, zeroed word buffer (one block's
/// slot): no growth check, because the slot holds the block's worst case.
class SlotWriter {
 public:
  SlotWriter(std::uint64_t* words, std::size_t pos)
      : words_(words), pos_(pos) {}

  void put(std::uint64_t value, unsigned nbits) {
    if (nbits == 0) return;
    if (nbits < 64) value &= (std::uint64_t{1} << nbits) - 1;
    const unsigned off = pos_ & 63u;
    std::uint64_t* w = words_ + (pos_ >> 6u);
    w[0] |= value << off;
    if (off + nbits > 64) w[1] = value >> (64 - off);
    pos_ += nbits;
  }

 private:
  std::uint64_t* words_;
  std::size_t pos_;
};

}  // namespace

std::size_t encode_planes(std::uint64_t* words, std::size_t pos,
                          const std::uint64_t* u, std::size_t n, int intprec,
                          std::size_t budget) {
  HPDR_ASSERT(n <= 64 && intprec <= 64);
  // One transpose turns the coefficients into plane words: bit i of
  // planes[k] is bit k of u[i], zero past n.
  std::uint64_t planes[64] = {};
  std::copy_n(u, n, planes);
  coefficients_to_planes(planes, intprec);
  SlotWriter w(words, pos);
  std::size_t bits = budget;
  std::size_t sig = 0;  // significance watermark: ZFP encode_ints' `n`
  for (int k = intprec - 1; k >= 0 && bits; --k) {
    std::uint64_t x = planes[k];
    // Value pass: the already-significant prefix, verbatim.
    const std::size_t m = std::min(sig, bits);
    w.put(x, static_cast<unsigned>(m));
    bits -= m;
    x = m < 64 ? x >> m : 0;
    // Group-test pass, one put per group: a 1 test bit, the zero value bits
    // before the next one, and that one (1 | 2 << tz, tz + 2 bits). At the
    // last position the one is implied by the test bit (group of one), so
    // the group ends a bit early. A 0 test bit ends the plane. A put cut at
    // the budget keeps its low bits, which are the bits emitted first.
    std::size_t i = sig;
    while (i < n && bits) {
      if (x == 0) {
        w.put(0, 1);
        --bits;
        break;
      }
      const unsigned tz = static_cast<unsigned>(std::countr_zero(x));
      const std::size_t len = tz + (i + tz + 1 < n ? 2 : 1);
      const std::size_t take = std::min(len, bits);
      w.put(1 | (std::uint64_t{2} << tz), static_cast<unsigned>(take));
      bits -= take;
      x = x >> tz >> 1;
      i += tz + 1;
    }
    sig = i;
  }
  return budget - bits;
}

void decode_planes(BitReader& r, std::uint64_t* u, std::size_t n,
                   int intprec, std::size_t budget) {
  HPDR_ASSERT(n <= 64 && intprec <= 64);
  std::uint64_t planes[64] = {};
  std::size_t bits = budget;
  std::size_t sig = 0;
  for (int k = intprec - 1; k >= 0 && bits; --k) {
    const std::size_t m = std::min(sig, bits);
    std::uint64_t x = r.get(static_cast<unsigned>(m));
    bits -= m;
    // Group-test pass. One peek holds the test bit and the longest zero
    // run the group may have. A window cut short by the reader's limit
    // takes the rest of the stream but leaves budget and positions, so the
    // next read throws.
    std::size_t i = sig;
    while (i < n && bits) {
      const std::size_t want = std::min(bits, n - i);
      const unsigned w =
          static_cast<unsigned>(std::min(want, r.remaining()));
      HPDR_REQUIRE(w > 0, "bitstream exhausted");
      const std::uint64_t win = r.peek(w);
      if ((win & 1) == 0) {
        r.skip(1);
        --bits;
        break;
      }
      // A run that fills the window ends at the last position or at the
      // budget; the encoder's one there is implied or was cut off, and the
      // position is deposited either way.
      const std::uint64_t run = win >> 1;
      const unsigned tz =
          run != 0 ? static_cast<unsigned>(std::countr_zero(run)) : w - 1;
      const unsigned len = run != 0 ? tz + 2 : w;
      r.skip(len);
      bits -= len;
      i += tz;
      x |= std::uint64_t{1} << i;
      ++i;
    }
    sig = i;
    planes[k] = x;
  }
  planes_to_coefficients(planes, intprec);
  std::copy_n(planes, n, u);
}

}  // namespace detail

namespace {

constexpr std::uint8_t kMagic = 0x5A;  // 'Z'
constexpr std::uint8_t kVersion = 2;
constexpr std::uint8_t kModeFixedRate = 0;  // the only mode written

template <class T>
struct Traits;

template <>
struct Traits<float> {
  static constexpr int precision = 28;  ///< fixed-point magnitude bits
  static constexpr double max_rate = 32;  ///< bits per value
  static constexpr unsigned ebits = 9;
  static constexpr int ebias = 256;
  static constexpr std::uint8_t dtype = 0;
};

template <>
struct Traits<double> {
  static constexpr int precision = 52;
  static constexpr double max_rate = 64;
  static constexpr unsigned ebits = 12;
  static constexpr int ebias = 2048;
  static constexpr std::uint8_t dtype = 1;
};

/// Codec geometry: fold rank-4 shapes into rank-3 (leading dims merge) and
/// keep folding while the leading dimension is thinner than a 4-block —
/// otherwise every block along it pads by replication and the fixed-rate
/// stream inflates by up to 4× (thin slabs are exactly what the chunked
/// pipeline produces).
Shape codec_shape(const Shape& s) {
  std::vector<std::size_t> dims;
  for (std::size_t d = 0; d < s.rank(); ++d) dims.push_back(s[d]);
  while (dims.size() > 3 || (dims.size() > 1 && dims[0] < 4)) {
    dims[1] *= dims[0];
    dims.erase(dims.begin());
  }
  Shape f = Shape::of_rank(dims.size());
  for (std::size_t d = 0; d < dims.size(); ++d) f[d] = dims[d];
  return f;
}

struct BlockGrid {
  Shape domain;                       // codec shape
  std::size_t rank;
  std::array<std::size_t, 3> nblocks{1, 1, 1};
  std::size_t total_blocks = 1;

  explicit BlockGrid(const Shape& s) : domain(s), rank(s.rank()) {
    total_blocks = 1;
    for (std::size_t d = 0; d < rank; ++d) {
      nblocks[d] = (s[d] + 3) / 4;
      total_blocks *= nblocks[d];
    }
  }

  std::size_t block_values() const { return std::size_t{1} << (2 * rank); }
};

/// Gather a (possibly clipped) 4^rank block, clamping reads at the domain
/// edge (ZFP's pad-by-replication).
template <class T>
void gather(const BlockGrid& g, const T* data, std::size_t bx, std::size_t by,
            std::size_t bz, T* block) {
  const std::size_t r = g.rank;
  std::size_t dim[3] = {1, 1, 1};
  for (std::size_t d = 0; d < r; ++d) dim[d] = g.domain[d];
  const std::size_t o0 = bx * 4, o1 = by * 4, o2 = bz * 4;
  std::size_t stride1 = r >= 2 ? dim[r - 1] : 1;
  std::size_t stride0 = r >= 3 ? dim[1] * dim[2] : 0;
  const std::size_t n1 = r >= 2 ? 4 : 1, n0 = r >= 3 ? 4 : 1;
  // Interior fast path: every row of the block lies fully inside the
  // domain, so the per-element edge clamps vanish and each row is one
  // contiguous 4-element copy. This is the overwhelmingly common case for
  // the large tensors the pipeline chunks.
  bool interior = o0 + 4 <= dim[0];
  if (r >= 2) interior = interior && o1 + 4 <= dim[1];
  if (r >= 3) interior = interior && o2 + 4 <= dim[2];
  if (interior) {
    if (r == 1) {
      std::memcpy(block, data + o0, 4 * sizeof(T));
    } else if (r == 2) {
      const T* src = data + o0 * stride1 + o1;
      for (std::size_t j = 0; j < 4; ++j)
        std::memcpy(block + 4 * j, src + j * stride1, 4 * sizeof(T));
    } else {
      const T* src = data + o0 * stride0 + o1 * stride1 + o2;
      for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 4; ++j)
          std::memcpy(block + 16 * i + 4 * j,
                      src + i * stride0 + j * stride1, 4 * sizeof(T));
    }
    return;
  }
  std::size_t out = 0;
  for (std::size_t i = 0; i < n0; ++i) {
    const std::size_t ci = r >= 3 ? std::min(o0 + i, dim[0] - 1) : 0;
    for (std::size_t j = 0; j < n1; ++j) {
      const std::size_t cj =
          r >= 3 ? std::min(o1 + j, dim[1] - 1)
                 : (r == 2 ? std::min(o0 + j, dim[0] - 1) : 0);
      for (std::size_t k = 0; k < 4; ++k) {
        const std::size_t ck =
            std::min((r == 3   ? o2
                      : r == 2 ? o1
                               : o0) +
                         k,
                     dim[r - 1] - 1);
        block[out++] = data[ci * stride0 + cj * stride1 + ck];
      }
    }
  }
}

/// Scatter a decoded block back, skipping padded positions.
template <class T>
void scatter(const BlockGrid& g, T* data, std::size_t bx, std::size_t by,
             std::size_t bz, const T* block) {
  const std::size_t r = g.rank;
  std::size_t dim[3] = {1, 1, 1};
  for (std::size_t d = 0; d < r; ++d) dim[d] = g.domain[d];
  const std::size_t o0 = bx * 4, o1 = by * 4, o2 = bz * 4;
  std::size_t stride1 = r >= 2 ? dim[r - 1] : 1;
  std::size_t stride0 = r >= 3 ? dim[1] * dim[2] : 0;
  const std::size_t n1 = r >= 2 ? 4 : 1, n0 = r >= 3 ? 4 : 1;
  // Interior fast path — mirror of gather's: no padded positions, whole
  // rows copy out contiguously.
  bool interior = o0 + 4 <= dim[0];
  if (r >= 2) interior = interior && o1 + 4 <= dim[1];
  if (r >= 3) interior = interior && o2 + 4 <= dim[2];
  if (interior) {
    if (r == 1) {
      std::memcpy(data + o0, block, 4 * sizeof(T));
    } else if (r == 2) {
      T* dst = data + o0 * stride1 + o1;
      for (std::size_t j = 0; j < 4; ++j)
        std::memcpy(dst + j * stride1, block + 4 * j, 4 * sizeof(T));
    } else {
      T* dst = data + o0 * stride0 + o1 * stride1 + o2;
      for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 4; ++j)
          std::memcpy(dst + i * stride0 + j * stride1,
                      block + 16 * i + 4 * j, 4 * sizeof(T));
    }
    return;
  }
  std::size_t in = 0;
  for (std::size_t i = 0; i < n0; ++i, in += 0) {
    for (std::size_t j = 0; j < n1; ++j) {
      for (std::size_t k = 0; k < 4; ++k, ++in) {
        const std::size_t ci = r >= 3 ? o0 + i : 0;
        const std::size_t cj = r >= 3 ? o1 + j : (r == 2 ? o0 + j : 0);
        const std::size_t ck = (r == 3 ? o2 : r == 2 ? o1 : o0) + k;
        if (r >= 3 && ci >= dim[0]) continue;
        if (r >= 2 && cj >= dim[r - 2]) continue;
        if (ck >= dim[r - 1]) continue;
        data[ci * stride0 + cj * stride1 + ck] = block[in];
      }
    }
  }
}

}  // namespace

std::size_t block_bits(double rate, std::size_t rank) {
  const std::size_t n = std::size_t{1} << (2 * rank);
  return static_cast<std::size_t>(
      std::ceil(rate * static_cast<double>(n)));
}

namespace {

/// Block index b → block coordinates (bx, by, bz) in row-major block order.
void block_coords(const BlockGrid& g, std::size_t b, std::size_t* bx,
                  std::size_t* by, std::size_t* bz) {
  *bx = *by = *bz = 0;
  if (g.rank == 1) {
    *bx = b;
  } else if (g.rank == 2) {
    *bx = b / g.nblocks[1];
    *by = b % g.nblocks[1];
  } else {
    *bx = b / (g.nblocks[1] * g.nblocks[2]);
    *by = (b / g.nblocks[2]) % g.nblocks[1];
    *bz = b % g.nblocks[2];
  }
}

template <class T>
std::vector<std::uint8_t> compress_impl(const Device& dev,
                                        NDView<const T> data, double rate) {
  using Tr = Traits<T>;
  const Shape orig = data.shape();
  HPDR_REQUIRE(orig.rank() >= 1 && orig.rank() <= 4,
               "zfp supports rank 1..4");
  HPDR_REQUIRE(orig.size() > 0, "empty input");
  rate = std::clamp(rate, 1.0, Tr::max_rate);
  const Shape cs = codec_shape(orig);
  const BlockGrid grid(cs);
  const std::size_t bn = grid.block_values();
  const std::size_t maxbits = block_bits(rate, grid.rank);
  HPDR_REQUIRE(maxbits > Tr::ebits, "rate too small to store block exponents");
  const int intprec = Tr::precision + static_cast<int>(grid.rank) + 1;
  const auto order = detail::sequency_order(grid.rank);

  // Blocks encode into one zeroed buffer, a word-aligned maxbits slot each;
  // every block occupies exactly maxbits bits (the rest is zero padding).
  const std::size_t slot_words = (maxbits + 63) / 64;
  std::vector<std::uint64_t> slots(grid.total_blocks * slot_words);
  // Locality abstraction: each 4^d block is one group (Alg. 3 lines 2-4).
  locality(
      dev, Shape{grid.total_blocks}, Shape{1}, [&](const Block& blk) {
        const std::size_t b = blk.origin[0];
        std::size_t bx, by, bz;
        block_coords(grid, b, &bx, &by, &bz);
        T vals[64];
        gather(grid, data.data(), bx, by, bz, vals);
        // Exponent alignment (block floating point). std::max drops NaNs,
        // so v − v, which is NaN for a NaN or ±Inf, flags those.
        T vmax = 0, nonfinite = 0;
        for (std::size_t i = 0; i < bn; ++i) {
          vmax = std::max(vmax, std::abs(vals[i]));
          nonfinite += vals[i] - vals[i];
        }
        // A zero block, or one holding a NaN or ±Inf, is the all-zero
        // exponent marker and decodes to zeros.
        if (vmax == 0 || nonfinite != 0) return;
        std::uint64_t* slot = slots.data() + b * slot_words;
        int e;
        std::frexp(static_cast<double>(vmax), &e);
        slot[0] = static_cast<std::uint64_t>(e + Tr::ebias) &
                  ((std::uint64_t{1} << Tr::ebits) - 1);
        const double scale = std::ldexp(1.0, Tr::precision - e);
        std::int64_t q[64];
        for (std::size_t i = 0; i < bn; ++i)
          q[i] = static_cast<std::int64_t>(static_cast<double>(vals[i]) *
                                           scale);
        detail::fwd_transform(q, grid.rank);
        std::uint64_t u[64];
        for (std::size_t i = 0; i < bn; ++i)
          u[i] = detail::to_negabinary(q[order[i]]);
        detail::encode_planes(slot, Tr::ebits, u, bn, intprec,
                              maxbits - Tr::ebits);
      });

  ByteWriter out;
  out.put_u8(kMagic);
  out.put_u8(kVersion);
  out.put_u8(Tr::dtype);
  out.put_u8(static_cast<std::uint8_t>(orig.rank()));
  for (std::size_t d = 0; d < orig.rank(); ++d) out.put_varint(orig[d]);
  out.put_u8(kModeFixedRate);
  out.put_f64(rate);
  BitWriter payload;
  payload.reserve_bits(grid.total_blocks * maxbits);
  for (std::size_t b = 0; b < grid.total_blocks; ++b)
    payload.append_words({slots.data() + b * slot_words, slot_words},
                         maxbits);
  const auto bytes = payload.to_bytes();
  out.put_varint(bytes.size());
  out.put_bytes(bytes);
  return out.take();
}

template <class T>
void decompress_impl(const Device& dev, std::span<const std::uint8_t> stream,
                     NDView<T> out) {
  using Tr = Traits<T>;
  ByteReader in(stream);
  HPDR_REQUIRE(in.get_u8() == kMagic, "not a zfp stream");
  HPDR_REQUIRE(in.get_u8() == kVersion, "zfp stream version mismatch");
  HPDR_REQUIRE(in.get_u8() == Tr::dtype, "zfp dtype mismatch");
  const std::size_t rank = in.get_u8();
  HPDR_REQUIRE(rank >= 1 && rank <= 4, "corrupt zfp rank");
  Shape orig = Shape::of_rank(rank);
  for (std::size_t d = 0; d < rank; ++d) orig[d] = in.get_varint();
  HPDR_REQUIRE(orig.size() > 0, "zfp stream has empty shape");
  HPDR_REQUIRE(orig == out.shape(), "zfp stream shape "
                                        << orig.to_string() << " != output "
                                        << out.shape().to_string());
  HPDR_REQUIRE(in.get_u8() == kModeFixedRate, "corrupt zfp mode byte");
  // Only a rate compress() can write: its clamp range (NaN fails it) and
  // room for the block exponent.
  const double rate = in.get_f64();
  HPDR_REQUIRE(rate >= 1.0 && rate <= Tr::max_rate, "corrupt zfp rate");
  const Shape cs = codec_shape(orig);
  const BlockGrid grid(cs);
  const std::size_t bn = grid.block_values();
  const std::size_t maxbits = block_bits(rate, grid.rank);
  HPDR_REQUIRE(maxbits > Tr::ebits, "corrupt zfp rate");
  const int intprec = Tr::precision + static_cast<int>(grid.rank) + 1;
  const auto order = detail::sequency_order(grid.rank);

  const std::size_t payload_bytes = in.get_varint();
  auto payload = in.get_bytes(payload_bytes);
  HPDR_REQUIRE(payload.size() * 8 >= grid.total_blocks * maxbits,
               "zfp payload truncated");

  locality(dev, Shape{grid.total_blocks}, Shape{1}, [&](const Block& blk) {
    const std::size_t b = blk.origin[0];
    std::size_t bx, by, bz;
    block_coords(grid, b, &bx, &by, &bz);
    BitReader r(payload, (b + 1) * maxbits);
    r.seek(b * maxbits);
    const std::uint64_t estore = r.get(Tr::ebits);
    T vals[64];
    if (estore == 0) {
      std::fill(vals, vals + bn, T{0});
    } else {
      const int e = static_cast<int>(estore) - Tr::ebias;
      std::uint64_t u[64];
      detail::decode_planes(r, u, bn, intprec, maxbits - Tr::ebits);
      std::int64_t q[64];
      for (std::size_t i = 0; i < bn; ++i)
        q[order[i]] = detail::from_negabinary(u[i]);
      detail::inv_transform(q, grid.rank);
      const double scale = std::ldexp(1.0, e - Tr::precision);
      for (std::size_t i = 0; i < bn; ++i)
        vals[i] = static_cast<T>(static_cast<double>(q[i]) * scale);
    }
    scatter(grid, out.data(), bx, by, bz, vals);
  });
}

}  // namespace

std::vector<std::uint8_t> compress(const Device& dev,
                                   NDView<const float> data, double rate) {
  return compress_impl(dev, data, rate);
}
std::vector<std::uint8_t> compress(const Device& dev,
                                   NDView<const double> data, double rate) {
  return compress_impl(dev, data, rate);
}

void decompress(const Device& dev, std::span<const std::uint8_t> stream,
                NDView<float> out) {
  decompress_impl(dev, stream, out);
}
void decompress(const Device& dev, std::span<const std::uint8_t> stream,
                NDView<double> out) {
  decompress_impl(dev, stream, out);
}

}  // namespace hpdr::zfp
