#ifndef HPDR_CORE_CHECKSUM_HPP
#define HPDR_CORE_CHECKSUM_HPP

/// \file checksum.hpp
/// Payload checksums shared by every container in HPDR. Neither hash is
/// cryptographic — both detect the accidental corruption the fault model
/// cares about (bit rot, torn writes, truncation).
///
/// XXH64 frames the chunks of stream-format v4 and keys the in-memory
/// content hashes (DESIGN.md §8.2, §14.1): four independent multiply-rotate
/// lanes over 32-byte stripes, so it runs at several GB/s on one core with
/// no ISA slot. FNV-1a, one dependent multiply per byte, stays the checksum
/// of v2 frames and v3 components, whose bytes are fixed.
///
/// The seeded FNV-1a overloads make the hash *incremental*: a composite key
/// over several fields (a codec name, a dtype, an error bound, a chunk
/// shape) is derived by threading the running state through successive
/// calls, without serializing the tuple into a scratch buffer first. The
/// dedup chunk cache (DESIGN.md §14) derives its meta keys this way.

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>

namespace hpdr {

/// FNV-1a 64-bit parameters (public so key-derivation code can salt the
/// initial state deterministically).
constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// FNV-1a 64-bit over a byte span, continuing from `seed` — chain calls to
/// hash a multi-field tuple without intermediate buffers.
inline std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes,
                             std::uint64_t seed) {
  std::uint64_t h = seed;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

/// FNV-1a 64-bit over a byte span.
inline std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  return fnv1a64(bytes, kFnvOffsetBasis);
}

/// Fold one trivially-copyable scalar (its object representation) into a
/// running FNV-1a state. Allocation-free building block for composite keys:
///   h = fnv1a64_fold(rows, fnv1a64_fold(param, seed));
template <typename T>
inline std::uint64_t fnv1a64_fold(const T& value, std::uint64_t seed) {
  static_assert(std::is_trivially_copyable_v<T>,
                "fnv1a64_fold hashes object representations");
  std::uint8_t repr[sizeof(T)];
  std::memcpy(repr, &value, sizeof(T));
  return fnv1a64(std::span<const std::uint8_t>(repr, sizeof(T)), seed);
}

namespace detail {

constexpr std::uint64_t kXxhPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kXxhPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kXxhPrime3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kXxhPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kXxhPrime5 = 0x27D4EB2F165667C5ull;

/// Little-endian load of `n` ≤ 8 bytes (the hash is defined on LE words).
inline std::uint64_t xxh_load(const std::uint8_t* p, unsigned n) {
  std::uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, n);
  } else {
    for (unsigned i = 0; i < n; ++i) v |= std::uint64_t{p[i]} << 8 * i;
  }
  return v;
}

inline std::uint64_t xxh_round(std::uint64_t acc, std::uint64_t input) {
  return std::rotl(acc + input * kXxhPrime2, 31) * kXxhPrime1;
}

inline std::uint64_t xxh_merge(std::uint64_t h, std::uint64_t lane) {
  return (h ^ xxh_round(0, lane)) * kXxhPrime1 + kXxhPrime4;
}

}  // namespace detail

/// XXH64 (the published algorithm, bit for bit) over a byte span.
inline std::uint64_t xxh64(std::span<const std::uint8_t> bytes,
                           std::uint64_t seed = 0) {
  using namespace detail;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint64_t h;
  if (n >= 32) {
    std::uint64_t v1 = seed + kXxhPrime1 + kXxhPrime2;
    std::uint64_t v2 = seed + kXxhPrime2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kXxhPrime1;
    for (; n >= 32; p += 32, n -= 32) {
      v1 = xxh_round(v1, xxh_load(p, 8));
      v2 = xxh_round(v2, xxh_load(p + 8, 8));
      v3 = xxh_round(v3, xxh_load(p + 16, 8));
      v4 = xxh_round(v4, xxh_load(p + 24, 8));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = xxh_merge(xxh_merge(xxh_merge(xxh_merge(h, v1), v2), v3), v4);
  } else {
    h = seed + kXxhPrime5;
  }
  h += bytes.size();
  for (; n >= 8; p += 8, n -= 8)
    h = std::rotl(h ^ xxh_round(0, xxh_load(p, 8)), 27) * kXxhPrime1 +
        kXxhPrime4;
  if (n >= 4) {
    h = std::rotl(h ^ xxh_load(p, 4) * kXxhPrime1, 23) * kXxhPrime2 +
        kXxhPrime3;
    p += 4;
    n -= 4;
  }
  for (; n > 0; ++p, --n) h = std::rotl(h ^ *p * kXxhPrime5, 11) * kXxhPrime1;
  h ^= h >> 33;
  h *= kXxhPrime2;
  h ^= h >> 29;
  h *= kXxhPrime3;
  return h ^ (h >> 32);
}

}  // namespace hpdr

#endif  // HPDR_CORE_CHECKSUM_HPP
