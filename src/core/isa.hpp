#ifndef HPDR_CORE_ISA_HPP
#define HPDR_CORE_ISA_HPP

/// \file isa.hpp
/// Runtime ISA dispatch (DESIGN.md §16). A kernel that gains from wider
/// vectors is written once, as an always-inline body; its `isa::Table`
/// holds that body compiled at the build's baseline target and, on x86,
/// under the AVX2 and AVX-512 attributes below. The host's level is
/// detected once at first use (CPUID on x86, the compile target on
/// AArch64, whose baseline build already vectorizes with NEON) and picks
/// the slot. Every slot is the same source, so streams never depend on the
/// host, and the level is recorded in every run manifest (`isa: {level}`).

// The attribute enables the ISA per function, so every slot compiles in one
// translation unit whatever the build's -march; runtime detection keeps the
// CPU from reaching code it cannot run. Wrappers that carry these attributes
// must be guarded by `#if HPDR_ISA_X86`.
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define HPDR_ISA_X86 1
#define HPDR_ISA_TARGET_AVX2 __attribute__((target("avx2")))
#define HPDR_ISA_TARGET_AVX512 \
  __attribute__((target("avx512f,avx512bw,avx512dq,avx512vl")))
#else
#define HPDR_ISA_X86 0
#endif

namespace hpdr::isa {

/// Host levels, ordered so that on x86 a numerically higher level is a
/// strict superset of the one below it. Neon (AArch64 only) runs the
/// scalar slot, which its baseline build vectorizes.
enum class Level : int {
  Scalar = 0,
  Avx2 = 1,
  Avx512 = 2,
  Neon = 3,
};

/// Stable lowercase name ("scalar", "avx2", "avx512", "neon").
const char* to_string(Level level);

/// Best level the running hardware supports, detected once and cached.
Level level();

/// Per-level function-pointer table. The scalar slot must always be set;
/// get() returns the widest filled slot the host can run.
template <class F>
struct Table {
  F scalar = nullptr;
  F avx2 = nullptr;
  F avx512 = nullptr;

  F get() const {
    switch (level()) {
      case Level::Avx512:
        if (avx512) return avx512;
        [[fallthrough]];
      case Level::Avx2:
        if (avx2) return avx2;
        break;
      case Level::Scalar:
      case Level::Neon:
        break;
    }
    return scalar;
  }
};

}  // namespace hpdr::isa

#endif  // HPDR_CORE_ISA_HPP
