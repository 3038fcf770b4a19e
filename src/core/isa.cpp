#include "core/isa.hpp"

namespace hpdr::isa {

namespace {

#if defined(__x86_64__) || defined(__i386__)
Level detect() {
  __builtin_cpu_init();
  // The AVX-512 slots are compiled for F, BW, DQ and VL; treat the level as
  // present only when the whole family is.
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx512vl")) {
    return Level::Avx512;
  }
  if (__builtin_cpu_supports("avx2")) return Level::Avx2;
  return Level::Scalar;
}
#elif defined(__aarch64__)
// AdvSIMD is architecturally mandatory on AArch64; no runtime probe needed.
Level detect() { return Level::Neon; }
#else
Level detect() { return Level::Scalar; }
#endif

}  // namespace

const char* to_string(Level level) {
  switch (level) {
    case Level::Avx2: return "avx2";
    case Level::Avx512: return "avx512";
    case Level::Neon: return "neon";
    case Level::Scalar: break;
  }
  return "scalar";
}

Level level() {
  static const Level detected = detect();
  return detected;
}

}  // namespace hpdr::isa
