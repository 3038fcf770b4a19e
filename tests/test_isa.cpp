// Runtime ISA dispatch (DESIGN.md §16): the host level is detected once,
// and a table hands out the widest filled slot that level can run. That
// each slot computes its kernel's definition is checked per kernel, in
// test_zfp.cpp (ZfpTransform) and test_sz.cpp (DualQuant).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/isa.hpp"

namespace hpdr {
namespace {

TEST(IsaLevel, NativeLevelIsStableAndActiveNeverExceedsIt) {
  const isa::Level native = isa::level();
  EXPECT_EQ(native, isa::level());  // cached, not re-detected
  using Fn = int (*)();
  const isa::Table<Fn> full = {+[] { return 0; }, +[] { return 1; },
                               +[] { return 2; }};
  const int active = full.get()();
#if HPDR_ISA_X86
  EXPECT_NE(native, isa::Level::Neon);
  EXPECT_EQ(active, static_cast<int>(native));
#else
  EXPECT_EQ(active, 0);  // off x86 the baseline-built scalar slot runs
#endif
#if defined(__aarch64__)
  EXPECT_EQ(native, isa::Level::Neon);
#endif
  // An empty slot falls through to the next narrower one.
  const isa::Table<Fn> no512 = {full.scalar, full.avx2, nullptr};
  EXPECT_EQ(no512.get()(), std::min(active, 1));
}

}  // namespace
}  // namespace hpdr
