#ifndef HPDR_BENCH_CHECK_HPP
#define HPDR_BENCH_CHECK_HPP

/// Assertion layer for the standalone bench/tool binaries (which do not
/// link gtest). Each failed HPDR_EXPECT_* prints the expression text, the
/// actual values on both sides, and the source location, then increments a
/// process-wide failure counter. Binaries end with
///
///   return hpdr::bench::check_failures();
///
/// so the exit code IS the failure count — CI sees exactly how many gates
/// tripped, and a partial run still reports every failure instead of
/// stopping at the first.

#include <cstdio>
#include <sstream>
#include <string>

namespace hpdr::bench {

inline int& check_failures() {
  static int n = 0;
  return n;
}

namespace detail {

template <typename T>
void print_value(std::ostream& os, const T& v) {
  if constexpr (requires(std::ostream& o, const T& x) { o << x; })
    os << v;
  else
    os << "<" << sizeof(T) << "-byte value>";
}

template <typename A, typename B>
bool check_op(bool ok, const char* a_expr, const char* op, const char* b_expr,
              const A& a, const B& b, const char* file, int line) {
  if (ok) return true;
  ++check_failures();
  std::ostringstream os;
  os << file << ":" << line << ": CHECK failed: " << a_expr << " " << op << " "
     << b_expr << "\n  actual: ";
  print_value(os, a);
  os << " vs ";
  print_value(os, b);
  std::fprintf(stderr, "%s\n", os.str().c_str());
  return false;
}

}  // namespace detail
}  // namespace hpdr::bench

#define HPDR_CHECK_OP_(a, op, b)                                        \
  [&]() -> bool {                                                       \
    const auto& hpdr_a_ = (a);                                          \
    const auto& hpdr_b_ = (b);                                          \
    return ::hpdr::bench::detail::check_op(hpdr_a_ op hpdr_b_, #a, #op, \
                                           #b, hpdr_a_, hpdr_b_,        \
                                           __FILE__, __LINE__);         \
  }()

#define HPDR_EXPECT_EQ(a, b) HPDR_CHECK_OP_(a, ==, b)
#define HPDR_EXPECT_NE(a, b) HPDR_CHECK_OP_(a, !=, b)
#define HPDR_EXPECT_LE(a, b) HPDR_CHECK_OP_(a, <=, b)
#define HPDR_EXPECT_GE(a, b) HPDR_CHECK_OP_(a, >=, b)
#define HPDR_EXPECT_GT(a, b) HPDR_CHECK_OP_(a, >, b)
#define HPDR_EXPECT_TRUE(x)                                                \
  [&]() -> bool {                                                          \
    const bool hpdr_v_ = static_cast<bool>(x);                             \
    return ::hpdr::bench::detail::check_op(hpdr_v_, #x, "==", "true",      \
                                           hpdr_v_, true, __FILE__,        \
                                           __LINE__);                      \
  }()

#endif  // HPDR_BENCH_CHECK_HPP
