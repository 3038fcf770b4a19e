#include "core/stats.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace hpdr {
namespace {

/// The sequential fold lo = min(lo, x), hi = max(hi, x) from v[0], run as
/// kLanes independent folds (lane k takes every kLanes-th element) that are
/// then folded into one, so the loop vectorizes at the baseline target. A
/// NaN in v[0] seeds every lane and survives; a later NaN compares false and
/// is skipped, as in the sequential fold. Only a tie between +0 and −0 may
/// resolve to the other zero.
template <class T>
Range<T> range_impl(std::span<const T> v) {
  if (v.empty()) return {};
  constexpr std::size_t kLanes = 16;
  T lo[kLanes], hi[kLanes];
  std::fill_n(lo, kLanes, v[0]);
  std::fill_n(hi, kLanes, v[0]);
  const std::size_t body = v.size() - v.size() % kLanes;
  for (std::size_t i = 0; i < body; i += kLanes)
    for (std::size_t k = 0; k < kLanes; ++k) {
      lo[k] = std::min(lo[k], v[i + k]);
      hi[k] = std::max(hi[k], v[i + k]);
    }
  Range<T> r{v[0], v[0]};
  for (std::size_t k = 0; k < kLanes; ++k) {
    r.lo = std::min(r.lo, lo[k]);
    r.hi = std::max(r.hi, hi[k]);
  }
  for (std::size_t i = body; i < v.size(); ++i) {
    r.lo = std::min(r.lo, v[i]);
    r.hi = std::max(r.hi, v[i]);
  }
  return r;
}

template <class T>
ErrorStats stats_impl(std::span<const T> a, std::span<const T> b) {
  HPDR_REQUIRE(a.size() == b.size(), "size mismatch in error stats");
  ErrorStats s;
  if (a.empty()) return s;
  auto r = range_impl(a);
  s.original_min = static_cast<double>(r.lo);
  s.original_max = static_cast<double>(r.hi);
  double sum_sq = 0.0;
  double max_err = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double e = std::abs(static_cast<double>(a[i]) -
                              static_cast<double>(b[i]));
    max_err = std::max(max_err, e);
    sum_sq += e * e;
  }
  s.max_abs_error = max_err;
  s.mse = sum_sq / static_cast<double>(a.size());
  const double range = s.original_max - s.original_min;
  s.max_rel_error = range > 0 ? max_err / range : max_err;
  if (s.mse > 0 && range > 0)
    s.psnr_db = 20.0 * std::log10(range) - 10.0 * std::log10(s.mse);
  else
    s.psnr_db = std::numeric_limits<double>::infinity();
  return s;
}

}  // namespace

ErrorStats compute_error_stats(std::span<const float> a,
                               std::span<const float> b) {
  return stats_impl(a, b);
}
ErrorStats compute_error_stats(std::span<const double> a,
                               std::span<const double> b) {
  return stats_impl(a, b);
}

Range<float> value_range(std::span<const float> v) { return range_impl(v); }
Range<double> value_range(std::span<const double> v) { return range_impl(v); }

double shannon_entropy_bits(std::span<const std::size_t> histogram) {
  std::size_t total = 0;
  for (std::size_t c : histogram) total += c;
  if (total == 0) return 0.0;
  double h = 0.0;
  for (std::size_t c : histogram) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / static_cast<double>(total);
    h -= p * std::log2(p);
  }
  return h;
}

}  // namespace hpdr
