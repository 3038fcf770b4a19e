#ifndef HPDR_TELEMETRY_METRICS_HPP
#define HPDR_TELEMETRY_METRICS_HPP

/// \file metrics.hpp
/// Process-wide metrics registry: named counters, gauges, and fixed-bucket
/// histograms that every subsystem (pipeline, CMM, compressor registry,
/// I/O, simulators) reports into. Design constraints:
///
///   * Hot-path updates are single relaxed atomic RMWs — no locks, no
///     allocation. Instrumented code looks up its instrument once (the
///     returned reference is stable for the life of the process) and then
///     only increments.
///   * Telemetry can be disabled globally; a disabled update is one relaxed
///     atomic load and a predictable branch, so leaving instrumentation in
///     hot loops costs nothing measurable.
///   * Snapshots (for manifests) serialize the whole registry to a JSON
///     Value; values are read with relaxed loads, so a snapshot taken while
///     workers are incrementing is approximate per-metric but never torn.
///
/// Naming convention (validated at registration in debug builds, see
/// valid_metric_name): dot-separated lowercase
/// `subsystem.object.action[.unit]`, e.g. `pipeline.compress.chunks`,
/// `cmm.context.hits`, `io.file.bytes_written`. Per-codec instruments
/// put the codec name second: `codec.mgard-x.compress.in_bytes`.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/json.hpp"
#include "telemetry/latency.hpp"

namespace hpdr::telemetry {

/// Global kill switch. Disabled instruments drop updates (reads still see
/// whatever was recorded while enabled). Enabled by default.
bool enabled();
void set_enabled(bool on);

/// Monotonically increasing integer metric.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (!enabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t get() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written (or accumulated) floating-point metric.
class Gauge {
 public:
  void set(double v) {
    if (!enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void add(double v) {
    if (!enabled()) return;
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + v,
                                         std::memory_order_relaxed))
      ;
  }
  double get() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. Bucket i counts observations ≤ bounds[i]; one
/// extra overflow bucket counts the rest. Bounds are fixed at creation so
/// observe() is a branchless-ish scan plus one atomic increment.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const { return bounds_; }
  /// Cumulative count of observations ≤ bounds[i]; index bounds().size()
  /// returns count().
  std::uint64_t bucket_count(std::size_t i) const;
  void reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // size bounds_+1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Exponential bucket bounds helper: {start, start·factor, …} (n bounds).
std::vector<double> exp_buckets(double start, double factor, int n);

/// True iff `name` follows the metric naming convention: 2–6 dot-separated
/// segments, each starting with a lowercase letter and continuing with
/// lowercase letters, digits, '_' or '-'. Debug builds assert this on
/// every registration; release builds skip the check (registration is
/// off the hot path either way, but a misnamed metric is a programming
/// error, not an operational condition).
bool valid_metric_name(std::string_view name);

/// The process-wide registry. Instruments are created on first lookup and
/// live forever; lookups take a mutex (do them once, outside hot loops).
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` applies on first creation only; later lookups return the
  /// existing histogram regardless.
  Histogram& histogram(const std::string& name, std::vector<double> bounds);
  /// Quantile latency histogram (latency.hpp); fixed log-linear buckets,
  /// so no per-instrument configuration.
  LatencyHistogram& latency(const std::string& name);

  /// Zero every instrument (names/buckets persist). Tests and multi-run
  /// benchmark harnesses call this between measurements.
  void reset();

  /// Snapshot as a JSON object keyed by metric name, sorted. Counters emit
  /// integers, gauges doubles, histograms {count,sum,buckets:[{le,count}]},
  /// latency histograms {count,sum,max,p50,p90,p99,p999}.
  Value snapshot() const;

  /// Every registered instrument name, sorted (tests validate the naming
  /// convention over this list).
  std::vector<std::string> names() const;

  /// Prometheus text exposition format covering every registered
  /// instrument (export.cpp). Dots in names become underscores; latency
  /// quantiles export as `<name>_p50` … `<name>_p999` gauges.
  std::string export_prometheus() const;

 private:
  MetricsRegistry() = default;

  void check_name(const std::string& name) const;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> latencies_;
};

/// Shorthands for the common "look up once, keep the reference" pattern.
inline Counter& counter(const std::string& name) {
  return MetricsRegistry::instance().counter(name);
}
inline Gauge& gauge(const std::string& name) {
  return MetricsRegistry::instance().gauge(name);
}
inline Histogram& histogram(const std::string& name,
                            std::vector<double> bounds) {
  return MetricsRegistry::instance().histogram(name, std::move(bounds));
}
inline LatencyHistogram& latency(const std::string& name) {
  return MetricsRegistry::instance().latency(name);
}

}  // namespace hpdr::telemetry

#endif  // HPDR_TELEMETRY_METRICS_HPP
