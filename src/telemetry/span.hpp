#ifndef HPDR_TELEMETRY_SPAN_HPP
#define HPDR_TELEMETRY_SPAN_HPP

/// \file span.hpp
/// RAII wall-clock spans for host-side phases. Where the HDEM `Timeline`
/// records *simulated* device time, spans record what the host actually did
/// and when: scheduling, eager codec execution, container serialization,
/// file writes. Both views merge into one chrome-trace file
/// (write_merged_trace) so a single Perfetto window shows host
/// orchestration above the simulated device engines.
///
/// Spans are cheap (two steady_clock reads and one mutex push on
/// destruction — they mark phases, not per-element work) and honor the
/// global telemetry::enabled() switch.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/hdem.hpp"
#include "telemetry/json.hpp"
#include "telemetry/trace_context.hpp"

namespace hpdr::telemetry {

/// One completed host phase, in microseconds since process start. When a
/// TraceContext was installed at construction the span carries the trace
/// id and its position in the request's span tree; untraced spans keep all
/// three ids at 0.
struct SpanRecord {
  std::string name;
  std::string category;
  std::uint32_t thread = 0;  ///< dense per-thread index, not the OS tid
  double start_us = 0.0;
  double end_us = 0.0;
  std::uint64_t trace_id = 0;     ///< request this span served (0 = none)
  std::uint64_t span_id = 0;      ///< unique per span when traced
  std::uint64_t parent_span = 0;  ///< enclosing span (0 = trace root)
  double duration_us() const { return end_us - start_us; }
};

/// Process-wide log of completed spans.
class SpanLog {
 public:
  static SpanLog& instance();

  void record(SpanRecord r);
  std::vector<SpanRecord> snapshot() const;
  /// All completed spans of one request, sorted by start time.
  std::vector<SpanRecord> for_trace(std::uint64_t trace_id) const;
  std::size_t size() const;
  void clear();

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII scope: records a SpanRecord for its lifetime into SpanLog.
class Span {
 public:
  explicit Span(std::string name, std::string category = "host");
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// End the span now (idempotent; the destructor becomes a no-op).
  void end();

 private:
  SpanRecord rec_;
  bool open_ = false;
  bool scoped_ = false;         ///< installed itself as current span
  TraceContext enclosing_{};    ///< restored when the span ends
};

/// Microseconds since process start (the span clock; monotonic).
double now_us();

/// Dense per-thread index (0, 1, 2, … in first-use order). Shared by
/// spans, the flight recorder, and chrome-trace rows so one thread gets
/// the same id everywhere.
std::uint32_t thread_index();

/// Per-request timeline: every span of `trace_id`, as a JSON object
/// {trace, spans:[{name, category, thread, start_us, dur_us, span,
/// parent}]} sorted by start time — the "what did request X actually do"
/// post-mortem query.
Value trace_timeline(std::uint64_t trace_id);

/// Chrome-trace JSON combining host spans (pid 1, one row per thread) with
/// a simulated HDEM timeline (pid 0, one row per engine, one slice per
/// task of nonzero duration, timestamps in simulated microseconds). Pass
/// nullptr or an empty timeline to emit host spans only. Labels are
/// JSON-escaped; the result parses as a JSON array of events.
std::string merged_chrome_trace(const Timeline* tl,
                                const std::vector<SpanRecord>& spans);

/// Convenience: snapshot the global SpanLog, merge with `tl` (may be
/// nullptr), write to `path`. Throws hpdr::Error on I/O failure.
void write_merged_trace(const Timeline* tl, const std::string& path);

}  // namespace hpdr::telemetry

#endif  // HPDR_TELEMETRY_SPAN_HPP
