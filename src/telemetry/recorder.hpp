#ifndef HPDR_TELEMETRY_RECORDER_HPP
#define HPDR_TELEMETRY_RECORDER_HPP

/// \file recorder.hpp
/// Flight recorder: a fixed-size, lock-free ring of recent structured
/// events (job lifecycle, fault fires, retries, arena evictions,
/// backpressure stalls). It is always on but costs only a handful of
/// relaxed atomic stores per event, because nothing is formatted or
/// allocated at record time — post-mortem cost is paid only when a drain
/// actually happens.
///
/// Concurrency model: writers hash their dense thread index onto one of
/// `kStripes` independent rings, each with its own monotonically
/// increasing write cursor (fetch_add — the "per-thread write cursors" of
/// DESIGN.md §12). Every slot field is an atomic written with relaxed
/// stores, bracketed by a per-slot sequence number: writers invalidate
/// (seq ← 0, release), fill the payload, then publish (seq ← cursor+1,
/// release). Readers load seq (acquire), copy the payload, and re-check
/// seq — a mismatch means a concurrent overwrite and the slot is
/// discarded. No locks, no torn reads, TSan-clean.
///
/// Drain policy: the recorder flags itself drain-worthy when a
/// failure-class event (JobFail, FaultFire, Retry, Cancel, Shed,
/// BreakerTrip) is recorded;
/// RunManifest::to_json consults should_drain() and embeds the event log
/// automatically, so a failed or fault-recovered run carries its own
/// post-mortem without any logging in the steady state.

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/json.hpp"

namespace hpdr::telemetry {

enum class EventKind : std::uint8_t {
  JobAdmit = 0,
  JobStart,
  JobFinish,
  JobFail,
  FaultFire,
  Retry,
  Eviction,
  BackpressureStall,
  Cancel,          ///< token fired: explicit cancel / deadline
  Shed,            ///< admission control rejected a job before staging
  BreakerTrip,     ///< per-codec circuit breaker closed -> open
  BreakerProbe,    ///< half-open probe dispatched
  BreakerRestore,  ///< probe succeeded, breaker closed again
};

const char* to_string(EventKind k);

/// One drained event. `detail` is a short site/reason string (truncated to
/// kDetailChars at record time); `arg` is event-specific (job id, bytes,
/// attempt number).
struct FlightEvent {
  double t_us = 0.0;
  std::uint64_t trace_id = 0;
  std::uint64_t arg = 0;
  std::uint32_t thread = 0;
  EventKind kind = EventKind::JobAdmit;
  std::string detail;
};

class FlightRecorder {
 public:
  static constexpr std::size_t kStripes = 8;
  static constexpr std::size_t kSlotsPerStripe = 512;
  static constexpr std::size_t kDetailChars = 47;  // 6×8 bytes, NUL-padded

  static FlightRecorder& instance();

  /// Record an event attributed to the calling thread's current trace.
  /// Lock-free; honors telemetry::enabled().
  void record(EventKind kind, std::string_view detail, std::uint64_t arg = 0);

  /// True once a failure-class event (JobFail/FaultFire/Retry/Cancel/
  /// Shed/BreakerTrip) has been recorded since the last clear() — the
  /// manifest drain trigger.
  bool should_drain() const;

  /// Copy out all valid events, oldest first (by timestamp). Slots being
  /// concurrently overwritten are skipped, never torn.
  std::vector<FlightEvent> snapshot() const;

  /// snapshot() as a JSON array of {t_us, kind, trace, thread, arg,
  /// detail} objects, plus drop accounting.
  Value snapshot_json() const;

  void clear();

 private:
  FlightRecorder() = default;

  struct Slot {
    std::atomic<std::uint64_t> seq{0};  // 0 = empty/invalid
    std::atomic<std::uint64_t> t_us_bits{0};
    std::atomic<std::uint64_t> trace_id{0};
    std::atomic<std::uint64_t> arg{0};
    std::atomic<std::uint64_t> kind_thread{0};
    std::array<std::atomic<std::uint64_t>, 6> detail{};
  };
  struct Stripe {
    std::atomic<std::uint64_t> cursor{0};
    std::array<Slot, kSlotsPerStripe> slots{};
  };

  std::array<Stripe, kStripes> stripes_{};
  std::atomic<bool> drain_{false};
  std::atomic<std::uint64_t> recorded_{0};
};

/// Shorthand mirroring telemetry::counter()/gauge().
inline void flight_event(EventKind kind, std::string_view detail,
                         std::uint64_t arg = 0) {
  FlightRecorder::instance().record(kind, detail, arg);
}

}  // namespace hpdr::telemetry

#endif  // HPDR_TELEMETRY_RECORDER_HPP
