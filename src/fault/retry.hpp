#ifndef HPDR_FAULT_RETRY_HPP
#define HPDR_FAULT_RETRY_HPP

/// \file retry.hpp
/// Retry with exponential backoff for transient faults (DESIGN.md §8).
/// Used by the CLI's file I/O (the fs.write / fs.read fault sites): an
/// operation that throws hpdr::Error is re-attempted up to max_attempts
/// times with deterministic jittered backoff, bounded by a cumulative
/// deadline. Backoff is *accounted, not slept*: retries charge simulated
/// seconds (surfaced through telemetry) instead of stalling tests.

#include <cstdint>
#include <type_traits>
#include <utility>

#include "core/error.hpp"
#include "fault/cancel.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/recorder.hpp"

namespace hpdr::fault {

struct RetryPolicy {
  int max_attempts = 3;         ///< total attempts, including the first
  double base_backoff_s = 1e-3; ///< wait after the first failure
  double multiplier = 2.0;      ///< exponential growth per attempt
  double jitter = 0.1;          ///< ± fraction applied to each wait
  double deadline_s = 60.0;     ///< cap on cumulative backoff
  std::uint64_t seed = 0;       ///< jitter determinism

  /// Backoff after failed attempt number `attempt` (1-based). Deterministic
  /// in (seed, attempt): base · multiplier^(attempt−1) · jitter factor.
  double backoff_s(int attempt) const;
};

/// Run `fn` under `policy`. Retries on hpdr::Error until success, attempt
/// exhaustion, or the backoff deadline; rethrows the last error when
/// retries run out. All attempts/recoveries/exhaustions land in the
/// telemetry registry (`fault.retry.*`).
template <class Fn>
auto with_retry(const RetryPolicy& policy, Fn&& fn) {
  double waited_s = 0.0;  // cumulative simulated backoff
  for (int attempt = 1;; ++attempt) {
    try {
      if constexpr (std::is_void_v<decltype(fn())>) {
        fn();
        if (attempt > 1) telemetry::counter("fault.retry.recovered").add();
        return;
      } else {
        auto result = fn();
        if (attempt > 1) telemetry::counter("fault.retry.recovered").add();
        return result;
      }
    } catch (const Error& e) {
      // Cancellation is not transient: a fired job token means "stop now",
      // so neither the error nor the backoff budget gets another attempt.
      if (is_cancellation(e)) throw;
      if (cancel_pending()) {
        telemetry::counter("fault.retry.aborted.cancel").add();
        telemetry::flight_event(telemetry::EventKind::Retry, "aborted.cancel",
                                static_cast<std::uint64_t>(attempt));
        poll_cancel();  // throws Error(Deadline|Cancelled)
      }
      const double wait = policy.backoff_s(attempt);
      const bool out_of_attempts = attempt >= policy.max_attempts;
      if (out_of_attempts || waited_s + wait > policy.deadline_s) {
        // Attempt- and deadline-exhaustion are different capacity signals
        // (too flaky vs too slow); count them apart, keep the legacy total.
        telemetry::counter("fault.retry.exhausted").add();
        telemetry::counter(out_of_attempts ? "fault.retry.exhausted.attempts"
                                           : "fault.retry.exhausted.deadline")
            .add();
        telemetry::flight_event(telemetry::EventKind::Retry,
                                out_of_attempts ? "exhausted.attempts"
                                                : "exhausted.deadline",
                                static_cast<std::uint64_t>(attempt));
        throw;
      }
      waited_s += wait;
      telemetry::counter("fault.retry.attempts").add();
      telemetry::gauge("fault.retry.backoff_seconds").add(wait);
      telemetry::flight_event(telemetry::EventKind::Retry, "attempt",
                              static_cast<std::uint64_t>(attempt));
    }
  }
}

}  // namespace hpdr::fault

#endif  // HPDR_FAULT_RETRY_HPP
