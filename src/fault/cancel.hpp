#ifndef HPDR_FAULT_CANCEL_HPP
#define HPDR_FAULT_CANCEL_HPP

/// \file cancel.hpp
/// Cooperative cancellation (DESIGN.md §13). A CancelToken is a handle to a
/// small shared state cell — a sticky reason flag plus an optional deadline
/// on the steady clock. Producers (Session::cancel and the deadline itself)
/// fire the token; consumers poll it at natural work boundaries (pipeline
/// chunk loops, codec block loops, retry backoff) and abort by throwing an
/// Error whose kind carries the reason. An elapsed deadline fires on the
/// first poll after it passes.
///
/// Tokens travel two ways:
///   * explicitly — captured by value and checked via token.check(); and
///   * ambiently — installed thread-locally with CancelScope (mirroring
///     telemetry::TraceScope) so deep layers that never see a JobSpec can
///     still honour the job's deadline via fault::poll_cancel().
///
/// poll_cancel() is cheap enough for per-chunk/per-block call sites: one
/// thread-local load when no token is installed; with a token, an atomic
/// flag load, and the clock is consulted only when a deadline is armed.

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>

#include "core/error.hpp"

namespace hpdr::fault {

enum class CancelReason : std::uint8_t {
  None = 0,
  Deadline = 1,   ///< deadline expired (promoted on poll)
  Cancelled = 2,  ///< explicit cancel() from the caller
};

const char* to_string(CancelReason r);

/// Copyable shared handle; default-constructed tokens are invalid (never
/// fire) so cancellation stays strictly opt-in on hot paths.
class CancelToken {
 public:
  CancelToken() = default;

  /// A fresh, unfired token.
  static CancelToken make();

  bool valid() const noexcept { return state_ != nullptr; }

  /// Request explicit cancellation. The first reason to land wins; firing
  /// an already-fired token is a no-op.
  void cancel() noexcept;

  /// Mark the deadline as expired now, so the token reports Deadline, not
  /// Cancelled (what a non-positive set_deadline_after does).
  void expire() noexcept;

  /// Arm a deadline `seconds` from now on the steady clock. Non-positive
  /// values expire immediately.
  void set_deadline_after(double seconds) noexcept;

  bool has_deadline() const noexcept;

  /// Seconds until the deadline; a large positive value when none is set.
  double remaining_s() const noexcept;

  /// Poll: the sticky reason, promoting an elapsed deadline to
  /// CancelReason::Deadline exactly once. Invalid tokens return None.
  CancelReason fired() const noexcept;

  /// Throw Error(ErrorKind::Deadline|Cancelled) if the token has fired.
  void check() const;

 private:
  struct State {
    std::atomic<std::uint8_t> reason{0};
    /// Steady-clock deadline in ns since epoch; max() = no deadline.
    std::atomic<std::int64_t> deadline_ns{
        std::numeric_limits<std::int64_t>::max()};
  };
  explicit CancelToken(std::shared_ptr<State> s) : state_(std::move(s)) {}
  std::shared_ptr<State> state_;
};

/// The calling thread's ambient token (invalid when none is installed).
CancelToken current_cancel();

/// RAII: install `token` as the calling thread's ambient cancel token for
/// the scope, restoring the previous one on exit. Pipeline chunk tasks
/// re-install the job's token inside pool-worker lambdas exactly like
/// telemetry::TraceScope re-installs the trace context.
class CancelScope {
 public:
  explicit CancelScope(CancelToken token);
  ~CancelScope();
  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

 private:
  CancelToken prev_;
};

/// Cooperative check point: throws via CancelToken::check() when the
/// ambient token has fired; a fast no-op when no token is installed.
void poll_cancel();

/// Non-throwing poll of the ambient token.
bool cancel_pending() noexcept;

}  // namespace hpdr::fault

#endif  // HPDR_FAULT_CANCEL_HPP
