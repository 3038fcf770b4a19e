#ifndef HPDR_SVC_SCHEDULER_HPP
#define HPDR_SVC_SCHEDULER_HPP

/// \file scheduler.hpp
/// Weighted fair sharing of pool slots among concurrently running jobs
/// (DESIGN.md §10). Every admitted job gets a ShareHandle whose `slots`
/// value the job's runner thread binds to the ThreadPool via ScopedShare;
/// the scheduler recomputes all shares whenever the active set changes, so
/// a job that finishes returns its slots to the survivors immediately.
///
/// The apportionment is max-min-ish: job j gets max(1, floor(P·w_j / Σw))
/// slots of a P-slot pool, where w_j combines the job's priority with its
/// size class. The floor of one slot is the starvation guarantee — a 16 GB
/// job can claim most of the pool but never all of it while a 4 MB job is
/// active, and a job's own runner thread always participates in its
/// batches, so forward progress never depends on winning a pool slot.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace hpdr::svc {

/// Job urgency; scales the fair-share weight.
enum class Priority { Low, Normal, High };
const char* to_string(Priority p);

/// Live share of one admitted job. `slots` is read by the job thread's
/// ScopedShare on every parallel_for; the scheduler stores new values as
/// the active set changes.
struct ShareHandle {
  std::atomic<unsigned> slots{1};
  double weight = 1.0;
  std::uint64_t job_id = 0;
};

class Scheduler {
 public:
  /// `pool_slots` is the budget being divided (normally the thread pool
  /// width). Clamped to >= 1.
  explicit Scheduler(unsigned pool_slots);

  /// Weight for a job of `bytes` at `priority`. Sub-linear in size
  /// (sqrt of MiB, clamped) so a huge job gets more slots than a small one
  /// but not proportionally more — the small job's latency matters too.
  static double weight_for(Priority priority, std::size_t bytes);

  /// Admit a job; returns its live share (already apportioned).
  std::shared_ptr<ShareHandle> admit(std::uint64_t job_id, Priority priority,
                                     std::size_t bytes);
  /// Remove a finished job and re-apportion the survivors.
  void release(const std::shared_ptr<ShareHandle>& h);

  std::size_t active_jobs() const;

 private:
  void reapportion_locked();

  const unsigned pool_slots_;
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<ShareHandle>> active_;
};

}  // namespace hpdr::svc

#endif  // HPDR_SVC_SCHEDULER_HPP
