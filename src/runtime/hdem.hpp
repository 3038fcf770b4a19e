#ifndef HPDR_RUNTIME_HDEM_HPP
#define HPDR_RUNTIME_HDEM_HPP

/// \file hdem.hpp
/// Host–Device Execution Model (paper §V-A, Fig. 8) and the discrete-event
/// engine that schedules task DAGs against it. The abstract device has three
/// exclusive engines:
///
///   * an H2D DMA engine (host→device copies),
///   * a D2H DMA engine (device→host copies),
///   * a compute engine (one reduction kernel at a time — the paper's
///     restriction (1): kernels are assumed occupancy-optimal, so only one
///     runs concurrently).
///
/// Tasks are submitted to numbered queues (CUDA-stream-like): tasks in one
/// queue run in submission order; tasks in different queues may overlap
/// unless an explicit dependency (Fig. 9's dotted/red edges) says otherwise.
/// Each engine services its tasks in *submission order* — exactly the
/// property the paper's launch-order-reversal optimization exploits.
///
/// The simulator only models time. The pipeline runs the real codecs
/// eagerly on the host and then bills their DAG here, so its output is
/// bit-real while the clock models the GPU. This is the core of the SimGpu
/// substitution (DESIGN.md §1); host devices bill no DAG at all.

#include <cstdint>
#include <string>
#include <vector>

#include "core/error.hpp"

namespace hpdr {

/// The three exclusive engines of the HDEM device (Fig. 8).
enum class EngineId : int { H2D = 0, D2H = 1, Compute = 2 };
inline constexpr int kNumEngines = 3;

const char* to_string(EngineId e);

/// Completed-schedule record for one task.
struct TaskRecord {
  std::uint32_t id = 0;
  std::string label;
  EngineId engine = EngineId::Compute;
  std::uint32_t queue = 0;
  double start = 0.0;    ///< simulated seconds
  double end = 0.0;
  double duration() const { return end - start; }
};

/// The result of running a task DAG: per-task spans plus derived metrics.
struct Timeline {
  std::vector<TaskRecord> tasks;

  /// Completion time of the last task.
  double makespan() const;

  /// Total busy time of one engine.
  double engine_busy(EngineId e) const;

  /// The paper's overlap ratio (§V-C):
  ///   overlapped H2D+D2H time / total H2D+D2H time,
  /// where a copy instant is "overlapped" if any other engine is busy at
  /// that instant.
  double overlap_ratio() const;
};

/// Discrete-event HDEM device. Typical pipeline use creates one simulator,
/// submits the whole DAG, then calls run() once.
class HdemSimulator {
 public:
  /// `num_queues` mirrors the paper's three-deep pipeline (Little's-law
  /// minimum depth, §V-B); other depths are allowed for ablations.
  explicit HdemSimulator(int num_queues = 3);

  /// Submit a task.
  ///   queue      — pipeline queue index (FIFO order within a queue)
  ///   engine     — which exclusive engine the task occupies
  ///   seconds    — simulated duration
  ///   extra_deps — ids of tasks that must finish first (Fig. 9 edges)
  /// Returns the task id for use in later dependencies.
  std::uint32_t submit(std::uint32_t queue, EngineId engine,
                       std::string label, double seconds,
                       std::vector<std::uint32_t> extra_deps = {});

  /// Schedule all submitted tasks and return the simulated timeline. The
  /// simulator is reusable: submissions after run() start a fresh DAG.
  Timeline run();

 private:
  struct Pending {
    std::string label;
    EngineId engine;
    std::uint32_t queue;
    double seconds;
    std::vector<std::uint32_t> deps;  // includes same-queue predecessor
  };
  int num_queues_;
  std::vector<Pending> tasks_;
  std::vector<std::int64_t> queue_tail_;  // last task id per queue (-1 none)
};

}  // namespace hpdr

#endif  // HPDR_RUNTIME_HDEM_HPP
