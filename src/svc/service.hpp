#ifndef HPDR_SVC_SERVICE_HPP
#define HPDR_SVC_SERVICE_HPP

/// \file service.hpp
/// Job-level reduction service (DESIGN.md §10): admits many simultaneous
/// compress/decompress requests and runs them *concurrently* over the one
/// process ThreadPool and the shared arena budget — the serving-layer
/// counterpart of inference servers multiplexing requests over a shared
/// accelerator. Three mechanisms make concurrent jobs profitable instead
/// of mutually destructive:
///
///   * Weighted fair scheduling (scheduler.hpp): each running job binds a
///     ThreadPool ScopedShare, so its chunk fan-out takes only its share of
///     pool slots. A big job cannot starve a small one; a job finishing
///     returns its slots to the survivors immediately.
///   * Pooled session arenas (arena.hpp): a job's staging buffer is leased
///     from its session's size-bucketed free lists under the service-wide
///     byte budget. Jobs queue (svc.queue_wait) instead of OOM-ing when
///     the budget is exhausted.
///   * Per-job fault containment: a job that throws — injected svc.job /
///     cmm.alloc faults or a genuine codec failure — fails alone; its
///     JobResult carries the error and every other job proceeds.
///
/// Determinism guarantee: a service-path compress job produces the
/// byte-identical stream of a direct pipeline::compress call with the same
/// inputs and options, at any concurrency and any share width — the
/// chunk-parallel engine's indexed fault draws and indexed result slots
/// (DESIGN.md §9) carry over unchanged.

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "compressor/compressor.hpp"
#include "fault/cancel.hpp"
#include "pipeline/pipeline.hpp"
#include "svc/arena.hpp"
#include "svc/breaker.hpp"
#include "svc/chunk_cache.hpp"
#include "svc/scheduler.hpp"
#include "telemetry/json.hpp"

namespace hpdr::svc {

enum class JobKind { Compress, Decompress, Progressive };
const char* to_string(JobKind k);

/// One request. `input` is unowned and must stay valid until the job's
/// future resolves (the service stages it into an arena lease before the
/// pipeline touches it).
struct JobSpec {
  JobKind kind = JobKind::Compress;
  std::string codec = "mgard-x";
  Shape shape = Shape::of_rank(1);  ///< tensor shape (both directions)
  DType dtype = DType::F32;
  pipeline::Options opts;
  Priority priority = Priority::Normal;
  std::string device = "serial";  ///< machine::make_device name
  const void* input = nullptr;
  std::size_t input_bytes = 0;  ///< raw tensor (compress) / stream (decompress)
  /// Progressive jobs only: target relative error bound. The session's
  /// reader refines until every chunk's recorded bound is ≤ bound × its
  /// value-range extent; ≤ 0 requests full write-time precision. The first
  /// Progressive job on a session stages the v3 stream into an arena lease
  /// the session *retains*; later jobs with the same stream refine the
  /// held reconstruction in place, fetching only new components (the lease
  /// and the decoded state are reused, not re-staged).
  double bound = 0.0;
  /// Job deadline measured from admission; 0 disables. An expired deadline
  /// cancels the job cooperatively (within one chunk boundary) and
  /// resolves it with error_kind = Deadline. Normal/Low-priority jobs
  /// whose predicted queue wait already exceeds the deadline are shed at
  /// admission with error_kind = Overload instead of queueing doomed work.
  double deadline_s = 0.0;
  /// Opt into the service's dedup ChunkCache (DESIGN.md §14): repeat
  /// compressions of identical chunks skip the codec, hot decompressions
  /// skip codec + checksum verification. The cache is shared across all
  /// sessions and jobs of the service (cross-job dedup) and its entries
  /// lease bytes from the same arena budget as session staging. Output
  /// bytes are identical either way.
  bool use_cache = false;
};

/// Outcome of one job. `output` is the compressed stream (Compress) or the
/// reconstructed tensor (Decompress); empty when !ok.
struct JobResult {
  std::uint64_t id = 0;
  std::uint64_t session = 0;
  /// Request trace id (telemetry::TraceContext): every span and flight
  /// event the job produced carries it; telemetry::trace_timeline(trace_id)
  /// reconstructs the journey.
  std::uint64_t trace_id = 0;
  JobKind kind = JobKind::Compress;
  std::string codec;
  bool ok = false;
  std::string error;
  /// Failure class when !ok (Overload/Deadline/Cancelled/Fault/Internal);
  /// Internal when ok.
  ErrorKind error_kind = ErrorKind::Internal;
  /// Compress completed via lossless kTagRaw passthrough because the
  /// codec's circuit breaker was open — valid, decodable, but uncompressed.
  bool degraded = false;
  std::vector<std::uint8_t> output;
  std::size_t input_bytes = 0;
  std::size_t raw_bytes = 0;      ///< uncompressed tensor bytes
  double queue_wait_s = 0.0;      ///< admission queue (not arena) wait
  double run_s = 0.0;             ///< wall-clock inside the pipeline
  unsigned share_slots = 0;       ///< fair share at admission
  std::size_t corrupt_chunks = 0; ///< Decompress with ChunkRecovery::Skip
  /// Dedup-cache outcome (zero unless JobSpec::use_cache).
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  /// Progressive jobs: payload bytes this job actually fetched (0 when the
  /// session already held the requested precision), the worst relative
  /// bound across chunks after the job, and whether the job refined
  /// session state a previous job created (vs. staging the stream fresh).
  std::size_t bytes_fetched = 0;
  double achieved_bound = 0.0;
  bool refined = false;

  /// Manifest section for this job (svc.* family, DESIGN.md §10).
  telemetry::Value to_json() const;
};

class Service {
 public:
  struct Config {
    /// Runner threads = maximum simultaneously *running* jobs; further
    /// submissions queue. Clamped to >= 1.
    unsigned max_concurrent_jobs = 4;
    /// Global arena budget shared by all sessions (backpressure bound).
    std::size_t arena_budget_bytes = std::size_t{256} << 20;
    /// Pool slots the fair scheduler divides; 0 → current pool width.
    unsigned pool_slots = 0;
    /// Arena backpressure timeout before a queued job fails loudly.
    double lease_timeout_s = 120.0;
    /// Admission queue bound; 0 = unbounded. Submissions beyond it are
    /// shed immediately with error_kind = Overload.
    std::size_t max_queue_depth = 0;
    /// Estimated-wait shedding: reject non-High jobs with a deadline when
    /// the queue_wait p90 already exceeds it (needs a warm histogram).
    bool shed_enabled = true;
    /// Watchdog scan period for runners exceeding their job deadline.
    double watchdog_interval_s = 0.01;
    /// Per-codec circuit breaker policy (breaker.hpp).
    BreakerPolicy breaker;
    /// Stats publisher period; 0 (default) disables the publisher thread.
    /// When > 0 a background thread serializes the whole metrics registry
    /// (telemetry::export_prometheus) every interval — and once more at
    /// shutdown — so a live service can be observed without stopping it.
    double stats_interval_s = 0.0;
    /// Publisher sink: a file path (atomically replaced each publish via
    /// rename) or empty/"-" for stdout.
    std::string stats_path;
  };

  /// A client handle: jobs submitted through one session lease their
  /// staging buffers from that session's arena (warm reuse across the
  /// session's jobs). Copyable. A session may outlive its service: the
  /// weak liveness guard turns submit/cancel on a dead service into a
  /// loud hpdr::Error instead of a use-after-free.
  class Session {
   public:
    std::future<JobResult> submit(JobSpec spec);
    /// Cancel a job submitted to this session's service. Queued jobs
    /// resolve immediately with error_kind = Cancelled; running jobs get
    /// their token fired and stop at the next chunk boundary. Returns
    /// false when the job has already resolved (or was never known).
    bool cancel(std::uint64_t job_id);
    std::uint64_t id() const { return id_; }
    const SessionArena& arena() const { return *arena_; }

   private:
    friend class Service;
    /// Liveness cell owned by the service; `svc` is nulled (under `mu`)
    /// by ~Service after the runners have joined.
    struct Life {
      std::mutex mu;
      Service* svc = nullptr;
    };
    /// Lock the service or throw Error("session outlives its service").
    static Service* live(const std::weak_ptr<Life>& life,
                         std::unique_lock<std::mutex>& lk,
                         std::shared_ptr<Life>& keep);
    std::weak_ptr<Life> life_;
    std::uint64_t id_ = 0;
    std::shared_ptr<SessionArena> arena_;
  };

  Service() : Service(Config{}) {}
  explicit Service(Config cfg);
  ~Service();  ///< drains the queue, then joins the runners

  Session open_session();
  /// Submit through an implicit default session.
  std::future<JobResult> submit(JobSpec spec);

  /// See Session::cancel.
  bool cancel(std::uint64_t job_id);

  /// Block until every submitted job has resolved.
  void drain();

  const ArenaBudget& budget() const { return *budget_; }
  /// The service-wide dedup cache (always constructed; empty until a job
  /// opts in via JobSpec::use_cache).
  const ChunkCache& cache() const { return *cache_; }
  const Scheduler& scheduler() const { return scheduler_; }
  const BreakerRegistry& breakers() const { return breakers_; }
  std::uint64_t completed() const;
  std::uint64_t failed() const;
  /// Jobs rejected at admission (queue bound or predicted-wait shedding).
  std::uint64_t shed() const;
  /// Resolved failures of one class (subset of failed(); shed jobs count
  /// under Overload).
  std::uint64_t failed_by(ErrorKind kind) const;

  /// One immediate stats publish to the configured sink (also what the
  /// publisher thread runs every interval). Safe to call any time.
  void publish_stats();

 private:
  struct Pending {
    JobSpec spec;
    std::promise<JobResult> promise;
    std::shared_ptr<SessionArena> arena;
    fault::CancelToken token;  ///< minted at admission; deadline pre-armed
    std::uint64_t id = 0;
    std::uint64_t session = 0;
    std::uint64_t trace = 0;  ///< minted at admission
    std::chrono::steady_clock::time_point enqueued;
  };
  /// Watchdog view of one running job.
  struct RunningJob {
    fault::CancelToken token;
    bool flagged = false;  ///< watchdog already reported the expiry
  };

  std::future<JobResult> enqueue(JobSpec spec, std::uint64_t session,
                                 std::shared_ptr<SessionArena> arena);
  void runner_loop();
  void publisher_loop();
  void watchdog_loop();
  JobResult run_job(Pending& job);
  /// Skeleton JobResult for jobs that never run (shed / queued-cancel).
  static JobResult stillborn(const Pending& job, ErrorKind kind,
                             std::string error);
  void count_fail_locked(ErrorKind kind);

  Config cfg_;
  std::shared_ptr<ArenaBudget> budget_;
  /// Declared after budget_ so destruction detaches the cache (returning
  /// its leased bytes) while the budget is still alive.
  std::unique_ptr<ChunkCache> cache_;
  Scheduler scheduler_;
  BreakerRegistry breakers_;
  std::shared_ptr<Session::Life> life_;
  Session default_session_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::condition_variable publisher_cv_;  ///< interval sleep + stop wake
  std::condition_variable watchdog_cv_;   ///< scan sleep + stop wake
  std::deque<Pending> queue_;  ///< High priority at the front
  std::map<std::uint64_t, RunningJob> running_jobs_;
  /// Session-held progressive reconstruction state (DESIGN.md §15): the
  /// staged v3 stream (an arena lease the session keeps across jobs) plus
  /// the incremental reader. Keyed by session id; guarded by mu_ for map
  /// access, with a per-state mutex serializing refines on one session.
  struct ProgressiveState;
  std::map<std::uint64_t, std::shared_ptr<ProgressiveState>> progressive_;
  bool stop_ = false;
  unsigned running_ = 0;
  std::uint64_t next_job_ = 0;
  std::uint64_t next_session_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t shed_ = 0;
  std::array<std::uint64_t, 5> failed_by_kind_{};  ///< indexed by ErrorKind
  std::vector<std::thread> runners_;
  std::thread publisher_;
  std::thread watchdog_;
};

}  // namespace hpdr::svc

#endif  // HPDR_SVC_SERVICE_HPP
