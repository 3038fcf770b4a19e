#include "svc/service.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>

#include "core/checksum.hpp"
#include "core/error.hpp"
#include "core/isa.hpp"
#include "core/thread_pool.hpp"
#include "fault/fault.hpp"
#include "machine/device_registry.hpp"
#include "pipeline/progressive.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/span.hpp"
#include "telemetry/trace_context.hpp"

namespace hpdr::svc {
namespace {

struct SvcInstruments {
  telemetry::Counter& submitted = telemetry::counter("svc.jobs.submitted");
  telemetry::Counter& completed = telemetry::counter("svc.jobs.completed");
  telemetry::Counter& failed = telemetry::counter("svc.jobs.failed");
  telemetry::Counter& shed = telemetry::counter("svc.jobs.shed");
  telemetry::Counter& watchdog_fired =
      telemetry::counter("svc.watchdog.fired");
  telemetry::Gauge& running = telemetry::gauge("svc.jobs.running");
  // 1 ms … ~17 min in powers of four.
  telemetry::Histogram& job_seconds = telemetry::histogram(
      "svc.job.seconds", telemetry::exp_buckets(1e-3, 4.0, 10));
  // Serving tail latency (DESIGN.md §12): end-to-end request latency
  // (admission to resolution) and its queue-wait component, as quantile
  // histograms — the p50/p90/p99/p999 the bench and stats publisher
  // surface.
  telemetry::LatencyHistogram& request_latency =
      telemetry::latency("svc.request.latency");
  telemetry::LatencyHistogram& queue_wait =
      telemetry::latency("svc.request.queue_wait");
  telemetry::Counter& publishes = telemetry::counter("svc.stats.publishes");
  // Progressive retrieval (DESIGN.md §15): every Progressive job counts a
  // request; jobs that refine state a previous job staged also count a
  // refine. The histogram buckets the payload bytes each job fetched
  // (1 KiB … ~4 GiB in powers of four) — the bytes-vs-bound curve the
  // progressive bench reports.
  telemetry::Counter& prog_requests =
      telemetry::counter("svc.progressive.requests");
  telemetry::Counter& prog_refines =
      telemetry::counter("svc.progressive.refine");
  telemetry::Histogram& prog_bytes =
      telemetry::histogram("svc.progressive.bytes_fetched",
                           telemetry::exp_buckets(1024.0, 4.0, 12));

  static SvcInstruments& get() {
    static SvcInstruments ins;
    return ins;
  }
};

int rank(Priority p) {
  switch (p) {
    case Priority::High:
      return 0;
    case Priority::Normal:
      return 1;
    case Priority::Low:
      return 2;
  }
  return 1;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Per-failure-class counter: svc.job.fail.<kind>.
telemetry::Counter& fail_counter(ErrorKind kind) {
  switch (kind) {
    case ErrorKind::Overload:
      return telemetry::counter("svc.job.fail.overload");
    case ErrorKind::Deadline:
      return telemetry::counter("svc.job.fail.deadline");
    case ErrorKind::Cancelled:
      return telemetry::counter("svc.job.fail.cancelled");
    case ErrorKind::Fault:
      return telemetry::counter("svc.job.fail.fault");
    case ErrorKind::Internal:
      break;
  }
  return telemetry::counter("svc.job.fail.internal");
}

/// The shedding estimator only speaks once it has seen a real workload.
constexpr std::uint64_t kShedMinSamples = 16;

}  // namespace

const char* to_string(JobKind k) {
  switch (k) {
    case JobKind::Compress:
      return "compress";
    case JobKind::Decompress:
      return "decompress";
    case JobKind::Progressive:
      return "progressive";
  }
  return "compress";
}

telemetry::Value JobResult::to_json() const {
  telemetry::Value v = telemetry::Value::object();
  v.set("id", telemetry::Value(id));
  v.set("session", telemetry::Value(session));
  v.set("trace", telemetry::Value(telemetry::trace_id_hex(trace_id)));
  v.set("kind", telemetry::Value(to_string(kind)));
  v.set("codec", telemetry::Value(codec));
  v.set("ok", telemetry::Value(ok));
  if (!ok) {
    v.set("error", telemetry::Value(error));
    v.set("error_kind", telemetry::Value(to_string(error_kind)));
  }
  if (degraded) v.set("degraded", telemetry::Value(true));
  v.set("input_bytes", telemetry::Value(input_bytes));
  v.set("raw_bytes", telemetry::Value(raw_bytes));
  v.set("output_bytes", telemetry::Value(output.size()));
  v.set("queue_wait_s", telemetry::Value(queue_wait_s));
  v.set("run_s", telemetry::Value(run_s));
  v.set("share_slots", telemetry::Value(share_slots));
  if (corrupt_chunks > 0)
    v.set("corrupt_chunks", telemetry::Value(corrupt_chunks));
  if (cache_hits + cache_misses > 0) {
    v.set("cache_hits", telemetry::Value(cache_hits));
    v.set("cache_misses", telemetry::Value(cache_misses));
  }
  if (kind == JobKind::Progressive) {
    v.set("bytes_fetched", telemetry::Value(bytes_fetched));
    v.set("achieved_bound", telemetry::Value(achieved_bound));
    v.set("refined", telemetry::Value(refined));
  }
  return v;
}

Service::Service(Config cfg)
    : cfg_(cfg),
      budget_(std::make_shared<ArenaBudget>(cfg.arena_budget_bytes)),
      cache_(std::make_unique<ChunkCache>(budget_)),
      scheduler_(cfg.pool_slots > 0 ? cfg.pool_slots
                                    : ThreadPool::instance().concurrency()),
      breakers_(cfg.breaker),
      life_(std::make_shared<Session::Life>()) {
  cfg_.max_concurrent_jobs = std::max(1u, cfg_.max_concurrent_jobs);
  cfg_.watchdog_interval_s = std::max(1e-4, cfg_.watchdog_interval_s);
  // Resolve the SIMD dispatch level up front so the core.isa.level gauge is
  // registered before the first stats/prometheus snapshot, not lazily on
  // the first kernel call.
  isa::level();
  life_->svc = this;
  default_session_ = open_session();
  runners_.reserve(cfg_.max_concurrent_jobs);
  for (unsigned r = 0; r < cfg_.max_concurrent_jobs; ++r)
    runners_.emplace_back([this] { runner_loop(); });
  watchdog_ = std::thread([this] { watchdog_loop(); });
  if (cfg_.stats_interval_s > 0)
    publisher_ = std::thread([this] { publisher_loop(); });
}

Service::~Service() {
  drain();
  {
    std::lock_guard<std::mutex> g(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  publisher_cv_.notify_all();
  watchdog_cv_.notify_all();
  for (auto& t : runners_)
    if (t.joinable()) t.join();
  if (watchdog_.joinable()) watchdog_.join();
  if (publisher_.joinable()) publisher_.join();
  // Sever surviving Session handles last: a submit that raced past the
  // liveness check is serialized by Life::mu against this store, so it
  // either completed against a live service or throws loudly afterwards.
  std::lock_guard<std::mutex> g(life_->mu);
  life_->svc = nullptr;
}

Service::Session Service::open_session() {
  Session s;
  s.life_ = life_;
  s.arena_ = make_arena(budget_);
  std::lock_guard<std::mutex> g(mu_);
  s.id_ = ++next_session_;
  return s;
}

Service* Service::Session::live(const std::weak_ptr<Life>& life,
                                std::unique_lock<std::mutex>& lk,
                                std::shared_ptr<Life>& keep) {
  keep = life.lock();
  HPDR_REQUIRE(keep != nullptr, "session outlives its service");
  lk = std::unique_lock<std::mutex>(keep->mu);
  HPDR_REQUIRE(keep->svc != nullptr, "session outlives its service");
  return keep->svc;
}

std::future<JobResult> Service::Session::submit(JobSpec spec) {
  std::shared_ptr<Life> keep;
  std::unique_lock<std::mutex> lk;
  Service* svc = live(life_, lk, keep);
  return svc->enqueue(std::move(spec), id_, arena_);
}

bool Service::Session::cancel(std::uint64_t job_id) {
  std::shared_ptr<Life> keep;
  std::unique_lock<std::mutex> lk;
  Service* svc = live(life_, lk, keep);
  return svc->cancel(job_id);
}

std::future<JobResult> Service::submit(JobSpec spec) {
  return default_session_.submit(std::move(spec));
}

JobResult Service::stillborn(const Pending& job, ErrorKind kind,
                             std::string error) {
  JobResult r;
  r.id = job.id;
  r.session = job.session;
  r.trace_id = job.trace;
  r.kind = job.spec.kind;
  r.codec = job.spec.codec;
  r.input_bytes = job.spec.input_bytes;
  r.raw_bytes = job.spec.shape.size() * dtype_size(job.spec.dtype);
  r.queue_wait_s = seconds_since(job.enqueued);
  r.ok = false;
  r.error_kind = kind;
  r.error = std::move(error);
  return r;
}

void Service::count_fail_locked(ErrorKind kind) {
  ++failed_;
  ++failed_by_kind_[static_cast<std::size_t>(kind)];
  SvcInstruments::get().failed.add();
  fail_counter(kind).add();
}

std::future<JobResult> Service::enqueue(
    JobSpec spec, std::uint64_t session,
    std::shared_ptr<SessionArena> arena) {
  HPDR_REQUIRE(spec.input != nullptr && spec.input_bytes > 0,
               "job has no input");
  Pending p;
  p.spec = std::move(spec);
  p.arena = std::move(arena);
  p.session = session;
  p.enqueued = std::chrono::steady_clock::now();
  p.token = fault::CancelToken::make();
  if (p.spec.deadline_s > 0) p.token.set_deadline_after(p.spec.deadline_s);
  auto fut = p.promise.get_future();
  p.trace = telemetry::mint_trace_id();
  SvcInstruments::get().submitted.add();
  std::promise<JobResult> shed_promise;
  JobResult shed_result;
  bool was_shed = false;
  {
    std::lock_guard<std::mutex> g(mu_);
    HPDR_REQUIRE(!stop_, "service is shutting down");
    p.id = ++next_job_;
    {
      // Attribute the admit event to the freshly minted trace.
      const telemetry::TraceScope ts({p.trace, 0});
      telemetry::flight_event(telemetry::EventKind::JobAdmit, p.spec.codec,
                              p.id);
    }
    // Admission control: a bounded queue sheds unconditionally; the
    // estimated-wait shed rejects non-High jobs whose deadline is already
    // beaten by the observed queue-wait p90 — the job would only burn
    // queue slots and arena budget to die of Deadline later.
    const char* shed_reason = nullptr;
    if (cfg_.max_queue_depth > 0 && queue_.size() >= cfg_.max_queue_depth) {
      shed_reason = "queue_full";
    } else if (cfg_.shed_enabled && p.spec.deadline_s > 0 &&
               p.spec.priority != Priority::High &&
               (!queue_.empty() || running_ >= cfg_.max_concurrent_jobs)) {
      const auto& qw = telemetry::latency("svc.request.queue_wait");
      if (qw.count() >= kShedMinSamples &&
          qw.quantile(0.90) > p.spec.deadline_s)
        shed_reason = "predicted_wait";
    }
    if (shed_reason != nullptr) {
      ++shed_;
      SvcInstruments::get().shed.add();
      count_fail_locked(ErrorKind::Overload);
      {
        const telemetry::TraceScope ts({p.trace, 0});
        telemetry::flight_event(telemetry::EventKind::Shed, shed_reason,
                                p.id);
      }
      shed_result = stillborn(
          p, ErrorKind::Overload,
          std::string("shed at admission (") + shed_reason + ")");
      shed_promise = std::move(p.promise);
      was_shed = true;
    } else {
      // Priority admission, FIFO within a class: insert before the first
      // queued job of a strictly lower class.
      const int r = rank(p.spec.priority);
      auto it =
          std::find_if(queue_.begin(), queue_.end(), [&](const Pending& q) {
            return rank(q.spec.priority) > r;
          });
      queue_.insert(it, std::move(p));
    }
  }
  if (was_shed) {
    // Resolve outside mu_ so a continuation on the future cannot re-enter
    // the service under its own lock.
    shed_promise.set_value(std::move(shed_result));
  } else {
    work_cv_.notify_one();
  }
  return fut;
}

bool Service::cancel(std::uint64_t job_id) {
  std::promise<JobResult> promise;
  JobResult result;
  bool resolved = false;
  bool found = false;
  {
    std::lock_guard<std::mutex> g(mu_);
    // Still queued: resolve right here, without ever staging or running.
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->id != job_id) continue;
      Pending p = std::move(*it);
      queue_.erase(it);
      p.token.cancel();
      count_fail_locked(ErrorKind::Cancelled);
      {
        const telemetry::TraceScope ts({p.trace, 0});
        telemetry::flight_event(telemetry::EventKind::Cancel,
                                "cancel.queued", p.id);
      }
      result = stillborn(p, ErrorKind::Cancelled,
                         "job cancelled before start");
      promise = std::move(p.promise);
      resolved = found = true;
      break;
    }
    if (!found) {
      const auto it = running_jobs_.find(job_id);
      if (it != running_jobs_.end()) {
        // Running: fire the token; the runner observes it at the next
        // chunk boundary / arena-wait slice and resolves the job itself.
        it->second.token.cancel();
        telemetry::flight_event(telemetry::EventKind::Cancel,
                                "cancel.running", job_id);
        found = true;
      }
    }
  }
  if (resolved) {
    idle_cv_.notify_all();  // the queue may have just become drainable
    promise.set_value(std::move(result));
  }
  return found;
}

void Service::runner_loop() {
  for (;;) {
    Pending job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
      SvcInstruments::get().running.set(static_cast<double>(running_));
      running_jobs_.emplace(job.id, RunningJob{job.token, false});
    }
    JobResult result = run_job(job);
    // Drop the staging-arena reference before any completion signal: a
    // client that sees its future resolve, destroys its Session, and reads
    // budget().committed() must find the arena (and its parked buffers)
    // already released — not racing this thread's end-of-loop destructor.
    job.arena.reset();
    {
      std::lock_guard<std::mutex> g(mu_);
      running_jobs_.erase(job.id);
      --running_;
      SvcInstruments::get().running.set(static_cast<double>(running_));
      if (result.ok) {
        ++completed_;
      } else {
        ++failed_;
        ++failed_by_kind_[static_cast<std::size_t>(result.error_kind)];
      }
    }
    idle_cv_.notify_all();
    job.promise.set_value(std::move(result));
  }
}

void Service::watchdog_loop() {
  const auto interval =
      std::chrono::duration<double>(cfg_.watchdog_interval_s);
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_) {
    watchdog_cv_.wait_for(lk, interval, [&] { return stop_; });
    if (stop_) return;
    for (auto& [id, rj] : running_jobs_) {
      if (rj.flagged) continue;
      // fired() promotes an elapsed deadline to the sticky Deadline
      // reason, so even a runner that never consults the clock (stuck in
      // an arena wait, a straggling kernel) sees the expiry on its next
      // flag poll.
      const auto reason = rj.token.fired();
      if (reason == fault::CancelReason::None) continue;
      rj.flagged = true;
      if (reason == fault::CancelReason::Deadline) {
        SvcInstruments::get().watchdog_fired.add();
        telemetry::flight_event(telemetry::EventKind::Cancel,
                                "watchdog.deadline", id);
      }
    }
  }
}

/// Session-held progressive reconstruction state (DESIGN.md §15). The
/// lease pins the staged v3 stream under the arena budget for as long as
/// the session keeps refining it — the "memory the session pays for its
/// resumable precision". Replaced (lease and all) when a Progressive job
/// arrives with different stream content; released when the service is
/// destroyed.
struct Service::ProgressiveState {
  std::mutex mu;  ///< serializes refines on one session's reader
  std::uint64_t stream_hash = 0;
  std::size_t stream_bytes = 0;
  SessionArena::Lease lease;  ///< staged stream, retained across jobs
  std::unique_ptr<pipeline::ProgressiveReader> reader;
};

JobResult Service::run_job(Pending& job) {
  auto& ins = SvcInstruments::get();
  const JobSpec& spec = job.spec;
  JobResult r;
  r.id = job.id;
  r.session = job.session;
  r.trace_id = job.trace;
  r.kind = spec.kind;
  r.codec = spec.codec;
  r.input_bytes = spec.input_bytes;
  r.raw_bytes = spec.shape.size() * dtype_size(spec.dtype);
  r.queue_wait_s = seconds_since(job.enqueued);
  ins.queue_wait.observe(r.queue_wait_s);

  // The job's trace context for everything the runner thread does from
  // here: the svc.job root span, every pipeline/codec/IO span beneath it
  // (the pipeline re-installs the context inside pool workers), and every
  // flight event.
  const telemetry::TraceScope trace_scope({job.trace, 0});
  // The job's cancel token for everything the runner thread does: arena
  // backpressure waits poll it, and the pipeline re-installs it inside
  // pool workers so chunk/codec loops stop at their next boundary.
  const fault::CancelScope cancel_scope(job.token);
  telemetry::Span job_span("svc.job", "svc");
  telemetry::flight_event(telemetry::EventKind::JobStart, spec.codec, job.id);

  // Fair share for the job's whole run; the runner thread binds it so
  // every parallel_for the pipeline issues below is capped at the share.
  auto share = scheduler_.admit(job.id, spec.priority, r.raw_bytes);
  r.share_slots = share->slots.load(std::memory_order_relaxed);
  const ThreadPool::ScopedShare bind(&share->slots);

  // Circuit breaker verdict before any staging: an open breaker either
  // fails the job fast or (compress, when the policy allows) degrades it
  // to lossless kTagRaw passthrough framing, which needs no codec.
  const auto verdict = breakers_.admit(spec.codec);
  pipeline::Options opts = spec.opts;
  // Cross-job dedup: every opted-in job of every session shares the one
  // service cache (the pipeline still refuses it under force_passthrough
  // or an armed fault plan).
  if (spec.use_cache) opts.cache = cache_.get();
  if (verdict == BreakerRegistry::Decision::Reject) {
    if (cfg_.breaker.degrade && spec.kind == JobKind::Compress) {
      opts.force_passthrough = true;
      r.degraded = true;
      telemetry::counter("svc.breaker." + spec.codec + ".degraded").add();
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  try {
    // A token that fired while the job sat in the queue kills it before
    // any staging — deadline-expired work must not touch the arena.
    fault::poll_cancel();
    if (verdict == BreakerRegistry::Decision::Reject && !r.degraded) {
      telemetry::counter("svc.breaker." + spec.codec + ".fast_fail").add();
      throw Error(ErrorKind::Fault, "circuit breaker open for codec '" +
                                        spec.codec + "'");
    }
    // Poison-job site: one injected job failure must leave every other
    // job — and the service itself — untouched.
    if (fault::should_fire_at("svc.job", job.id))
      throw Error(ErrorKind::Fault, "injected svc.job fault");
    const Device dev = machine::make_device(spec.device);
    auto comp = make_compressor(spec.codec);
    if (spec.kind == JobKind::Progressive) {
      ins.prog_requests.add();
      // Session-held state: the first Progressive job stages the stream
      // into a lease the session retains; an upgrade request on the same
      // stream reuses that lease and the reader's decoded prefix, so the
      // job fetches only the components the tighter bound still needs.
      std::shared_ptr<ProgressiveState> st;
      {
        std::lock_guard<std::mutex> lk(mu_);
        auto& slot = progressive_[job.session];
        if (!slot) slot = std::make_shared<ProgressiveState>();
        st = slot;
      }
      std::lock_guard<std::mutex> st_lk(st->mu);
      const std::uint64_t h = fnv1a64(
          {static_cast<const std::uint8_t*>(spec.input), spec.input_bytes});
      const bool reuse = st->reader && st->stream_hash == h &&
                         st->stream_bytes == spec.input_bytes;
      if (!reuse) {
        st->reader.reset();  // old reader first: it spans the old lease
        st->lease = job.arena->lease(spec.input_bytes, cfg_.lease_timeout_s);
        std::memcpy(st->lease.bytes().data(), spec.input, spec.input_bytes);
        st->stream_hash = h;
        st->stream_bytes = spec.input_bytes;
        pipeline::ProgressiveReader::Options ropts;
        ropts.recovery = spec.opts.recovery;
        if (spec.use_cache) ropts.cache = cache_.get();
        st->reader = std::make_unique<pipeline::ProgressiveReader>(
            std::span<const std::uint8_t>(st->lease.bytes().data(),
                                          spec.input_bytes),
            ropts);
      } else {
        ins.prog_refines.add();
      }
      auto& rd = *st->reader;
      r.refined = reuse;
      r.bytes_fetched = rd.refine(dev, spec.bound);
      ins.prog_bytes.observe(static_cast<double>(r.bytes_fetched));
      r.achieved_bound = rd.achieved_rel_bound();
      r.raw_bytes = rd.shape().size() * dtype_size(rd.dtype());
      r.corrupt_chunks = rd.poisoned_chunks();
      r.cache_hits = rd.cache_hits();
      r.cache_misses = rd.cache_misses();
      const auto cur = rd.data();
      r.output.assign(cur.begin(), cur.end());
    } else {
      // Stage the caller's input through the session arena: the serving
      // layer's pinned-staging model, and the byte pressure the budget
      // meters. One lease per job, taken up front — a single reservation
      // cannot deadlock the backpressure queue.
      auto lease = job.arena->lease(spec.input_bytes, cfg_.lease_timeout_s);
      std::memcpy(lease.bytes().data(), spec.input, spec.input_bytes);
      if (spec.kind == JobKind::Compress) {
        HPDR_REQUIRE(spec.input_bytes == r.raw_bytes,
                     "compress input is " << spec.input_bytes
                                          << " B but shape needs "
                                          << r.raw_bytes);
        auto cr = pipeline::compress(dev, *comp, lease.bytes().data(),
                                     spec.shape, spec.dtype, opts);
        r.output = std::move(cr.stream);
        r.cache_hits = cr.cache_hits;
        r.cache_misses = cr.cache_misses;
      } else {
        r.output.resize(r.raw_bytes);
        auto dr = pipeline::decompress(
            dev, *comp, {lease.bytes().data(), spec.input_bytes},
            r.output.data(), spec.shape, spec.dtype, opts);
        r.corrupt_chunks = dr.corrupt_chunks.size();
        r.cache_hits = dr.cache_hits;
        r.cache_misses = dr.cache_misses;
      }
    }
    r.ok = true;
  } catch (const Error& e) {
    r.ok = false;
    r.error = e.what();
    r.error_kind = e.kind();
    r.output.clear();
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
    r.error_kind = ErrorKind::Internal;
    r.output.clear();
  }
  r.run_s = seconds_since(t0);
  scheduler_.release(share);
  // Feed the breaker only when the codec's health was actually probed:
  // cancellations, deadlines and overload say nothing about the codec,
  // and a degraded (passthrough) run never touched it.
  if (verdict != BreakerRegistry::Decision::Reject) {
    BreakerRegistry::Outcome out;
    if (r.ok)
      out = BreakerRegistry::Outcome::Success;
    else if (r.error_kind == ErrorKind::Fault ||
             r.error_kind == ErrorKind::Internal)
      out = BreakerRegistry::Outcome::Failure;
    else
      out = BreakerRegistry::Outcome::Neutral;
    breakers_.record(spec.codec, out,
                     verdict == BreakerRegistry::Decision::Probe);
  }
  (r.ok ? ins.completed : ins.failed).add();
  if (!r.ok) fail_counter(r.error_kind).add();
  ins.job_seconds.observe(r.run_s);
  // Request latency = queue wait + run, i.e. what the client saw.
  ins.request_latency.observe(seconds_since(job.enqueued));
  job_span.end();
  if (r.ok) {
    telemetry::flight_event(telemetry::EventKind::JobFinish, spec.codec,
                            job.id);
  } else {
    if (r.error_kind == ErrorKind::Deadline ||
        r.error_kind == ErrorKind::Cancelled)
      telemetry::flight_event(telemetry::EventKind::Cancel,
                              to_string(r.error_kind), job.id);
    telemetry::flight_event(telemetry::EventKind::JobFail, r.error, job.id);
  }
  return r;
}

void Service::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [&] { return queue_.empty() && running_ == 0; });
}

void Service::publish_stats() {
  const std::string text = telemetry::export_prometheus();
  if (cfg_.stats_path.empty() || cfg_.stats_path == "-") {
    std::cout << text << std::flush;
  } else {
    // Write-then-rename so a concurrent scraper never reads a torn file.
    const std::string tmp = cfg_.stats_path + ".tmp";
    {
      std::ofstream f(tmp, std::ios::trunc);
      HPDR_REQUIRE(f.good(),
                   "cannot open '" << tmp << "' for stats publishing");
      f << text;
      HPDR_REQUIRE(f.good(), "writing stats to '" << tmp << "' failed");
    }
    HPDR_REQUIRE(std::rename(tmp.c_str(), cfg_.stats_path.c_str()) == 0,
                 "cannot replace stats file '" << cfg_.stats_path << "'");
  }
  SvcInstruments::get().publishes.add();
}

void Service::publisher_loop() {
  const auto interval = std::chrono::duration<double>(cfg_.stats_interval_s);
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    // Wakes early on shutdown; the last iteration publishes a final
    // snapshot so short-lived runs always leave one complete export.
    const bool stopping =
        publisher_cv_.wait_for(lk, interval, [&] { return stop_; });
    lk.unlock();
    publish_stats();
    if (stopping) return;
    lk.lock();
  }
}

std::uint64_t Service::completed() const {
  std::lock_guard<std::mutex> g(mu_);
  return completed_;
}

std::uint64_t Service::failed() const {
  std::lock_guard<std::mutex> g(mu_);
  return failed_;
}

std::uint64_t Service::shed() const {
  std::lock_guard<std::mutex> g(mu_);
  return shed_;
}

std::uint64_t Service::failed_by(ErrorKind kind) const {
  std::lock_guard<std::mutex> g(mu_);
  return failed_by_kind_[static_cast<std::size_t>(kind)];
}

}  // namespace hpdr::svc
