// Deadline-aware serving (DESIGN.md §13): cooperative cancellation tokens,
// cancel-aware retry/arena waits, admission-control shedding, per-codec
// circuit breakers, the session liveness guard, and the seeded chaos
// schedule. The load-bearing tests are the service-level ones: a deadline
// that expires mid-encode must resolve as Deadline within the run (not
// wedge), release every lease and share, and leave concurrent jobs
// byte-identical to the direct pipeline path.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "hpdr.hpp"

namespace hpdr {
namespace {

pipeline::Options fixed_opts() {
  pipeline::Options opts;
  opts.mode = pipeline::Mode::Fixed;
  opts.fixed_chunk_bytes = 16 << 10;
  opts.param = 1e-3;
  return opts;
}

/// Big enough that a fixed-chunk encode takes well past the deadlines the
/// tests arm, so cancellation lands mid-encode: six stacked copies of one
/// 160x96x96 nyx field (35 MiB of f32). A 4-thread mgard-x encode of one
/// copy takes 8-28 ms on a shared 4-vCPU x86 host, too close to a 20 ms
/// deadline; the stack takes several times that. Copies keep generation
/// at one field's cost.
data::Dataset slow_dataset() {
  constexpr std::size_t kCopies = 6;
  Shape one = Shape::of_rank(3);
  one[0] = 160;
  one[1] = one[2] = 96;
  const auto field = data::nyx_density(one, 7);
  const std::size_t copy_bytes = field.size() * sizeof(float);
  data::Dataset ds;
  ds.name = "blocker";
  ds.shape = one;
  ds.shape[0] *= kCopies;
  ds.dtype = DType::F32;
  ds.bytes.resize(kCopies * copy_bytes);
  for (std::size_t c = 0; c < kCopies; ++c)
    std::memcpy(ds.bytes.data() + c * copy_bytes, field.data(), copy_bytes);
  return ds;
}

svc::JobSpec compress_spec(const data::Dataset& ds, const std::string& codec,
                           svc::Priority prio = svc::Priority::Normal) {
  svc::JobSpec spec;
  spec.codec = codec;
  spec.shape = ds.shape;
  spec.dtype = ds.dtype;
  spec.opts = fixed_opts();
  spec.priority = prio;
  spec.input = ds.data();
  spec.input_bytes = ds.size_bytes();
  return spec;
}

class SvcCancelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::Injector::instance().disarm();
    ThreadPool::instance().resize(4);
    // The shedding estimator reads this global histogram; start each test
    // from a cold one so no test inherits another's queue-wait tail.
    telemetry::latency("svc.request.queue_wait").reset();
  }
  void TearDown() override {
    fault::Injector::instance().disarm();
    telemetry::latency("svc.request.queue_wait").reset();
    ThreadPool::instance().resize(ThreadPool::default_threads());
  }
};

// --- CancelToken ---------------------------------------------------------

TEST(CancelToken, DefaultTokenIsInertEverywhere) {
  fault::CancelToken tok;
  EXPECT_FALSE(tok.valid());
  EXPECT_EQ(tok.fired(), fault::CancelReason::None);
  EXPECT_NO_THROW(tok.check());
  tok.cancel();  // no-op, not a crash
  EXPECT_EQ(tok.fired(), fault::CancelReason::None);
  // No ambient token installed: the hot-path poll is a no-op too.
  EXPECT_FALSE(fault::current_cancel().valid());
  EXPECT_NO_THROW(fault::poll_cancel());
  EXPECT_FALSE(fault::cancel_pending());
}

TEST(CancelToken, FirstReasonWinsAndIsSticky) {
  auto tok = fault::CancelToken::make();
  ASSERT_TRUE(tok.valid());
  EXPECT_EQ(tok.fired(), fault::CancelReason::None);
  tok.cancel();
  EXPECT_EQ(tok.fired(), fault::CancelReason::Cancelled);
  tok.expire();  // late deadline loses to the explicit cancel
  EXPECT_EQ(tok.fired(), fault::CancelReason::Cancelled);
  try {
    tok.check();
    FAIL() << "fired token must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Cancelled);
    EXPECT_TRUE(is_cancellation(e));
  }
}

TEST(CancelToken, ElapsedDeadlinePromotesToDeadline) {
  auto tok = fault::CancelToken::make();
  EXPECT_FALSE(tok.has_deadline());
  tok.set_deadline_after(60.0);
  EXPECT_TRUE(tok.has_deadline());
  EXPECT_GT(tok.remaining_s(), 0.0);
  EXPECT_EQ(tok.fired(), fault::CancelReason::None);

  auto doomed = fault::CancelToken::make();
  doomed.set_deadline_after(0.0);  // non-positive: expires immediately
  EXPECT_EQ(doomed.fired(), fault::CancelReason::Deadline);
  try {
    doomed.check();
    FAIL() << "expired token must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Deadline);
  }
}

TEST(CancelToken, CopiesShareOneStateCell) {
  auto tok = fault::CancelToken::make();
  fault::CancelToken copy = tok;
  tok.cancel();
  EXPECT_EQ(copy.fired(), fault::CancelReason::Cancelled);
}

TEST(CancelToken, ScopeInstallsAmbientTokenAndRestores) {
  EXPECT_FALSE(fault::current_cancel().valid());
  auto outer = fault::CancelToken::make();
  {
    const fault::CancelScope a(outer);
    EXPECT_TRUE(fault::current_cancel().valid());
    auto inner = fault::CancelToken::make();
    inner.cancel();
    {
      const fault::CancelScope b(inner);
      EXPECT_TRUE(fault::cancel_pending());
      EXPECT_THROW(fault::poll_cancel(), Error);
    }
    // Inner scope gone: the outer (unfired) token is ambient again.
    EXPECT_FALSE(fault::cancel_pending());
    EXPECT_NO_THROW(fault::poll_cancel());
  }
  EXPECT_FALSE(fault::current_cancel().valid());
}

// --- Retry under cancellation -------------------------------------------

TEST(RetryCancel, CancelledTokenAbortsBackoffAfterOneAttempt) {
  auto tok = fault::CancelToken::make();
  const fault::CancelScope scope(tok);
  tok.cancel();
  const auto aborted0 =
      telemetry::counter("fault.retry.aborted.cancel").get();
  const auto attempts0 = telemetry::counter("fault.retry.attempts").get();
  const double backoff0 =
      telemetry::gauge("fault.retry.backoff_seconds").get();
  fault::RetryPolicy policy;
  policy.max_attempts = 5;
  int calls = 0;
  try {
    fault::with_retry(policy, [&] {
      ++calls;
      throw Error(ErrorKind::Internal, "transient");
    });
    FAIL() << "must rethrow as cancellation";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Cancelled);
  }
  // Cancellation beats the retry budget: one attempt, zero backoff.
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(telemetry::counter("fault.retry.attempts").get(), attempts0);
  EXPECT_EQ(telemetry::gauge("fault.retry.backoff_seconds").get(), backoff0);
  EXPECT_EQ(telemetry::counter("fault.retry.aborted.cancel").get(),
            aborted0 + 1);
}

TEST(RetryCancel, CancellationErrorsAreNeverRetried) {
  fault::RetryPolicy policy;
  policy.max_attempts = 5;
  int calls = 0;
  try {
    fault::with_retry(policy, [&] {
      ++calls;
      throw Error(ErrorKind::Deadline, "job deadline exceeded");
    });
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Deadline);
  }
  EXPECT_EQ(calls, 1);
}

TEST(RetryCancel, ExhaustionCountersSplitAttemptsFromDeadline) {
  const auto att0 =
      telemetry::counter("fault.retry.exhausted.attempts").get();
  const auto dl0 =
      telemetry::counter("fault.retry.exhausted.deadline").get();

  fault::RetryPolicy by_attempts;
  by_attempts.max_attempts = 2;
  EXPECT_THROW(
      fault::with_retry(by_attempts,
                        [] { throw Error(ErrorKind::Internal, "flaky"); }),
      Error);
  EXPECT_EQ(telemetry::counter("fault.retry.exhausted.attempts").get(),
            att0 + 1);
  EXPECT_EQ(telemetry::counter("fault.retry.exhausted.deadline").get(), dl0);

  fault::RetryPolicy by_deadline;
  by_deadline.max_attempts = 100;
  by_deadline.base_backoff_s = 1.0;
  by_deadline.deadline_s = 0.5;  // first backoff already blows the budget
  EXPECT_THROW(
      fault::with_retry(by_deadline,
                        [] { throw Error(ErrorKind::Internal, "slow"); }),
      Error);
  EXPECT_EQ(telemetry::counter("fault.retry.exhausted.attempts").get(),
            att0 + 1);
  EXPECT_EQ(telemetry::counter("fault.retry.exhausted.deadline").get(),
            dl0 + 1);
}

// --- Arena waits under cancellation -------------------------------------

TEST(ArenaCancel, BackpressureTimeoutIsOverloadKind) {
  auto budget = std::make_shared<svc::ArenaBudget>(std::size_t{64} << 10);
  auto arena = svc::make_arena(budget);
  auto held = arena->lease(60000);  // the whole budget
  try {
    arena->lease(60000, /*timeout_s=*/0.05);
    FAIL() << "exhausted budget must time out";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Overload);
  }
}

TEST(ArenaCancel, AmbientDeadlineAbortsBackpressureWaitEarly) {
  auto budget = std::make_shared<svc::ArenaBudget>(std::size_t{64} << 10);
  auto arena = svc::make_arena(budget);
  auto held = arena->lease(60000);
  auto tok = fault::CancelToken::make();
  tok.set_deadline_after(0.02);
  const fault::CancelScope scope(tok);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    // The lease timeout alone would block for 10 s; the fired job token
    // must cut the wait at the next 50 ms poll slice.
    arena->lease(60000, /*timeout_s=*/10.0);
    FAIL() << "cancelled waiter must abort";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Deadline);
  }
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(waited, 5.0);
}

// --- Service: deadlines, cancel, shedding -------------------------------

TEST_F(SvcCancelTest, DeadlineMidEncodeResolvesDeadlineAndLeaksNothing) {
  const auto blocker = slow_dataset();
  const auto tiny = data::make("nyx", data::Size::Tiny);
  const Device dev = machine::make_device("serial");
  auto comp = make_compressor("zfp-x");
  const auto direct = pipeline::compress(dev, *comp, tiny.data(), tiny.shape,
                                         tiny.dtype, fixed_opts())
                          .stream;

  svc::Service::Config cfg;
  cfg.max_concurrent_jobs = 2;
  svc::Service service(cfg);
  {
    auto sess = service.open_session();
    auto doomed_spec = compress_spec(blocker, "mgard-x");
    doomed_spec.deadline_s = 0.02;  // far shorter than the encode
    auto doomed = sess.submit(std::move(doomed_spec));
    auto fine = sess.submit(compress_spec(tiny, "zfp-x"));

    const auto rd = doomed.get();
    EXPECT_FALSE(rd.ok);
    EXPECT_EQ(rd.error_kind, ErrorKind::Deadline) << rd.error;
    EXPECT_TRUE(rd.output.empty());

    // The doomed job's fair share and lease are gone; the concurrent job
    // is untouched — byte-identical to the direct pipeline path.
    const auto rf = fine.get();
    ASSERT_TRUE(rf.ok) << rf.error;
    EXPECT_EQ(rf.output, direct);

    service.drain();
    EXPECT_EQ(service.scheduler().active_jobs(), 0u);
    EXPECT_EQ(service.failed_by(ErrorKind::Deadline), 1u);
    EXPECT_EQ(service.completed(), 1u);
  }
  // Session handle destroyed after drain: every staged byte (including the
  // doomed job's lease, parked on cancel) must return to the budget.
  EXPECT_EQ(service.budget().committed(), 0u);
}

TEST_F(SvcCancelTest, ExplicitCancelOfQueuedJobResolvesWithoutStaging) {
  const auto blocker = slow_dataset();
  const auto tiny = data::make("nyx", data::Size::Tiny);
  svc::Service::Config cfg;
  cfg.max_concurrent_jobs = 1;
  svc::Service service(cfg);
  auto busy_sess = service.open_session();
  auto victim_sess = service.open_session();

  auto busy = busy_sess.submit(compress_spec(blocker, "mgard-x"));
  auto victim = victim_sess.submit(compress_spec(tiny, "zfp-x"));
  // Submission order fixes the ids: the blocker is 1, the victim 2.
  EXPECT_TRUE(victim_sess.cancel(2));
  EXPECT_FALSE(service.cancel(999));  // unknown id

  const auto rv = victim.get();
  EXPECT_FALSE(rv.ok);
  EXPECT_EQ(rv.error_kind, ErrorKind::Cancelled) << rv.error;
  // A queued cancel resolves without ever touching the victim's arena.
  EXPECT_EQ(victim_sess.arena().misses(), 0u);
  EXPECT_EQ(victim_sess.arena().hits(), 0u);

  ASSERT_TRUE(busy.get().ok);
  service.drain();
  EXPECT_EQ(service.failed_by(ErrorKind::Cancelled), 1u);
}

TEST_F(SvcCancelTest, PredictedWaitShedsDoomedJobsAtAdmission) {
  const auto blocker = slow_dataset();
  const auto tiny = data::make("nyx", data::Size::Tiny);
  // Warm the estimator: the observed queue-wait p90 is ~10 s, so any
  // Normal job with a sub-second deadline is doomed on arrival.
  auto& qw = telemetry::latency("svc.request.queue_wait");
  for (int i = 0; i < 32; ++i) qw.observe(10.0);

  svc::Service::Config cfg;
  cfg.max_concurrent_jobs = 1;
  svc::Service service(cfg);
  auto busy_sess = service.open_session();
  auto shed_sess = service.open_session();
  auto busy = busy_sess.submit(compress_spec(blocker, "mgard-x"));

  auto shed_spec = compress_spec(tiny, "zfp-x");
  shed_spec.deadline_s = 0.05;
  auto shed = shed_sess.submit(std::move(shed_spec));
  const auto rs = shed.get();  // resolves immediately: never queued or run
  EXPECT_FALSE(rs.ok);
  EXPECT_EQ(rs.error_kind, ErrorKind::Overload) << rs.error;
  EXPECT_NE(rs.error.find("predicted_wait"), std::string::npos) << rs.error;
  EXPECT_EQ(shed_sess.arena().misses(), 0u);  // input was never staged
  EXPECT_EQ(service.shed(), 1u);
  EXPECT_EQ(service.failed_by(ErrorKind::Overload), 1u);

  // High priority is exempt from predicted-wait shedding: latency-critical
  // callers get to try even when the estimator is pessimistic.
  auto high_spec = compress_spec(tiny, "zfp-x", svc::Priority::High);
  high_spec.deadline_s = 30.0;
  auto high = service.submit(std::move(high_spec));
  EXPECT_TRUE(high.get().ok);

  ASSERT_TRUE(busy.get().ok);
}

TEST_F(SvcCancelTest, BoundedQueueShedsOverflowAsOverload) {
  const auto blocker = slow_dataset();
  const auto tiny = data::make("nyx", data::Size::Tiny);
  svc::Service::Config cfg;
  cfg.max_concurrent_jobs = 1;
  cfg.max_queue_depth = 1;
  svc::Service service(cfg);
  auto busy = service.submit(compress_spec(blocker, "mgard-x"));
  // Wait until the runner owns the blocker so the next submission queues
  // instead of racing it for the runner slot.
  while (telemetry::gauge("svc.jobs.running").get() < 1.0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  auto queued = service.submit(compress_spec(tiny, "zfp-x"));
  auto overflow = service.submit(compress_spec(tiny, "zfp-x"));
  const auto ro = overflow.get();
  EXPECT_FALSE(ro.ok);
  EXPECT_EQ(ro.error_kind, ErrorKind::Overload) << ro.error;
  EXPECT_NE(ro.error.find("queue_full"), std::string::npos) << ro.error;
  EXPECT_TRUE(queued.get().ok);
  EXPECT_TRUE(busy.get().ok);
  EXPECT_EQ(service.shed(), 1u);
}

// --- Service: per-codec circuit breakers --------------------------------

TEST_F(SvcCancelTest, BreakerTripsHalfOpensAndClosesDeterministically) {
  const auto tiny = data::make("nyx", data::Size::Tiny);
  // Exactly jobs 1 and 2 fault (the indexed every=1 trigger fires while
  // id + 1 <= count); everything after runs clean, so the trip and the
  // probe are scripted.
  fault::Injector::instance().configure("svc.job:every=1,count=3", 0);

  svc::Service::Config cfg;
  cfg.max_concurrent_jobs = 1;  // sequential: transitions are deterministic
  cfg.breaker.window = 4;
  cfg.breaker.trip_failures = 2;
  cfg.breaker.cooldown_s = 0.05;
  svc::Service service(cfg);
  using State = svc::BreakerRegistry::State;

  const auto r1 = service.submit(compress_spec(tiny, "zfp-x")).get();
  EXPECT_FALSE(r1.ok);
  EXPECT_EQ(r1.error_kind, ErrorKind::Fault);
  EXPECT_EQ(service.breakers().state("zfp-x"), State::Closed);

  const auto r2 = service.submit(compress_spec(tiny, "zfp-x")).get();
  EXPECT_FALSE(r2.ok);
  EXPECT_EQ(service.breakers().state("zfp-x"), State::Open);
  EXPECT_EQ(service.breakers().trips("zfp-x"), 1u);

  // Open + fail-fast policy: rejected before staging, error names the
  // breaker, and the rejection does not feed the window.
  const auto r3 = service.submit(compress_spec(tiny, "zfp-x")).get();
  EXPECT_FALSE(r3.ok);
  EXPECT_EQ(r3.error_kind, ErrorKind::Fault);
  EXPECT_NE(r3.error.find("circuit breaker"), std::string::npos) << r3.error;
  EXPECT_EQ(service.breakers().state("zfp-x"), State::Open);

  // After the cooldown the single half-open probe runs clean (the plan is
  // spent) and restores the breaker.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  const auto r4 = service.submit(compress_spec(tiny, "zfp-x")).get();
  EXPECT_TRUE(r4.ok) << r4.error;
  EXPECT_EQ(service.breakers().state("zfp-x"), State::Closed);
  EXPECT_EQ(service.breakers().trips("zfp-x"), 1u);

  // Manifest surface: the registry serializes per-codec state.
  const auto json = telemetry::dump(service.breakers().to_json());
  EXPECT_NE(json.find("zfp-x"), std::string::npos) << json;
  EXPECT_NE(json.find("closed"), std::string::npos) << json;
}

TEST_F(SvcCancelTest, OpenBreakerDegradesCompressToDecodablePassthrough) {
  const auto tiny = data::make("nyx", data::Size::Tiny);
  fault::Injector::instance().configure("svc.job:every=1,count=3", 0);
  svc::Service::Config cfg;
  cfg.max_concurrent_jobs = 1;
  cfg.breaker.window = 4;
  cfg.breaker.trip_failures = 2;
  cfg.breaker.cooldown_s = 60.0;  // stays open for the whole test
  cfg.breaker.degrade = true;
  svc::Service service(cfg);

  EXPECT_FALSE(service.submit(compress_spec(tiny, "zfp-x")).get().ok);
  EXPECT_FALSE(service.submit(compress_spec(tiny, "zfp-x")).get().ok);
  ASSERT_EQ(service.breakers().state("zfp-x"),
            svc::BreakerRegistry::State::Open);

  // Degrade mode: the job completes as lossless kTagRaw passthrough —
  // bigger than a codec stream, but valid framing any decoder accepts.
  const auto r = service.submit(compress_spec(tiny, "zfp-x")).get();
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.degraded);
  const Device dev = machine::make_device("serial");
  auto comp = make_compressor("zfp-x");
  std::vector<std::uint8_t> back(tiny.size_bytes());
  pipeline::decompress(dev, *comp, {r.output.data(), r.output.size()},
                       back.data(), tiny.shape, tiny.dtype, fixed_opts());
  EXPECT_EQ(back, tiny.bytes);
}

// --- Session liveness guard ---------------------------------------------

TEST_F(SvcCancelTest, SessionOutlivingServiceThrowsInsteadOfUaf) {
  const auto tiny = data::make("nyx", data::Size::Tiny);
  svc::Service::Session orphan;
  {
    svc::Service service;
    orphan = service.open_session();
    // Sanity: the session works while the service lives.
    EXPECT_TRUE(orphan.submit(compress_spec(tiny, "zfp-x")).get().ok);
  }
  EXPECT_THROW(orphan.submit(compress_spec(tiny, "zfp-x")), Error);
  EXPECT_THROW(orphan.cancel(1), Error);
}

// --- Chaos schedule ------------------------------------------------------

TEST(ChaosSchedule, DeterministicInSeedAndHorizon) {
  const auto a = fault::ChaosSchedule::generate(42, 5.0);
  const auto b = fault::ChaosSchedule::generate(42, 5.0);
  ASSERT_FALSE(a.events().empty());
  ASSERT_EQ(a.events().size(), b.events().size());
  EXPECT_EQ(telemetry::dump(a.to_json()), telemetry::dump(b.to_json()));
  // A different seed reshuffles the timeline.
  const auto c = fault::ChaosSchedule::generate(43, 5.0);
  EXPECT_NE(telemetry::dump(a.to_json()), telemetry::dump(c.to_json()));

  double prev = 0.0;
  for (const auto& ev : a.events()) {
    EXPECT_GE(ev.t_s, prev);
    prev = ev.t_s;
    // Every generated plan must parse under the injector grammar.
    if (ev.kind == fault::ChaosEvent::Kind::ArmFaults) {
      EXPECT_NO_THROW(fault::FaultPlan::parse(ev.plan)) << ev.plan;
    }
  }
  // The schedule always ends disarmed, at the horizon.
  EXPECT_EQ(a.events().back().kind, fault::ChaosEvent::Kind::Disarm);
  EXPECT_DOUBLE_EQ(a.events().back().t_s, 5.0);
}

TEST_F(SvcCancelTest, MiniChaosReplayStaysLiveAndLeaksNothing) {
  // Job-count-driven (no wall-clock sleeps) compressed replay of a seeded
  // schedule: hostile events interleave with a tiny steady workload. The
  // invariants are liveness invariants — every future resolves, the
  // ledgers add up, and the budget returns to zero — not success rates.
  const auto schedule = fault::ChaosSchedule::generate(7, 2.0);
  const auto tiny = data::make("nyx", data::Size::Tiny);
  const auto e3sm = data::make("e3sm", data::Size::Tiny);

  svc::Service::Config cfg;
  cfg.max_concurrent_jobs = 2;
  cfg.breaker.window = 8;
  cfg.breaker.trip_failures = 4;
  cfg.breaker.cooldown_s = 0.02;
  svc::Service service(cfg);
  std::uint64_t submitted = 0;
  {
    auto sess = service.open_session();
    std::vector<std::future<svc::JobResult>> futs;
    const auto push = [&](svc::JobSpec spec) {
      futs.push_back(sess.submit(std::move(spec)));
      ++submitted;
    };
    for (const auto& ev : schedule.events()) {
      using Kind = fault::ChaosEvent::Kind;
      switch (ev.kind) {
        case Kind::ArmFaults:
          fault::Injector::instance().configure(ev.plan, ev.seed);
          break;
        case Kind::Disarm:
          fault::Injector::instance().disarm();
          break;
        case Kind::CancelVictims:
          // Ids are 1-based and sequential; aim at the most recent ones.
          for (unsigned v = 0; v < ev.count && v < submitted; ++v)
            service.cancel(submitted - v);
          break;
        case Kind::DeadlineBurst:
          for (unsigned v = 0; v < ev.count; ++v) {
            auto spec = compress_spec(tiny, "zfp-x");
            spec.deadline_s = ev.deadline_s;
            push(std::move(spec));
          }
          break;
        case Kind::StraggleBurst:
          for (unsigned v = 0; v < ev.count; ++v)
            push(compress_spec(e3sm, "mgard-x", svc::Priority::Low));
          break;
      }
      // Steady background load between events, alternating codecs so the
      // breakers see independent health streams.
      push(compress_spec(tiny, "zfp-x"));
      push(compress_spec(e3sm, "huffman-x"));
    }
    fault::Injector::instance().disarm();
    for (auto& f : futs) f.get();  // liveness: nothing wedges
    service.drain();
    EXPECT_EQ(service.completed() + service.failed(), submitted);
    EXPECT_EQ(service.scheduler().active_jobs(), 0u);
  }
  // All sessions gone, queue drained: zero leaked arena bytes.
  EXPECT_EQ(service.budget().committed(), 0u);
}

}  // namespace
}  // namespace hpdr
