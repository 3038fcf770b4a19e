// Job-level serving layer (DESIGN.md §10): weighted fair scheduling, pooled
// session arenas under a global budget with LRU eviction + backpressure,
// and per-job fault containment. The differential identity test is the
// load-bearing one: a service-path compress job must produce the
// byte-identical stream of a direct pipeline::compress call, at any
// concurrency and any fair-share width.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <future>
#include <iterator>
#include <vector>

#include "hpdr.hpp"

namespace hpdr {
namespace {

class SvcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::Injector::instance().disarm();
    ThreadPool::instance().resize(4);
  }
  void TearDown() override {
    fault::Injector::instance().disarm();
    ThreadPool::instance().resize(ThreadPool::default_threads());
  }
};

pipeline::Options fixed_opts() {
  pipeline::Options opts;
  opts.mode = pipeline::Mode::Fixed;
  opts.fixed_chunk_bytes = 16 << 10;
  opts.param = 1e-3;
  return opts;
}

// --- Scheduler ----------------------------------------------------------

TEST(SvcScheduler, WeightScalesWithPriorityAndSize) {
  using svc::Priority;
  using svc::Scheduler;
  const std::size_t mb4 = std::size_t{4} << 20;
  const std::size_t mb64 = std::size_t{64} << 20;
  EXPECT_GT(Scheduler::weight_for(Priority::Normal, mb64),
            Scheduler::weight_for(Priority::Normal, mb4));
  EXPECT_DOUBLE_EQ(Scheduler::weight_for(Priority::High, mb4),
                   2.0 * Scheduler::weight_for(Priority::Normal, mb4));
  EXPECT_DOUBLE_EQ(Scheduler::weight_for(Priority::Low, mb4),
                   0.5 * Scheduler::weight_for(Priority::Normal, mb4));
  // sqrt size class: 64 MB is 4x the weight of 4 MB, not 16x.
  EXPECT_DOUBLE_EQ(Scheduler::weight_for(Priority::Normal, mb64),
                   4.0 * Scheduler::weight_for(Priority::Normal, mb4));
}

TEST(SvcScheduler, SlotsApportionedWithStarvationFloor) {
  svc::Scheduler sched(8);
  auto big = sched.admit(1, svc::Priority::High, std::size_t{1} << 30);
  EXPECT_EQ(big->slots.load(), 8u);  // alone: the whole pool
  auto small = sched.admit(2, svc::Priority::Low, 4 << 20);
  // The big job dominates but the small job keeps its floor of one slot.
  EXPECT_GE(small->slots.load(), 1u);
  EXPECT_GT(big->slots.load(), small->slots.load());
  EXPECT_LE(big->slots.load() + small->slots.load(), 9u);  // 8 + floor slack
  sched.release(big);
  // Survivor inherits the pool immediately.
  EXPECT_EQ(small->slots.load(), 8u);
  sched.release(small);
  EXPECT_EQ(sched.active_jobs(), 0u);
}

TEST(SvcScheduler, EqualJobsSplitEvenly) {
  svc::Scheduler sched(8);
  auto a = sched.admit(1, svc::Priority::Normal, 8 << 20);
  auto b = sched.admit(2, svc::Priority::Normal, 8 << 20);
  EXPECT_EQ(a->slots.load(), 4u);
  EXPECT_EQ(b->slots.load(), 4u);
  sched.release(a);
  sched.release(b);
}

// --- Arena --------------------------------------------------------------

TEST(SvcArena, BucketsArePow2From4KiB) {
  EXPECT_EQ(svc::SessionArena::bucket_for(1), std::size_t{4} << 10);
  EXPECT_EQ(svc::SessionArena::bucket_for(4096), std::size_t{4} << 10);
  EXPECT_EQ(svc::SessionArena::bucket_for(4097), std::size_t{8} << 10);
  EXPECT_EQ(svc::SessionArena::bucket_for(100000), std::size_t{128} << 10);
}

TEST(SvcArena, WarmReuseHitsTheFreeList) {
  auto budget = std::make_shared<svc::ArenaBudget>(std::size_t{1} << 20);
  auto arena = svc::make_arena(budget);
  { auto l = arena->lease(10000); }  // miss: fresh commit, parked on drop
  EXPECT_EQ(arena->misses(), 1u);
  { auto l = arena->lease(9000); }  // same 16 KiB bucket: warm hit
  EXPECT_EQ(arena->hits(), 1u);
  EXPECT_EQ(arena->misses(), 1u);
  // Parked bytes stay committed (they are evictable, not free).
  EXPECT_EQ(budget->committed(), std::size_t{16} << 10);
}

TEST(SvcArena, OversizeLeaseThrowsImmediately) {
  auto budget = std::make_shared<svc::ArenaBudget>(std::size_t{1} << 20);
  auto arena = svc::make_arena(budget);
  EXPECT_THROW(arena->lease(std::size_t{2} << 20), Error);
}

TEST(SvcArena, BackpressureTimesOutLoudly) {
  auto budget = std::make_shared<svc::ArenaBudget>(std::size_t{64} << 10);
  auto arena = svc::make_arena(budget);
  auto held = arena->lease(60000);  // 64 KiB bucket: the whole budget
  EXPECT_THROW(arena->lease(60000, /*timeout_s=*/0.05), Error);
  EXPECT_GE(budget->queue_waits(), 1u);
  EXPECT_LE(budget->high_water(), budget->budget());
}

TEST(SvcArena, LruEvictionReclaimsAcrossSessions) {
  auto budget = std::make_shared<svc::ArenaBudget>(std::size_t{64} << 10);
  auto cold = svc::make_arena(budget);
  auto hot = svc::make_arena(budget);
  { auto l = cold->lease(60000); }  // parked on cold's free list
  EXPECT_EQ(budget->committed(), std::size_t{64} << 10);
  // hot's lease cannot fit alongside the parked buffer: the budget evicts
  // cold's LRU buffer instead of queueing.
  auto l = hot->lease(60000);
  EXPECT_GE(budget->evictions(), 1u);
  EXPECT_LE(budget->high_water(), budget->budget());
}

TEST(SvcArena, AllocFaultEvictsAndRetriesOnce) {
  auto fixture_guard = std::shared_ptr<void>(nullptr, [](void*) {
    fault::Injector::instance().disarm();
  });
  auto budget = std::make_shared<svc::ArenaBudget>(std::size_t{1} << 20);
  auto arena = svc::make_arena(budget);
  { auto l = arena->lease(4096); }  // park a 4 KiB buffer: the LRU victim
  fault::Injector::instance().configure("cmm.alloc:nth=1", 0);
  // Different bucket -> miss -> fresh allocation "fails" once, evicts the
  // parked buffer, and the single retry succeeds (ContextCache contract).
  auto l = arena->lease(8192);
  EXPECT_EQ(l.capacity(), std::size_t{8} << 10);
  EXPECT_GE(budget->evictions(), 1u);
}

TEST(SvcArena, AllocFaultWithNothingEvictableThrows) {
  auto fixture_guard = std::shared_ptr<void>(nullptr, [](void*) {
    fault::Injector::instance().disarm();
  });
  auto budget = std::make_shared<svc::ArenaBudget>(std::size_t{1} << 20);
  auto arena = svc::make_arena(budget);
  fault::Injector::instance().configure("cmm.alloc:nth=1", 0);
  EXPECT_THROW(arena->lease(4096), Error);
  // The failed commit was rolled back.
  EXPECT_EQ(budget->committed(), 0u);
}

// --- Service: differential identity -------------------------------------

TEST_F(SvcTest, ConcurrentJobsMatchDirectPipelineByteForByte) {
  const auto ds_a = data::make("nyx", data::Size::Tiny);
  const auto ds_b = data::make("e3sm", data::Size::Tiny);
  const pipeline::Options opts = fixed_opts();
  const Device dev = machine::make_device("serial");
  auto comp = make_compressor("zfp-x");
  const auto direct_a =
      pipeline::compress(dev, *comp, ds_a.data(), ds_a.shape, ds_a.dtype,
                         opts)
          .stream;
  const auto direct_b =
      pipeline::compress(dev, *comp, ds_b.data(), ds_b.shape, ds_b.dtype,
                         opts)
          .stream;

  svc::Service::Config cfg;
  cfg.max_concurrent_jobs = 8;
  svc::Service service(cfg);
  auto s1 = service.open_session();
  auto s2 = service.open_session();
  // 8 concurrent jobs, mixed priorities => mixed fair-share widths. Every
  // stream must still be byte-identical to the direct single-job path.
  std::vector<std::future<svc::JobResult>> futs;
  for (int r = 0; r < 8; ++r) {
    const data::Dataset& ds = (r % 2 == 0) ? ds_a : ds_b;
    svc::JobSpec spec;
    spec.codec = "zfp-x";
    spec.shape = ds.shape;
    spec.dtype = ds.dtype;
    spec.opts = opts;
    spec.priority = r % 3 == 0   ? svc::Priority::High
                    : r % 3 == 1 ? svc::Priority::Normal
                                 : svc::Priority::Low;
    spec.input = ds.data();
    spec.input_bytes = ds.size_bytes();
    futs.push_back((r % 2 == 0 ? s1 : s2).submit(std::move(spec)));
  }
  for (int r = 0; r < 8; ++r) {
    auto res = futs[static_cast<std::size_t>(r)].get();
    ASSERT_TRUE(res.ok) << res.error;
    const auto& expected = (r % 2 == 0) ? direct_a : direct_b;
    EXPECT_EQ(res.output, expected) << "job " << res.id;
  }
  EXPECT_EQ(service.completed(), 8u);
  EXPECT_EQ(service.failed(), 0u);
}

TEST_F(SvcTest, DecompressJobRoundTripsCompressJob) {
  const auto ds = data::make("nyx", data::Size::Tiny);
  const pipeline::Options opts = fixed_opts();
  svc::Service service;
  svc::JobSpec comp_spec;
  comp_spec.codec = "huffman-x";  // lossless: bit-exact round trip
  comp_spec.shape = ds.shape;
  comp_spec.dtype = ds.dtype;
  comp_spec.opts = opts;
  comp_spec.input = ds.data();
  comp_spec.input_bytes = ds.size_bytes();
  auto stream = service.submit(std::move(comp_spec)).get();
  ASSERT_TRUE(stream.ok) << stream.error;

  svc::JobSpec dec_spec;
  dec_spec.kind = svc::JobKind::Decompress;
  dec_spec.codec = "huffman-x";
  dec_spec.shape = ds.shape;
  dec_spec.dtype = ds.dtype;
  dec_spec.opts = opts;
  dec_spec.input = stream.output.data();
  dec_spec.input_bytes = stream.output.size();
  auto back = service.submit(std::move(dec_spec)).get();
  ASSERT_TRUE(back.ok) << back.error;
  EXPECT_EQ(back.output, ds.bytes);
}

TEST_F(SvcTest, CachedJobsMatchCacheOffByteForByteUnderConcurrency) {
  // The tentpole identity gate: 8 concurrent jobs over two tensors, every
  // job opted into the dedup cache, repeated so later waves hit on chunks
  // earlier waves inserted — and every response still byte-identical to
  // the direct cache-off pipeline.
  const auto ds_a = data::make("nyx", data::Size::Tiny);
  const auto ds_b = data::make("e3sm", data::Size::Tiny);
  const pipeline::Options opts = fixed_opts();
  const Device dev = machine::make_device("serial");
  auto comp = make_compressor("zfp-x");
  const auto direct_a =
      pipeline::compress(dev, *comp, ds_a.data(), ds_a.shape, ds_a.dtype,
                         opts)
          .stream;
  const auto direct_b =
      pipeline::compress(dev, *comp, ds_b.data(), ds_b.shape, ds_b.dtype,
                         opts)
          .stream;

  svc::Service::Config cfg;
  cfg.max_concurrent_jobs = 8;
  svc::Service service(cfg);
  auto s1 = service.open_session();
  auto s2 = service.open_session();
  std::size_t total_hits = 0;
  for (int wave = 0; wave < 3; ++wave) {
    std::vector<std::future<svc::JobResult>> futs;
    for (int r = 0; r < 8; ++r) {
      const data::Dataset& ds = (r % 2 == 0) ? ds_a : ds_b;
      svc::JobSpec spec;
      spec.codec = "zfp-x";
      spec.shape = ds.shape;
      spec.dtype = ds.dtype;
      spec.opts = opts;
      spec.use_cache = true;
      spec.input = ds.data();
      spec.input_bytes = ds.size_bytes();
      futs.push_back((r % 2 == 0 ? s1 : s2).submit(std::move(spec)));
    }
    for (int r = 0; r < 8; ++r) {
      auto res = futs[static_cast<std::size_t>(r)].get();
      ASSERT_TRUE(res.ok) << res.error;
      EXPECT_EQ(res.output, (r % 2 == 0) ? direct_a : direct_b)
          << "wave " << wave << " job " << res.id;
      total_hits += res.cache_hits;
    }
  }
  // Cross-job, cross-session dedup: waves 2 and 3 (16 jobs) hit on wave
  // 1's chunks at minimum.
  EXPECT_GT(total_hits, 0u);
  EXPECT_GT(service.cache().hits(), 0u);
  EXPECT_GT(service.cache().bytes(), 0u);
  // Cache bytes are ledgered on the budget but never counted as session
  // commitment.
  EXPECT_EQ(service.budget().cache_bytes(), service.cache().bytes());
  service.drain();
}

TEST_F(SvcTest, CacheServesDecompressAcrossJobsAndRecordsOutcome) {
  const auto ds = data::make("nyx", data::Size::Tiny);
  const pipeline::Options opts = fixed_opts();
  const Device dev = machine::make_device("serial");
  auto comp = make_compressor("mgard-x");
  const auto stream =
      pipeline::compress(dev, *comp, ds.data(), ds.shape, ds.dtype, opts)
          .stream;
  svc::Service service;
  const auto submit_decode = [&] {
    svc::JobSpec spec;
    spec.kind = svc::JobKind::Decompress;
    spec.codec = "mgard-x";
    spec.shape = ds.shape;
    spec.dtype = ds.dtype;
    spec.opts = opts;
    spec.use_cache = true;
    spec.input = stream.data();
    spec.input_bytes = stream.size();
    return service.submit(std::move(spec)).get();
  };
  // The time ledger shows where each decode went: the cold one into the
  // codec, the warm all-hit one into the cache and not the codec.
  const auto& codec_ledger =
      telemetry::latency("codec.mgard-x.decompress.seconds");
  const auto& hit_ledger = telemetry::latency("svc.cache.hit.latency");
  const auto codec_calls0 = codec_ledger.count();
  const auto cold = submit_decode();
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_GT(cold.cache_misses, 0u);
  const auto codec_calls1 = codec_ledger.count();
  EXPECT_GT(codec_calls1, codec_calls0);
  const auto hits1 = hit_ledger.count();
  const auto warm = submit_decode();
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.output, cold.output);  // identical reconstruction
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_GT(warm.cache_hits, 0u);
  EXPECT_EQ(codec_ledger.count(), codec_calls1);
  EXPECT_GT(hit_ledger.count(), hits1);
  // The job record carries the dedup outcome for the manifest.
  const auto record = telemetry::dump(warm.to_json());
  EXPECT_NE(record.find("\"cache_hits\""), std::string::npos) << record;
}

// --- Service: backpressure, containment, records -------------------------

TEST_F(SvcTest, ArenaBackpressureQueuesJobsUnderTinyBudget) {
  const auto ds = data::make("nyx", data::Size::Tiny);
  const std::size_t bucket = svc::SessionArena::bucket_for(ds.size_bytes());
  svc::Service::Config cfg;
  cfg.max_concurrent_jobs = 8;
  cfg.arena_budget_bytes = 2 * bucket;  // at most two staged inputs at once
  svc::Service service(cfg);
  std::vector<std::future<svc::JobResult>> futs;
  for (int r = 0; r < 8; ++r) {
    svc::JobSpec spec;
    spec.codec = "zfp-x";
    spec.shape = ds.shape;
    spec.dtype = ds.dtype;
    spec.opts = fixed_opts();
    spec.input = ds.data();
    spec.input_bytes = ds.size_bytes();
    futs.push_back(service.submit(std::move(spec)));
  }
  for (auto& f : futs) {
    auto res = f.get();
    EXPECT_TRUE(res.ok) << res.error;
  }
  // The budget was never overshot; the burst queued instead.
  EXPECT_LE(service.budget().high_water(), cfg.arena_budget_bytes);
  EXPECT_EQ(service.completed(), 8u);
}

TEST_F(SvcTest, InjectedJobFaultFailsAloneOthersProceed) {
  fault::Injector::instance().configure("svc.job:nth=3", 0);
  const auto ds = data::make("nyx", data::Size::Tiny);
  svc::Service service;
  std::vector<std::future<svc::JobResult>> futs;
  for (int r = 0; r < 6; ++r) {
    svc::JobSpec spec;
    spec.codec = "zfp-x";
    spec.shape = ds.shape;
    spec.dtype = ds.dtype;
    spec.opts = fixed_opts();
    spec.input = ds.data();
    spec.input_bytes = ds.size_bytes();
    futs.push_back(service.submit(std::move(spec)));
  }
  std::size_t ok = 0, failed = 0;
  for (auto& f : futs) {
    auto res = f.get();
    if (res.ok) {
      ++ok;
    } else {
      ++failed;
      EXPECT_NE(res.error.find("svc.job"), std::string::npos) << res.error;
      EXPECT_TRUE(res.output.empty());
    }
  }
  EXPECT_EQ(ok, 5u);
  EXPECT_EQ(failed, 1u);
  EXPECT_EQ(service.completed(), 5u);
  EXPECT_EQ(service.failed(), 1u);
}

TEST_F(SvcTest, JobRecordsCarryOutcomeAndTiming) {
  const auto ds = data::make("nyx", data::Size::Tiny);
  svc::Service service;
  svc::JobSpec spec;
  spec.codec = "zfp-x";
  spec.shape = ds.shape;
  spec.dtype = ds.dtype;
  spec.opts = fixed_opts();
  spec.input = ds.data();
  spec.input_bytes = ds.size_bytes();
  auto res = service.submit(std::move(spec)).get();
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_GT(res.run_s, 0.0);
  EXPECT_GE(res.share_slots, 1u);
  EXPECT_EQ(res.raw_bytes, ds.size_bytes());
  const auto json = telemetry::dump(res.to_json());
  EXPECT_NE(json.find("\"kind\":\"compress\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ok\":true"), std::string::npos) << json;
}

TEST_F(SvcTest, HighPriorityJumpsTheAdmissionQueue) {
  // One runner, blocked on a deliberately slow first job; then three Low
  // jobs and one High job enqueue. The High job must complete before the
  // last Low job.
  telemetry::FlightRecorder::instance().clear();
  Shape big = Shape::of_rank(3);
  big[0] = 96;
  big[1] = big[2] = 64;
  const auto blocker = data::nyx_density(big, 7);
  const auto ds = data::make("nyx", data::Size::Tiny);
  svc::Service::Config cfg;
  cfg.max_concurrent_jobs = 1;
  svc::Service service(cfg);

  auto submit = [&](svc::Priority prio, const void* input,
                    std::size_t bytes, const Shape& shape) {
    svc::JobSpec spec;
    spec.codec = "mgard-x";
    spec.shape = shape;
    spec.dtype = DType::F32;
    spec.opts = fixed_opts();
    spec.priority = prio;
    spec.input = input;
    spec.input_bytes = bytes;
    return service.submit(std::move(spec));
  };
  std::vector<std::future<svc::JobResult>> futs;
  futs.push_back(submit(svc::Priority::Normal, blocker.data(),
                        big.size() * sizeof(float), big));
  for (int r = 0; r < 3; ++r)
    futs.push_back(submit(svc::Priority::Low, ds.data(), ds.size_bytes(),
                          ds.shape));
  auto high = submit(svc::Priority::High, ds.data(), ds.size_bytes(),
                     ds.shape);
  const auto high_res = high.get();
  service.drain();
  ASSERT_TRUE(high_res.ok) << high_res.error;
  // Completion order comes from the flight recorder's JobFinish events
  // (arg = job id); the High job (id 5) must finish before the last Low
  // job (id 4).
  std::vector<std::uint64_t> finished;
  for (const auto& e : telemetry::FlightRecorder::instance().snapshot())
    if (e.kind == telemetry::EventKind::JobFinish) finished.push_back(e.arg);
  const auto pos_high = std::find(finished.begin(), finished.end(), 5u);
  const auto pos_low = std::find(finished.begin(), finished.end(), 4u);
  ASSERT_NE(pos_high, finished.end());
  ASSERT_NE(pos_low, finished.end());
  EXPECT_LT(pos_high, pos_low);
}

// --- Observability (DESIGN.md §12) --------------------------------------

TEST_F(SvcTest, EveryJobGetsADistinctTraceId) {
  const auto ds = data::make("nyx", data::Size::Tiny);
  svc::Service service;
  std::vector<std::future<svc::JobResult>> futs;
  for (int r = 0; r < 4; ++r) {
    svc::JobSpec spec;
    spec.codec = "zfp-x";
    spec.shape = ds.shape;
    spec.dtype = ds.dtype;
    spec.opts = fixed_opts();
    spec.input = ds.data();
    spec.input_bytes = ds.size_bytes();
    futs.push_back(service.submit(std::move(spec)));
  }
  std::vector<std::uint64_t> traces;
  for (auto& f : futs) {
    const auto res = f.get();
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_NE(res.trace_id, 0u);
    // The record carries the trace, hex-encoded for operators.
    EXPECT_NE(telemetry::dump(res.to_json())
                  .find(telemetry::trace_id_hex(res.trace_id)),
              std::string::npos);
    traces.push_back(res.trace_id);
  }
  std::sort(traces.begin(), traces.end());
  EXPECT_EQ(std::adjacent_find(traces.begin(), traces.end()), traces.end());
  // The per-request timeline is queryable: each trace owns an svc.job span
  // plus the pipeline spans that ran under it, and no other trace's.
  for (const auto t : traces) {
    const auto spans = telemetry::SpanLog::instance().for_trace(t);
    ASSERT_FALSE(spans.empty());
    const auto root = std::find_if(
        spans.begin(), spans.end(),
        [](const auto& s) { return s.name == "svc.job"; });
    ASSERT_NE(root, spans.end());
    for (const auto& s : spans) EXPECT_EQ(s.trace_id, t);
  }
}

TEST_F(SvcTest, FailedJobDrainsFlightRecorderIntoManifest) {
  telemetry::FlightRecorder::instance().clear();
  // Nth is matched against the indexed draw (job.id starts at 1, and the
  // trigger fires when id + 1 == n), so nth=2 hits the first job.
  fault::Injector::instance().configure("svc.job:nth=2", 0);
  const auto ds = data::make("nyx", data::Size::Tiny);
  svc::Service service;
  svc::JobSpec spec;
  spec.codec = "zfp-x";
  spec.shape = ds.shape;
  spec.dtype = ds.dtype;
  spec.opts = fixed_opts();
  spec.input = ds.data();
  spec.input_bytes = ds.size_bytes();
  const auto res = service.submit(std::move(spec)).get();
  ASSERT_FALSE(res.ok);

  telemetry::RunManifest m;
  m.tool = "test";
  m.command = "serve";
  const telemetry::Value j = m.to_json();
  const telemetry::Value* fr = j.get("flight_recorder");
  ASSERT_NE(fr, nullptr) << "failed job must auto-drain the recorder";
  bool saw_fail = false, saw_admit = false;
  for (const auto& e : fr->get("events")->as_array()) {
    if (e.get("kind")->as_string() == "job_fail") {
      saw_fail = true;
      EXPECT_EQ(e.get("trace")->as_string(),
                telemetry::trace_id_hex(res.trace_id));
      EXPECT_EQ(e.get("arg")->as_int(),
                static_cast<std::int64_t>(res.id));
    }
    if (e.get("kind")->as_string() == "job_admit") saw_admit = true;
  }
  EXPECT_TRUE(saw_fail);
  EXPECT_TRUE(saw_admit);
  telemetry::FlightRecorder::instance().clear();
}

TEST_F(SvcTest, RequestLatencyFeedsTheQuantileHistogram) {
  auto& hist = telemetry::latency("svc.request.latency");
  hist.reset();
  telemetry::latency("svc.request.queue_wait").reset();
  const auto ds = data::make("nyx", data::Size::Tiny);
  svc::Service service;
  std::vector<std::future<svc::JobResult>> futs;
  for (int r = 0; r < 6; ++r) {
    svc::JobSpec spec;
    spec.codec = "zfp-x";
    spec.shape = ds.shape;
    spec.dtype = ds.dtype;
    spec.opts = fixed_opts();
    spec.input = ds.data();
    spec.input_bytes = ds.size_bytes();
    futs.push_back(service.submit(std::move(spec)));
  }
  for (auto& f : futs) ASSERT_TRUE(f.get().ok);
  EXPECT_EQ(hist.count(), 6u);
  EXPECT_GT(hist.quantile(0.99), 0.0);
  EXPECT_GE(hist.quantile(0.99), hist.quantile(0.50));
  EXPECT_EQ(telemetry::latency("svc.request.queue_wait").count(), 6u);
}

TEST_F(SvcTest, StatsPublisherWritesParseableSnapshots) {
  const std::string path = ::testing::TempDir() + "hpdr_svc_stats.prom";
  std::remove(path.c_str());
  const auto ds = data::make("nyx", data::Size::Tiny);
  {
    svc::Service::Config cfg;
    cfg.stats_interval_s = 0.005;
    cfg.stats_path = path;
    svc::Service service(cfg);
    std::vector<std::future<svc::JobResult>> futs;
    for (int r = 0; r < 4; ++r) {
      svc::JobSpec spec;
      spec.codec = "zfp-x";
      spec.shape = ds.shape;
      spec.dtype = ds.dtype;
      spec.opts = fixed_opts();
      spec.input = ds.data();
      spec.input_bytes = ds.size_bytes();
      futs.push_back(service.submit(std::move(spec)));
    }
    for (auto& f : futs) ASSERT_TRUE(f.get().ok);
  }  // dtor publishes one final snapshot after the last job
  std::ifstream f(path);
  ASSERT_TRUE(f.good()) << "publisher never wrote " << path;
  std::string text((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("svc_request_latency_p99"), std::string::npos);
  EXPECT_NE(text.find("svc_request_latency_count"), std::string::npos);
  EXPECT_NE(text.find("# TYPE"), std::string::npos);
  EXPECT_NE(text.find("svc_stats_publishes"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hpdr
