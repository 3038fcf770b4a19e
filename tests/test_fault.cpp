// Fault-injection framework and end-to-end resilience (DESIGN.md §8):
// FaultPlan parsing and determinism, per-chunk codec fallback and corrupt-
// chunk containment in the pipeline, RetryPolicy backoff, CMM evict-and-
// retry, and degraded multi-GPU scheduling. The Injector is process-global,
// so every test runs under a fixture that disarms it on both sides.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/bitstream.hpp"
#include "compressor/compressor.hpp"
#include "data/generators.hpp"
#include "fault/fault.hpp"
#include "fault/retry.hpp"
#include "machine/context_memory.hpp"
#include "machine/device_registry.hpp"
#include "pipeline/pipeline.hpp"
#include "sim/multigpu.hpp"
#include "telemetry/telemetry.hpp"

namespace hpdr {
namespace {

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Injector::instance().disarm(); }
  void TearDown() override { fault::Injector::instance().disarm(); }
};

const data::Dataset& tiny_nyx() {
  static data::Dataset ds = data::make("nyx", data::Size::Tiny);
  return ds;
}

pipeline::Options small_chunks() {
  pipeline::Options opts;
  opts.mode = pipeline::Mode::Fixed;
  opts.param = 1e-2;
  opts.fixed_chunk_bytes = 16 << 10;
  return opts;
}

// ---------------------------------------------------------------------------
// FaultPlan grammar.
// ---------------------------------------------------------------------------

TEST_F(FaultTest, PlanParsesTriggersAndParams) {
  auto plan = fault::FaultPlan::parse(
      "fs.write:nth=3;chunk.corrupt:every=2,count=5,flip=4;"
      "gpu.straggle:p=0.25,factor=3.5");
  ASSERT_EQ(plan.sites.size(), 3u);
  EXPECT_EQ(plan.sites[0].site, "fs.write");
  EXPECT_EQ(plan.sites[0].trigger, fault::SiteSpec::Trigger::Nth);
  EXPECT_EQ(plan.sites[0].n, 3u);
  EXPECT_EQ(plan.sites[0].max_fires(), 1u);  // nth defaults to one fire
  EXPECT_EQ(plan.sites[1].trigger, fault::SiteSpec::Trigger::Every);
  EXPECT_EQ(plan.sites[1].n, 2u);
  EXPECT_EQ(plan.sites[1].count, 5u);
  EXPECT_EQ(plan.sites[1].flip, 4u);
  EXPECT_EQ(plan.sites[2].trigger, fault::SiteSpec::Trigger::Prob);
  EXPECT_DOUBLE_EQ(plan.sites[2].p, 0.25);
  EXPECT_DOUBLE_EQ(plan.sites[2].factor, 3.5);
}

TEST_F(FaultTest, PlanRoundTripsThroughToString) {
  const std::string text =
      "fs.write:nth=3;chunk.corrupt:every=2,count=5,flip=4;"
      "gpu.straggle:p=0.25,factor=3.5";
  auto plan = fault::FaultPlan::parse(text);
  auto again = fault::FaultPlan::parse(plan.to_string());
  EXPECT_EQ(plan.to_string(), again.to_string());
}

TEST_F(FaultTest, PlanRejectsMalformedInput) {
  EXPECT_THROW(fault::FaultPlan::parse("noseparator"), Error);
  EXPECT_THROW(fault::FaultPlan::parse(":nth=1"), Error);
  EXPECT_THROW(fault::FaultPlan::parse("a:flip=2"), Error);  // no trigger
  EXPECT_THROW(fault::FaultPlan::parse("a:nth=0"), Error);
  EXPECT_THROW(fault::FaultPlan::parse("a:every=0"), Error);
  EXPECT_THROW(fault::FaultPlan::parse("a:p=1.5"), Error);
  EXPECT_THROW(fault::FaultPlan::parse("a:p=-0.1"), Error);
  EXPECT_THROW(fault::FaultPlan::parse("a:nth=1;a:nth=2"), Error);  // dup
  EXPECT_THROW(fault::FaultPlan::parse("a:bogus=1"), Error);
  EXPECT_THROW(fault::FaultPlan::parse("a:nth=abc"), Error);
  EXPECT_THROW(fault::FaultPlan::parse("a:nth=1,factor=0"), Error);
  EXPECT_TRUE(fault::FaultPlan::parse("").empty());
}

// ---------------------------------------------------------------------------
// Injector semantics and determinism.
// ---------------------------------------------------------------------------

TEST_F(FaultTest, NthEveryAndCountSemantics) {
  auto& inj = fault::Injector::instance();
  inj.configure("a:nth=3;b:every=2,count=2", 7);
  std::vector<bool> a, b;
  for (int i = 0; i < 8; ++i) a.push_back(inj.should_fire("a"));
  for (int i = 0; i < 8; ++i) b.push_back(inj.should_fire("b"));
  EXPECT_EQ(a, (std::vector<bool>{false, false, true, false, false, false,
                                  false, false}));
  // every=2 fires on calls 2 and 4, then the count=2 budget is spent.
  EXPECT_EQ(b, (std::vector<bool>{false, true, false, true, false, false,
                                  false, false}));
  EXPECT_EQ(inj.fires("a"), 1u);
  EXPECT_EQ(inj.fires("b"), 2u);
  EXPECT_EQ(inj.total_fires(), 3u);
  EXPECT_FALSE(inj.should_fire("unarmed.site"));
}

TEST_F(FaultTest, ProbabilisticFiresAreSeedDeterministic) {
  auto& inj = fault::Injector::instance();
  auto pattern = [&](std::uint64_t seed) {
    inj.configure("p.site:p=0.3,count=1000", seed);
    std::vector<bool> v;
    for (int i = 0; i < 200; ++i) v.push_back(inj.should_fire("p.site"));
    return v;
  };
  const auto p1 = pattern(42);
  const auto p2 = pattern(42);
  const auto p3 = pattern(43);
  EXPECT_EQ(p1, p2);
  EXPECT_NE(p1, p3);
  const auto fires = std::count(p1.begin(), p1.end(), true);
  EXPECT_GT(fires, 30);  // ~60 expected at p=0.3
  EXPECT_LT(fires, 100);
}

TEST_F(FaultTest, SitePatternsAreIndependentOfInterleaving) {
  auto& inj = fault::Injector::instance();
  // Pattern of site a alone...
  inj.configure("a:p=0.5,count=1000;b:p=0.5,count=1000", 99);
  std::vector<bool> alone;
  for (int i = 0; i < 64; ++i) alone.push_back(inj.should_fire("a"));
  // ...equals the pattern of a with b calls interleaved arbitrarily.
  inj.configure("a:p=0.5,count=1000;b:p=0.5,count=1000", 99);
  std::vector<bool> interleaved;
  for (int i = 0; i < 64; ++i) {
    if (i % 3 == 0) inj.should_fire("b");
    interleaved.push_back(inj.should_fire("a"));
    if (i % 2 == 0) inj.should_fire("b");
  }
  EXPECT_EQ(alone, interleaved);
}

TEST_F(FaultTest, CorruptFlipsRequestedBytesDeterministically) {
  auto& inj = fault::Injector::instance();
  const std::vector<std::uint8_t> orig(256, 0xAA);
  inj.configure("chunk.corrupt:nth=1,flip=4", 5);
  auto a = orig;
  EXPECT_TRUE(inj.corrupt_at("chunk.corrupt", 0, a));
  inj.configure("chunk.corrupt:nth=1,flip=4", 5);
  auto b = orig;
  EXPECT_TRUE(inj.corrupt_at("chunk.corrupt", 0, b));
  EXPECT_EQ(a, b);  // same seed → same corruption
  EXPECT_NE(a, orig);
  std::size_t changed = 0;
  for (std::size_t i = 0; i < orig.size(); ++i) changed += a[i] != orig[i];
  EXPECT_GE(changed, 1u);
  EXPECT_LE(changed, 4u);
  // nth=1 selects index 0 only: no other index is corrupted.
  auto c = orig;
  EXPECT_FALSE(inj.corrupt_at("chunk.corrupt", 1, c));
  EXPECT_EQ(c, orig);
  EXPECT_EQ(inj.fires("chunk.corrupt"), 1u);
}

TEST_F(FaultTest, DisarmedHelpersAreInert) {
  std::vector<std::uint8_t> bytes(16, 1);
  EXPECT_FALSE(fault::should_fire("fs.write"));
  EXPECT_FALSE(fault::corrupt_at("chunk.corrupt", 0, bytes));
  EXPECT_DOUBLE_EQ(fault::stretch("gpu.straggle"), 1.0);
  EXPECT_FALSE(fault::Injector::instance().armed());
}

// ---------------------------------------------------------------------------
// Indexed draws: decisions keyed by (index, attempt), used by concurrent
// chunk workers — a pure function of plan + seed, not of call order.
// ---------------------------------------------------------------------------

TEST_F(FaultTest, IndexedNthIsTransientAndEveryIsPersistent) {
  auto& inj = fault::Injector::instance();
  inj.configure("a:nth=3;b:every=2,count=2", 0);
  // nth=3 fires on attempt 0 of index 2 only: a retry of that index (the
  // next attempt) succeeds, and no other index is touched.
  for (std::uint64_t i = 0; i < 8; ++i)
    EXPECT_EQ(inj.should_fire_at("a", i, 0), i == 2) << i;
  EXPECT_FALSE(inj.should_fire_at("a", 2, 1));
  // every=2 fires on every attempt of indices 1 and 3 (count=2 caps the
  // index budget) — retries cannot absorb it.
  for (std::uint64_t i = 0; i < 8; ++i) {
    const bool expect = i == 1 || i == 3;
    EXPECT_EQ(inj.should_fire_at("b", i, 0), expect) << i;
    EXPECT_EQ(inj.should_fire_at("b", i, 1), expect) << i;
  }
}

TEST_F(FaultTest, IndexedDrawsAreOrderIndependent) {
  auto& inj = fault::Injector::instance();
  const char* plan = "a:p=0.4";
  inj.configure(plan, 1234);
  std::vector<bool> ascending;
  for (std::uint64_t i = 0; i < 64; ++i)
    ascending.push_back(inj.should_fire_at("a", i));
  // Same plan + seed, indices queried in reverse with interleaved repeats
  // and foreign-site noise: every per-index decision is unchanged.
  inj.configure(plan, 1234);
  std::vector<bool> descending(64);
  for (std::uint64_t i = 64; i-- > 0;) {
    inj.should_fire_at("a", (i * 7) % 64, 1);  // other-attempt noise
    descending[i] = inj.should_fire_at("a", i);
  }
  EXPECT_EQ(ascending, descending);
  const std::size_t fires =
      static_cast<std::size_t>(std::count(ascending.begin(),
                                          ascending.end(), true));
  EXPECT_GT(fires, 5u);   // p=0.4 over 64 draws
  EXPECT_LT(fires, 60u);
}

TEST_F(FaultTest, CorruptAtFlipsSameBytesRegardlessOfCallOrder) {
  auto& inj = fault::Injector::instance();
  const std::vector<std::uint8_t> orig(256, 0x5A);
  inj.configure("chunk.corrupt:every=1,flip=4", 9);
  auto a1 = orig, a2 = orig;
  EXPECT_TRUE(inj.corrupt_at("chunk.corrupt", 1, a1));
  EXPECT_TRUE(inj.corrupt_at("chunk.corrupt", 2, a2));
  // Reversed order, fresh counters: identical flips per index.
  inj.configure("chunk.corrupt:every=1,flip=4", 9);
  auto b2 = orig, b1 = orig;
  EXPECT_TRUE(inj.corrupt_at("chunk.corrupt", 2, b2));
  EXPECT_TRUE(inj.corrupt_at("chunk.corrupt", 1, b1));
  EXPECT_EQ(a1, b1);
  EXPECT_EQ(a2, b2);
  EXPECT_NE(a1, a2);  // different indices corrupt differently
  EXPECT_NE(a1, orig);
}

// ---------------------------------------------------------------------------
// RetryPolicy.
// ---------------------------------------------------------------------------

TEST_F(FaultTest, BackoffScheduleIsExponentialWithBoundedJitter) {
  fault::RetryPolicy p;
  p.base_backoff_s = 1e-3;
  p.multiplier = 2.0;
  p.jitter = 0.1;
  p.seed = 11;
  for (int attempt = 1; attempt <= 6; ++attempt) {
    const double base = 1e-3 * std::pow(2.0, attempt - 1);
    const double w = p.backoff_s(attempt);
    EXPECT_GE(w, base * 0.9) << attempt;
    EXPECT_LE(w, base * 1.1) << attempt;
    EXPECT_DOUBLE_EQ(w, p.backoff_s(attempt));  // deterministic
  }
  fault::RetryPolicy nj = p;
  nj.jitter = 0.0;
  EXPECT_DOUBLE_EQ(nj.backoff_s(3), 4e-3);
}

TEST_F(FaultTest, WithRetryRecoversFromTransientFailures) {
  fault::RetryPolicy p;
  p.max_attempts = 4;
  int calls = 0;
  auto& recovered = telemetry::counter("fault.retry.recovered");
  auto& attempts = telemetry::counter("fault.retry.attempts");
  auto& backoff = telemetry::gauge("fault.retry.backoff_seconds");
  const auto recovered0 = recovered.get();
  const auto attempts0 = attempts.get();
  const double backoff0 = backoff.get();
  const int v = fault::with_retry(p, [&] {
    if (++calls < 3) throw Error("transient");
    return 42;
  });
  EXPECT_EQ(v, 42);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(recovered.get(), recovered0 + 1);
  EXPECT_EQ(attempts.get(), attempts0 + 2);  // two failures backed off
  EXPECT_GT(backoff.get(), backoff0);
}

TEST_F(FaultTest, WithRetryExhaustsAndRethrows) {
  fault::RetryPolicy p;
  p.max_attempts = 3;
  int calls = 0;
  auto& recovered = telemetry::counter("fault.retry.recovered");
  auto& attempts = telemetry::counter("fault.retry.attempts");
  const auto recovered0 = recovered.get();
  const auto attempts0 = attempts.get();
  EXPECT_THROW(fault::with_retry(
                   p, [&]() -> void { ++calls; throw Error("permanent"); }),
               Error);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(recovered.get(), recovered0);
  EXPECT_EQ(attempts.get(), attempts0 + 2);  // the third failure rethrows
}

TEST_F(FaultTest, WithRetryHonorsDeadline) {
  fault::RetryPolicy p;
  p.max_attempts = 100;
  p.base_backoff_s = 1.0;
  p.deadline_s = 2.5;  // admits ~2 backoffs (1s + 2s > 2.5 on the second)
  int calls = 0;
  EXPECT_THROW(
      fault::with_retry(p, [&]() -> void { ++calls; throw Error("x"); }),
      Error);
  EXPECT_LE(calls, 3);
}

// ---------------------------------------------------------------------------
// Pipeline containment: codec fallback and corrupt-chunk recovery.
// ---------------------------------------------------------------------------

TEST_F(FaultTest, CodecRetryAbsorbsTransientTaskFault) {
  const Device dev = Device::serial();
  auto comp = make_compressor("zfp-x");
  const auto& ds = tiny_nyx();
  fault::Injector::instance().configure("hdem.task:nth=1", 0);
  auto result = pipeline::compress(dev, *comp, ds.data(), ds.shape,
                                   ds.dtype, small_chunks());
  EXPECT_EQ(result.codec_retries, 1u);
  EXPECT_EQ(result.fallback_chunks, 0u);
  ASSERT_FALSE(result.decisions.empty());
  EXPECT_EQ(result.decisions[0].retries, 1u);
  EXPECT_FALSE(result.decisions[0].fallback);
  // The retried stream still decodes within the error bound.
  std::vector<std::uint8_t> out(ds.size_bytes());
  pipeline::decompress(dev, *comp, result.stream, out.data(), ds.shape,
                       ds.dtype, small_chunks());
}

TEST_F(FaultTest, ExhaustedCodecFallsBackToLosslessPassthrough) {
  const Device dev = Device::serial();
  auto comp = make_compressor("zfp-x");
  const auto& ds = tiny_nyx();
  // Every codec attempt fails: all chunks must fall back to passthrough.
  fault::Injector::instance().configure("hdem.task:every=1", 0);
  auto result = pipeline::compress(dev, *comp, ds.data(), ds.shape,
                                   ds.dtype, small_chunks());
  const std::size_t nchunks = result.chunk_rows.size();
  EXPECT_EQ(result.fallback_chunks, nchunks);
  auto info = pipeline::inspect(result.stream);
  EXPECT_EQ(info.version, 4);
  EXPECT_EQ(info.fallback_chunks, nchunks);
  // Passthrough chunks reconstruct bit-exactly, no codec involved.
  fault::Injector::instance().disarm();
  std::vector<std::uint8_t> out(ds.size_bytes());
  pipeline::decompress(dev, *comp, result.stream, out.data(), ds.shape,
                       ds.dtype, small_chunks());
  EXPECT_EQ(0, std::memcmp(out.data(), ds.data(), ds.size_bytes()));
}

TEST_F(FaultTest, CorruptChunkStrictThrowsSkipReconstructsRest) {
  const Device dev = Device::serial();
  auto comp = make_compressor("zfp-x");
  const auto& ds = tiny_nyx();
  fault::Injector::instance().configure("chunk.corrupt:nth=2,flip=4", 3);
  auto result = pipeline::compress(dev, *comp, ds.data(), ds.shape,
                                   ds.dtype, small_chunks());
  ASSERT_GE(result.chunk_rows.size(), 3u);
  fault::Injector::instance().disarm();

  // Strict (default): the checksum mismatch rejects the stream.
  std::vector<std::uint8_t> out(ds.size_bytes());
  EXPECT_THROW(pipeline::decompress(dev, *comp, result.stream, out.data(),
                                    ds.shape, ds.dtype, small_chunks()),
               Error);

  // Skip: the corrupt chunk zero-fills, everything else reconstructs.
  pipeline::Options opts = small_chunks();
  opts.recovery = pipeline::ChunkRecovery::Skip;
  auto dres = pipeline::decompress(dev, *comp, result.stream, out.data(),
                                   ds.shape, ds.dtype, opts);
  EXPECT_TRUE(dres.partial());
  ASSERT_EQ(dres.corrupt_chunks.size(), 1u);
  EXPECT_EQ(dres.corrupt_chunks[0], 1u);  // chunk.corrupt fired on call 2
  // The zero-filled rows are actually zero; a healthy chunk is not.
  const auto* f = reinterpret_cast<const float*>(out.data());
  const std::size_t slab = ds.shape.size() / ds.shape[0];
  std::size_t row0 = 0;
  for (std::size_t c = 0; c < dres.corrupt_chunks[0]; ++c)
    row0 += result.chunk_rows[c];
  for (std::size_t i = 0; i < result.chunk_rows[1] * slab; ++i)
    ASSERT_EQ(f[row0 * slab + i], 0.0f);
  bool healthy_nonzero = false;
  for (std::size_t i = 0; i < result.chunk_rows[0] * slab; ++i)
    healthy_nonzero |= f[i] != 0.0f;
  EXPECT_TRUE(healthy_nonzero);
}

// ---------------------------------------------------------------------------
// CMM: allocation failure → LRU eviction → one retry → Error.
// ---------------------------------------------------------------------------

ContextKey key_for(const std::string& algo) {
  ContextKey k;
  k.algorithm = algo;
  k.shape_hash = 1;
  k.dtype = 0;
  k.param = 1e-3;
  k.device = "test";
  return k;
}

TEST_F(FaultTest, CmmAllocFaultEvictsLruAndRetries) {
  ContextCache cache;
  auto make_int = [] { return std::make_shared<int>(7); };
  cache.get_or_create<int>(key_for("a"), make_int);
  cache.get_or_create<int>(key_for("b"), make_int);
  cache.get_or_create<int>(key_for("a"), make_int);  // a is now MRU
  ASSERT_EQ(cache.size(), 2u);
  ASSERT_EQ(cache.hits(), 1u);

  fault::Injector::instance().configure("cmm.alloc:nth=1", 0);
  cache.get_or_create<int>(key_for("c"), make_int);
  EXPECT_EQ(cache.size(), 2u);  // b evicted, c inserted
  EXPECT_EQ(cache.evictions(), 1u);
  // a survived (it was MRU): looking it up is a hit, not a rebuild.
  const auto hits_before = cache.hits();
  cache.get_or_create<int>(key_for("a"), [&]() -> std::shared_ptr<int> {
    ADD_FAILURE() << "LRU eviction removed the wrong entry";
    return make_int();
  });
  EXPECT_EQ(cache.hits(), hits_before + 1);
  // b was evicted: recreating it is a miss.
  const auto misses_before = cache.misses();
  cache.get_or_create<int>(key_for("b"), make_int);
  EXPECT_EQ(cache.misses(), misses_before + 1);
}

TEST_F(FaultTest, CmmAllocFailingTwiceIsAnError) {
  ContextCache cache;
  auto make_int = [] { return std::make_shared<int>(7); };
  cache.get_or_create<int>(key_for("a"), make_int);
  // every=1: the post-eviction retry fails as well.
  fault::Injector::instance().configure("cmm.alloc:every=1", 0);
  EXPECT_THROW(cache.get_or_create<int>(key_for("b"), make_int), Error);
}

TEST_F(FaultTest, CmmAllocFaultWithEmptyCacheIsAnError) {
  ContextCache cache;
  fault::Injector::instance().configure("cmm.alloc:nth=1", 0);
  EXPECT_THROW(cache.get_or_create<int>(
                   key_for("a"), [] { return std::make_shared<int>(1); }),
               Error);
}

// ---------------------------------------------------------------------------
// Degraded multi-GPU scheduling.
// ---------------------------------------------------------------------------

TEST_F(FaultTest, GpuFailureRedistributesAndStretchesMakespan) {
  const Device gpu = machine::make_device("V100");
  auto comp = make_compressor("zfp-x");
  const auto& ds = tiny_nyx();
  const auto opts = small_chunks();

  const auto healthy = sim::run_node(gpu, 4, *comp, opts, ds.data(),
                                     ds.shape, ds.dtype, true, 4);
  EXPECT_FALSE(healthy.degraded());

  fault::Injector::instance().configure("gpu.fail:nth=2", 0);
  const auto degraded = sim::run_node(gpu, 4, *comp, opts, ds.data(),
                                      ds.shape, ds.dtype, true, 4);
  EXPECT_TRUE(degraded.degraded());
  EXPECT_EQ(degraded.failed_gpus, 1);
  // One GPU dies at the midpoint of 4 steps: 2 orphaned steps move to the
  // 3 survivors.
  EXPECT_EQ(degraded.redistributed_steps, 2);
  EXPECT_GT(degraded.per_gpu_seconds, healthy.per_gpu_seconds);
  EXPECT_LT(degraded.scalability, healthy.scalability);
  // All work still completes: aggregate throughput accounts every byte.
  EXPECT_GT(degraded.aggregate_gbps, 0.0);
}

TEST_F(FaultTest, StragglerStretchesTheNodeMakespan) {
  const Device gpu = machine::make_device("V100");
  auto comp = make_compressor("zfp-x");
  const auto& ds = tiny_nyx();
  const auto opts = small_chunks();
  const auto healthy = sim::run_node(gpu, 4, *comp, opts, ds.data(),
                                     ds.shape, ds.dtype, true, 4);
  fault::Injector::instance().configure("gpu.straggle:nth=1,factor=3", 0);
  const auto slow = sim::run_node(gpu, 4, *comp, opts, ds.data(), ds.shape,
                                  ds.dtype, true, 4);
  EXPECT_EQ(slow.stragglers, 1);
  EXPECT_EQ(slow.failed_gpus, 0);
  EXPECT_GT(slow.per_gpu_seconds, healthy.per_gpu_seconds);
}

TEST_F(FaultTest, AllGpusFailingIsAnError) {
  const Device gpu = machine::make_device("V100");
  auto comp = make_compressor("zfp-x");
  const auto& ds = tiny_nyx();
  fault::Injector::instance().configure("gpu.fail:every=1", 0);
  EXPECT_THROW(sim::run_node(gpu, 2, *comp, small_chunks(), ds.data(),
                             ds.shape, ds.dtype, true, 4),
               Error);
}

// ---------------------------------------------------------------------------
// Demo plan: transient codec-task fault + chunk corruption + GPU failure,
// end to end, with matching counters in the run manifest.
// ---------------------------------------------------------------------------

TEST_F(FaultTest, DemoPlanCompletesEndToEndWithNonzeroCounters) {
  telemetry::MetricsRegistry::instance().reset();
  const Device dev = Device::serial();
  const Device gpu = machine::make_device("V100");
  auto comp = make_compressor("zfp-x");
  const auto& ds = tiny_nyx();

  fault::Injector::instance().configure(
      "hdem.task:nth=1;chunk.corrupt:nth=2,flip=4;gpu.fail:nth=1", 9);

  // Compress (retries the failed codec task, absorbs the chunk
  // corruption), then run the degraded node (absorbs the GPU failure).
  auto result = pipeline::compress(dev, *comp, ds.data(), ds.shape,
                                   ds.dtype, small_chunks());
  EXPECT_GE(result.codec_retries, 1u);
  auto node = sim::run_node(gpu, 2, *comp, small_chunks(), ds.data(),
                            ds.shape, ds.dtype, true, 4);
  EXPECT_EQ(node.failed_gpus, 1);

  // Partial reconstruction of the corrupted stream.
  pipeline::Options opts = small_chunks();
  opts.recovery = pipeline::ChunkRecovery::Skip;
  std::vector<std::uint8_t> out(ds.size_bytes());
  auto dres = pipeline::decompress(dev, *comp, result.stream, out.data(),
                                   ds.shape, ds.dtype, opts);
  EXPECT_TRUE(dres.partial());

  // The run manifest records the plan and nonzero fault counters.
  telemetry::RunManifest m;
  m.tool = "test";
  m.command = "demo";
  const telemetry::Value j = m.to_json();
  const telemetry::Value* faults = j.get("faults");
  ASSERT_NE(faults, nullptr);
  EXPECT_EQ(faults->get("plan")->as_string(),
            fault::Injector::instance().plan_string());
  EXPECT_EQ(faults->get("seed")->as_int(), 9);
  const telemetry::Value* metrics = j.get("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_GE(metrics->get("fault.fires")->as_int(), 3);
  EXPECT_GE(metrics->get("fault.hdem.task.fires")->as_int(), 1);
  EXPECT_GE(metrics->get("fault.chunk.corrupt.fires")->as_int(), 1);
  EXPECT_GE(metrics->get("fault.gpu.fail.fires")->as_int(), 1);
  EXPECT_GE(metrics->get("fault.chunk.encode_retries")->as_int(), 1);
  EXPECT_GE(metrics->get("fault.chunk.skipped")->as_int(), 1);
}

}  // namespace
}  // namespace hpdr
