// Tests for the telemetry subsystem: JSON model, metrics registry
// (counters/gauges/histograms, concurrency), RAII spans, merged chrome
// traces, and run-manifest round-trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "compressor/compressor.hpp"
#include "core/thread_pool.hpp"
#include "data/generators.hpp"
#include "fault/fault.hpp"
#include "fault/retry.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/progressive.hpp"
#include "runtime/hdem.hpp"
#include "svc/chunk_cache.hpp"
#include "svc/service.hpp"
#include "telemetry/telemetry.hpp"

namespace hpdr {
namespace {

using telemetry::Value;

// ---------------------------------------------------------------------------
// JSON model.
// ---------------------------------------------------------------------------

TEST(TelemetryJson, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(telemetry::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(telemetry::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(telemetry::json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(telemetry::json_escape(std::string_view("\x01", 1)), "\\u0001");
  EXPECT_EQ(telemetry::json_escape("plain"), "plain");
}

TEST(TelemetryJson, DumpParseRoundTrip) {
  Value v = Value::object();
  v.set("int", Value(42));
  v.set("neg", Value(-7));
  v.set("pi", Value(3.5));
  v.set("flag", Value(true));
  v.set("none", Value(nullptr));
  v.set("text", Value("quote \" slash \\ done"));
  Value arr = Value::array();
  arr.push_back(Value(1));
  arr.push_back(Value("two"));
  v.set("arr", std::move(arr));

  for (int indent : {0, 2}) {
    Value back = telemetry::parse(telemetry::dump(v, indent));
    ASSERT_TRUE(back.is_object());
    EXPECT_EQ(back.get("int")->as_int(), 42);
    EXPECT_EQ(back.get("neg")->as_int(), -7);
    EXPECT_DOUBLE_EQ(back.get("pi")->as_double(), 3.5);
    EXPECT_TRUE(back.get("flag")->as_bool());
    EXPECT_TRUE(back.get("none")->is_null());
    EXPECT_EQ(back.get("text")->as_string(), "quote \" slash \\ done");
    EXPECT_EQ(back.get("arr")->as_array()[1].as_string(), "two");
  }
}

TEST(TelemetryJson, IntegersSurviveExactly) {
  const std::int64_t big = (std::int64_t{1} << 53) - 1;
  Value v(big);
  EXPECT_EQ(telemetry::parse(telemetry::dump(v)).as_int(), big);
  // Integers serialize without a decimal point.
  EXPECT_EQ(telemetry::dump(Value(7)), "7");
  // Unsigned values above INT64_MAX stay exact; past UINT64_MAX is an error.
  const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(telemetry::dump(Value(top)), "18446744073709551615");
  EXPECT_EQ(telemetry::parse("18446744073709551615").as_uint(), top);
  EXPECT_EQ(telemetry::parse("-9223372036854775808").as_int(), INT64_MIN);
  EXPECT_THROW(telemetry::parse("18446744073709551616"), Error);
}

TEST(TelemetryJson, ObjectSetReplacesAndPreservesOrder) {
  Value v = Value::object();
  v.set("b", Value(1));
  v.set("a", Value(2));
  v.set("b", Value(3));  // replace, not append
  ASSERT_EQ(v.as_object().size(), 2u);
  EXPECT_EQ(v.as_object()[0].first, "b");
  EXPECT_EQ(v.get("b")->as_int(), 3);
  EXPECT_EQ(v.get("missing"), nullptr);
}

TEST(TelemetryJson, ParserRejectsMalformedInput) {
  EXPECT_THROW(telemetry::parse(""), Error);
  EXPECT_THROW(telemetry::parse("{"), Error);
  EXPECT_THROW(telemetry::parse("[1,]"), Error);
  EXPECT_THROW(telemetry::parse("{} junk"), Error);
  EXPECT_THROW(telemetry::parse("\"unterminated"), Error);
}

TEST(TelemetryJson, NonFiniteNumbersDumpAsNull) {
  EXPECT_EQ(telemetry::dump(Value(std::nan(""))), "null");
  EXPECT_EQ(telemetry::dump(Value(HUGE_VAL)), "null");
  EXPECT_EQ(telemetry::dump(Value(-HUGE_VAL)), "null");
  // Finite but past int64's range: a plain number, never an integer cast.
  EXPECT_EQ(telemetry::parse(telemetry::dump(Value(1e30))).as_double(), 1e30);
}

// ---------------------------------------------------------------------------
// Metrics registry.
// ---------------------------------------------------------------------------

TEST(TelemetryMetrics, CounterSemantics) {
  auto& c = telemetry::counter("test.counter.basic");
  c.reset();
  c.add();
  c.add(41);
  EXPECT_EQ(c.get(), 42u);
  // Same name → same instrument.
  EXPECT_EQ(&telemetry::counter("test.counter.basic"), &c);
  c.reset();
  EXPECT_EQ(c.get(), 0u);
}

TEST(TelemetryMetrics, GaugeSemantics) {
  auto& g = telemetry::gauge("test.gauge.basic");
  g.reset();
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.get(), 2.5);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.get(), 3.0);
}

TEST(TelemetryMetrics, HistogramBucketsAreCumulative) {
  auto& h = telemetry::histogram("test.hist.basic", {1.0, 10.0, 100.0});
  h.reset();
  for (double v : {0.5, 5.0, 50.0, 500.0, 0.25}) h.observe(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 555.75);
  EXPECT_EQ(h.bucket_count(0), 2u);  // ≤ 1
  EXPECT_EQ(h.bucket_count(1), 3u);  // ≤ 10
  EXPECT_EQ(h.bucket_count(2), 4u);  // ≤ 100
  EXPECT_EQ(h.bucket_count(3), 5u);  // everything
}

TEST(TelemetryMetrics, HistogramBoundaryValuesCountInTheirBucket) {
  // Bucket i counts observations ≤ bounds[i], so a value exactly on a
  // bound belongs to that bound's bucket — the invariant behind the
  // lower_bound binary search in observe().
  auto& h = telemetry::histogram("test.hist.bounds", {1.0, 10.0, 100.0});
  h.reset();
  h.observe(1.0);
  EXPECT_EQ(h.bucket_count(0), 1u);
  h.observe(10.0);
  EXPECT_EQ(h.bucket_count(1), 2u);
  h.observe(std::nextafter(10.0, 11.0));  // just past the bound: next bucket
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 3u);
}

TEST(TelemetryMetrics, ExpBuckets) {
  auto b = telemetry::exp_buckets(1.0, 2.0, 4);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[0], 1.0);
  EXPECT_DOUBLE_EQ(b[3], 8.0);
}

TEST(TelemetryMetrics, ConcurrentIncrementsAreLossless) {
  auto& c = telemetry::counter("test.counter.concurrent");
  auto& g = telemetry::gauge("test.gauge.concurrent");
  auto& h = telemetry::histogram("test.hist.concurrent", {0.5});
  c.reset();
  g.reset();
  h.reset();
  constexpr std::size_t kIters = 10000;
  ThreadPool pool;
  pool.parallel_for(kIters, [&](std::size_t i) {
    c.add();
    g.add(1.0);
    h.observe(i % 2 == 0 ? 0.25 : 0.75);
  });
  EXPECT_EQ(c.get(), kIters);
  EXPECT_DOUBLE_EQ(g.get(), static_cast<double>(kIters));
  EXPECT_EQ(h.count(), kIters);
  EXPECT_EQ(h.bucket_count(0), kIters / 2);
}

TEST(TelemetryMetrics, DisabledUpdatesAreDropped) {
  auto& c = telemetry::counter("test.counter.disabled");
  c.reset();
  telemetry::set_enabled(false);
  c.add(5);
  telemetry::set_enabled(true);
  EXPECT_EQ(c.get(), 0u);
  c.add(5);
  EXPECT_EQ(c.get(), 5u);
}

TEST(TelemetryMetrics, SnapshotContainsAllFlavors) {
  telemetry::counter("test.snap.counter").reset();
  telemetry::counter("test.snap.counter").add(3);
  telemetry::gauge("test.snap.gauge").set(1.5);
  auto& h = telemetry::histogram("test.snap.hist", {2.0});
  h.reset();
  h.observe(1.0);
  h.observe(5.0);

  Value snap = telemetry::MetricsRegistry::instance().snapshot();
  ASSERT_TRUE(snap.is_object());
  EXPECT_EQ(snap.get("test.snap.counter")->as_int(), 3);
  EXPECT_DOUBLE_EQ(snap.get("test.snap.gauge")->as_double(), 1.5);
  const Value* hist = snap.get("test.snap.hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->get("count")->as_int(), 2);
  const auto& buckets = hist->get("buckets")->as_array();
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0].get("count")->as_int(), 1);   // ≤ 2
  EXPECT_EQ(buckets[1].get("count")->as_int(), 1);   // overflow
  EXPECT_EQ(buckets[1].get("le")->as_string(), "inf");
  // Snapshot survives a JSON round trip.
  EXPECT_TRUE(telemetry::parse(telemetry::dump(snap, 2)).is_object());
}

// ---------------------------------------------------------------------------
// Spans and merged traces.
// ---------------------------------------------------------------------------

TEST(TelemetrySpans, RaiiSpanRecordsOnce) {
  auto& log = telemetry::SpanLog::instance();
  const std::size_t before = log.size();
  {
    telemetry::Span s("test.span", "test");
    s.end();
    s.end();  // idempotent
  }
  EXPECT_EQ(log.size(), before + 1);
  const auto spans = log.snapshot();
  const auto& rec = spans.back();
  EXPECT_EQ(rec.name, "test.span");
  EXPECT_EQ(rec.category, "test");
  EXPECT_GE(rec.duration_us(), 0.0);
}

TEST(TelemetrySpans, DisabledSpansAreNotRecorded) {
  auto& log = telemetry::SpanLog::instance();
  const std::size_t before = log.size();
  telemetry::set_enabled(false);
  { telemetry::Span s("test.span.disabled", "test"); }
  telemetry::set_enabled(true);
  EXPECT_EQ(log.size(), before);
}

TEST(TelemetryTrace, ChromeTraceIsValidJsonWithEscapedLabels) {
  HdemSimulator sim(2);
  sim.submit(0, EngineId::H2D, "copy \"in\"", 1.0);
  sim.submit(0, EngineId::Compute, "back\\slash", 2.0);
  auto tl = sim.run();
  const std::string json = telemetry::merged_chrome_trace(&tl, {});
  Value v = telemetry::parse(json);  // valid JSON despite nasty labels
  ASSERT_TRUE(v.is_array());
  bool saw_quote = false, saw_backslash = false;
  for (const auto& e : v.as_array()) {
    if (!e.get("name")) continue;
    if (e.get("name")->as_string() == "copy \"in\"") saw_quote = true;
    if (e.get("name")->as_string() == "back\\slash") saw_backslash = true;
  }
  EXPECT_TRUE(saw_quote);
  EXPECT_TRUE(saw_backslash);
}

TEST(TelemetryTrace, MergedTraceHasDeviceAndHostRows) {
  HdemSimulator sim(2);
  sim.submit(0, EngineId::H2D, "h2d", 1.0);
  sim.submit(0, EngineId::Compute, "k", 1.0);
  auto tl = sim.run();
  std::vector<telemetry::SpanRecord> spans;
  telemetry::SpanRecord r;
  r.name = "host.phase";
  r.category = "host";
  r.thread = 0;
  r.start_us = 10.0;
  r.end_us = 20.0;
  spans.push_back(r);

  Value v = telemetry::parse(telemetry::merged_chrome_trace(&tl, spans));
  ASSERT_TRUE(v.is_array());
  bool dev_slice = false, host_slice = false;
  for (const auto& e : v.as_array()) {
    const Value* ph = e.get("ph");
    if (!ph || ph->as_string() != "X") continue;
    if (e.get("pid")->as_int() == 0) dev_slice = true;
    if (e.get("pid")->as_int() == 1 &&
        e.get("name")->as_string() == "host.phase")
      host_slice = true;
  }
  EXPECT_TRUE(dev_slice);
  EXPECT_TRUE(host_slice);
}

TEST(TelemetryTrace, MergedTraceWithoutTimelineIsValid) {
  // A host run has no device timeline: the trace names the host process
  // (pid 1) and writes no pid-0 row at all.
  Value v = telemetry::parse(telemetry::merged_chrome_trace(nullptr, {}));
  ASSERT_TRUE(v.is_array());
  ASSERT_EQ(v.as_array().size(), 1u);
  const Value& row = v.as_array()[0];
  EXPECT_EQ(row.get("name")->as_string(), "process_name");
  EXPECT_EQ(row.get("pid")->as_int(), 1);
}

// ---------------------------------------------------------------------------
// Run manifests.
// ---------------------------------------------------------------------------

telemetry::RunManifest sample_manifest() {
  telemetry::RunManifest m;
  m.tool = "test";
  m.command = "compress";
  m.config = Value::object();
  m.config.set("algo", Value("mgard-x"));
  m.config.set("eb", Value(1e-3));
  m.dataset = telemetry::dataset_json(Shape{16, 16}, "f32", 1024);
  m.results = Value::object();
  m.results.set("ratio", Value(8.25));
  telemetry::ChunkDecision d;
  d.index = 0;
  d.bytes = 1024;
  d.rows = 16;
  d.stored_bytes = 128;
  d.predicted_compute_s = 1e-4;
  d.predicted_h2d_s = 2e-5;
  d.realized_compute_s = 1.1e-4;
  d.realized_h2d_s = 2e-5;
  m.chunks.push_back(d);
  return m;
}

TEST(TelemetryManifest, RoundTripPreservesEverything) {
  telemetry::RunManifest m = sample_manifest();
  const std::string text = telemetry::dump(m.to_json(), 2);
  telemetry::RunManifest back =
      telemetry::RunManifest::from_json(telemetry::parse(text));
  EXPECT_EQ(back.tool, "test");
  EXPECT_EQ(back.command, "compress");
  EXPECT_EQ(back.config.get("algo")->as_string(), "mgard-x");
  EXPECT_DOUBLE_EQ(back.config.get("eb")->as_double(), 1e-3);
  EXPECT_EQ(back.dataset.get("dtype")->as_string(), "f32");
  EXPECT_EQ(back.dataset.get("shape")->as_array().size(), 2u);
  EXPECT_DOUBLE_EQ(back.results.get("ratio")->as_double(), 8.25);
  ASSERT_EQ(back.chunks.size(), 1u);
  EXPECT_EQ(back.chunks[0].bytes, 1024u);
  EXPECT_EQ(back.chunks[0].stored_bytes, 128u);
  EXPECT_DOUBLE_EQ(back.chunks[0].realized_compute_s, 1.1e-4);
  EXPECT_TRUE(back.include_metrics);
  EXPECT_TRUE(back.include_spans);
}

TEST(TelemetryManifest, FromJsonValidates) {
  EXPECT_THROW(telemetry::RunManifest::from_json(telemetry::parse("{}")),
               Error);
  EXPECT_THROW(telemetry::RunManifest::from_json(telemetry::parse(
                   R"({"hpdr_manifest_version": 999})")),
               Error);
}

// Every integer field of a manifest is read through one checked path: a
// huge, negative, fractional or string value throws hpdr::Error instead of
// reaching an undefined cast or std::bad_variant_access.
TEST(TelemetryManifest, FromJsonRejectsNonCountIntegers) {
  telemetry::RunManifest m = sample_manifest();
  m.chunks[0].retries = 1;
  m.fault_plan = "hdem.task:nth=1";
  m.fault_seed = 9;
  const Value good = m.to_json();
  ASSERT_NO_THROW(telemetry::RunManifest::from_json(good));
  const std::vector<std::pair<std::string, std::string>> fields = {
      {"", "hpdr_manifest_version"}, {"faults", "seed"},
      {"chunk", "index"},            {"chunk", "bytes"},
      {"chunk", "rows"},             {"chunk", "stored_bytes"},
      {"chunk", "retries"},          {"chunk", "worker"}};
  for (const auto& [where, key] : fields) {
    for (const Value& bad :
         {Value(1e30), Value(-1), Value(1.5), Value("7")}) {
      Value doc = good;
      if (where.empty()) {
        doc.set(key, bad);
      } else if (where == "faults") {
        Value f = *doc.get("faults");
        f.set(key, bad);
        doc.set("faults", std::move(f));
      } else {
        Value chunks = *doc.get("chunks");
        chunks.as_array()[0].set(key, bad);
        doc.set("chunks", std::move(chunks));
      }
      EXPECT_THROW(telemetry::RunManifest::from_json(doc), Error)
          << key << " = " << telemetry::dump(bad);
    }
  }
}

// A fault seed is a u64: values above INT64_MAX dump as unsigned decimals
// and read back exactly.
TEST(TelemetryManifest, FaultSeedAboveInt64MaxRoundTrips) {
  for (const std::uint64_t seed : {(std::uint64_t{1} << 63) + 5,
                                   std::numeric_limits<std::uint64_t>::max()}) {
    telemetry::RunManifest m = sample_manifest();
    m.fault_plan = "hdem.task:nth=1";
    m.fault_seed = seed;
    const std::string text = telemetry::dump(m.to_json());
    EXPECT_NE(text.find("\"seed\":" + std::to_string(seed) + "}"),
              std::string::npos)
        << text;
    EXPECT_EQ(telemetry::RunManifest::from_json(telemetry::parse(text))
                  .fault_seed,
              seed);
  }
}

TEST(TelemetryManifest, ManifestIncludesRegistryMetrics) {
  telemetry::counter("test.manifest.counter").reset();
  telemetry::counter("test.manifest.counter").add(7);
  Value j = sample_manifest().to_json();
  const Value* metrics = j.get("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->get("test.manifest.counter")->as_int(), 7);
}

// ---------------------------------------------------------------------------
// Resilience accounting (DESIGN.md §8): a fault-free run must report an
// all-zero fault.* metric family and an empty fault plan.
// ---------------------------------------------------------------------------

TEST(TelemetryFaults, FaultFreeRunReportsAllZeroFaultMetrics) {
  fault::Injector::instance().disarm();
  telemetry::MetricsRegistry::instance().reset();
  // Exercise the layers that own fault sites: pipeline round trip and the
  // retry helper on a clean operation.
  const Device dev = Device::serial();
  auto comp = make_compressor("zfp-x");
  auto ds = data::make("nyx", data::Size::Tiny);
  pipeline::Options opts;
  opts.mode = pipeline::Mode::Fixed;
  opts.param = 1e-2;
  opts.fixed_chunk_bytes = 16 << 10;
  auto cres =
      pipeline::compress(dev, *comp, ds.data(), ds.shape, ds.dtype, opts);
  std::vector<std::uint8_t> out(ds.size_bytes());
  auto dres = pipeline::decompress(dev, *comp, cres.stream, out.data(),
                                   ds.shape, ds.dtype, opts);
  EXPECT_FALSE(dres.partial());
  fault::with_retry(fault::RetryPolicy{}, [] { return 1; });

  const Value snap = telemetry::MetricsRegistry::instance().snapshot();
  std::size_t fault_metrics = 0;
  for (const auto& [name, val] : snap.as_object()) {
    if (name.rfind("fault.", 0) != 0) continue;
    ++fault_metrics;
    if (val.is_number()) {
      EXPECT_EQ(val.as_int(), 0) << name << " nonzero on a fault-free run";
    }
  }
  // The family exists (counters are registered by the code paths above) —
  // an empty family would make this test vacuous.
  EXPECT_GT(fault_metrics, 0u);

  Value j = sample_manifest().to_json();
  const Value* faults = j.get("faults");
  ASSERT_NE(faults, nullptr);
  EXPECT_EQ(faults->get("plan")->as_string(), "");
  EXPECT_EQ(faults->get("seed")->as_int(), 0);
}

// ---------------------------------------------------------------------------
// Quantile latency histograms (DESIGN.md §12): log-linear bucketing with
// ~0.78% midpoint error, validated against exact sorted-sample quantiles
// across seeded distributions.
// ---------------------------------------------------------------------------

double exact_quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(q * static_cast<double>(v.size()))));
  return v[rank - 1];
}

void expect_quantiles_within_2pct(const std::vector<double>& samples) {
  telemetry::LatencyHistogram h;
  for (double s : samples) h.observe(s);
  ASSERT_EQ(h.count(), samples.size());
  for (double q : {0.50, 0.90, 0.99, 0.999}) {
    const double exact = exact_quantile(samples, q);
    EXPECT_NEAR(h.quantile(q), exact, 0.02 * exact)
        << "q=" << q << " exact=" << exact;
  }
}

TEST(TelemetryLatency, QuantilesMatchExactOnUniform) {
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> d(1e-4, 0.5);
  std::vector<double> s(20000);
  for (auto& x : s) x = d(rng);
  expect_quantiles_within_2pct(s);
}

TEST(TelemetryLatency, QuantilesMatchExactOnLognormal) {
  std::mt19937_64 rng(7);
  std::lognormal_distribution<double> d(-6.0, 1.5);  // median ~2.5 ms
  std::vector<double> s(20000);
  for (auto& x : s) x = d(rng);
  expect_quantiles_within_2pct(s);
}

TEST(TelemetryLatency, QuantilesMatchExactOnBimodal) {
  // Cache-hit / cache-miss shape: fast mode ~1 ms, slow mode ~100 ms.
  std::mt19937_64 rng(1234);
  std::normal_distribution<double> fast(1e-3, 2e-4), slow(0.1, 0.02);
  std::vector<double> s(20000);
  for (std::size_t i = 0; i < s.size(); ++i)
    s[i] = std::max(1e-6, (i % 2) ? slow(rng) : fast(rng));
  expect_quantiles_within_2pct(s);
}

TEST(TelemetryLatency, BucketIndexAndMidpointInvariants) {
  using H = telemetry::LatencyHistogram;
  // Out-of-range and non-finite values clamp instead of indexing wild.
  EXPECT_EQ(H::bucket_index(0.0), 0u);
  EXPECT_EQ(H::bucket_index(-1.0), 0u);
  EXPECT_EQ(H::bucket_index(std::nan("")), 0u);
  EXPECT_EQ(H::bucket_index(1e-12), 0u);
  EXPECT_EQ(H::bucket_index(1e9), H::kBuckets - 1);
  // 1.0 s sits at the start of octave 0: (0 - kMinExp) * 64.
  EXPECT_EQ(H::bucket_index(1.0),
            static_cast<std::size_t>(-H::kMinExp) * H::kSub);
  // In-range values: the midpoint of the bucket a value lands in is within
  // half a bucket width — ≤ ~0.79% relative.
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> d(1e-8, 100.0);
  for (int i = 0; i < 1000; ++i) {
    const double v = d(rng);
    const std::size_t b = H::bucket_index(v);
    EXPECT_LT(std::abs(H::bucket_midpoint(b) - v) / v, 1.0 / 64.0) << v;
    // Monotone: a strictly larger value never maps to an earlier bucket.
    EXPECT_GE(H::bucket_index(v * 1.05), b) << v;
  }
}

TEST(TelemetryLatency, SummaryJsonAndReset) {
  telemetry::LatencyHistogram h;
  for (int i = 1; i <= 100; ++i) h.observe(i * 1e-3);
  const Value s = h.summary_json();
  EXPECT_EQ(s.get("count")->as_int(), 100);
  EXPECT_NEAR(s.get("sum")->as_double(), 5.050, 1e-9);
  EXPECT_NEAR(s.get("max")->as_double(), 0.100, 1e-12);
  EXPECT_NEAR(s.get("p50")->as_double(), 0.050, 0.02 * 0.050);
  EXPECT_NEAR(s.get("p999")->as_double(), 0.100, 0.02 * 0.100);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.99), 0.0);
}

TEST(TelemetryLatency, RegistryAccessorReturnsSameInstrument) {
  auto& a = telemetry::latency("test.latency.probe");
  auto& b = telemetry::latency("test.latency.probe");
  EXPECT_EQ(&a, &b);
  a.reset();
  a.observe(1e-3);
  EXPECT_EQ(b.count(), 1u);
  // Snapshot embeds the quantile summary for latency instruments.
  const Value snap = telemetry::MetricsRegistry::instance().snapshot();
  const Value* mine = snap.get("test.latency.probe");
  ASSERT_NE(mine, nullptr);
  EXPECT_EQ(mine->get("count")->as_int(), 1);
}

// ---------------------------------------------------------------------------
// Metric naming discipline: subsystem.object.action[.unit], lowercase.
// ---------------------------------------------------------------------------

TEST(TelemetryNaming, ValidatorAcceptsConventionAndRejectsJunk) {
  using telemetry::valid_metric_name;
  EXPECT_TRUE(valid_metric_name("svc.request.latency"));
  EXPECT_TRUE(valid_metric_name("svc.queue_wait.seconds"));
  EXPECT_TRUE(valid_metric_name("codec.zfp-x.compress.seconds"));
  EXPECT_TRUE(valid_metric_name("fault.fires"));
  EXPECT_TRUE(valid_metric_name("pool.tasks_executed"));
  // The dedup-cache family (DESIGN.md §14).
  EXPECT_TRUE(valid_metric_name("svc.cache.hit"));
  EXPECT_TRUE(valid_metric_name("svc.cache.miss"));
  EXPECT_TRUE(valid_metric_name("svc.cache.insert"));
  EXPECT_TRUE(valid_metric_name("svc.cache.evict"));
  EXPECT_TRUE(valid_metric_name("svc.cache.bytes"));
  EXPECT_TRUE(valid_metric_name("svc.cache.hit.latency"));
  // The progressive-retrieval family (DESIGN.md §15).
  EXPECT_TRUE(valid_metric_name("svc.progressive.requests"));
  EXPECT_TRUE(valid_metric_name("svc.progressive.refine"));
  EXPECT_TRUE(valid_metric_name("svc.progressive.bytes_fetched"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("single"));       // needs >= 2 segments
  EXPECT_FALSE(valid_metric_name("Upper.case"));   // lowercase only
  EXPECT_FALSE(valid_metric_name("a..b"));         // empty segment
  EXPECT_FALSE(valid_metric_name(".a.b"));
  EXPECT_FALSE(valid_metric_name("a.b."));
  EXPECT_FALSE(valid_metric_name("a b.c"));        // no spaces
  EXPECT_FALSE(valid_metric_name("9a.b"));         // segment starts [a-z]
  EXPECT_FALSE(valid_metric_name("a.b.c.d.e.f.g"));  // > 6 segments
}

TEST(TelemetryNaming, EveryRegisteredInstrumentNameIsValid) {
  // Exercise the subsystems that register instruments lazily, then audit
  // the whole registry: one bad name anywhere in the codebase fails here
  // (and aborts at registration in debug builds).
  const Device dev = Device::serial();
  auto comp = make_compressor("zfp-x");
  auto ds = data::make("nyx", data::Size::Tiny);
  pipeline::Options opts;
  opts.mode = pipeline::Mode::Fixed;
  opts.param = 1e-2;
  opts.fixed_chunk_bytes = 16 << 10;
  // Running the chunk loops with a dedup cache attached registers the
  // whole svc.cache.* family, so it is audited below alongside the rest.
  auto budget = std::make_shared<svc::ArenaBudget>(std::size_t{16} << 20);
  svc::ChunkCache cache(budget);
  opts.cache = &cache;
  auto cres =
      pipeline::compress(dev, *comp, ds.data(), ds.shape, ds.dtype, opts);
  std::vector<std::uint8_t> out(ds.size_bytes());
  pipeline::decompress(dev, *comp, cres.stream, out.data(), ds.shape,
                       ds.dtype, opts);
  EXPECT_GT(cache.inserts(), 0u);
  // One refine through the service registers (and exercises) the
  // svc.progressive.* family alongside the svc.* request instruments.
  {
    const auto v3 = pipeline::progressive_compress(dev, ds.data(), ds.shape,
                                                   ds.dtype, opts);
    svc::Service service;
    svc::JobSpec spec;
    spec.kind = svc::JobKind::Progressive;
    spec.codec = "mgard-x";
    spec.input = v3.data();
    spec.input_bytes = v3.size();
    spec.bound = 0.0;
    const auto jr = service.submit(spec).get();
    EXPECT_TRUE(jr.ok) << jr.error;
  }
  const auto names = telemetry::MetricsRegistry::instance().names();
  EXPECT_GT(names.size(), 10u);
  for (const auto& n : names)
    EXPECT_TRUE(telemetry::valid_metric_name(n)) << "bad metric name: " << n;
  // The families the §14/§15 dashboards scrape must be registered.
  for (const char* required :
       {"svc.cache.hit", "svc.cache.miss", "svc.cache.insert",
        "svc.cache.evict", "svc.cache.bytes", "svc.cache.hit.latency",
        "svc.progressive.requests", "svc.progressive.refine",
        "svc.progressive.bytes_fetched"})
    EXPECT_NE(std::find(names.begin(), names.end(), required), names.end())
        << "missing metric: " << required;
}

// ---------------------------------------------------------------------------
// Flight recorder (DESIGN.md §12).
// ---------------------------------------------------------------------------

TEST(TelemetryRecorder, RecordsDrainsAndClears) {
  auto& rec = telemetry::FlightRecorder::instance();
  rec.clear();
  EXPECT_FALSE(rec.should_drain());

  telemetry::flight_event(telemetry::EventKind::JobAdmit, "zfp-x", 1);
  telemetry::flight_event(telemetry::EventKind::JobStart, "zfp-x", 1);
  telemetry::flight_event(telemetry::EventKind::JobFinish, "zfp-x", 1);
  EXPECT_FALSE(rec.should_drain());  // healthy lifecycle: no post-mortem

  telemetry::flight_event(telemetry::EventKind::JobFail, "boom", 2);
  EXPECT_TRUE(rec.should_drain());

  auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first, and payloads survive the seqlock round trip.
  EXPECT_TRUE(std::is_sorted(
      events.begin(), events.end(),
      [](const auto& a, const auto& b) { return a.t_us < b.t_us; }));
  EXPECT_EQ(events[0].kind, telemetry::EventKind::JobAdmit);
  EXPECT_EQ(events[0].detail, "zfp-x");
  EXPECT_EQ(events[3].kind, telemetry::EventKind::JobFail);
  EXPECT_EQ(events[3].detail, "boom");
  EXPECT_EQ(events[3].arg, 2u);

  const Value j = rec.snapshot_json();
  EXPECT_EQ(j.get("recorded")->as_int(), 4);
  EXPECT_EQ(j.get("events")->as_array().size(), 4u);
  EXPECT_EQ(j.get("events")->as_array()[3].get("kind")->as_string(),
            "job_fail");

  rec.clear();
  EXPECT_FALSE(rec.should_drain());
  EXPECT_TRUE(rec.snapshot().empty());
}

TEST(TelemetryRecorder, LongDetailIsTruncatedNotCorrupted) {
  auto& rec = telemetry::FlightRecorder::instance();
  rec.clear();
  const std::string longline(200, 'x');
  telemetry::flight_event(telemetry::EventKind::Eviction, longline, 9);
  auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].detail,
            std::string(telemetry::FlightRecorder::kDetailChars, 'x'));
  rec.clear();
}

TEST(TelemetryRecorder, AttributesEventsToCurrentTrace) {
  auto& rec = telemetry::FlightRecorder::instance();
  rec.clear();
  const std::uint64_t trace = telemetry::mint_trace_id();
  {
    const telemetry::TraceScope ts({trace, 0});
    telemetry::flight_event(telemetry::EventKind::Retry, "attempt", 1);
  }
  telemetry::flight_event(telemetry::EventKind::JobAdmit, "untraced");
  auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 2u);
  // snapshot() sorts by time: the traced Retry was recorded first.
  EXPECT_EQ(events[0].trace_id, trace);
  EXPECT_EQ(events[1].trace_id, 0u);
  rec.clear();
}

TEST(TelemetryRecorder, ConcurrentWritersNeverTearOrBlock) {
  auto& rec = telemetry::FlightRecorder::instance();
  rec.clear();
  constexpr int kThreads = 8, kPerThread = 2000;  // overflows every stripe
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i)
        telemetry::flight_event(telemetry::EventKind::BackpressureStall,
                                "stall", static_cast<std::uint64_t>(t));
    });
  // A reader racing the writers must only ever see whole events.
  for (int r = 0; r < 50; ++r) {
    for (const auto& e : rec.snapshot()) {
      EXPECT_EQ(e.kind, telemetry::EventKind::BackpressureStall);
      EXPECT_EQ(e.detail, "stall");
      EXPECT_LT(e.arg, static_cast<std::uint64_t>(kThreads));
    }
  }
  for (auto& th : threads) th.join();
  const auto events = rec.snapshot();
  EXPECT_LE(events.size(), telemetry::FlightRecorder::kStripes *
                               telemetry::FlightRecorder::kSlotsPerStripe);
  EXPECT_GT(events.size(), 0u);
  for (const auto& e : events) {
    EXPECT_EQ(e.detail, "stall");
    EXPECT_LT(e.arg, static_cast<std::uint64_t>(kThreads));
  }
  const Value j = rec.snapshot_json();
  EXPECT_EQ(j.get("recorded")->as_int(), kThreads * kPerThread);
  rec.clear();
}

// ---------------------------------------------------------------------------
// Request tracing (DESIGN.md §12): context propagation and span lineage.
// ---------------------------------------------------------------------------

TEST(TelemetryTracing, MintedIdsAreUniqueAndNonZero) {
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 1000; ++i) ids.push_back(telemetry::mint_trace_id());
  for (auto id : ids) EXPECT_NE(id, 0u);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
  EXPECT_EQ(telemetry::trace_id_hex(0), "");
  EXPECT_EQ(telemetry::trace_id_hex(0x1f).size(), 16u);
  EXPECT_EQ(telemetry::trace_id_hex(0x1f), "000000000000001f");
}

TEST(TelemetryTracing, TraceScopeInstallsAndRestores) {
  EXPECT_FALSE(telemetry::current_trace().active());
  const std::uint64_t outer = telemetry::mint_trace_id();
  {
    const telemetry::TraceScope a({outer, 0});
    EXPECT_EQ(telemetry::current_trace().trace_id, outer);
    {
      const telemetry::TraceScope b({telemetry::mint_trace_id(), 7});
      EXPECT_NE(telemetry::current_trace().trace_id, outer);
      EXPECT_EQ(telemetry::current_trace().span_id, 7u);
    }
    EXPECT_EQ(telemetry::current_trace().trace_id, outer);
  }
  EXPECT_FALSE(telemetry::current_trace().active());
}

TEST(TelemetryTracing, SpansRecordLineageAndTimelineFilters) {
  telemetry::SpanLog::instance().clear();
  const std::uint64_t trace = telemetry::mint_trace_id();
  {
    const telemetry::TraceScope ts({trace, 0});
    telemetry::Span parent("svc.job", "svc");
    { telemetry::Span child("pipeline.encode", "pipeline"); }
    { telemetry::Span child2("io.put", "io"); }
  }
  { telemetry::Span unrelated("other.work", "misc"); }  // no active trace

  const auto spans = telemetry::SpanLog::instance().for_trace(trace);
  ASSERT_EQ(spans.size(), 3u);
  const auto& parent = *std::find_if(
      spans.begin(), spans.end(),
      [](const auto& s) { return s.name == "svc.job"; });
  EXPECT_EQ(parent.trace_id, trace);
  EXPECT_EQ(parent.parent_span, 0u);
  EXPECT_NE(parent.span_id, 0u);
  for (const auto& s : spans) {
    if (s.name == "svc.job") continue;
    EXPECT_EQ(s.trace_id, trace);
    EXPECT_EQ(s.parent_span, parent.span_id) << s.name;
    EXPECT_NE(s.span_id, parent.span_id);
  }

  const Value tl = telemetry::trace_timeline(trace);
  EXPECT_EQ(tl.get("trace")->as_string(), telemetry::trace_id_hex(trace));
  EXPECT_EQ(tl.get("spans")->as_array().size(), 3u);
  telemetry::SpanLog::instance().clear();
}

TEST(TelemetryTracing, ContextSurvivesParallelFor) {
  // The pipeline pattern: capture before fan-out, install inside workers.
  telemetry::SpanLog::instance().clear();
  ThreadPool::instance().resize(4);  // real workers even on a 1-core host
  const std::uint64_t trace = telemetry::mint_trace_id();
  {
    const telemetry::TraceScope ts({trace, 0});
    telemetry::Span root("svc.job", "svc");
    const telemetry::TraceContext ctx = telemetry::current_trace();
    ThreadPool::instance().parallel_for(std::size_t{8}, [&](std::size_t) {
      const telemetry::TraceScope inner(ctx);
      telemetry::Span work("chunk.encode", "pipeline");
    });
  }
  const auto spans = telemetry::SpanLog::instance().for_trace(trace);
  EXPECT_EQ(spans.size(), 9u);  // root + 8 workers
  // Worker spans that landed on other threads give the merged trace its
  // cross-thread flow arrows ("s"/"f" phase pairs); same-thread nesting
  // shows as slice stacking and gets none.
  bool crossed = false;
  std::uint64_t root_span = 0;
  std::uint32_t root_thread = 0;
  for (const auto& s : spans)
    if (s.name == "svc.job") {
      root_span = s.span_id;
      root_thread = s.thread;
    }
  for (const auto& s : spans)
    crossed |= s.parent_span == root_span && s.thread != root_thread;
  const std::string json = telemetry::merged_chrome_trace(nullptr, spans);
  if (crossed) {
    EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  }
  telemetry::SpanLog::instance().clear();
  ThreadPool::instance().resize(ThreadPool::default_threads());
}

// ---------------------------------------------------------------------------
// Prometheus export (DESIGN.md §12).
// ---------------------------------------------------------------------------

TEST(TelemetryExport, SanitizesNamesForPrometheus) {
  EXPECT_EQ(telemetry::sanitize_metric_name("svc.request.latency"),
            "svc_request_latency");
  EXPECT_EQ(telemetry::sanitize_metric_name("codec.zfp-x.compress.seconds"),
            "codec_zfp_x_compress_seconds");
  EXPECT_EQ(telemetry::sanitize_metric_name("9lives"), "_9lives");
}

TEST(TelemetryExport, CoversEveryInstrumentKindAndParses) {
  auto& reg = telemetry::MetricsRegistry::instance();
  telemetry::counter("test.export.count").add(3);
  telemetry::gauge("test.export.level").set(1.5);
  telemetry::histogram("test.export.sizes", {1.0, 10.0, 100.0}).observe(5.0);
  telemetry::latency("test.export.latency").observe(0.25);

  const std::string text = reg.export_prometheus();
  EXPECT_NE(text.find("test_export_count 3"), std::string::npos);
  EXPECT_NE(text.find("test_export_level 1.5"), std::string::npos);
  EXPECT_NE(text.find("test_export_sizes_bucket{le=\"10\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("test_export_sizes_count 1"), std::string::npos);
  EXPECT_NE(text.find("test_export_latency{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("test_export_latency_p99"), std::string::npos);
  EXPECT_NE(text.find("test_export_latency_count 1"), std::string::npos);

  // Every registered instrument appears, and every sample line parses as
  // "name[{labels}] value" with a finite value.
  for (const auto& name : reg.names())
    EXPECT_NE(text.find(telemetry::sanitize_metric_name(name)),
              std::string::npos)
        << name;
  std::size_t samples = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      EXPECT_EQ(line.rfind("# TYPE ", 0), 0u) << line;
      continue;
    }
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    const std::string metric = line.substr(0, sp);
    EXPECT_FALSE(metric.empty()) << line;
    for (char c : metric.substr(0, metric.find('{')))
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_')
          << line;
    EXPECT_TRUE(std::isfinite(std::stod(line.substr(sp + 1)))) << line;
    ++samples;
  }
  EXPECT_GT(samples, 10u);
}

TEST(TelemetryFaults, ManifestFaultPlanRoundTrips) {
  telemetry::RunManifest m = sample_manifest();
  m.fault_plan = "fs.write:nth=2;chunk.corrupt:nth=1,flip=4";
  m.fault_seed = 77;
  telemetry::RunManifest back = telemetry::RunManifest::from_json(
      telemetry::parse(telemetry::dump(m.to_json(), 2)));
  EXPECT_EQ(back.fault_plan, m.fault_plan);
  EXPECT_EQ(back.fault_seed, 77u);
}

}  // namespace
}  // namespace hpdr
