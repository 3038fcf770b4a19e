// Serving-layer throughput (DESIGN.md §10): aggregate GB/s and per-job
// latency percentiles for a batch of jobs pushed through svc::Service at
// 1, 4, and 16 concurrent runners, against a sequential baseline that runs
// the same batch back-to-back through pipeline::compress on the same
// machine. Jobs are deliberately small and single-chunk (Mode::None), the
// regime the serving layer exists for: one such job cannot use the machine
// by itself, so all speedup must come from the scheduler packing concurrent
// jobs — exactly what an inference server does with small requests on a
// shared accelerator. Writes BENCH_svc.json (--out F) for CI to archive.
//
// Gates (exit code = number failed, see check.hpp):
//   * every job succeeds and round-trips byte-identically to the direct
//     pipeline stream (the determinism guarantee, at every concurrency);
//   * arena high-water stays under the configured budget;
//   * the codec time ledger is nonzero at every level (a misspelt
//     histogram name must fail, not archive zeros);
//   * 16-concurrent aggregate throughput >= 2x the sequential baseline —
//     enforced only when hardware_concurrency >= 4 (a 1-core host has no
//     parallelism to harvest; the JSON records the gate as skipped).
#include <algorithm>
#include <chrono>
#include <fstream>
#include <future>
#include <thread>
#include <vector>

#include "check.hpp"
#include "common.hpp"

using namespace hpdr;

namespace {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  bench::header("Service throughput — concurrent jobs vs sequential baseline",
                "job-level serving layer, DESIGN.md §10");
  const data::Size size = bench::pick_size(argc, argv, data::Size::Tiny);
  const int jobs = bench::has_flag(argc, argv, "--full") ? 64 : 16;
  // --cache opts every job into the service's dedup ChunkCache: the batch
  // compresses one identical tensor, so all but the first job per level
  // should hit (the streams must stay byte-identical either way).
  const bool use_cache = bench::has_flag(argc, argv, "--cache");
  bench::apply_threads(argc, argv);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  auto ds = data::make("nyx", size);
  const Device dev = Device::serial();
  pipeline::Options opts;
  opts.mode = pipeline::Mode::None;  // single chunk: job-level parallelism only
  opts.param = 1e-2;
  auto comp = make_compressor("zfp-x");
  const double batch_gb =
      static_cast<double>(ds.size_bytes()) * jobs / 1e9;

  // Sequential baseline: the same batch, one job at a time, same machine.
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::uint8_t> direct;
  for (int r = 0; r < jobs; ++r)
    direct = pipeline::compress(dev, *comp, ds.data(), ds.shape, ds.dtype,
                                opts)
                 .stream;
  const auto t1 = std::chrono::steady_clock::now();
  const double seq_wall = std::chrono::duration<double>(t1 - t0).count();
  const double seq_gbps = batch_gb / seq_wall;

  const std::size_t budget_bytes = std::size_t{64} << 20;
  bench::Table t({"mode", "jobs", "wall s", "agg GB/s", "speedup",
                  "p50 ms", "p99 ms"});
  t.row({"sequential", std::to_string(jobs), bench::fmt(seq_wall, 3),
         bench::fmt(seq_gbps, 3), "1.00", "-", "-"});

  telemetry::Value levels = telemetry::Value::array();
  double conc16_gbps = 0.0;
  // The time split — codec work vs. cache-hit memcpy — comes from the
  // ledger histograms the codec and the cache fill on every call.
  auto& codec_ledger = telemetry::latency("codec.zfp-x.compress.seconds");
  auto& hit_ledger = telemetry::latency("svc.cache.hit.latency");
  for (const unsigned conc : {1u, 4u, 16u}) {
    // Each level gets its own histogram window so the published quantiles
    // and the time split describe this concurrency alone, not the
    // accumulated run.
    telemetry::latency("svc.request.latency").reset();
    codec_ledger.reset();
    hit_ledger.reset();
    svc::Service::Config cfg;
    cfg.max_concurrent_jobs = conc;
    cfg.arena_budget_bytes = budget_bytes;
    svc::Service service(cfg);
    auto session = service.open_session();

    const auto c0 = std::chrono::steady_clock::now();
    std::vector<std::future<svc::JobResult>> futs;
    futs.reserve(static_cast<std::size_t>(jobs));
    for (int r = 0; r < jobs; ++r) {
      svc::JobSpec spec;
      spec.kind = svc::JobKind::Compress;
      spec.codec = "zfp-x";
      spec.shape = ds.shape;
      spec.dtype = ds.dtype;
      spec.opts = opts;
      spec.use_cache = use_cache;
      spec.input = ds.data();
      spec.input_bytes = ds.size_bytes();
      futs.push_back(session.submit(std::move(spec)));
    }
    std::vector<double> latency_ms;
    for (auto& f : futs) {
      const auto res = f.get();
      HPDR_EXPECT_TRUE(res.ok);
      HPDR_EXPECT_EQ(res.output.size(), direct.size());
      HPDR_EXPECT_TRUE(res.output == direct);  // determinism under load
      latency_ms.push_back((res.queue_wait_s + res.run_s) * 1e3);
    }
    const auto c1 = std::chrono::steady_clock::now();
    const double wall = std::chrono::duration<double>(c1 - c0).count();
    const double gbps = batch_gb / wall;
    if (conc == 16u) conc16_gbps = gbps;
    const double p50 = percentile(latency_ms, 0.50);
    const double p99 = percentile(latency_ms, 0.99);
    HPDR_EXPECT_LE(service.budget().high_water(), budget_bytes);
    const double codec_s = codec_ledger.sum();
    HPDR_EXPECT_GT(codec_s, 0.0);

    t.row({"concurrent x" + std::to_string(conc), std::to_string(jobs),
           bench::fmt(wall, 3), bench::fmt(gbps, 3),
           bench::fmt(gbps / seq_gbps, 2), bench::fmt(p50, 2),
           bench::fmt(p99, 2)});
    telemetry::Value level = telemetry::Value::object();
    level.set("concurrency", telemetry::Value(conc));
    level.set("jobs", telemetry::Value(jobs));
    level.set("wall_s", telemetry::Value(wall));
    level.set("aggregate_gbps", telemetry::Value(gbps));
    level.set("speedup_vs_sequential", telemetry::Value(gbps / seq_gbps));
    level.set("latency_p50_ms", telemetry::Value(p50));
    level.set("latency_p99_ms", telemetry::Value(p99));
    // Quantiles from the service's lock-free log-bucketed histogram
    // (end-to-end enqueue->done, so they include queue wait). p50/p99
    // should agree with the exact sorted-sample percentiles above to
    // within the histogram's ~1% bucket-midpoint error.
    const auto& hist = telemetry::latency("svc.request.latency");
    level.set("hist_count", telemetry::Value(hist.count()));
    level.set("hist_p50_ms", telemetry::Value(hist.quantile(0.50) * 1e3));
    level.set("hist_p90_ms", telemetry::Value(hist.quantile(0.90) * 1e3));
    level.set("hist_p99_ms", telemetry::Value(hist.quantile(0.99) * 1e3));
    level.set("hist_p999_ms", telemetry::Value(hist.quantile(0.999) * 1e3));
    level.set("arena_high_water_bytes",
              telemetry::Value(service.budget().high_water()));
    // Dedup-cache outcome (all zero without --cache) and the time split —
    // codec work vs. cache-hit memcpy — for this level.
    const auto hits = service.cache().hits();
    const auto misses = service.cache().misses();
    level.set("cache_hits", telemetry::Value(hits));
    level.set("cache_misses", telemetry::Value(misses));
    level.set("cache_hit_ratio",
              telemetry::Value(hits + misses > 0
                                   ? static_cast<double>(hits) /
                                         static_cast<double>(hits + misses)
                                   : 0.0));
    level.set("codec_s", telemetry::Value(codec_s));
    level.set("cache_hit_s", telemetry::Value(hit_ledger.sum()));
    levels.push_back(std::move(level));
  }
  t.print();

  const bool gate_applies = hw >= 4;
  if (gate_applies) {
    HPDR_EXPECT_GE(conc16_gbps, 2.0 * seq_gbps);
  } else {
    std::printf("\n2x speedup gate skipped: hardware_concurrency=%u < 4\n",
                hw);
  }

  std::string out_path = bench::flag_value(argc, argv, "--out");
  if (out_path.empty()) out_path = "BENCH_svc.json";
  telemetry::Value doc = telemetry::Value::object();
  doc.set("bench", telemetry::Value("svc_throughput"));
  doc.set("dataset", telemetry::dataset_json(ds.shape, to_string(ds.dtype),
                                             ds.size_bytes()));
  doc.set("jobs_per_level", telemetry::Value(jobs));
  doc.set("cache_enabled", telemetry::Value(use_cache));
  doc.set("hardware_concurrency", telemetry::Value(hw));
  doc.set("arena_budget_bytes", telemetry::Value(budget_bytes));
  doc.set("sequential_gbps", telemetry::Value(seq_gbps));
  doc.set("speedup_gate",
          telemetry::Value(gate_applies
                               ? (conc16_gbps >= 2.0 * seq_gbps ? "pass"
                                                                : "fail")
                               : "skipped"));
  doc.set("levels", std::move(levels));
  std::ofstream f(out_path, std::ios::trunc);
  f << telemetry::dump(doc, /*indent=*/2) << "\n";
  std::printf("\nwrote %s\n", out_path.c_str());

  bench::maybe_write_manifest(argc, argv, "svc_throughput");
  return bench::check_failures();
}
