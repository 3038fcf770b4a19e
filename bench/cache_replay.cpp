// Dedup-cache replay (DESIGN.md §14): a Zipf(1.0) request stream over a
// small corpus of distinct tensors, replayed twice through svc::Service —
// cache off, then cache on — at 8 concurrent runners. Scientific serving
// traffic is exactly this shape (a few hot variables requested over and
// over at the same error bound), so the cache-on phase should turn most
// codec runs into shard-lookup + memcpy. Writes BENCH_cache.json (--out F)
// for CI to archive.
//
// Gates (exit code = number failed, see check.hpp):
//   * every response — both phases, any hit/miss interleaving under the
//     8-way concurrency — is byte-identical to the direct single-threaded
//     pipeline result for its item (the determinism guarantee);
//   * cache-on hit ratio >= 0.7 over the replay;
//   * the time ledger moved: codec seconds cache-off and cache-hit
//     seconds cache-on are nonzero (a misspelt histogram name must fail,
//     not archive zeros);
//   * cache-on p99 latency improves >= 3x and aggregate throughput >= 2x
//     vs the cache-off phase (skipped under --smoke, where the run is too
//     short and the host too contended — TSan CI — for stable ratios).
#include <algorithm>
#include <chrono>
#include <fstream>
#include <future>
#include <random>
#include <vector>

#include "check.hpp"
#include "common.hpp"

using namespace hpdr;

namespace {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx =
      static_cast<std::size_t>(p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

struct Request {
  std::size_t item = 0;
  svc::JobKind kind = svc::JobKind::Compress;
};

struct PhaseStats {
  double wall_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double gbps = 0.0;
  double hit_ratio = 0.0;
  double codec_s = 0.0;
  double cache_hit_s = 0.0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

}  // namespace

int main(int argc, char** argv) {
  bench::header("Dedup-cache replay — Zipf request stream, cache off vs on",
                "content-addressed chunk cache, DESIGN.md §14");
  const data::Size size = bench::pick_size(argc, argv, data::Size::Tiny);
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  const bool full = bench::has_flag(argc, argv, "--full");
  bench::apply_threads(argc, argv);

  // The smoke tape still has to outrun its compulsory misses (each item
  // seeds up to two cold keys, one per direction) for the hit-ratio gate
  // to be meaningful, so it shrinks the request count less than 4x.
  const std::size_t items = full ? 16 : 12;
  std::size_t requests = smoke ? 128 : (full ? 512 : 192);
  {
    const std::string v = bench::flag_value(argc, argv, "--requests");
    if (!v.empty()) requests = std::strtoul(v.c_str(), nullptr, 10);
  }

  // Corpus: distinct NYX realizations (deterministic in seed) — stand-ins
  // for "the same variable at different timesteps".
  std::vector<data::Dataset> corpus;
  corpus.reserve(items);
  for (std::size_t i = 0; i < items; ++i)
    corpus.push_back(data::make("nyx", size, /*seed=*/100 + i));

  const Device dev = Device::serial();
  pipeline::Options opts;
  opts.mode = pipeline::Mode::None;  // small serving jobs: one chunk each
  opts.param = 1e-2;
  auto comp = make_compressor("mgard-x");

  // Direct single-threaded references: the byte-identity oracle for every
  // response, and the input for decompress requests.
  std::vector<std::vector<std::uint8_t>> streams(items);
  std::vector<std::vector<std::uint8_t>> goldens(items);
  for (std::size_t i = 0; i < items; ++i) {
    const auto& ds = corpus[i];
    streams[i] = pipeline::compress(dev, *comp, ds.data(), ds.shape,
                                    ds.dtype, opts)
                     .stream;
    goldens[i].resize(ds.size_bytes());
    pipeline::decompress(dev, *comp, streams[i], goldens[i].data(), ds.shape,
                         ds.dtype, opts);
  }

  // Zipf(1.0) item popularity, ~70/30 compress/decompress, fixed seed: the
  // same request tape is replayed in both phases.
  std::mt19937 rng(20260809u);
  std::vector<double> weights(items);
  for (std::size_t i = 0; i < items; ++i)
    weights[i] = 1.0 / static_cast<double>(i + 1);
  std::discrete_distribution<std::size_t> zipf(weights.begin(),
                                               weights.end());
  std::uniform_real_distribution<double> mix(0.0, 1.0);
  std::vector<Request> tape(requests);
  for (auto& rq : tape) {
    rq.item = zipf(rng);
    rq.kind = mix(rng) < 0.7 ? svc::JobKind::Compress
                             : svc::JobKind::Decompress;
  }
  double replay_gb = 0.0;
  for (const auto& rq : tape)
    replay_gb += static_cast<double>(corpus[rq.item].size_bytes()) / 1e9;

  const std::size_t budget_bytes = std::size_t{256} << 20;
  // The time split — codec work vs. cache-hit memcpy — comes from the
  // ledger histograms the codecs and the cache fill, reset per phase.
  auto& compress_ledger = telemetry::latency("codec.mgard-x.compress.seconds");
  auto& decompress_ledger =
      telemetry::latency("codec.mgard-x.decompress.seconds");
  auto& hit_ledger = telemetry::latency("svc.cache.hit.latency");
  const auto run_phase = [&](bool use_cache) {
    telemetry::latency("svc.request.latency").reset();
    compress_ledger.reset();
    decompress_ledger.reset();
    hit_ledger.reset();
    svc::Service::Config cfg;
    cfg.max_concurrent_jobs = 8;
    cfg.arena_budget_bytes = budget_bytes;
    svc::Service service(cfg);
    auto session = service.open_session();

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::future<svc::JobResult>> futs;
    futs.reserve(requests);
    for (const auto& rq : tape) {
      const auto& ds = corpus[rq.item];
      svc::JobSpec spec;
      spec.kind = rq.kind;
      spec.codec = "mgard-x";
      spec.shape = ds.shape;
      spec.dtype = ds.dtype;
      spec.opts = opts;
      spec.use_cache = use_cache;
      if (rq.kind == svc::JobKind::Compress) {
        spec.input = ds.data();
        spec.input_bytes = ds.size_bytes();
      } else {
        spec.input = streams[rq.item].data();
        spec.input_bytes = streams[rq.item].size();
      }
      futs.push_back(session.submit(std::move(spec)));
    }
    PhaseStats st;
    std::vector<double> latency_ms;
    latency_ms.reserve(requests);
    for (std::size_t r = 0; r < futs.size(); ++r) {
      const auto res = futs[r].get();
      HPDR_EXPECT_TRUE(res.ok);
      const auto& oracle = tape[r].kind == svc::JobKind::Compress
                               ? streams[tape[r].item]
                               : goldens[tape[r].item];
      HPDR_EXPECT_EQ(res.output.size(), oracle.size());
      HPDR_EXPECT_TRUE(res.output == oracle);  // identity at any hit/miss mix
      latency_ms.push_back((res.queue_wait_s + res.run_s) * 1e3);
    }
    st.codec_s = compress_ledger.sum() + decompress_ledger.sum();
    st.cache_hit_s = hit_ledger.sum();
    st.wall_s = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    st.gbps = replay_gb / st.wall_s;
    st.p50_ms = percentile(latency_ms, 0.50);
    st.p99_ms = percentile(latency_ms, 0.99);
    st.hits = service.cache().hits();
    st.misses = service.cache().misses();
    const auto looked = st.hits + st.misses;
    st.hit_ratio =
        looked > 0 ? static_cast<double>(st.hits) / looked : 0.0;
    HPDR_EXPECT_LE(service.budget().high_water(), budget_bytes);
    return st;
  };

  const PhaseStats off = run_phase(false);
  const PhaseStats on = run_phase(true);

  bench::Table t({"phase", "reqs", "wall s", "GB/s", "p50 ms", "p99 ms",
                  "hit ratio", "codec s", "hit s"});
  const auto row = [&](const char* name, const PhaseStats& st) {
    t.row({name, std::to_string(requests), bench::fmt(st.wall_s, 3),
           bench::fmt(st.gbps, 3), bench::fmt(st.p50_ms, 2),
           bench::fmt(st.p99_ms, 2), bench::fmt(st.hit_ratio, 3),
           bench::fmt(st.codec_s, 3), bench::fmt(st.cache_hit_s, 4)});
  };
  row("cache off", off);
  row("cache on", on);
  t.print();

  const double p99_x = on.p99_ms > 0 ? off.p99_ms / on.p99_ms : 0.0;
  const double thr_x = off.gbps > 0 ? on.gbps / off.gbps : 0.0;
  std::printf("\np99 improvement %.2fx, throughput %.2fx, hit ratio %.3f\n",
              p99_x, thr_x, on.hit_ratio);
  // Greppable counter line for the CI smoke (svc.cache.hit > 0).
  std::printf("svc.cache.hit %llu\nsvc.cache.miss %llu\n",
              static_cast<unsigned long long>(on.hits),
              static_cast<unsigned long long>(on.misses));

  HPDR_EXPECT_GE(on.hit_ratio, 0.7);
  HPDR_EXPECT_GT(off.codec_s, 0.0);
  HPDR_EXPECT_GT(on.cache_hit_s, 0.0);
  if (!smoke) {
    HPDR_EXPECT_GE(p99_x, 3.0);
    HPDR_EXPECT_GE(thr_x, 2.0);
  } else {
    std::printf("perf-ratio gates skipped (--smoke)\n");
  }

  std::string out_path = bench::flag_value(argc, argv, "--out");
  if (out_path.empty()) out_path = "BENCH_cache.json";
  telemetry::Value doc = telemetry::Value::object();
  doc.set("bench", telemetry::Value("cache_replay"));
  doc.set("items", telemetry::Value(items));
  doc.set("requests", telemetry::Value(requests));
  doc.set("zipf_s", telemetry::Value(1.0));
  doc.set("concurrency", telemetry::Value(8));
  doc.set("arena_budget_bytes", telemetry::Value(budget_bytes));
  const auto phase_json = [&](const PhaseStats& st) {
    telemetry::Value v = telemetry::Value::object();
    v.set("wall_s", telemetry::Value(st.wall_s));
    v.set("aggregate_gbps", telemetry::Value(st.gbps));
    v.set("latency_p50_ms", telemetry::Value(st.p50_ms));
    v.set("latency_p99_ms", telemetry::Value(st.p99_ms));
    v.set("cache_hits", telemetry::Value(st.hits));
    v.set("cache_misses", telemetry::Value(st.misses));
    v.set("hit_ratio", telemetry::Value(st.hit_ratio));
    v.set("codec_s", telemetry::Value(st.codec_s));
    v.set("cache_hit_s", telemetry::Value(st.cache_hit_s));
    return v;
  };
  doc.set("cache_off", phase_json(off));
  doc.set("cache_on", phase_json(on));
  doc.set("p99_improvement", telemetry::Value(p99_x));
  doc.set("throughput_improvement", telemetry::Value(thr_x));
  doc.set("gates_enforced", telemetry::Value(!smoke));
  std::ofstream f(out_path, std::ios::trunc);
  f << telemetry::dump(doc, /*indent=*/2) << "\n";
  std::printf("wrote %s\n", out_path.c_str());

  bench::maybe_write_manifest(argc, argv, "cache_replay");
  return bench::check_failures();
}
