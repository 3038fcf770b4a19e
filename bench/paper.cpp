// Paper-reproduction harness: the one binary that regenerates every table
// and figure of the HPDR paper's evaluation (§VI: Figs. 1, 10-18, Table
// III) plus the design-choice ablations of DESIGN.md §4. Each figure is a
// `run` function that builds its setup once, prints its table, and gates
// the conclusion it reproduces on the very rows it printed, so a refactor
// that silently breaks the reproduction fails CI rather than a human
// eyeballing figures.
//
//   bench_paper                      every figure, in kFigures order
//   bench_paper --fig 13 --fig tab3  a subset (an unknown id exits 2)
//   --tiny | --medium | --full       override every figure's default size
//   --out F                          gated numbers (default BENCH_paper.json)
//   --metrics F                      run manifest with the telemetry state
//
// Timings are modeled — HDEM/SimGpu makespans and the cluster models —
// except ablation-cmm's host cache line, which is labelled as measured.
// Compression ratios and errors are real codec output. The exit code is
// the number of failed gates (see bench/check.hpp).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <utility>

#include "check.hpp"
#include "common.hpp"
#include "core/isa.hpp"
#include "sim/scaling.hpp"

using namespace hpdr;
using Object = telemetry::Value::Object;

namespace {

/// Dimensionally scaled device for running a paper experiment of
/// `paper_bytes` on `data_bytes` of input (see machine::scaled_replica).
Device scaled_gpu(const std::string& name, std::size_t data_bytes,
                  double paper_bytes) {
  const double scale =
      std::min(1.0, static_cast<double>(data_bytes) / paper_bytes);
  return machine::scaled_replica(name, scale);
}

/// One generated dataset per (name, size) for the whole process: most
/// figures run on the same NYX field.
const data::Dataset& dataset(const std::string& name, data::Size size) {
  static std::map<std::pair<std::string, data::Size>, data::Dataset> memo;
  auto it = memo.find({name, size});
  if (it == memo.end())
    it = memo.emplace(std::pair{name, size}, data::make(name, size)).first;
  return it->second;
}

/// The paper's single-GPU chunk schedules on a 4.3 GB variable — 100 MB
/// fixed chunks and a 2 GB adaptive C_limit, i.e. total/43 and total/2 at
/// any scale. `none` is the same chunked loop processed synchronously.
struct Schedules {
  pipeline::Options none, fixed, adaptive;
};

Schedules schedules(std::size_t total, double eb) {
  Schedules s;
  s.fixed.mode = pipeline::Mode::Fixed;
  s.fixed.param = eb;
  s.fixed.fixed_chunk_bytes =
      std::max<std::size_t>(total / 43, std::size_t{64} << 10);
  s.none = s.fixed;
  s.none.overlap = false;
  s.adaptive = s.fixed;
  s.adaptive.mode = pipeline::Mode::Adaptive;
  s.adaptive.init_chunk_bytes = s.fixed.fixed_chunk_bytes;
  s.adaptive.max_chunk_bytes = total / 2;
  return s;
}

/// Adaptive HPDR pipeline vs the unpipelined baseline at one error bound,
/// as the multi-GPU, multi-node, and I/O figures run them.
std::pair<pipeline::Options, pipeline::Options> hpdr_vs_base(double eb) {
  pipeline::Options hpdr_opts, base_opts;
  hpdr_opts.mode = pipeline::Mode::Adaptive;
  base_opts.mode = pipeline::Mode::None;
  hpdr_opts.param = base_opts.param = eb;
  return {hpdr_opts, base_opts};
}

telemetry::Value array_of(const std::vector<double>& xs) {
  return telemetry::Value(telemetry::Value::Array(xs.begin(), xs.end()));
}

// Fig. 1: time breakdown of reducing NYX with four GPU reduction pipelines
// on a V100, buffers on the host. The paper measures 34-89 % of end-to-end
// time in memory operations (H2D/D2H copies and allocations) — the
// motivation for the HPDR pipeline optimizations.
void fig01(data::Size size, telemetry::Value&) {
  const auto& ds = dataset("nyx", size);
  // Paper experiment: 500 MB NYX on a real V100.
  const Device v100 = scaled_gpu("V100", ds.size_bytes(), 500e6);
  pipeline::Options opts;
  opts.mode = pipeline::Mode::None;  // the unoptimized baselines of Fig. 1
  opts.param = 1e-2;

  bench::Table t({"pipeline", "alloc%", "H2D%", "kernel%", "D2H%",
                  "memops%", "total(ms)", "ratio"});
  for (const std::string name :
       {"mgard-gpu", "zfp-cuda", "cusz", "nvcomp-lz4"}) {
    auto comp = make_compressor(name);
    auto r = pipeline::compress(v100, *comp, ds.data(), ds.shape, ds.dtype,
                                opts);
    double alloc = 0, h2d = 0, kern = 0, d2h = 0;
    for (const auto& task : r.timeline.tasks) {
      if (task.label == "alloc")
        alloc += task.duration();
      else if (task.engine == EngineId::H2D)
        h2d += task.duration();
      else if (task.engine == EngineId::D2H)
        d2h += task.duration();
      else
        kern += task.duration();
    }
    const double total = alloc + h2d + kern + d2h;
    const double mem = alloc + h2d + d2h;
    t.row({name, bench::fmt(100 * alloc / total, 1),
           bench::fmt(100 * h2d / total, 1), bench::fmt(100 * kern / total, 1),
           bench::fmt(100 * d2h / total, 1), bench::fmt(100 * mem / total, 1),
           bench::fmt(total * 1e3, 2), bench::fmt(r.ratio(), 1)});
  }
  t.print();
  std::printf(
      "\npaper: 34-89%% of time in memory operations across the four "
      "pipelines;\nthe memops%% column should fall in that band, highest for "
      "the fastest kernels (ZFP/LZ4).\n");
}

// Fig. 10: effect of chunk size on the reduction pipeline, MGARD at eb
// 1e-2 on a 4.3 GB NYX variable. A small fixed chunk overlaps well but
// starves the GPU (7.3 GB/s sustained), a large one saturates it but hides
// only 75.3 % of transfer latency; the adaptive schedule gets both.
void fig10(data::Size size, telemetry::Value& doc) {
  const auto& ds = dataset("nyx", size);
  const Device v100 = scaled_gpu("V100", ds.size_bytes(), 4.3e9);
  auto comp = make_compressor("mgard-x");
  const std::size_t total = ds.size_bytes();
  const Schedules s = schedules(total, 1e-2);
  pipeline::Options large_fixed = s.fixed;
  large_fixed.fixed_chunk_bytes = total / 2;

  bench::Table t({"schedule", "chunks", "first/last chunk", "overlap%",
                  "throughput(GB/s)", "time(ms)"});
  const std::size_t slab = total / ds.shape[0];
  auto run = [&](const char* name, const pipeline::Options& opts) {
    auto r = pipeline::compress(v100, *comp, ds.data(), ds.shape, ds.dtype,
                                opts);
    t.row({name, std::to_string(r.chunk_rows.size()),
           bench::fmt_bytes(double(r.chunk_rows.front() * slab)) + " / " +
               bench::fmt_bytes(double(r.chunk_rows.back() * slab)),
           bench::fmt(100 * r.overlap(), 1), bench::fmt(r.model_gbps(), 2),
           bench::fmt(r.model_seconds() * 1e3, 2)});
    return std::pair{r.model_gbps(), r.overlap()};
  };
  const auto [small_gbps, small_overlap] = run("fixed-small", s.fixed);
  const auto [large_gbps, large_overlap] = run("fixed-large", large_fixed);
  const auto [adapt_gbps, adapt_overlap] = run("adaptive", s.adaptive);
  t.print();
  std::printf(
      "\npaper: small chunks give high overlap but low sustained throughput "
      "(7.3 GB/s);\nlarge chunks saturate the GPU but hide only ~75%% of "
      "transfers; adaptive gets both.\n");

  HPDR_EXPECT_GE(adapt_gbps, small_gbps);
  HPDR_EXPECT_GE(adapt_gbps, large_gbps);
  HPDR_EXPECT_TRUE(small_overlap > large_overlap);

  doc.set("chunk_size_tradeoff",
          Object{{"fixed_small_gbps", small_gbps},
                 {"fixed_large_gbps", large_gbps},
                 {"adaptive_gbps", adapt_gbps},
                 {"fixed_small_overlap", small_overlap},
                 {"fixed_large_overlap", large_overlap},
                 {"adaptive_overlap", adapt_overlap}});
}

// Fig. 11: MGARD and ZFP throughput vs chunk size under the modified
// roofline model Φ(C). The paper profiles real runs and fits a linear ramp
// + saturated plateau; we profile the calibrated device model the same way
// and report the fitted parameters and the fit error.
void fig11(data::Size, telemetry::Value&) {
  const Device v100 = machine::make_device("V100");
  GpuPerfModel model(v100.spec());

  bench::Table t({"kernel", "eb", "γ(GB/s)", "C_thresh(MB)", "α", "β",
                  "mean fit err%"});
  for (const auto& [kc, name] :
       {std::pair{KernelClass::MgardCompress, "MGARD"},
        std::pair{KernelClass::ZfpEncode, "ZFP"}}) {
    for (double eb : {1e-2, 1e-4, 1e-6}) {
      // Sample the device at exponentially spaced chunk sizes, exactly how
      // the paper builds the model from measured runs.
      std::vector<ProfilePoint> pts;
      for (double mb = 1.0; mb <= 1024.0; mb *= 2.0) {
        const auto bytes = static_cast<std::size_t>(mb * (1 << 20));
        const double s = model.kernel_seconds(kc, bytes);
        pts.push_back({mb, double(bytes) / (s * 1e9)});
      }
      const RooflineModel fit = RooflineModel::fit(pts, 0.9);
      double sum_err = 0;
      for (const auto& p : pts)
        sum_err += std::abs(fit.gbps(p.chunk_mb) - p.gbps) / p.gbps;
      const double mean_err = sum_err / double(pts.size());
      t.row({name, bench::fmt(eb, 6), bench::fmt(fit.gamma, 1),
             bench::fmt(fit.threshold_mb, 0), bench::fmt(fit.alpha, 3),
             bench::fmt(fit.beta, 2), bench::fmt(100 * mean_err, 1)});
    }
  }
  t.print();
  std::printf(
      "\npaper: Φ(C) = α·C + β below C_threshold, γ above; the fitted model "
      "tracks the\nprofile closely enough to drive the Alg. 4 scheduler "
      "(ZFP saturates earlier than MGARD).\n");
}

// Fig. 12: reduction-kernel throughput of MGARD-X, ZFP-X, and Huffman-X on
// five processors at three relative error bounds, excluding host-device
// transfers. The rows come from the calibrated device models (DESIGN.md
// §1): the reproduced result is the ordering across kernels, devices, and
// error bounds, not the calibrated magnitudes.
void fig12(data::Size, telemetry::Value&) {
  const std::size_t chunk = std::size_t{512} << 20;  // saturating chunk
  bench::Table t(
      {"processor", "kernel", "eb", "compress(GB/s)", "decompress(GB/s)"});
  for (const auto& proc : machine::figure12_processors()) {
    const Device dev = machine::make_device(proc);
    GpuPerfModel m(dev.spec());
    struct K {
      const char* name;
      KernelClass enc, dec;
    };
    for (const K& k : {K{"MGARD-X", KernelClass::MgardCompress,
                         KernelClass::MgardDecompress},
                       K{"ZFP-X", KernelClass::ZfpEncode,
                         KernelClass::ZfpDecode},
                       K{"Huffman-X", KernelClass::HuffmanEncode,
                         KernelClass::HuffmanDecode}}) {
      for (double eb : {1e-2, 1e-4, 1e-6}) {
        // Error bound affects throughput via the entropy stage's output
        // volume: tighter bounds → more symbol bits → slightly slower.
        const double eb_factor = 1.0 - 0.04 * std::log10(1e-2 / eb);
        const double enc = chunk / (m.kernel_seconds(k.enc, chunk) * 1e9);
        const double dec = chunk / (m.kernel_seconds(k.dec, chunk) * 1e9);
        t.row({proc, k.name, bench::fmt(eb, 6), bench::fmt(enc * eb_factor, 1),
               bench::fmt(dec * eb_factor, 1)});
      }
    }
  }
  t.print();
  std::printf(
      "\npaper: up to 45 / 210 / 150 GB/s (MGARD-X / ZFP-X / Huffman-X) on "
      "GPUs and\n2 / 18 / 48 GB/s on CPUs; ordering ZFP > Huffman > MGARD "
      "holds on every processor.\n");
}

// Fig. 13: end-to-end single-GPU pipeline throughput of MGARD-X and ZFP-X
// under None (no overlap), Fixed (100 MB chunks), and Adaptive (Alg. 4).
// Paper: Fixed gains up to 2.1x/3.5x over None; Adaptive adds up to
// 1.3x/1.6x over Fixed. Every (dataset, codec) row is gated.
void fig13(data::Size size, telemetry::Value& doc) {
  bench::Table t({"dataset", "pipeline", "mode", "GB/s", "speedup vs none",
                  "overlap%"});
  for (const std::string dsname : {"nyx", "e3sm"}) {
    const auto& ds = dataset(dsname, size);
    // Paper experiment scale: multi-GB variables on a real V100.
    const Device v100 = scaled_gpu("V100", ds.size_bytes(), 4.3e9);
    const Schedules s = schedules(ds.size_bytes(), 1e-2);
    for (const std::string cname : {"mgard-x", "zfp-x"}) {
      auto comp = make_compressor(cname);
      const auto r_none = pipeline::compress(v100, *comp, ds.data(), ds.shape,
                                             ds.dtype, s.none);
      const auto r_fixed = pipeline::compress(v100, *comp, ds.data(),
                                              ds.shape, ds.dtype, s.fixed);
      const auto r_adapt = pipeline::compress(v100, *comp, ds.data(),
                                              ds.shape, ds.dtype, s.adaptive);
      auto row = [&](const char* mode, const pipeline::CompressResult& r) {
        t.row({dsname, cname, mode, bench::fmt(r.model_gbps(), 2),
               bench::fmt(r_none.model_seconds() / r.model_seconds(), 2),
               bench::fmt(100 * r.overlap(), 1)});
      };
      row("none", r_none);
      row("fixed", r_fixed);
      row("adaptive", r_adapt);

      // Pipelining always wins and adaptive never loses to fixed; the
      // overlap ratio is the mechanism. Slack for the model.
      const double fixed_speedup =
          r_none.model_seconds() / r_fixed.model_seconds();
      const double adapt_speedup =
          r_none.model_seconds() / r_adapt.model_seconds();
      HPDR_EXPECT_GE(fixed_speedup, 1.2);
      HPDR_EXPECT_GE(adapt_speedup, 0.95 * fixed_speedup);
      HPDR_EXPECT_GE(r_fixed.overlap(), 0.3);
      HPDR_EXPECT_EQ(r_none.overlap(), 0.0);

      if (dsname == "nyx" && cname == "mgard-x")
        doc.set("pipelining_crossover",
                Object{{"fixed_speedup", fixed_speedup},
                       {"adaptive_speedup", adapt_speedup},
                       {"fixed_overlap", r_fixed.overlap()},
                       {"adaptive_overlap", r_adapt.overlap()}});
    }
  }
  t.print();
  std::printf(
      "\npaper: fixed ≤2.1× (MGARD-X) and ≤3.5× (ZFP-X) over none; adaptive "
      "a further ≤1.3×/1.6×.\nZFP benefits more: its kernel is fast, so "
      "transfers dominate the unpipelined run.\n");
}

// Fig. 14: compression ratio of MGARD and ZFP under the three pipeline
// settings. Paper: fixed 100 MB chunks cost MGARD 5-67 % of its ratio
// (chunking limits the decomposition depth); adaptive recovers to <1 %;
// ZFP is insensitive (its 4^d blocks are far smaller than any chunk).
void fig14(data::Size size, telemetry::Value& doc) {
  const auto& ds = dataset("nyx", size);
  const Device v100 = scaled_gpu("V100", ds.size_bytes(), 4.3e9);

  bench::Table t({"pipeline", "eb", "none", "fixed", "adaptive",
                  "fixed loss%", "adaptive loss%"});
  std::vector<double> mgard_fixed, mgard_adapt;
  double zfp_max_loss = 0;
  for (const std::string cname : {"mgard-x", "zfp-x"}) {
    auto comp = make_compressor(cname);
    for (double eb : {1e-2, 1e-4, 1e-6}) {
      const Schedules s = schedules(ds.size_bytes(), eb);
      pipeline::Options whole = s.fixed;  // one unchunked pass: the reference
      whole.mode = pipeline::Mode::None;
      auto ratio = [&](const pipeline::Options& opts) {
        return pipeline::compress(v100, *comp, ds.data(), ds.shape, ds.dtype,
                                  opts).ratio();
      };
      const double r_none = ratio(whole);
      const double r_fixed = ratio(s.fixed);
      const double r_adapt = ratio(s.adaptive);
      const double fixed_loss = 1 - r_fixed / r_none;
      const double adapt_loss = 1 - r_adapt / r_none;
      t.row({cname, bench::fmt(eb, 6), bench::fmt(r_none, 2),
             bench::fmt(r_fixed, 2), bench::fmt(r_adapt, 2),
             bench::fmt(100 * fixed_loss, 1), bench::fmt(100 * adapt_loss, 1)});

      if (cname == "zfp-x") {
        // No ZFP block straddles a chunk; per-chunk framing costs < 0.05 %,
        // which the printed loss% rounds to 0.0.
        HPDR_EXPECT_LE(std::abs(fixed_loss), 5e-4);
        HPDR_EXPECT_LE(std::abs(adapt_loss), 5e-4);
        zfp_max_loss = std::max({zfp_max_loss, fixed_loss, adapt_loss});
      } else {
        HPDR_EXPECT_TRUE(adapt_loss < fixed_loss);
        mgard_fixed.push_back(fixed_loss);
        mgard_adapt.push_back(adapt_loss);
      }
    }
  }
  t.print();
  std::printf(
      "\npaper: fixed chunking costs MGARD 5-67%% of ratio; adaptive within "
      "1%%; ZFP unaffected.\n");

  doc.set("ratio_loss", Object{{"mgard_x_fixed_loss", array_of(mgard_fixed)},
                               {"mgard_x_adaptive_loss", array_of(mgard_adapt)},
                               {"zfp_x_max_loss", zfp_max_loss}});
}

// Fig. 15: aggregated multi-node compression/decompression throughput,
// weak scaling on Summit (to 512 nodes / 3,072 V100s) and Frontier (to
// 1,024 nodes / 4,096 MI250Xs), 14 NYX time steps per GPU. Paper: MGARD-X
// reaches 45 TB/s on Summit and 103 TB/s on Frontier, 3-5x the non-HPDR
// baselines.
void fig15(data::Size size, telemetry::Value& doc) {
  const auto& ds = dataset("nyx", size);
  auto [hpdr_opts, base_opts] = hpdr_vs_base(1e-2);
  // Proportional C_init (the paper's ~100 MB on a 536.8 MB working set).
  hpdr_opts.init_chunk_bytes =
      std::max<std::size_t>(ds.size_bytes() / 6, std::size_t{64} << 10);
  hpdr_opts.max_chunk_bytes = ds.size_bytes();
  const double dscale = std::min(1.0, double(ds.size_bytes()) / 536.8e6);

  sim::ReductionScaleResult lo, hi, hi_base;  // Summit rows behind the gates
  for (const auto& cluster : {sim::summit(), sim::frontier()}) {
    const bool is_summit = cluster.name == "Summit";
    std::printf("--- %s (%d GPUs/node, %s) ---\n", cluster.name.c_str(),
                cluster.node.gpus_per_node, cluster.fs.name.c_str());
    std::vector<std::string> pipes =
        is_summit ? std::vector<std::string>{"mgard-x", "nvcomp-lz4", "cusz",
                                             "zfp-cuda", "mgard-gpu"}
                  : std::vector<std::string>{"mgard-x", "mgard-gpu"};
    bench::Table t({"pipeline", "nodes", "gpus", "compress(TB/s)",
                    "decompress(TB/s)"});
    const int max_nodes = is_summit ? 512 : 1024;
    for (const auto& cname : pipes) {
      auto comp = make_compressor(cname);
      const auto& opts = cname == "mgard-x" ? hpdr_opts : base_opts;
      for (int nodes = is_summit ? 64 : 128; nodes <= max_nodes; nodes *= 2) {
        auto r = sim::weak_scale_reduction(cluster, nodes, *comp, opts,
                                           ds.data(), ds.shape, ds.dtype, 14,
                                           dscale);
        t.row({cname, std::to_string(nodes), std::to_string(r.gpus),
               bench::fmt(r.compress_gbps / 1000.0, 2),
               bench::fmt(r.decompress_gbps / 1000.0, 2)});
        if (is_summit && cname == "mgard-x" && nodes == 64) lo = r;
        if (is_summit && cname == "mgard-x" && nodes == 512) hi = r;
        if (is_summit && cname == "mgard-gpu" && nodes == 512) hi_base = r;
      }
    }
    t.print();
    std::printf("\n");
  }
  std::printf(
      "paper: Summit@512 — MGARD-X 45 TB/s vs LZ4 10 / cuSZ 9 / ZFP 13 / "
      "MGARD-GPU 9 TB/s;\nFrontier@1024 — MGARD-X 103 TB/s vs MGARD-GPU 18 "
      "TB/s.\n");

  // Near-linear weak scaling (the collectives/interconnect model must not
  // introduce a cliff): nodes grew 8x, so efficiency is realized growth /
  // 8. MGARD-X keeps its multiple over the baseline at scale.
  const double eff = hi.compress_gbps / (8.0 * lo.compress_gbps);
  const double margin = hi.compress_gbps / hi_base.compress_gbps;
  HPDR_EXPECT_GE(eff, 0.9);
  HPDR_EXPECT_GE(margin, 2.0);

  doc.set("weak_scaling",
          Object{{"efficiency_64_to_512", eff},
                 {"margin_over_baseline", margin},
                 {"compress_tbps_512", hi.compress_gbps / 1000.0}});
}

// Fig. 16: scalability on a dense multi-GPU node (Summit: 6 V100s sharing
// one runtime). Paper: MGARD-X (with the context memory model) achieves
// 96 % / 88 % average compression/decompression scalability while
// MGARD-GPU, ZFP-CUDA, cuSZ, and LZ4 reach only 72/48/46/74 % and
// 76/55/48/70 % — per-call device memory management serializes on the
// shared runtime.
void fig16(data::Size size, telemetry::Value& doc) {
  const auto& ds = dataset("nyx", size);
  // Paper experiment: 536.8 MB NYX per GPU on each of 6 V100s.
  const Device v100 = scaled_gpu("V100", ds.size_bytes(), 536.8e6);
  auto [hpdr_opts, base_opts] = hpdr_vs_base(1e-2);
  hpdr_opts.init_chunk_bytes = std::max<std::size_t>(ds.size_bytes() / 16,
                                                     std::size_t{64} << 10);
  hpdr_opts.max_chunk_bytes = ds.size_bytes();

  telemetry::Value g = telemetry::Value::object();
  for (bool compress : {true, false}) {
    const std::string dir = compress ? "compression" : "decompression";
    std::printf("--- %s ---\n", dir.c_str());
    bench::Table t({"pipeline", "1 GPU(GB/s)", "6 GPUs agg(GB/s)",
                    "ideal(GB/s)", "avg scalability%"});
    double mgard = 0, best_baseline = 0;
    for (const std::string cname :
         {"mgard-x", "mgard-gpu", "zfp-cuda", "cusz", "nvcomp-lz4"}) {
      auto comp = make_compressor(cname);
      const auto& opts = cname == "mgard-x" ? hpdr_opts : base_opts;
      auto sweep = sim::sweep_node(v100, 6, *comp, opts, ds.data(), ds.shape,
                                   ds.dtype, compress, 14);
      const auto& p1 = sweep.points.front();
      const auto& p6 = sweep.points.back();
      t.row({cname, bench::fmt(p1.aggregate_gbps, 2),
             bench::fmt(p6.aggregate_gbps, 2), bench::fmt(p6.ideal_gbps, 2),
             bench::fmt(100 * sweep.average_scalability, 1)});
      if (cname == "mgard-x")
        mgard = sweep.average_scalability;
      else
        best_baseline = std::max(best_baseline, sweep.average_scalability);
    }
    t.print();
    std::printf("\n");

    HPDR_EXPECT_GE(mgard, compress ? 0.90 : 0.85);
    HPDR_EXPECT_TRUE(mgard > best_baseline);
    g.set("mgard_x_" + dir, telemetry::Value(mgard));
    g.set("best_baseline_" + dir, telemetry::Value(best_baseline));
  }
  std::printf(
      "paper: compression 96%% (MGARD-X) vs 72/48/46/74%%; decompression "
      "88%% vs 76/55/48/70%%.\n");
  doc.set("multigpu_scalability", std::move(g));
}

// Fig. 17: weak-scaling parallel I/O with NYX on Summit (to 512 nodes) and
// Frontier (to 1,024 nodes), 7.5 GB per GPU, BP-style aggregation. Paper:
// MGARD-X accelerates writes 6.8-15.3x (Summit) / 6.0-8.5x (Frontier) and
// reads 5.2-9.3x / 3.5-6.5x; LZ4's ~1.1x ratio lands on the other side of
// the crossover — its reduction time is not paid back by the bytes it
// removes; MGARD-GPU manages 3.3-5.1x despite the same ratio because its
// reduction is slower.
void fig17(data::Size size, telemetry::Value& doc) {
  const auto& ds = dataset("nyx", size);
  const std::size_t per_gpu = (std::size_t{15} << 30) / 2;  // 7.5 GB
  const auto [hpdr_opts, base_opts] = hpdr_vs_base(1e-2);

  sim::IoScaleResult mgard64, lz4_64;  // Summit @64, the recorded crossover
  for (const auto& cluster : {sim::summit(), sim::frontier()}) {
    const bool is_summit = cluster.name == "Summit";
    std::printf("--- %s (writers: one per %s) ---\n", cluster.name.c_str(),
                cluster.aggregation == sim::Aggregation::WriterPerNode
                    ? "node"
                    : "GPU");
    std::vector<std::string> pipes =
        is_summit ? std::vector<std::string>{"nvcomp-lz4", "cusz", "zfp-cuda",
                                             "mgard-gpu", "mgard-x"}
                  : std::vector<std::string>{"mgard-gpu", "mgard-x"};
    bench::Table t({"pipeline", "nodes", "ratio", "write accel", "read accel",
                    "raw write(s)", "reduced write(s)"});
    const int max_nodes = is_summit ? 512 : 1024;
    for (const auto& cname : pipes) {
      auto comp = make_compressor(cname);
      const auto& opts = cname == "mgard-x" ? hpdr_opts : base_opts;
      for (int nodes = max_nodes / 8; nodes <= max_nodes; nodes *= 8) {
        auto r = sim::scale_io(cluster, nodes, *comp, opts, ds.data(),
                               ds.shape, ds.dtype, per_gpu);
        t.row({cname, std::to_string(nodes), bench::fmt(r.ratio, 1),
               bench::fmt(r.write_acceleration(), 2),
               bench::fmt(r.read_acceleration(), 2),
               bench::fmt(r.write_raw_seconds, 2),
               bench::fmt(r.write_reduced_seconds, 2)});
        // The crossover at every scale: mgard-x accelerates writes AND
        // reads, nvcomp-lz4 adds overhead instead.
        if (cname == "mgard-x") {
          HPDR_EXPECT_GE(r.write_acceleration(), 1.5);
          HPDR_EXPECT_GE(r.read_acceleration(), 1.2);
          HPDR_EXPECT_GE(r.ratio, 2.0);
        } else if (cname == "nvcomp-lz4") {
          HPDR_EXPECT_LE(r.write_acceleration(), 1.0);
        }
        if (is_summit && nodes == 64 && cname == "mgard-x") mgard64 = r;
        if (is_summit && nodes == 64 && cname == "nvcomp-lz4") lz4_64 = r;
      }
    }
    t.print();
    std::printf("\n");
  }
  std::printf(
      "paper: MGARD-X 6.8-15.3×/5.2-9.3× (Summit W/R), 6.0-8.5×/3.5-6.5× "
      "(Frontier);\nMGARD-GPU 3.3-5.1×/2.3-3.1×; LZ4 adds 42-84%% overhead "
      "(no acceleration).\n");

  doc.set("io_crossover",
          Object{{"mgard_x_ratio", mgard64.ratio},
                 {"mgard_x_write_accel", mgard64.write_acceleration()},
                 {"mgard_x_read_accel", mgard64.read_acceleration()},
                 {"lz4_ratio", lz4_64.ratio},
                 {"lz4_write_accel", lz4_64.write_acceleration()}});
}

// Fig. 18: strong-scaling I/O on Frontier — 32 TB of E3SM (ratio ~7.9x)
// and 67 TB of XGC (ratio ~9.1x) written/read with 512, 1,024, and 2,048
// nodes at relative error bound 1e-4. Paper: MGARD-GPU adds 28-227 %
// overhead (its reduction is slower than the saved I/O); MGARD-X
// accelerates writes 1.7-3.4x and reads 1.5-3.3x.
void fig18(data::Size size, telemetry::Value& doc) {
  const auto cluster = sim::frontier();
  const auto [hpdr_opts, base_opts] = hpdr_vs_base(1e-4);
  const std::vector<int> node_counts{512, 1024, 2048};

  struct Workload {
    const char* dataset;
    std::size_t total_bytes;
  };
  telemetry::Value g = telemetry::Value::object();
  for (const Workload& w : {Workload{"e3sm", std::size_t{32} << 40},
                            Workload{"xgc", std::size_t{67} << 40}}) {
    const auto& ds = dataset(w.dataset, size);
    std::printf("--- %s, %s total, eb 1e-4 ---\n", w.dataset,
                bench::fmt_bytes(double(w.total_bytes)).c_str());
    bench::Table t({"pipeline", "nodes", "ratio", "write accel", "read accel",
                    "reduced write(s)", "reduced read(s)"});
    std::map<std::string, std::vector<double>> write_accel;  // by pipeline
    for (const std::string cname : {"mgard-gpu", "mgard-x"}) {
      auto comp = make_compressor(cname);
      const auto& opts = cname == "mgard-x" ? hpdr_opts : base_opts;
      for (int nodes : node_counts) {
        auto r = sim::strong_scale_io(cluster, nodes, *comp, opts, ds.data(),
                                      ds.shape, ds.dtype, w.total_bytes);
        t.row({cname, std::to_string(nodes), bench::fmt(r.ratio, 1),
               bench::fmt(r.write_acceleration(), 2),
               bench::fmt(r.read_acceleration(), 2),
               bench::fmt(r.write_reduced_seconds, 1),
               bench::fmt(r.read_reduced_seconds, 1)});
        write_accel[cname].push_back(r.write_acceleration());
      }
    }
    t.print();
    std::printf("\n");

    // MGARD-X writes faster than MGARD-GPU at every node count.
    const auto& x = write_accel["mgard-x"];
    const auto& gpu = write_accel["mgard-gpu"];
    for (std::size_t i = 0; i < node_counts.size(); ++i)
      HPDR_EXPECT_TRUE(x[i] > gpu[i]);
    const std::string prefix = std::string(w.dataset) + "_";
    g.set(prefix + "mgard_x_write_accel", array_of(x));
    g.set(prefix + "mgard_gpu_write_accel", array_of(gpu));
  }
  std::printf(
      "paper: MGARD-X write 2.4-1.8× (E3SM) / 1.7-3.4× (XGC), read 2.1-2.9× "
      "/ 1.5-3.3×;\nMGARD-GPU adds 28-134%% / 32-227%% overhead instead.\n");
  doc.set("strong_io", std::move(g));
}

// Table III: the evaluation datasets. Prints the inventory (full shapes,
// types, sizes — matching the paper's table) plus statistics of the
// synthetic substitutes at the benched scale, including how they compress,
// so the substitution can be judged.
void tab3(data::Size size, telemetry::Value&) {
  bench::Table inv({"dataset", "field", "dimensions", "type", "size"});
  for (const auto& name : data::dataset_names()) {
    const Shape full = data::dataset_shape(name, data::Size::Full);
    const auto& tiny = dataset(name, data::Size::Tiny);
    inv.row({name, tiny.field, full.to_string(),
             tiny.dtype == DType::F32 ? "FP32" : "FP64",
             bench::fmt_bytes(double(full.size()) * dtype_size(tiny.dtype))});
  }
  inv.print();

  std::printf("\n--- synthetic substitutes at bench scale ---\n\n");
  const Device dev = Device::openmp();
  bench::Table t({"dataset", "shape", "min", "max", "mgard CR@1e-2",
                  "mgard CR@1e-4", "zfp CR(rate16)"});
  for (const auto& name : data::dataset_names()) {
    const auto& ds = dataset(name, size);
    const double bytes = double(ds.size_bytes());
    auto row = [&](auto values) {  // std::span<const float or double>
      const auto r = value_range(values);
      NDView v(values.data(), ds.shape);
      t.row({name, ds.shape.to_string(), bench::fmt(r.lo, 3),
             bench::fmt(r.hi, 3),
             bench::fmt(bytes / mgard::compress(dev, v, 1e-2).size(), 1),
             bench::fmt(bytes / mgard::compress(dev, v, 1e-4).size(), 1),
             bench::fmt(bytes / zfp::compress(dev, v, 16.0).size(), 1)});
    };
    if (ds.dtype == DType::F32)
      row(ds.as_f32());
    else
      row(ds.as_f64());
  }
  t.print();
}

/// A generic chunked reduction DAG with `depth` queues, with or without
/// the Fig. 9 dotted dependencies; returns the makespan.
double makespan(int depth, int chunks, bool dotted_deps, double h2d_s,
                double kern_s, double d2h_s) {
  HdemSimulator sim(depth);
  std::vector<std::uint32_t> ser(chunks);
  for (int c = 0; c < chunks; ++c) {
    const auto q = static_cast<std::uint32_t>(c % depth);
    std::vector<std::uint32_t> deps;
    if (dotted_deps && c >= depth - 1 && c >= 2) deps.push_back(ser[c - 2]);
    sim.submit(q, EngineId::H2D, "h2d", h2d_s, {}, std::move(deps));
    sim.submit(q, EngineId::Compute, "k", kern_s);
    sim.submit(q, EngineId::D2H, "d2h", d2h_s);
    ser[c] = sim.submit(q, EngineId::D2H, "ser", d2h_s / 50);
  }
  return sim.run().makespan();
}

// Ablation: pipeline design choices (DESIGN.md §4).
//   (a) queue depth — Little's law says depth 3 is the minimum to keep all
//       three engines busy (§V-B); deeper helps nothing.
//   (b) the extra anti-race dependencies (Fig. 9 dotted edges) cost almost
//       nothing vs. an unconstrained 3-buffer pipeline while halving the
//       buffer footprint.
//   (c) launch-order reversal (Fig. 9 red edges) in reconstruction.
void ablation_pipeline(data::Size size, telemetry::Value&) {
  // (a) queue depth with balanced stages (worst case for shallow queues).
  bench::Table depth_table({"queues", "makespan(ms)", "vs depth-3"});
  const double t3 = makespan(3, 24, true, 1e-3, 1e-3, 1e-3);
  for (int d : {1, 2, 3, 4, 6}) {
    const double t = makespan(d, 24, true, 1e-3, 1e-3, 1e-3);
    depth_table.row({std::to_string(d), bench::fmt(t * 1e3, 3),
                     bench::fmt(t / t3, 2)});
  }
  depth_table.print();
  std::printf(
      "\nLittle's law: depth 3 saturates three engines; 1-2 serialize, >3 "
      "adds nothing.\n\n");

  // (b) dotted-edge dependencies: 2 buffer pairs vs 3.
  bench::Table dep_table(
      {"stage balance", "3 buffers(ms)", "2 buffers+deps(ms)", "overhead%"});
  struct Mix {
    const char* name;
    double h2d, k, d2h;
  };
  for (const Mix& m : {Mix{"compute-bound", 0.5e-3, 2e-3, 0.2e-3},
                       Mix{"balanced", 1e-3, 1e-3, 1e-3},
                       Mix{"transfer-bound", 2e-3, 0.5e-3, 0.2e-3}}) {
    const double free3 = makespan(3, 24, false, m.h2d, m.k, m.d2h);
    const double dep2 = makespan(3, 24, true, m.h2d, m.k, m.d2h);
    dep_table.row({m.name, bench::fmt(free3 * 1e3, 3),
                   bench::fmt(dep2 * 1e3, 3),
                   bench::fmt(100 * (dep2 / free3 - 1), 2)});
  }
  dep_table.print();
  std::printf(
      "\nThe anti-race edges halve the buffer footprint for ~0%% makespan "
      "cost.\n\n");

  // (c) launch-order reversal in the reconstruction pipeline.
  const auto& ds = dataset("nyx", size);
  const Device v100 = machine::make_device("V100");
  auto comp = make_compressor("mgard-x");
  pipeline::Options opts;
  opts.mode = pipeline::Mode::Fixed;
  opts.param = 1e-2;
  opts.fixed_chunk_bytes = ds.size_bytes() / 12;
  auto cres =
      pipeline::compress(v100, *comp, ds.data(), ds.shape, ds.dtype, opts);
  std::vector<float> out(ds.elements());
  pipeline::Options reorder = opts;
  reorder.reorder_launches = true;
  pipeline::Options plain = opts;
  plain.reorder_launches = false;
  const auto r_on = pipeline::decompress(v100, *comp, cres.stream, out.data(),
                                         ds.shape, ds.dtype, reorder);
  const auto r_off = pipeline::decompress(v100, *comp, cres.stream, out.data(),
                                          ds.shape, ds.dtype, plain);
  bench::Table lo_table({"launch order", "reconstruct(ms)", "GB/s"});
  lo_table.row({"default (copy-out first)",
                bench::fmt(r_off.model_seconds() * 1e3, 3),
                bench::fmt(r_off.model_gbps(), 2)});
  lo_table.row({"reversed (deserialize first)",
                bench::fmt(r_on.model_seconds() * 1e3, 3),
                bench::fmt(r_on.model_gbps(), 2)});
  lo_table.print();
}

// Ablation: the Context Memory Model (DESIGN.md §4.2). Runs the *same*
// MGARD codec with and without context caching on 1-6 simulated V100s,
// isolating the CMM's contribution to Fig. 16's result from the
// algorithmic differences between MGARD-X and MGARD-GPU, then shows the
// real cache working on the host.
void ablation_cmm(data::Size size, telemetry::Value&) {
  const auto& ds = dataset("nyx", size);
  const Device v100 = machine::make_device("V100");
  // mgard-x and mgard-gpu share the codec; they differ exactly in context
  // caching and per-call allocation behaviour.
  auto with_cmm = make_compressor("mgard-x");
  auto without_cmm = make_compressor("mgard-gpu");
  pipeline::Options opts;
  opts.mode = pipeline::Mode::None;  // same pipeline both sides
  opts.param = 1e-2;

  bench::Table t({"gpus", "CMM scalability%", "no-CMM scalability%",
                  "no-CMM alloc time(ms)"});
  for (int n : {1, 2, 4, 6}) {
    auto on = sim::run_node(v100, n, *with_cmm, opts, ds.data(), ds.shape,
                            ds.dtype, true, 14);
    auto off = sim::run_node(v100, n, *without_cmm, opts, ds.data(),
                             ds.shape, ds.dtype, true, 14);
    t.row({std::to_string(n), bench::fmt(100 * on.scalability, 1),
           bench::fmt(100 * off.scalability, 1),
           bench::fmt(off.alloc_seconds * 1e3, 2)});
  }
  t.print();

  // Host-side evidence that the CMM cache works: repeated same-shape
  // compressions hit the hierarchy cache after the first call. Emptied
  // first so the first call misses whichever figures ran before.
  auto& cache = ContextCache::instance();
  cache.clear();
  const auto h0 = cache.hits();
  const Device host = Device::openmp();
  NDView<const float> view(reinterpret_cast<const float*>(ds.data()),
                           ds.shape);
  const auto t0 = std::chrono::steady_clock::now();
  (void)mgard::compress(host, view, 1e-2);
  const auto t1 = std::chrono::steady_clock::now();
  for (int i = 0; i < 3; ++i) (void)mgard::compress(host, view, 1e-2);
  const auto t2 = std::chrono::steady_clock::now();
  std::printf(
      "\nhost CMM, measured (host wall clock): first call %.1f ms, "
      "subsequent avg %.1f ms; cache hits +%llu\n",
      std::chrono::duration<double>(t1 - t0).count() * 1e3,
      std::chrono::duration<double>(t2 - t1).count() / 3 * 1e3,
      static_cast<unsigned long long>(cache.hits() - h0));
}

// Ablation: MGARD's s-norm quantization (DESIGN.md §4, paper §IV-A: bin
// sizes per level "improve the compression ratio and capability to
// preserve the quantities of interest"). Sweeps s and reports ratio,
// pointwise (L∞) error, and two smooth QoIs — the global average and a
// regional average — showing the trade the knob buys.
void ablation_snorm(data::Size size, telemetry::Value&) {
  const auto& ds = dataset("nyx", size);
  const Device dev = Device::openmp();
  NDView<const float> view(reinterpret_cast<const float*>(ds.data()),
                           ds.shape);
  const double eb = 1e-3;
  auto orig = ds.as_f32();
  const auto range = value_range(orig);

  auto region_avg = [&](std::span<const float> v) {
    // Average over the first octant.
    const std::size_t n0 = ds.shape[0] / 2, n1 = ds.shape[1] / 2,
                      n2 = ds.shape[2] / 2;
    double sum = 0;
    for (std::size_t i = 0; i < n0; ++i)
      for (std::size_t j = 0; j < n1; ++j)
        for (std::size_t k = 0; k < n2; ++k)
          sum += v[(i * ds.shape[1] + j) * ds.shape[2] + k];
    return sum / double(n0 * n1 * n2);
  };
  auto global_avg = [&](std::span<const float> v) {
    double sum = 0;
    for (float x : v) sum += x;
    return sum / double(v.size());
  };
  const double g0 = global_avg(orig), r0 = region_avg(orig);

  bench::Table t({"s", "ratio", "L∞ rel err", "global-avg err (rel)",
                  "region-avg err (rel)"});
  for (double s : {0.0, 0.25, 0.5, 1.0, 1.5}) {
    auto stream = mgard::compress(dev, view, eb, s);
    auto back = mgard::decompress_f32(dev, stream);
    auto stats = compute_error_stats(orig, back.span());
    const double g = global_avg(back.span()), r = region_avg(back.span());
    t.row({bench::fmt(s, 2),
           bench::fmt(double(ds.size_bytes()) / stream.size(), 1),
           bench::fmt(stats.max_rel_error, 6),
           bench::fmt(std::abs(g - g0) / range.extent(), 8),
           bench::fmt(std::abs(r - r0) / range.extent(), 8)});
  }
  t.print();
  std::printf(
      "\ns = 0 is the strict L∞ mode (err ≤ %g); growing s trades pointwise "
      "error for ratio\nwhile the smooth QoIs stay orders of magnitude "
      "inside the bound.\n",
      eb);
}

struct Figure {
  const char* id;
  data::Size size;  ///< default; --tiny/--medium/--full override it
  const char* title;
  const char* paper_ref;
  void (*run)(data::Size, telemetry::Value& doc);
};

const Figure kFigures[] = {
    {"1", data::Size::Medium,
     "Fig. 1 — time breakdown on V100 (500 MB NYX, eb 1e-2)",
     "HPDR paper §II-B, Figure 1", fig01},
    {"10", data::Size::Medium,
     "Fig. 10 — fixed-small vs fixed-large vs adaptive chunking",
     "HPDR paper §V-C, Figure 10", fig10},
    {"11", data::Size::Small, "Fig. 11 — roofline model Φ(C) fits",
     "HPDR paper §V-C, Figure 11", fig11},
    {"12", data::Size::Small, "Fig. 12 — kernel throughput on five processors",
     "HPDR paper §VI-C, Figure 12", fig12},
    {"13", data::Size::Medium,
     "Fig. 13 — end-to-end pipeline throughput (None/Fixed/Adaptive)",
     "HPDR paper §VI-D, Figure 13", fig13},
    {"14", data::Size::Medium,
     "Fig. 14 — compression ratio vs pipeline setting",
     "HPDR paper §VI-D, Figure 14", fig14},
    {"15", data::Size::Small,
     "Fig. 15 — aggregate reduction throughput at scale",
     "HPDR paper §VI-F, Figure 15", fig15},
    {"16", data::Size::Small,
     "Fig. 16 — multi-GPU scalability on a 6×V100 node",
     "HPDR paper §VI-E, Figure 16", fig16},
    {"17", data::Size::Small,
     "Fig. 17 — weak-scaling I/O acceleration (NYX, 7.5 GB/GPU)",
     "HPDR paper §VI-G, Figure 17", fig17},
    {"18", data::Size::Small,
     "Fig. 18 — strong-scaling I/O on Frontier (E3SM 32 TB, XGC 67 TB)",
     "HPDR paper §VI-H, Figure 18", fig18},
    {"tab3", data::Size::Small, "Table III — evaluation datasets",
     "HPDR paper §VI-A", tab3},
    {"ablation-pipeline", data::Size::Medium,
     "Ablation — pipeline depth, buffer deps, launch order",
     "HPDR paper §V-B (Little's law, Fig. 9 edges)", ablation_pipeline},
    {"ablation-cmm", data::Size::Small,
     "Ablation — context memory model (CMM) on/off",
     "HPDR paper §III-B; isolates the Fig. 16 mechanism", ablation_cmm},
    {"ablation-snorm", data::Size::Small,
     "Ablation — s-norm quantization (QoI vs pointwise error)",
     "HPDR paper §IV-A level-wise quantization", ablation_snorm},
};

int bad_selector(const char* given) {
  if (given != nullptr)
    std::fprintf(stderr, "bench_paper: unknown --fig id '%s'", given);
  else
    std::fprintf(stderr, "bench_paper: --fig needs a value");
  std::fprintf(stderr, "; valid ids:");
  for (const Figure& f : kFigures) std::fprintf(stderr, " %s", f.id);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // --fig <id> (repeatable) selects a subset; none selects every figure.
  bool selected[std::size(kFigures)] = {};
  bool any_selected = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fig") != 0) continue;
    if (i + 1 == argc) return bad_selector(nullptr);
    const char* id = argv[++i];
    const Figure* f = std::find_if(
        std::begin(kFigures), std::end(kFigures),
        [&](const Figure& fig) { return std::strcmp(fig.id, id) == 0; });
    if (f == std::end(kFigures)) return bad_selector(id);
    selected[f - kFigures] = true;
    any_selected = true;
  }

  telemetry::Value doc = Object{
      {"bench", "paper"},
      {"isa", Object{{"level", isa::to_string(isa::level())},
                     {"requested", isa::requested()}}}};
  for (std::size_t k = 0; k < std::size(kFigures); ++k) {
    if (any_selected && !selected[k]) continue;
    const Figure& f = kFigures[k];
    bench::header(f.title, f.paper_ref);
    f.run(bench::pick_size(argc, argv, f.size), doc);
  }

  std::string out_path = bench::flag_value(argc, argv, "--out");
  if (out_path.empty()) out_path = "BENCH_paper.json";
  doc.set("failed_gates", telemetry::Value(bench::check_failures()));
  std::ofstream f(out_path, std::ios::trunc);
  f << telemetry::dump(doc, /*indent=*/2) << "\n";
  std::printf("wrote %s\n", out_path.c_str());
  bench::maybe_write_manifest(argc, argv, "bench_paper", doc);
  return bench::check_failures();
}
