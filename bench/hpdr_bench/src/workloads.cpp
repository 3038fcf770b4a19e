// The four workloads. Every one is closed loop (each caller waits for its
// result before sending the next request), runs on the Serial device at
// the paper's relative error bound of 1e-2, and has three parts:
//
//   set-up   pool width, codec construction, Service construction, the
//            reference streams and reconstructions every op is checked
//            against, and one warm-up op per codec — repeated kSetupReps
//            times; setup_s is the median;
//   timed    telemetry off, for --seconds: the end-to-end metrics;
//   traced   telemetry on, for kTracedShare of that time, then the stage
//            replays: the per-layer metrics and the Chrome trace.
//
// Output checks run on every op outside its timed interval.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "bench.hpp"
#include "core/checksum.hpp"

namespace hpdr_bench {

using namespace hpdr;

namespace {

constexpr double kRelBound = 1e-2;
constexpr int kSetupReps = 9;
constexpr double kTracedShare = 0.2;
constexpr std::size_t kMiB = std::size_t{1} << 20;
/// Ops after which peak_rss_mb is read (pipeline workloads, svc jobs).
constexpr std::uint64_t kRssPipelineOps = 20;
constexpr std::uint64_t kRssSvcJobs = 10000;

struct PipelineWorkload {
  const char* name;
  const char* dataset;
  data::Size size;
  std::vector<std::string> codecs;  ///< alternated op by op
  std::size_t chunk_bytes;          ///< Fixed-mode chunk size
  unsigned width;                   ///< pool width
};

/// Threads a multi-threaded workload keeps busy: half of a 4-CPU host. A
/// workload that keeps every CPU busy measures the OS scheduler and the
/// other tenants of a shared host as much as the program (README,
/// "Workloads").
constexpr unsigned kBusyThreads = 2;

const std::vector<PipelineWorkload>& pipeline_workloads() {
  static const std::vector<PipelineWorkload> w = {
      {"nyx-lossy", "nyx", data::Size::Medium, {"mgard-x", "zfp-x"}, kMiB,
       kBusyThreads},
      {"nyx-lossy-1t", "nyx", data::Size::Medium, {"mgard-x", "zfp-x"}, kMiB,
       1},
      {"xgc-lossless", "xgc", data::Size::Small, {"huffman-x", "nvcomp-lz4"},
       2 * kMiB, kBusyThreads},
  };
  return w;
}

constexpr const char* kSvcWorkload = "svc-small-jobs";

void progress(const std::string& workload, const std::string& what) {
  std::fprintf(stderr, "[hpdr_bench] %s: %s\n", workload.c_str(),
               what.c_str());
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Peak resident memory from the end of set-up through the first `ops` ops
/// of the timed phase. Free heap pages are returned to the system and the
/// kernel's high-water mark is reset when the timed phase starts, so the
/// value does not depend on how set-up happened to fragment the heap; it
/// is read after a fixed op count, so memory that grows with the number
/// of jobs served is compared at equal work.
class PeakRss {
 public:
  explicit PeakRss(std::uint64_t ops) : ops_(ops) {
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";  // reset VmHWM
  }
  /// Thread-safe; call after every completed op.
  void op_done() {
    if (done_.fetch_add(1) + 1 == ops_) mb_ = read_mb();
  }
  /// The value; read now when the phase ended before `ops` ops.
  double mb() const { return done_ >= ops_ ? mb_.load() : read_mb(); }

 private:
  static double read_mb() {
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
      if (line.rfind("VmHWM:", 0) == 0)
        return std::stod(line.substr(6)) / 1024.0;  // kB
    return 0.0;
  }
  const std::uint64_t ops_;
  std::atomic<std::uint64_t> done_{0};
  std::atomic<double> mb_{0.0};
};

/// Mean over job kinds of each kind's percentile `p`: every kind weighs the
/// same, so alternating fast and slow kinds cannot make the value jump
/// between the kinds' distributions.
double kind_balanced(const std::vector<std::vector<double>>& lat, double p) {
  double sum = 0;
  for (const auto& v : lat) sum += percentile(v, p);
  return lat.empty() ? 0.0 : sum / static_cast<double>(lat.size());
}

/// True when every |a−b| ≤ rel · (max(a) − min(a)).
template <class T>
bool within_bound(const void* ref, const void* got, std::size_t n,
                  double rel) {
  const auto* a = static_cast<const T*>(ref);
  const auto* b = static_cast<const T*>(got);
  double lo = a[0], hi = a[0];
  for (std::size_t i = 0; i < n; ++i) {
    lo = std::min(lo, static_cast<double>(a[i]));
    hi = std::max(hi, static_cast<double>(a[i]));
  }
  const double tol = rel * (hi - lo);
  for (std::size_t i = 0; i < n; ++i)
    if (std::abs(static_cast<double>(a[i]) - static_cast<double>(b[i])) > tol)
      return false;
  return true;
}

/// Reconstruction check: bit-exact for a lossless codec, within the
/// relative bound for a lossy one.
bool reconstruction_ok(const Compressor& comp, const void* ref,
                       const void* got, std::size_t elements, DType dtype) {
  if (comp.lossless())
    return std::memcmp(ref, got, elements * dtype_size(dtype)) == 0;
  return dtype == DType::F32
             ? within_bound<float>(ref, got, elements, kRelBound)
             : within_bound<double>(ref, got, elements, kRelBound);
}

/// Pool counters as per-op deltas over a phase.
struct PoolCounters {
  std::uint64_t ranges = 0, issued = 0, capped = 0;
  static PoolCounters now() {
    const auto& p = ThreadPool::instance();
    return {p.ranges_executed(), p.tickets_issued(), p.tickets_capped()};
  }
};

void add_pool_metrics(std::vector<Metric>& out, const PoolCounters& before,
                      const PoolCounters& after, std::uint64_t ops) {
  const double n = static_cast<double>(std::max<std::uint64_t>(1, ops));
  out.push_back({"core.pool.ranges",
                 static_cast<double>(after.ranges - before.ranges) / n,
                 "count"});
  out.push_back({"core.pool.tickets_issued",
                 static_cast<double>(after.issued - before.issued) / n,
                 "count"});
  out.push_back({"core.pool.tickets_capped",
                 static_cast<double>(after.capped - before.capped) / n,
                 "count"});
}

/// The svc layer's per-layer values; all zero on workloads without a
/// Service.
struct SvcLayer {
  std::vector<double> queue_ms, run_ms, handoff_ms;
  double share_slots_mean = 0, arena_high_water_mb = 0;
  std::uint64_t failed = 0, shed = 0;

  void emit(std::vector<Metric>& out) const {
    out.push_back({"svc.queue_wait_ms.p50", percentile(queue_ms, 0.5), "ms"});
    out.push_back({"svc.queue_wait_ms.p99", percentile(queue_ms, 0.99), "ms"});
    out.push_back({"svc.run_ms.p50", percentile(run_ms, 0.5), "ms"});
    out.push_back({"svc.run_ms.p99", percentile(run_ms, 0.99), "ms"});
    out.push_back({"svc.handoff_ms.p50", percentile(handoff_ms, 0.5), "ms"});
    out.push_back({"svc.handoff_ms.p99", percentile(handoff_ms, 0.99), "ms"});
    out.push_back({"svc.share_slots.mean", share_slots_mean, "count"});
    out.push_back({"svc.arena.high_water_mb", arena_high_water_mb, "MiB"});
    out.push_back({"svc.jobs.failed", static_cast<double>(failed), "count"});
    out.push_back({"svc.jobs.shed", static_cast<double>(shed), "count"});
  }
};

/// The latency quantile every end-to-end time is taken at: the lower
/// quartile of each job kind. Load from other tenants of a shared host only
/// ever adds time to a job, so the faster jobs of a run follow the
/// program's own speed more closely than the median does (README,
/// "End-to-end metrics").
constexpr double kTimeQuantile = 0.25;

/// Sum over the job kinds of one direction of each kind's latency at
/// kTimeQuantile: the time one job of every kind takes.
double round_ms(const std::vector<std::vector<double>>& lat, bool compress) {
  double ms = 0;
  for (std::size_t k = compress ? 0 : 1; k < lat.size(); k += 2)
    ms += percentile(lat[k], kTimeQuantile);
  return ms;
}

/// Jobs completed per second, taken over the phase's whole seconds at the
/// quantile matching kTimeQuantile (the busier quarter of the seconds); the
/// plain rate when the phase is shorter than a second.
double job_rate(const std::vector<double>& done_s, double wall_s) {
  const auto seconds = static_cast<std::size_t>(wall_s);
  if (seconds == 0) return static_cast<double>(done_s.size()) / wall_s;
  std::vector<double> per_second(seconds, 0.0);
  for (double t : done_s)
    if (t < static_cast<double>(seconds))
      per_second[static_cast<std::size_t>(t)] += 1.0;
  return percentile(per_second, 1.0 - kTimeQuantile);
}

/// The end-to-end metrics of a timed phase. A throughput is the raw bytes
/// of one job of every kind of that direction ÷ round_ms, so alternating
/// fast and slow kinds average instead of letting a quantile jump between
/// them.
void add_end_to_end(RunResult& res, double raw_per_call,
                    const std::vector<std::vector<double>>& lat,
                    double jobs_per_s, double ratio,
                    const std::vector<double>& setup, double rss_mb) {
  const double kinds = static_cast<double>(lat.size() / 2);
  res.end_to_end = {
      {"compress_gbps", raw_per_call * kinds / (round_ms(lat, true) * 1e6),
       "GB/s"},
      {"decompress_gbps", raw_per_call * kinds / (round_ms(lat, false) * 1e6),
       "GB/s"},
      {"jobs_per_s", jobs_per_s, "1/s"},
      {"job_p25_ms", kind_balanced(lat, kTimeQuantile), "ms"},
      {"ratio", ratio, "x"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", rss_mb, "MiB"},
  };
}

/// Traced ÷ timed per-job time − 1, both at kTimeQuantile.
double overhead_frac(const std::vector<std::vector<double>>& traced,
                     const std::vector<std::vector<double>>& timed) {
  return kind_balanced(traced, kTimeQuantile) /
             kind_balanced(timed, kTimeQuantile) -
         1.0;
}

/// The timed phase's median and tail latency. They are reported with the
/// per-layer metrics, without a bound: on a shared host their spread
/// between runs of the same code is wider than a bound that would catch a
/// regression.
void add_latency_shape(std::vector<Metric>& out,
                       const std::vector<std::vector<double>>& lat) {
  out.push_back({"job_p50_ms", kind_balanced(lat, 0.5), "ms"});
  out.push_back({"job_p99_ms", kind_balanced(lat, 0.99), "ms"});
}

// ---------------------------------------------------------------------------
// Pipeline workloads: one caller, codecs alternating op by op; an op is a
// compress of the whole tensor followed by a decompress of the result.

RunResult run_pipeline(const PipelineWorkload& w, const RunConfig& cfg) {
  RunResult res;
  res.workload = w.name;
  progress(w.name, "generating input");
  const data::Dataset ds = data::make(w.dataset, w.size, cfg.seed);
  const Device dev = Device::serial();
  pipeline::Options opts;
  opts.mode = pipeline::Mode::Fixed;
  opts.param = kRelBound;
  opts.fixed_chunk_bytes = w.chunk_bytes;
  const std::size_t raw = ds.size_bytes();
  const std::size_t nc = w.codecs.size();
  auto& pool = ThreadPool::instance();

  struct Codec {
    std::shared_ptr<const TimedCompressor> comp;
    std::vector<std::uint8_t> stream;  ///< reference stream
    std::vector<std::uint8_t> recon;   ///< reference reconstruction
    std::vector<std::size_t> chunk_rows;
  };
  std::vector<Codec> codecs;
  std::vector<double> setup;
  progress(w.name, "set-up");
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    pool.resize(w.width);
    std::vector<Codec> fresh(nc);
    for (std::size_t c = 0; c < nc; ++c) {
      Codec& k = fresh[c];
      k.comp = std::make_shared<TimedCompressor>(make_compressor(w.codecs[c]));
      auto cr = pipeline::compress(dev, *k.comp, ds.data(), ds.shape,
                                   ds.dtype, opts);
      k.recon.resize(raw);
      pipeline::decompress(dev, *k.comp, cr.stream, k.recon.data(), ds.shape,
                           ds.dtype, opts);
      k.stream = std::move(cr.stream);
      k.chunk_rows = std::move(cr.chunk_rows);
    }
    setup.push_back(ms_since(t0) / 1e3);
    for (std::size_t c = 0; c < nc && !codecs.empty(); ++c)
      if (fresh[c].stream != codecs[c].stream)
        res.fail(w.codecs[c] + ": set-up stream differs between repetitions");
    codecs = std::move(fresh);
  }
  for (const Codec& k : codecs) {
    if (!reconstruction_ok(*k.comp, ds.data(), k.recon.data(),
                           ds.elements(), ds.dtype))
      res.fail(k.comp->name() + ": reference reconstruction out of bound");
    res.stream_hashes.emplace_back(k.comp->name(), hex(fnv1a64(k.stream)));
  }

  // Pool width must not change the bytes: compress once more at another
  // width and compare with the reference stream.
  pool.resize(w.width == 1 ? 4 : 1);
  for (const Codec& k : codecs)
    if (pipeline::compress(dev, *k.comp, ds.data(), ds.shape, ds.dtype, opts)
            .stream != k.stream)
      res.fail(k.comp->name() + ": stream depends on the pool width");
  pool.resize(w.width);

  struct Phase {
    std::vector<std::vector<double>> lat;  ///< ms, [codec*2 + direction]
    std::uint64_t ops = 0;
    PoolCounters before, after;
  };
  std::vector<std::uint8_t> out(raw);
  auto run_phase = [&](double seconds, std::vector<OpInfo>& table,
                       PeakRss* rss) {
    Phase ph;
    ph.lat.assign(2 * nc, {});
    ph.before = PoolCounters::now();
    const auto end = Clock::now() + std::chrono::duration<double>(seconds);
    for (; ph.ops == 0 || Clock::now() < end; ++ph.ops) {
      const std::size_t c = ph.ops % nc;
      const Codec& k = codecs[c];
      OpInfo info;
      info.codec = k.comp->name();
      info.bytes = static_cast<double>(raw);
      pipeline::CompressResult cr;
      {
        OpScope op("op.compress", info, table);
        const auto t0 = Clock::now();
        cr = pipeline::compress(dev, *k.comp, ds.data(), ds.shape, ds.dtype,
                                opts);
        ph.lat[2 * c].push_back(ms_since(t0));
      }
      info.compress = false;
      {
        OpScope op("op.decompress", info, table);
        const auto t0 = Clock::now();
        pipeline::decompress(dev, *k.comp, cr.stream, out.data(), ds.shape,
                             ds.dtype, opts);
        ph.lat[2 * c + 1].push_back(ms_since(t0));
      }
      if (rss != nullptr) rss->op_done();
      if (cr.stream != k.stream)
        res.fail(info.codec + ": stream differs from the reference");
      else if (out != k.recon)
        res.fail(info.codec + ": reconstruction differs from the reference");
    }
    ph.after = PoolCounters::now();
    return ph;
  };
  progress(w.name, "timed phase");
  telemetry::set_enabled(false);
  std::vector<OpInfo> no_ops;
  PeakRss rss(kRssPipelineOps);
  const Phase timed = run_phase(cfg.seconds, no_ops, &rss);
  res.attempted += timed.ops;

  double stored = 0;
  for (const Codec& k : codecs) stored += static_cast<double>(k.stream.size());
  // The caller is busy only inside its calls, so its call rate is one call
  // of every kind ÷ the time those take.
  add_end_to_end(res, static_cast<double>(raw), timed.lat,
                 1e3 * static_cast<double>(timed.lat.size()) /
                     (round_ms(timed.lat, true) + round_ms(timed.lat, false)),
                 static_cast<double>(nc * raw) / stored, setup, rss.mb());
  if (!cfg.trace) return res;

  progress(w.name, "traced phase");
  telemetry::SpanLog::instance().clear();
  telemetry::set_enabled(true);
  std::vector<OpInfo> ops;
  const Phase traced = run_phase(cfg.seconds * kTracedShare, ops, nullptr);
  res.attempted += traced.ops;
  std::vector<Chunk> chunks;
  const std::size_t slab_bytes = raw / ds.shape[0];
  std::size_t row = 0;
  for (std::size_t rows : codecs[0].chunk_rows) {
    Shape s = ds.shape;
    s[0] = rows;
    chunks.push_back({ds.bytes.data() + row * slab_bytes, s, ds.dtype});
    row += rows;
  }
  std::vector<const std::vector<std::uint8_t>*> streams;
  for (const Codec& k : codecs) streams.push_back(&k.stream);
  replay_stages(chunks, streams, ops);
  telemetry::set_enabled(false);

  res.per_layer = layer_metrics(ops, w.width);
  add_latency_shape(res.per_layer, timed.lat);
  res.per_layer.push_back(
      {"pipeline.stored_bytes", stored / static_cast<double>(nc), "bytes"});
  add_pool_metrics(res.per_layer, traced.before, traced.after, traced.ops);
  SvcLayer{}.emit(res.per_layer);
  res.per_layer.push_back({"telemetry.overhead_frac",
                           overhead_frac(traced.lat, timed.lat), "frac"});
  write_trace(cfg.out_dir + "/trace-" + w.name + "-" +
              std::to_string(cfg.seed) + ".json");
  return res;
}

// ---------------------------------------------------------------------------
// svc-small-jobs: kClients closed-loop client threads, one session each,
// submitting single-chunk 32³ jobs that alternate compress/decompress and
// zfp-x/mgard-x over kTensors seeded tensors.

RunResult run_svc(const RunConfig& cfg) {
  constexpr unsigned kClients = kBusyThreads;
  constexpr unsigned kWidth = kBusyThreads;
  constexpr std::size_t kTensors = 8;
  const Shape shape{32, 32, 32};
  const std::vector<std::string> names{"zfp-x", "mgard-x"};
  const std::size_t nc = names.size();
  RunResult res;
  res.workload = kSvcWorkload;
  progress(res.workload, "generating input");
  std::vector<NDArray<float>> tensors;
  for (std::size_t t = 0; t < kTensors; ++t)
    tensors.push_back(data::nyx_density(shape, cfg.seed * kTensors + t));
  const std::size_t raw = tensors[0].size_bytes();
  const Device dev = Device::serial();
  pipeline::Options opts;
  opts.mode = pipeline::Mode::Fixed;
  opts.param = kRelBound;
  opts.fixed_chunk_bytes = kMiB;

  std::vector<std::shared_ptr<const TimedCompressor>> comps;
  // Reference outputs of direct pipeline calls, [tensor][codec].
  std::vector<std::vector<std::vector<std::uint8_t>>> ref_stream, ref_recon;
  std::unique_ptr<svc::Service> service;
  std::vector<svc::Service::Session> sessions;
  auto spec_for = [&](std::size_t t, std::size_t c, bool compress) {
    svc::JobSpec s;
    s.kind = compress ? svc::JobKind::Compress : svc::JobKind::Decompress;
    s.codec = names[c];
    s.shape = shape;
    s.dtype = DType::F32;
    s.opts = opts;
    s.device = "serial";
    s.input = compress ? static_cast<const void*>(tensors[t].data())
                       : ref_stream[t][c].data();
    s.input_bytes = compress ? raw : ref_stream[t][c].size();
    return s;
  };
  auto job_ok = [&](const svc::JobResult& r, std::size_t t, std::size_t c,
                    bool compress) {
    if (!r.ok) return "job failed: " + r.error;
    if (r.output != (compress ? ref_stream : ref_recon)[t][c])
      return names[c] + ": job output differs from the direct pipeline call";
    return std::string();
  };

  std::vector<double> setup;
  progress(res.workload, "set-up");
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    sessions.clear();
    service.reset();
    ThreadPool::instance().resize(kWidth);
    comps.clear();
    for (const auto& n : names)
      comps.push_back(std::make_shared<TimedCompressor>(make_compressor(n)));
    svc::Service::Config sc;
    sc.max_concurrent_jobs = kClients;
    sc.arena_budget_bytes = 64 * kMiB;
    service = std::make_unique<svc::Service>(sc);
    for (unsigned k = 0; k < kClients; ++k)
      sessions.push_back(service->open_session());
    ref_stream.assign(kTensors, std::vector<std::vector<std::uint8_t>>(nc));
    ref_recon = ref_stream;
    for (std::size_t t = 0; t < kTensors; ++t)
      for (std::size_t c = 0; c < nc; ++c) {
        ref_stream[t][c] = pipeline::compress(dev, *comps[c],
                                              tensors[t].data(), shape,
                                              DType::F32, opts)
                               .stream;
        ref_recon[t][c].resize(raw);
        pipeline::decompress(dev, *comps[c], ref_stream[t][c],
                             ref_recon[t][c].data(), shape, DType::F32, opts);
      }
    // Warm-up: every session runs every job kind once.
    for (unsigned k = 0; k < kClients; ++k)
      for (std::size_t c = 0; c < nc; ++c)
        for (bool compress : {true, false}) {
          const std::string err =
              job_ok(sessions[k].submit(spec_for(k, c, compress)).get(), k, c,
                     compress);
          if (!err.empty()) res.fail("warm-up " + err);
        }
    setup.push_back(ms_since(t0) / 1e3);
  }
  double stored = 0;
  for (std::size_t t = 0; t < kTensors; ++t)
    for (std::size_t c = 0; c < nc; ++c) {
      stored += static_cast<double>(ref_stream[t][c].size());
      if (!reconstruction_ok(*comps[c], tensors[t].data(),
                             ref_recon[t][c].data(), shape.size(),
                             DType::F32))
        res.fail(names[c] + ": reference reconstruction out of bound");
    }
  for (std::size_t c = 0; c < nc; ++c)
    res.stream_hashes.emplace_back(names[c], hex(fnv1a64(ref_stream[0][c])));

  // One closed-loop phase: kClients threads, each on its own session. Each
  // client logs into its own Phase; the logs are merged after the join.
  struct Phase {
    std::vector<std::vector<double>> lat;  ///< ms, [codec*2 + direction]
    std::vector<double> done_s;  ///< completion times since the phase start
    SvcLayer layer;
    std::uint64_t jobs = 0;
    double share_sum = 0;
    double wall_s = 0;
    PoolCounters before, after;
    std::vector<std::string> errors;
  };
  auto run_phase = [&](double seconds, std::vector<OpInfo>& table,
                       PeakRss* rss) {
    std::vector<Phase> clients(kClients);
    std::vector<std::vector<OpInfo>> client_ops(kClients);
    Phase ph;
    ph.before = PoolCounters::now();
    const auto start = Clock::now();
    const auto end = start + std::chrono::duration<double>(seconds);
    std::vector<std::jthread> threads;  // joined on every exit path
    for (unsigned k = 0; k < kClients; ++k)
      threads.emplace_back([&, k] {
        Phase& cl = clients[k];
        cl.lat.assign(2 * nc, {});
        for (std::size_t i = 0; cl.jobs == 0 || Clock::now() < end; ++i) {
          const bool compress = i % 2 == 0;
          const std::size_t c = (i / 2) % nc;
          const std::size_t t = (k + i / 4) % kTensors;
          ++cl.jobs;
          try {
            OpInfo info;
            info.type = OpInfo::Type::Job;
            info.codec = names[c];
            info.compress = compress;
            info.bytes = static_cast<double>(raw);
            svc::JobResult r;
            double ms = 0;
            {
              OpScope op(compress ? "job.compress" : "job.decompress", info,
                         client_ops[k]);
              const auto t0 = Clock::now();
              r = sessions[k].submit(spec_for(t, c, compress)).get();
              ms = ms_since(t0);
            }
            if (rss != nullptr) rss->op_done();
            cl.done_s.push_back(ms_since(start) / 1e3);
            cl.lat[2 * c + (compress ? 0 : 1)].push_back(ms);
            cl.layer.queue_ms.push_back(r.queue_wait_s * 1e3);
            cl.layer.run_ms.push_back(r.run_s * 1e3);
            cl.layer.handoff_ms.push_back(ms -
                                          (r.queue_wait_s + r.run_s) * 1e3);
            cl.share_sum += r.share_slots;
            std::string err = job_ok(r, t, c, compress);
            if (!err.empty()) cl.errors.push_back(std::move(err));
          } catch (const std::exception& e) {
            cl.errors.push_back(std::string("submit threw: ") + e.what());
          }
        }
      });
    for (auto& th : threads) th.join();
    ph.wall_s = ms_since(start) / 1e3;
    ph.after = PoolCounters::now();
    auto append = [](auto& to, const auto& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    ph.lat.assign(2 * nc, {});
    for (unsigned k = 0; k < kClients; ++k) {
      const Phase& cl = clients[k];
      for (std::size_t j = 0; j < ph.lat.size(); ++j)
        append(ph.lat[j], cl.lat[j]);
      append(ph.done_s, cl.done_s);
      append(ph.layer.queue_ms, cl.layer.queue_ms);
      append(ph.layer.run_ms, cl.layer.run_ms);
      append(ph.layer.handoff_ms, cl.layer.handoff_ms);
      ph.share_sum += cl.share_sum;
      ph.jobs += cl.jobs;
      for (const auto& e : cl.errors) res.fail(e);
      append(table, client_ops[k]);
    }
    ph.layer.share_slots_mean =
        ph.share_sum / static_cast<double>(std::max<std::uint64_t>(1, ph.jobs));
    return ph;
  };

  progress(res.workload, "timed phase");
  telemetry::set_enabled(false);
  std::vector<OpInfo> no_ops;
  PeakRss rss(kRssSvcJobs);
  const Phase timed = run_phase(cfg.seconds, no_ops, &rss);
  res.attempted += timed.jobs;
  add_end_to_end(res, static_cast<double>(raw), timed.lat,
                 job_rate(timed.done_s, timed.wall_s),
                 static_cast<double>(kTensors * nc * raw) / stored, setup,
                 rss.mb());

  if (cfg.trace) {
    progress(res.workload, "traced phase");
    telemetry::SpanLog::instance().clear();
    telemetry::set_enabled(true);
    std::vector<OpInfo> ops;
    const Phase traced = run_phase(cfg.seconds * kTracedShare, ops, nullptr);
    res.attempted += traced.jobs;
    // Service builds its codecs by name, so the compressor and pipeline
    // layers are measured on the same job mix through direct pipeline
    // calls with the decorated codecs.
    std::vector<std::uint8_t> out(raw);
    for (int round = 0; round < 3; ++round)
      for (std::size_t t = 0; t < kTensors; ++t)
        for (std::size_t c = 0; c < nc; ++c) {
          OpInfo info;
          info.codec = names[c];
          info.bytes = static_cast<double>(raw);
          {
            OpScope op("op.compress", info, ops);
            pipeline::compress(dev, *comps[c], tensors[t].data(), shape,
                               DType::F32, opts);
          }
          info.compress = false;
          OpScope op("op.decompress", info, ops);
          pipeline::decompress(dev, *comps[c], ref_stream[t][c], out.data(),
                               shape, DType::F32, opts);
        }
    std::vector<Chunk> chunks;
    std::vector<const std::vector<std::uint8_t>*> streams;
    for (std::size_t t = 0; t < kTensors; ++t) {
      chunks.push_back({tensors[t].data(), shape, DType::F32});
      for (std::size_t c = 0; c < nc; ++c) streams.push_back(&ref_stream[t][c]);
    }
    replay_stages(chunks, streams, ops);
    telemetry::set_enabled(false);

    res.per_layer = layer_metrics(ops, kWidth);
    add_latency_shape(res.per_layer, timed.lat);
    res.per_layer.push_back(
        {"pipeline.stored_bytes",
         stored / static_cast<double>(kTensors * nc), "bytes"});
    add_pool_metrics(res.per_layer, traced.before, traced.after, traced.jobs);
    SvcLayer layer = traced.layer;
    layer.arena_high_water_mb =
        static_cast<double>(service->budget().high_water()) / kMiB;
    layer.failed = service->failed();
    layer.shed = service->shed();
    layer.emit(res.per_layer);
    res.per_layer.push_back({"telemetry.overhead_frac",
                             overhead_frac(traced.lat, timed.lat), "frac"});
    write_trace(cfg.out_dir + "/trace-" + res.workload + "-" +
                std::to_string(cfg.seed) + ".json");
  }
  if (service->failed() != 0 || service->shed() != 0)
    res.fail("the service reports failed or shed jobs");
  return res;
}

}  // namespace

void RunResult::fail(std::string what) {
  ++failed;
  if (errors.size() < 16) errors.push_back(std::move(what));
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const auto& w : pipeline_workloads()) names.push_back(w.name);
  names.push_back(kSvcWorkload);
  return names;
}

RunResult run_workload(const RunConfig& cfg) {
  for (const auto& w : pipeline_workloads())
    if (cfg.workload == w.name) return run_pipeline(w, cfg);
  HPDR_REQUIRE(cfg.workload == kSvcWorkload,
               "unknown workload '" << cfg.workload << "'");
  return run_svc(cfg);
}

}  // namespace hpdr_bench
