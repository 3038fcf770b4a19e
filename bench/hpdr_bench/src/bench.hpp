#ifndef HPDR_BENCH_BENCH_HPP
#define HPDR_BENCH_BENCH_HPP

/// \file bench.hpp
/// Shared declarations of hpdr_bench: the run configuration, the metric
/// record every workload fills, the bench-side codec decorator, the op
/// table the traced phase keeps next to its spans, and the statistics
/// helpers all reported values go through.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hpdr.hpp"

namespace hpdr_bench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// One reported value; the name and unit follow BENCHMARK.json.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 25.0;  ///< length of the timed phase
  bool trace = true;      ///< also run the traced phase (per-layer metrics)
  std::string out_dir = ".";
};

/// Everything one workload run produces.
struct RunResult {
  std::string workload;
  std::uint64_t attempted = 0;  ///< ops run in all phases
  std::uint64_t failed = 0;     ///< ops whose output check failed
  std::vector<std::string> errors;  ///< first few failure descriptions
  std::vector<Metric> end_to_end;   ///< timed phase
  std::vector<Metric> per_layer;    ///< traced phase (empty without it)
  /// Per-codec FNV-1a of the reference stream (hex), so runs at different
  /// pool widths can be compared byte for byte.
  std::vector<std::pair<std::string, std::string>> stream_hashes;

  void fail(std::string what);
};

/// Workload names in report order.
std::vector<std::string> workload_names();

/// Run one workload in this process. Throws hpdr::Error on bad input.
RunResult run_workload(const RunConfig& cfg);

/// `hpdr_bench compare A.json... -- B.json...`; returns the exit code.
int compare_main(int argc, char** argv);

/// Parse a JSON file; throws hpdr::Error when unreadable or malformed.
hpdr::telemetry::Value read_json(const std::string& path);

// ---------------------------------------------------------------------------
// Statistics

/// Linear-interpolated percentile, p in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}
/// Quartiles exactly as Python's statistics.quantiles(v, n=4) computes
/// them (the "exclusive" method); a single value is its own quartiles.
struct Quartiles {
  double q1 = 0, q2 = 0, q3 = 0;
};
Quartiles quartiles(std::vector<double> v);

// ---------------------------------------------------------------------------
// Tracing (traced phase only)

/// What one op id stands for. Span trace ids are op ids: every span of an
/// op — the op span, the codec spans on pool threads, the program's own
/// spans beneath them — carries the same id.
struct OpInfo {
  enum class Type { Pipeline, Replay, Job };
  Type type = Type::Pipeline;
  std::uint64_t id = 0;
  std::string codec;    ///< Pipeline: codec name
  bool compress = true; ///< Pipeline: direction
  std::string stage;    ///< Replay: stage name (e.g. "mgard.decompose")
  double bytes = 0;     ///< raw bytes the op covers
};

/// RAII op: mints an op id, installs it as the thread's trace context, and
/// opens a span of category "bench" named `name`. Inert when telemetry is
/// off, so the timed phase pays nothing.
class OpScope {
 public:
  OpScope(const char* name, OpInfo info, std::vector<OpInfo>& table);

 private:
  std::unique_ptr<hpdr::telemetry::TraceScope> trace_;
  std::unique_ptr<hpdr::telemetry::Span> span_;  // ends before trace_ pops
};

/// Decorator that records one "bench" span per codec call, on whichever
/// pool thread runs it. Forwards every virtual — name() included, so the
/// container bytes are those of the wrapped codec.
class TimedCompressor final : public hpdr::Compressor {
 public:
  explicit TimedCompressor(std::shared_ptr<const hpdr::Compressor> inner);

  std::string name() const override { return inner_->name(); }
  bool lossless() const override { return inner_->lossless(); }
  hpdr::KernelClass compress_kernel() const override {
    return inner_->compress_kernel();
  }
  hpdr::KernelClass decompress_kernel() const override {
    return inner_->decompress_kernel();
  }
  bool uses_context_cache() const override {
    return inner_->uses_context_cache();
  }
  int allocs_per_call() const override { return inner_->allocs_per_call(); }
  double kernel_derate() const override { return inner_->kernel_derate(); }
  double contention_exposure(bool compress_dir) const override {
    return inner_->contention_exposure(compress_dir);
  }
  std::vector<std::uint8_t> compress(const hpdr::Device& dev,
                                     const void* data,
                                     const hpdr::Shape& shape,
                                     hpdr::DType dtype,
                                     double param) const override;
  void decompress(const hpdr::Device& dev,
                  std::span<const std::uint8_t> stream, void* out,
                  const hpdr::Shape& shape, hpdr::DType dtype) const override;

 private:
  std::shared_ptr<const hpdr::Compressor> inner_;
  std::string compress_span_;    ///< "codec.<name>.compress"
  std::string decompress_span_;  ///< "codec.<name>.decompress"
};

/// A contiguous piece of the workload's input, as the codecs see it.
struct Chunk {
  const void* data = nullptr;
  hpdr::Shape shape;
  hpdr::DType dtype = hpdr::DType::F32;
  std::size_t bytes() const { return shape.size() * hpdr::dtype_size(dtype); }
};

/// Replay the public stage entry points (mgard decompose/recompose, zfp
/// block transforms, huffman histogram) on `chunks`, and fnv1a64 on
/// `streams`, as traced Replay ops appended to `ops`.
void replay_stages(const std::vector<Chunk>& chunks,
                   const std::vector<const std::vector<std::uint8_t>*>& streams,
                   std::vector<OpInfo>& ops);

/// Per-layer metrics of the compressor, algorithms, and pipeline layers,
/// computed from the "bench" spans in the global SpanLog and the op table.
/// `width` is the pool width the Pipeline ops ran at.
std::vector<Metric> layer_metrics(const std::vector<OpInfo>& ops,
                                  unsigned width);

/// Write the merged Chrome trace of every span recorded so far.
void write_trace(const std::string& path);

}  // namespace hpdr_bench

#endif  // HPDR_BENCH_BENCH_HPP
