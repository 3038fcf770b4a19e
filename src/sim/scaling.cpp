#include "sim/scaling.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/error.hpp"
#include "machine/device_registry.hpp"
#include "pipeline/adaptive.hpp"

namespace hpdr::sim {
namespace {

double network_factor(const ClusterConfig& cluster, int nodes) {
  const double doublings = std::log2(std::max(1.0, double(nodes)));
  return std::pow(cluster.network_efficiency, doublings);
}

/// Steady-state chunk size the Alg. 4 scheduler converges to: the fixpoint
/// of C ← Θ(C/Φ(C)) clamped to [init, limit] (see pipeline/adaptive.hpp).
std::size_t steady_chunk(const GpuPerfModel& model, KernelClass kernel,
                         const pipeline::Options& opts) {
  std::size_t c = std::max<std::size_t>(opts.init_chunk_bytes, 1 << 20);
  for (int i = 0; i < 64; ++i) {
    const std::size_t next = pipeline::next_chunk_bytes(
        model, kernel, c, opts.max_chunk_bytes);
    if (next == c) break;
    c = next;
  }
  return c;
}

/// Analytic per-GPU pipeline time at an arbitrary data volume. The HDEM
/// discrete-event simulator validates this model at representative sizes
/// (tests/test_pipeline.cpp); at the paper's multi-TB scales we evaluate the
/// closed form: a full pipeline's makespan is the busiest engine's total
/// plus fill/drain, a non-overlapped run is the sum of stages, and shared-
/// runtime contention adds the multi-GPU term of sim/multigpu.hpp.
double per_gpu_seconds(const Device& gpu, const Compressor& comp,
                       const pipeline::Options& opts, double bytes,
                       double ratio, bool compress_dir, int gpus_sharing) {
  const GpuPerfModel model(gpu.spec());
  const KernelClass kernel =
      compress_dir ? comp.compress_kernel() : comp.decompress_kernel();
  std::size_t chunk;
  switch (opts.mode) {
    case pipeline::Mode::None:
      chunk = static_cast<std::size_t>(bytes);
      break;
    case pipeline::Mode::Fixed:
      chunk = opts.fixed_chunk_bytes;
      break;
    case pipeline::Mode::Adaptive:
      chunk = steady_chunk(model, comp.compress_kernel(), opts);
      break;
    default:
      chunk = static_cast<std::size_t>(bytes);
  }
  chunk = std::min<std::size_t>(chunk, static_cast<std::size_t>(bytes));
  chunk = std::max<std::size_t>(chunk, 1);
  const double nchunks = std::ceil(bytes / static_cast<double>(chunk));
  const double in_bytes = compress_dir ? bytes : bytes / ratio;
  const double out_bytes = compress_dir ? bytes / ratio : bytes;
  const double lat = gpu.spec().copy_latency_us * 1e-6;
  const double h2d_total =
      in_bytes / (gpu.spec().h2d_gbps * 1e9) + nchunks * lat;
  const double kern_total =
      comp.kernel_derate() * bytes /
          (model.kernel_model(kernel).gbps(
               static_cast<double>(chunk) / (1 << 20)) *
           1e9) +
      nchunks * gpu.spec().kernel_launch_us * 1e-6;
  const double d2h_total =
      out_bytes / (gpu.spec().d2h_gbps * 1e9) + 2 * nchunks * lat;
  double alloc_total = 0;
  double memops = 0;
  if (!comp.uses_context_cache()) {
    alloc_total = nchunks * comp.allocs_per_call() *
                  model.alloc_seconds(chunk / std::max(
                      1, comp.allocs_per_call()));
    memops = nchunks * comp.allocs_per_call() * 2;
  }
  double t;
  if (opts.mode == pipeline::Mode::None) {
    // Unpipelined baselines copy from/to pageable application buffers
    // (same kPageablePenalty the HDEM pipeline applies).
    t = alloc_total + (h2d_total + d2h_total) / 0.35 + kern_total;
  } else {
    const double fill = static_cast<double>(chunk) *
                        (1.0 / (gpu.spec().h2d_gbps * 1e9) +
                         1.0 / (gpu.spec().d2h_gbps * 1e9 * ratio));
    t = alloc_total + std::max({h2d_total, kern_total, d2h_total}) + fill;
  }
  // Shared-runtime contention across the node's GPUs (Fig. 16 mechanism).
  const double lock = gpu.spec().runtime_lock_us * 1e-6;
  const double tasks = nchunks * 4;
  t += (t * comp.contention_exposure(compress_dir) + alloc_total +
        memops * lock + tasks * 5e-7) *
       static_cast<double>(gpus_sharing - 1) * 0.9;
  return t;
}

}  // namespace

ReductionScaleResult weak_scale_reduction(const ClusterConfig& cluster,
                                          int nodes, const Compressor& comp,
                                          const pipeline::Options& opts,
                                          const void* data,
                                          const Shape& shape, DType dtype,
                                          int timesteps, double device_scale) {
  HPDR_REQUIRE(nodes >= 1 && nodes <= cluster.max_nodes,
               "node count out of range for " << cluster.name);
  const Device gpu =
      device_scale < 1.0
          ? machine::scaled_replica(cluster.node.gpu, device_scale)
          : cluster.gpu_device();
  const int g = cluster.node.gpus_per_node;
  const MultiGpuResult comp_node = run_node(
      gpu, g, comp, opts, data, shape, dtype, /*compress=*/true, timesteps);
  const MultiGpuResult deco_node = run_node(
      gpu, g, comp, opts, data, shape, dtype, /*compress=*/false, timesteps);
  ReductionScaleResult r;
  r.nodes = nodes;
  r.gpus = cluster.gpus(nodes);
  const double net = network_factor(cluster, nodes);
  r.compress_gbps = comp_node.aggregate_gbps * nodes * net;
  r.decompress_gbps = deco_node.aggregate_gbps * nodes * net;
  return r;
}

IoScaleResult scale_io(const ClusterConfig& cluster, int nodes,
                       const Compressor& comp, const pipeline::Options& opts,
                       const void* rep_data, const Shape& rep_shape,
                       DType dtype, std::size_t bytes_per_gpu) {
  HPDR_REQUIRE(nodes >= 1 && nodes <= cluster.max_nodes,
               "node count out of range for " << cluster.name);
  const Device gpu = cluster.gpu_device();
  const int g = cluster.node.gpus_per_node;

  // Real pipeline run on the representative tensor for the compression
  // ratio (the data-dependent quantity); per-GPU times are then evaluated
  // analytically at the target volume, where fixed latencies amortize.
  auto cres =
      pipeline::compress(gpu, comp, rep_data, rep_shape, dtype, opts);
  const double ratio = cres.ratio();

  IoScaleResult r;
  r.nodes = nodes;
  r.writers = cluster.writers(nodes);
  r.ratio = ratio;
  const double total_raw =
      static_cast<double>(bytes_per_gpu) * cluster.gpus(nodes);
  r.raw_bytes_total = static_cast<std::size_t>(total_raw);
  r.stored_bytes_total = static_cast<std::size_t>(total_raw / ratio);
  r.compress_seconds =
      per_gpu_seconds(gpu, comp, opts, static_cast<double>(bytes_per_gpu),
                      ratio, /*compress=*/true, g);
  r.decompress_seconds =
      per_gpu_seconds(gpu, comp, opts, static_cast<double>(bytes_per_gpu),
                      ratio, /*compress=*/false, g);
  r.write_raw_seconds = cluster.fs.write_seconds(r.raw_bytes_total, r.writers);
  r.read_raw_seconds = cluster.fs.read_seconds(r.raw_bytes_total, r.writers);
  r.write_reduced_seconds =
      r.compress_seconds +
      cluster.fs.write_seconds(r.stored_bytes_total, r.writers);
  r.read_reduced_seconds =
      cluster.fs.read_seconds(r.stored_bytes_total, r.writers) +
      r.decompress_seconds;
  return r;
}

IoScaleResult strong_scale_io(const ClusterConfig& cluster, int nodes,
                              const Compressor& comp,
                              const pipeline::Options& opts,
                              const void* rep_data, const Shape& rep_shape,
                              DType dtype, std::size_t total_bytes) {
  const std::size_t per_gpu =
      total_bytes / static_cast<std::size_t>(cluster.gpus(nodes));
  HPDR_REQUIRE(per_gpu > 0, "too many GPUs for the data volume");
  return scale_io(cluster, nodes, comp, opts, rep_data, rep_shape, dtype,
                  per_gpu);
}

}  // namespace hpdr::sim
