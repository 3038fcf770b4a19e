#include "sim/multigpu.hpp"

#include <algorithm>
#include <vector>

#include "core/error.hpp"
#include "fault/fault.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace hpdr::sim {
namespace {

/// Mean fraction of one GPU's memory-op time spent waiting behind each
/// other GPU in the weak-scaling loop (issue times are nearly aligned).
constexpr double kLockOverlap = 0.9;
/// Runtime interaction cost per submitted task (kernel launch, event) under
/// a shared runtime, as a fraction of the launch latency — small, but
/// nonzero even for CMM pipelines.
constexpr double kLaunchLockFraction = 0.1;

struct PipelineRun {
  double seconds = 0;        ///< one time step, one GPU, no contention
  double alloc_seconds = 0;  ///< memory-management portion of `seconds`
  std::size_t memops = 0;    ///< runtime memory operations per step
  std::size_t tasks = 0;     ///< submitted tasks per step
  std::size_t raw_bytes = 0;
};

PipelineRun run_once(const Device& gpu, const Compressor& comp,
                     const pipeline::Options& opts, const void* data,
                     const Shape& shape, DType dtype, bool compress_dir) {
  PipelineRun r;
  auto cres = pipeline::compress(gpu, comp, data, shape, dtype, opts);
  const Timeline* tl = &cres.timeline;
  pipeline::DecompressResult dres;
  std::vector<std::uint8_t> scratch;
  if (!compress_dir) {
    scratch.resize(shape.size() * dtype_size(dtype));
    dres = pipeline::decompress(gpu, comp, cres.stream, scratch.data(),
                                shape, dtype, opts);
    tl = &dres.timeline;
  }
  r.seconds = tl->makespan();
  r.tasks = tl->tasks.size();
  for (const auto& t : tl->tasks)
    if (t.label == "alloc") r.alloc_seconds += t.duration();
  const std::size_t nchunks = cres.chunk_rows.size();
  r.memops = comp.uses_context_cache()
                 ? 0
                 : static_cast<std::size_t>(comp.allocs_per_call()) * 2 *
                       nchunks;  // alloc + free per buffer
  r.raw_bytes = shape.size() * dtype_size(dtype);
  return r;
}

}  // namespace

MultiGpuResult run_node(const Device& gpu, int ngpus, const Compressor& comp,
                        const pipeline::Options& opts, const void* data,
                        const Shape& shape, DType dtype, bool compress_dir,
                        int timesteps) {
  // Scalability divides by the modeled makespan, which only a SimGpu
  // device bills.
  HPDR_REQUIRE(gpu.spec().is_gpu(), "run_node models GPUs; '"
                                        << gpu.name()
                                        << "' is a host device");
  HPDR_REQUIRE(ngpus >= 1, "need at least one GPU");
  HPDR_REQUIRE(timesteps >= 1, "need at least one time step");
  telemetry::Span span("sim.run_node", "sim");
  telemetry::counter("sim.node.runs").add();
  const PipelineRun run =
      run_once(gpu, comp, opts, data, shape, dtype, compress_dir);

  const double lock = gpu.spec().runtime_lock_us * 1e-6;
  // Contention: the pipeline's shared-runtime critical sections (driver
  // locks held across allocations and their implicit synchronizations —
  // comp.contention_exposure() of its runtime) serialize behind the other
  // active−1 GPUs, plus the explicit per-memop lock and per-task
  // interaction.
  const double exposure = comp.contention_exposure(compress_dir);
  const auto extra_per_step = [&](int active) {
    return (run.seconds * exposure + run.alloc_seconds +
            static_cast<double>(run.memops) * lock +
            static_cast<double>(run.tasks) * gpu.spec().kernel_launch_us *
                1e-6 * kLaunchLockFraction) *
           static_cast<double>(active - 1) * kLockOverlap;
  };

  // Consult the fault plan once per GPU, in GPU order (deterministic for a
  // given seed). A failed GPU dies at the timestep midpoint; a straggler's
  // step time stretches by the plan's factor.
  std::vector<bool> failed(static_cast<std::size_t>(ngpus), false);
  std::vector<double> stretch(static_cast<std::size_t>(ngpus), 1.0);
  int nfailed = 0;
  int nstraggle = 0;
  if (fault::Injector::instance().armed()) {
    for (int g = 0; g < ngpus; ++g) {
      if (fault::should_fire("gpu.fail")) {
        failed[static_cast<std::size_t>(g)] = true;
        ++nfailed;
        continue;
      }
      const double s = fault::stretch("gpu.straggle");
      if (s > 1.0) {
        stretch[static_cast<std::size_t>(g)] = s;
        ++nstraggle;
      }
    }
  }
  HPDR_REQUIRE(nfailed < ngpus,
               "all " << ngpus << " GPUs failed — no survivor to fail over "
                                  "to");

  MultiGpuResult r;
  r.ngpus = ngpus;
  r.alloc_seconds = run.alloc_seconds;
  r.failed_gpus = nfailed;
  r.stragglers = nstraggle;
  const double total_bytes = static_cast<double>(run.raw_bytes) *
                             static_cast<double>(timesteps) *
                             static_cast<double>(ngpus);
  if (nfailed == 0 && nstraggle == 0) {
    // Healthy path — numerically identical to the fault-free model.
    r.per_gpu_seconds = (run.seconds + extra_per_step(ngpus)) *
                        static_cast<double>(timesteps);
  } else {
    // Phase 1: the full node runs to the midpoint (failed GPUs complete
    // `half` steps before dying), paying full-node contention.
    const int half = timesteps / 2;
    const double extra_n = extra_per_step(ngpus);
    double phase1 = 0;
    for (int g = 0; g < ngpus; ++g)
      phase1 = std::max(
          phase1, (run.seconds * stretch[static_cast<std::size_t>(g)] +
                   extra_n) *
                      static_cast<double>(half));
    // Phase 2: survivors finish their own remaining steps plus an even
    // share of the failed GPUs' orphaned steps, at shrunken-node
    // contention. The makespan follows the slowest (straggling) survivor.
    const int survivors = ngpus - nfailed;
    const int orphaned = nfailed * (timesteps - half);
    const double extra_s = extra_per_step(survivors);
    const int base_extra = orphaned / survivors;
    int leftover = orphaned % survivors;
    double phase2 = 0;
    for (int g = 0; g < ngpus; ++g) {
      if (failed[static_cast<std::size_t>(g)]) continue;
      int steps = (timesteps - half) + base_extra;
      if (leftover > 0) {
        ++steps;
        --leftover;
      }
      phase2 = std::max(
          phase2, (run.seconds * stretch[static_cast<std::size_t>(g)] +
                   extra_s) *
                      static_cast<double>(steps));
    }
    r.redistributed_steps = orphaned;
    r.per_gpu_seconds = phase1 + phase2;
    if (telemetry::enabled()) {
      telemetry::counter("fault.gpu.failures").add(
          static_cast<std::uint64_t>(nfailed));
      telemetry::counter("fault.gpu.stragglers").add(
          static_cast<std::uint64_t>(nstraggle));
      telemetry::counter("fault.gpu.redistributed_steps").add(
          static_cast<std::uint64_t>(orphaned));
    }
  }
  r.aggregate_gbps = total_bytes / (r.per_gpu_seconds * 1e9);
  r.ideal_gbps = static_cast<double>(run.raw_bytes) *
                 static_cast<double>(timesteps) *
                 static_cast<double>(ngpus) /
                 (run.seconds * static_cast<double>(timesteps) * 1e9);
  r.scalability = r.aggregate_gbps / r.ideal_gbps;
  if (telemetry::enabled()) {
    // Per-GPU busy/idle split for the last simulated node configuration:
    // busy is productive pipeline time, idle is shared-runtime contention.
    telemetry::gauge("sim.gpu.busy_seconds").set(run.seconds);
    telemetry::gauge("sim.gpu.contention_seconds")
        .set(extra_per_step(ngpus));
    telemetry::gauge("sim.node.scalability").set(r.scalability);
  }
  return r;
}

ScalabilitySweep sweep_node(const Device& gpu, int max_gpus,
                            const Compressor& comp,
                            const pipeline::Options& opts, const void* data,
                            const Shape& shape, DType dtype,
                            bool compress_dir, int timesteps) {
  ScalabilitySweep sweep;
  double sum = 0;
  for (int n = 1; n <= max_gpus; ++n) {
    sweep.points.push_back(run_node(gpu, n, comp, opts, data, shape, dtype,
                                    compress_dir, timesteps));
    sum += sweep.points.back().scalability;
  }
  sweep.average_scalability = sum / static_cast<double>(max_gpus);
  return sweep;
}

}  // namespace hpdr::sim
