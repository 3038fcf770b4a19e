#ifndef HPDR_SIM_MULTIGPU_HPP
#define HPDR_SIM_MULTIGPU_HPP

/// \file multigpu.hpp
/// Dense multi-GPU node model (paper §III-B and Fig. 16). All GPUs of a
/// node share one runtime: device memory-management operations serialize on
/// the runtime's internal lock, so a pipeline that allocates per call loses
/// scalability as GPUs are added, while the CMM-backed HPDR pipelines —
/// whose contexts persist across calls — scale almost ideally.
///
/// The model: each GPU runs the same pipeline on its own data (the paper's
/// weak-scaling test, 14 NYX time steps per GPU). Per-GPU time is the HDEM
/// makespan plus the contention term
///
///   extra(N) = (alloc_time + n_memops · lock) · (N − 1) · overlap,
///
/// i.e., on average each memory operation waits behind the other N−1 GPUs'
/// operations (overlap ≈ 0.9 because issue times are nearly aligned in a
/// weak-scaling loop).

#include <vector>

#include "compressor/compressor.hpp"
#include "pipeline/pipeline.hpp"
#include "sim/cluster.hpp"

namespace hpdr::sim {

struct MultiGpuResult {
  int ngpus = 1;
  double per_gpu_seconds = 0;    ///< incl. contention; node makespan when
                                 ///< the run degraded (failover/stragglers)
  double aggregate_gbps = 0;     ///< N × bytes / per_gpu_seconds
  double ideal_gbps = 0;         ///< N × single-GPU throughput
  double scalability = 1.0;      ///< aggregate / ideal
  double alloc_seconds = 0;      ///< memory-management time per GPU (N=1)
  // Degraded-mode accounting (gpu.fail / gpu.straggle fault sites,
  // DESIGN.md §8). Zero on a healthy run.
  int failed_gpus = 0;       ///< GPUs lost mid-run (at timestep midpoint)
  int stragglers = 0;        ///< GPUs slowed by the straggle factor
  int redistributed_steps = 0;  ///< timesteps reassigned to survivors

  bool degraded() const { return failed_gpus > 0 || stragglers > 0; }
};

/// Run the weak-scaling node test: `ngpus` GPUs each compress (or
/// decompress) `timesteps` copies of the given tensor. `gpu` must be a
/// SimGpu device (throws hpdr::Error on a host device, which bills no
/// modeled time).
///
/// Resilience: each GPU consults the gpu.fail and gpu.straggle fault sites.
/// A failed GPU dies at its timestep midpoint and its remaining steps are
/// redistributed evenly across the survivors, which then also bear the
/// (smaller) contention of the shrunken node; a straggler's step time is
/// stretched by the plan's factor and the node makespan follows the slowest
/// GPU. All GPUs failing throws hpdr::Error. With the injector disarmed the
/// healthy path is taken unchanged.
MultiGpuResult run_node(const Device& gpu, int ngpus, const Compressor& comp,
                        const pipeline::Options& opts, const void* data,
                        const Shape& shape, DType dtype, bool compress_dir,
                        int timesteps = 14);

/// Sweep 1..max_gpus and report the average real-to-ideal ratio, the
/// scalability metric of Fig. 16.
struct ScalabilitySweep {
  std::vector<MultiGpuResult> points;
  double average_scalability = 1.0;
};
ScalabilitySweep sweep_node(const Device& gpu, int max_gpus,
                            const Compressor& comp,
                            const pipeline::Options& opts, const void* data,
                            const Shape& shape, DType dtype,
                            bool compress_dir, int timesteps = 14);

}  // namespace hpdr::sim

#endif  // HPDR_SIM_MULTIGPU_HPP
