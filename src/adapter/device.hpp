#ifndef HPDR_ADAPTER_DEVICE_HPP
#define HPDR_ADAPTER_DEVICE_HPP

/// \file device.hpp
/// Device adapters (paper §III-C, Table II). A Device binds a processor
/// description (DeviceSpec) to an execution backend:
///
///  * Serial — single host thread (the maximally compatible baseline the
///    paper mentions in §II-B).
///  * OpenMP — multi-core CPU; groups are parallelized across cores, the
///    workload of each group runs sequentially on its core.
///  * SimGpu — the substitution for the paper's CUDA/HIP adapters: kernels
///    execute on the host (bit-identical output), while elapsed time is
///    produced by the calibrated performance model in runtime/perf_model.hpp
///    and billed through the HDEM discrete-event simulator. This preserves
///    every throughput/overlap/contention conclusion of the paper without
///    GPU silicon (see DESIGN.md §1).
///
/// New architectures are added exactly as in the paper: implement a new
/// adapter (a DeviceKind dispatch case) without touching algorithm code.

#include <cstddef>
#include <string>

#include "core/error.hpp"

namespace hpdr {

/// Which execution backend a device uses.
///
/// StdThread is the worked example of the paper's extensibility claim
/// (§III-C: "HPDR can be easily extended to support newer architectures
/// ... by implementing new device adapters"): a complete adapter added
/// without touching any algorithm code, built on a std::thread fork-join
/// pool instead of OpenMP.
enum class DeviceKind { Serial, OpenMP, SimGpu, StdThread };

const char* to_string(DeviceKind k);

/// Processor description. For SimGpu devices the bandwidth/latency fields
/// calibrate the performance model; for CPU devices they are informational.
struct DeviceSpec {
  std::string name = "serial";   ///< e.g. "V100", "MI250X", "EPYC-7A53"
  DeviceKind kind = DeviceKind::Serial;
  int compute_units = 1;         ///< SMs (CUDA) / CUs (HIP) / cores (CPU)
  double mem_bw_gbps = 10.0;     ///< device memory bandwidth
  double h2d_gbps = 0.0;         ///< host→device interconnect (0: no device)
  double d2h_gbps = 0.0;         ///< device→host interconnect
  double copy_latency_us = 10.0; ///< per-DMA-operation latency
  double kernel_launch_us = 5.0; ///< per-kernel launch latency
  double alloc_base_us = 80.0;   ///< cudaMalloc-style base cost
  double alloc_us_per_mb = 2.0;  ///< allocation cost growth with size
  double runtime_lock_us = 40.0; ///< shared-runtime serialization per mem op
                                 ///< (the multi-GPU contention of §III-B)
  std::size_t memory_bytes = std::size_t{16} << 30;  ///< device memory
  /// Multiplier on the kernel-saturation thresholds (C_threshold). 1.0 is
  /// the real device; benches running paper experiments at reduced data
  /// sizes scale this down proportionally so the chunk-size/pipeline
  /// dynamics keep the same *shape* (dimensionless C_threshold/total).
  double saturation_scale = 1.0;

  bool is_gpu() const { return kind == DeviceKind::SimGpu; }
};

/// Handle through which all parallel abstractions execute. Copyable and
/// cheap; owns no resources.
class Device {
 public:
  Device() = default;
  explicit Device(DeviceSpec spec) : spec_(std::move(spec)) {}

  const DeviceSpec& spec() const { return spec_; }
  DeviceKind kind() const { return spec_.kind; }
  const std::string& name() const { return spec_.name; }

  /// Host threads one abstraction launch can occupy: 1 for Serial, the
  /// pool width for StdThread, and OpenMP's team size for OpenMP and for
  /// SimGpu (whose kernels execute on the host like OpenMP's).
  unsigned parallel_width() const;

  /// Convenience factories for the host backends.
  static Device serial();
  static Device openmp();
  static Device std_thread();

 private:
  DeviceSpec spec_;
};

}  // namespace hpdr

#endif  // HPDR_ADAPTER_DEVICE_HPP
