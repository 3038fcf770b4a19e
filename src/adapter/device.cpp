#include "adapter/device.hpp"

#include <omp.h>

#include "adapter/abstractions.hpp"
#include "core/thread_pool.hpp"

namespace hpdr {

const char* to_string(DeviceKind k) {
  switch (k) {
    case DeviceKind::Serial:
      return "Serial";
    case DeviceKind::OpenMP:
      return "OpenMP";
    case DeviceKind::SimGpu:
      return "SimGpu";
    case DeviceKind::StdThread:
      return "StdThread";
  }
  return "?";
}

Device Device::serial() {
  DeviceSpec s;
  s.name = "serial";
  s.kind = DeviceKind::Serial;
  s.compute_units = 1;
  return Device(s);
}

Device Device::std_thread() {
  DeviceSpec s;
  s.name = "std-thread";
  s.kind = DeviceKind::StdThread;
  s.compute_units = static_cast<int>(ThreadPool::instance().concurrency());
  return Device(s);
}

Device Device::openmp() {
  DeviceSpec s;
  s.name = "openmp";
  s.kind = DeviceKind::OpenMP;
  s.compute_units = omp_get_max_threads();
  return Device(s);
}

std::size_t detail::worker_slots(const Device& dev) {
  switch (dev.kind()) {
    case DeviceKind::Serial:
      return 1;
    case DeviceKind::StdThread:
      return ThreadPool::instance().concurrency();
    case DeviceKind::OpenMP:
    case DeviceKind::SimGpu:
      break;
  }
  return static_cast<std::size_t>(omp_get_max_threads());
}

}  // namespace hpdr
