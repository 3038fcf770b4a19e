#include "io/fs_model.hpp"

#include <algorithm>

namespace hpdr::io {

double FsModel::write_gbps(int writers) const {
  if (writers <= 0) return 0.0;
  return std::min(peak_gbps, per_writer_gbps * writers);
}

double FsModel::read_gbps(int writers) const {
  return write_gbps(writers) * read_scale;
}

double FsModel::write_seconds(std::size_t bytes, int writers) const {
  if (writers <= 0 || bytes == 0) return 0.0;
  return open_latency_s + metadata_per_writer_s * writers +
         static_cast<double>(bytes) / (write_gbps(writers) * 1e9);
}

double FsModel::read_seconds(std::size_t bytes, int writers) const {
  if (writers <= 0 || bytes == 0) return 0.0;
  return open_latency_s + metadata_per_writer_s * writers +
         static_cast<double>(bytes) / (read_gbps(writers) * 1e9);
}

FsModel gpfs_summit() {
  FsModel m;
  m.name = "GPFS(Alpine)";
  m.peak_gbps = 2500.0;
  m.per_writer_gbps = 5.5;  // one aggregated node writer
  m.read_scale = 0.9;
  m.open_latency_s = 0.03;
  m.metadata_per_writer_s = 4e-5;
  return m;
}

FsModel lustre_frontier() {
  FsModel m;
  m.name = "Lustre(Orion)";
  m.peak_gbps = 9400.0;
  m.per_writer_gbps = 2.4;  // one writer per GPU (4 per node)
  m.read_scale = 0.85;
  m.open_latency_s = 0.02;
  m.metadata_per_writer_s = 2e-5;
  return m;
}

}  // namespace hpdr::io
