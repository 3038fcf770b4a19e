#ifndef HPDR_IO_FS_MODEL_HPP
#define HPDR_IO_FS_MODEL_HPP

/// \file fs_model.hpp
/// Parallel-filesystem bandwidth models for the I/O-at-scale experiments
/// (Figs. 17–18). A shared filesystem delivers
///
///   bw(writers) = min(peak, writers × per_writer)
///
/// plus a per-open latency and a metadata cost that grows with the writer
/// count — the structure that makes writer aggregation (one writer per node
/// on Summit, one per GPU on Frontier, §VI-A) matter.

#include <cstddef>
#include <cstdint>
#include <string>

namespace hpdr::io {

struct FsModel {
  std::string name = "fs";
  double peak_gbps = 100.0;        ///< filesystem aggregate ceiling
  double per_writer_gbps = 5.0;    ///< one writer's achievable stream
  double read_scale = 0.9;         ///< read bandwidth relative to write
  double open_latency_s = 0.02;    ///< per-operation fixed cost
  double metadata_per_writer_s = 2e-5;  ///< index/metadata handling

  /// Effective aggregate write bandwidth for `writers` concurrent writers.
  double write_gbps(int writers) const;
  double read_gbps(int writers) const;

  /// End-to-end time to write/read `bytes` with `writers` writers.
  double write_seconds(std::size_t bytes, int writers) const;
  double read_seconds(std::size_t bytes, int writers) const;
};

/// Summit's GPFS (Alpine): 2.5 TB/s peak (§VI-B).
FsModel gpfs_summit();

/// Frontier's Lustre (Orion): 9.4 TB/s peak (§VI-B).
FsModel lustre_frontier();

}  // namespace hpdr::io

#endif  // HPDR_IO_FS_MODEL_HPP
