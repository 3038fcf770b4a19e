#ifndef HPDR_TELEMETRY_MANIFEST_HPP
#define HPDR_TELEMETRY_MANIFEST_HPP

/// \file manifest.hpp
/// Run manifests: one JSON document per run recording what was asked
/// (config), what was processed (dataset), what the adaptive scheduler
/// decided per chunk (model predictions vs. realized simulated durations),
/// what came out (results), and a full metrics-registry snapshot. Written
/// by hpdr_cli (--metrics), the bench harness, and available to any
/// embedder via write_manifest(). Manifests are the regression surface for
/// performance PRs: two manifests diff cleanly because keys are ordered
/// and stable.

#include <cstddef>
#include <string>
#include <vector>

#include "core/shape.hpp"
#include "telemetry/json.hpp"

namespace hpdr::telemetry {

/// One chunk of a pipelined run: the scheduler's decision plus what the
/// Φ/Θ models predicted and what the simulated HDEM timeline realized.
/// Realized durations differing from predictions by more than queueing
/// effects indicate a mis-calibrated model — exactly what Alg. 4 tuning
/// needs to see.
struct ChunkDecision {
  std::size_t index = 0;
  std::size_t bytes = 0;         ///< raw chunk size chosen by the scheduler
  std::size_t rows = 0;          ///< slabs along the slowest dimension
  std::size_t stored_bytes = 0;  ///< compressed output size
  /// Model fields, billed on SimGpu devices only (0 on host devices).
  double predicted_compute_s = 0.0;  ///< Φ-model kernel time
  double predicted_h2d_s = 0.0;      ///< Θ-model transfer time
  double realized_compute_s = 0.0;   ///< simulated kernel duration
  double realized_h2d_s = 0.0;       ///< simulated H2D duration
  bool fallback = false;  ///< stored via the lossless passthrough codec
  std::size_t retries = 0;  ///< codec re-attempts absorbed by this chunk
  /// Pool worker slot that encoded the chunk (0 = calling thread) — the
  /// per-thread chunk-assignment record of the parallel execution engine.
  int worker = 0;

  Value to_json() const;
  static ChunkDecision from_json(const Value& v);
};

/// The document. `config`, `dataset`, and `results` are free-form JSON
/// objects so every tool can record its own knobs without schema churn.
struct RunManifest {
  std::string tool;     ///< e.g. "hpdr_cli", "bench"
  std::string command;  ///< e.g. "compress", "bench_paper"
  Value config = Value::object();
  Value dataset = Value::object();
  Value results = Value::object();
  std::vector<ChunkDecision> chunks;
  /// Active FaultPlan text and seed (empty/0 when the run was fault-free).
  /// Defaults are filled from the live fault::Injector by to_json(), so any
  /// manifest written while faults are armed records exactly which plan the
  /// run absorbed; the fault/retry/fallback counters ride along in the
  /// metrics snapshot (`fault.*`).
  std::string fault_plan;
  std::uint64_t fault_seed = 0;
  bool include_metrics = true;  ///< embed a MetricsRegistry snapshot
  bool include_spans = true;    ///< embed a per-phase host span summary
  /// Drain the flight recorder into a `flight_recorder` section when it
  /// has something post-mortem-worthy (a job failed or a fault-recovery
  /// path fired — FlightRecorder::should_drain()). Clean runs stay clean:
  /// no failure-class events, no section.
  bool include_flight_recorder = true;

  /// Assemble the document (snapshotting metrics/spans when enabled).
  Value to_json() const;

  /// Inverse of to_json for the declared fields (metrics/span sections are
  /// carried as opaque JSON). Throws hpdr::Error on schema mismatch.
  static RunManifest from_json(const Value& v);
};

/// Convenience: describe a tensor for the `dataset` section.
Value dataset_json(const Shape& shape, const char* dtype_name,
                   std::size_t raw_bytes);

/// Pretty-print `m` to `path`; throws hpdr::Error on I/O failure.
void write_manifest(const RunManifest& m, const std::string& path);

}  // namespace hpdr::telemetry

#endif  // HPDR_TELEMETRY_MANIFEST_HPP
