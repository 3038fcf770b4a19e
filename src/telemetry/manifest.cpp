#include "telemetry/manifest.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <map>

#include "core/error.hpp"
#include "core/isa.hpp"
#include "fault/fault.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/span.hpp"

// GCC 12 reports spurious -Wmaybe-uninitialized on copies of
// std::variant-backed Value trees (GCC bug 105562); the copies below are of
// fully-constructed members.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace hpdr::telemetry {

namespace {

constexpr int kManifestVersion = 1;

double get_num(const Value& obj, const char* key) {
  const Value* v = obj.get(key);
  HPDR_REQUIRE(v && v->is_number(), "manifest: missing number '" << key
                                                                 << "'");
  return v->as_double();
}

/// `v` (the field `key`) as a count of type T: a whole number in
/// [0, T's max], whether the JSON spelled it as an integer or as a double.
/// A string, fraction, NaN, negative or out-of-range value throws
/// hpdr::Error and never reaches a cast.
template <class T>
T get_count(const Value* v, const char* key) {
  HPDR_REQUIRE(v && v->is_number(), "manifest: missing number '" << key
                                                                 << "'");
  const double d = v->as_double();
  // NaN fails every comparison; 0x1p64 bounds the u64 conversion.
  HPDR_REQUIRE(v->is_int() || (d >= 0 && d < 0x1p64 && d == std::trunc(d)),
               "manifest: '" << key << "' is not a whole number: " << d);
  HPDR_REQUIRE(d >= 0, "manifest: '" << key << "' out of range: " << d);
  const std::uint64_t u =
      v->is_int() ? v->as_uint() : static_cast<std::uint64_t>(d);
  HPDR_REQUIRE(u <= std::numeric_limits<T>::max(),
               "manifest: '" << key << "' out of range: " << u);
  return static_cast<T>(u);
}

}  // namespace

Value ChunkDecision::to_json() const {
  Value v = Value::object();
  v.set("index", Value(index));
  v.set("bytes", Value(bytes));
  v.set("rows", Value(rows));
  v.set("stored_bytes", Value(stored_bytes));
  v.set("predicted_compute_s", Value(predicted_compute_s));
  v.set("predicted_h2d_s", Value(predicted_h2d_s));
  v.set("realized_compute_s", Value(realized_compute_s));
  v.set("realized_h2d_s", Value(realized_h2d_s));
  v.set("fallback", Value(fallback));
  v.set("retries", Value(retries));
  v.set("worker", Value(static_cast<std::int64_t>(worker)));
  return v;
}

ChunkDecision ChunkDecision::from_json(const Value& v) {
  HPDR_REQUIRE(v.is_object(), "manifest: chunk entry is not an object");
  ChunkDecision d;
  d.index = get_count<std::size_t>(v.get("index"), "index");
  d.bytes = get_count<std::size_t>(v.get("bytes"), "bytes");
  d.rows = get_count<std::size_t>(v.get("rows"), "rows");
  d.stored_bytes = get_count<std::size_t>(v.get("stored_bytes"),
                                          "stored_bytes");
  d.predicted_compute_s = get_num(v, "predicted_compute_s");
  d.predicted_h2d_s = get_num(v, "predicted_h2d_s");
  d.realized_compute_s = get_num(v, "realized_compute_s");
  d.realized_h2d_s = get_num(v, "realized_h2d_s");
  // Resilience fields arrived with manifest chunks written after stream v2;
  // older manifests simply omit them.
  if (const Value* f = v.get("fallback"))
    d.fallback = f->is_bool() && f->as_bool();
  if (const Value* r = v.get("retries"))
    d.retries = get_count<std::size_t>(r, "retries");
  // Worker assignment arrived with the parallel chunk execution engine.
  if (const Value* w = v.get("worker")) d.worker = get_count<int>(w, "worker");
  return d;
}

Value RunManifest::to_json() const {
  Value v = Value::object();
  v.set("hpdr_manifest_version", Value(kManifestVersion));
  v.set("tool", Value(tool));
  v.set("command", Value(command));
  v.set("config", config);
  v.set("dataset", dataset);
  Value cs = Value::array();
  for (const auto& c : chunks) cs.push_back(c.to_json());
  v.set("chunks", std::move(cs));
  v.set("results", results);
  {
    // A manifest written while the injector is armed records the plan even
    // if the embedder never set the fields explicitly.
    Value f = Value::object();
    const auto& inj = fault::Injector::instance();
    const std::string plan =
        !fault_plan.empty() ? fault_plan
                            : (inj.armed() ? inj.plan_string() : "");
    const std::uint64_t seed =
        !fault_plan.empty() ? fault_seed : (inj.armed() ? inj.seed() : 0);
    f.set("plan", Value(plan));
    f.set("seed", Value(seed));
    v.set("faults", std::move(f));
  }
  {
    // Which SIMD dispatch level the kernels ran at.
    Value i = Value::object();
    i.set("level", Value(isa::to_string(isa::level())));
    v.set("isa", std::move(i));
  }
  if (include_metrics)
    v.set("metrics", MetricsRegistry::instance().snapshot());
  if (include_flight_recorder && FlightRecorder::instance().should_drain())
    v.set("flight_recorder", FlightRecorder::instance().snapshot_json());
  if (include_spans) {
    // Per-phase summary: {name: {count, total_us}}, ordered by name.
    std::map<std::string, std::pair<std::uint64_t, double>> agg;
    for (const auto& s : SpanLog::instance().snapshot()) {
      auto& [count, total] = agg[s.name];
      ++count;
      total += s.duration_us();
    }
    Value spans = Value::object();
    for (const auto& [name, ct] : agg) {
      Value e = Value::object();
      e.set("count", Value(ct.first));
      e.set("total_us", Value(ct.second));
      spans.set(name, std::move(e));
    }
    v.set("spans", std::move(spans));
  }
  return v;
}

RunManifest RunManifest::from_json(const Value& v) {
  HPDR_REQUIRE(v.is_object(), "manifest: root is not an object");
  HPDR_REQUIRE(get_count<int>(v.get("hpdr_manifest_version"),
                              "hpdr_manifest_version") == kManifestVersion,
               "manifest: unsupported version");
  RunManifest m;
  const Value* tool = v.get("tool");
  const Value* command = v.get("command");
  HPDR_REQUIRE(tool && tool->is_string() && command && command->is_string(),
               "manifest: missing tool/command");
  m.tool = tool->as_string();
  m.command = command->as_string();
  if (const Value* c = v.get("config")) m.config = *c;
  if (const Value* d = v.get("dataset")) m.dataset = *d;
  if (const Value* r = v.get("results")) m.results = *r;
  if (const Value* cs = v.get("chunks")) {
    HPDR_REQUIRE(cs->is_array(), "manifest: chunks is not an array");
    for (const auto& c : cs->as_array())
      m.chunks.push_back(ChunkDecision::from_json(c));
  }
  if (const Value* f = v.get("faults")) {
    HPDR_REQUIRE(f->is_object(), "manifest: faults is not an object");
    if (const Value* p = f->get("plan"))
      m.fault_plan = p->is_string() ? p->as_string() : "";
    if (const Value* s = f->get("seed"))
      m.fault_seed = get_count<std::uint64_t>(s, "faults.seed");
  }
  m.include_metrics = v.get("metrics") != nullptr;
  m.include_spans = v.get("spans") != nullptr;
  m.include_flight_recorder = v.get("flight_recorder") != nullptr;
  return m;
}

Value dataset_json(const Shape& shape, const char* dtype_name,
                   std::size_t raw_bytes) {
  Value v = Value::object();
  Value dims = Value::array();
  for (std::size_t d = 0; d < shape.rank(); ++d) dims.push_back(Value(shape[d]));
  v.set("shape", std::move(dims));
  v.set("dtype", Value(dtype_name));
  v.set("raw_bytes", Value(raw_bytes));
  return v;
}

void write_manifest(const RunManifest& m, const std::string& path) {
  std::ofstream f(path, std::ios::trunc);
  HPDR_REQUIRE(f.good(), "cannot open '" << path << "' for writing");
  f << dump(m.to_json(), /*indent=*/2) << "\n";
  HPDR_REQUIRE(f.good(), "writing manifest to '" << path << "' failed");
}

}  // namespace hpdr::telemetry
