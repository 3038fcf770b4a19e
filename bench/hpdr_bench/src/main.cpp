// hpdr_bench — end-to-end wall-clock benchmark of HPDR with a per-layer
// trace. See ../README.md for the workloads and the metric glossary.
//
//   hpdr_bench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//              [--out-dir DIR]
//   hpdr_bench compare [--bench BENCHMARK.json] A.json... -- B.json...
//
// A run writes DIR/result-<workload>-<seed>.json (every metric it
// measured) and, when traced, DIR/trace-<workload>-<seed>.json (Chrome
// trace). Its last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}, where metrics are the
// end-to-end ones with --trace 0 and the per-layer ones with --trace 1.
// `--workload all` runs every workload in its own child process.
#include <spawn.h>
#include <sys/wait.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "core/isa.hpp"

extern char** environ;

namespace {

using namespace hpdr_bench;
namespace telemetry = hpdr::telemetry;

int usage() {
  std::fprintf(stderr,
               "usage: hpdr_bench --workload <name|all> [--seed N] "
               "[--seconds S] [--trace 0|1] [--out-dir DIR]\n"
               "       hpdr_bench compare [--bench BENCHMARK.json] "
               "A.json... -- B.json...\n"
               "workloads:");
  for (const auto& w : workload_names()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_number(const std::string& text, double lo, double hi,
                  double& out) {
  std::istringstream is(text);
  double v = 0;
  if (!(is >> v) || !is.eof() || v < lo || v > hi) return false;
  out = v;
  return true;
}

std::string result_path(const RunConfig& cfg, const std::string& workload) {
  return cfg.out_dir + "/result-" + workload + "-" +
         std::to_string(cfg.seed) + ".json";
}

telemetry::Value metrics_json(const std::vector<Metric>& metrics) {
  telemetry::Value v = telemetry::Value::object();
  for (const Metric& m : metrics) {
    telemetry::Value e = telemetry::Value::object();
    e.set("value", telemetry::Value(m.value));
    e.set("unit", telemetry::Value(m.unit));
    v.set(m.name, std::move(e));
  }
  return v;
}

int run_one(const RunConfig& cfg) {
  const RunResult r = run_workload(cfg);
  const bool correct = r.failed == 0;
  for (const auto& e : r.errors)
    std::fprintf(stderr, "[hpdr_bench] %s: CHECK FAILED: %s\n",
                 r.workload.c_str(), e.c_str());

  telemetry::Value doc = telemetry::Value::object();
  doc.set("workload", telemetry::Value(r.workload));
  doc.set("seed", telemetry::Value(cfg.seed));
  doc.set("seconds", telemetry::Value(cfg.seconds));
  doc.set("trace", telemetry::Value(cfg.trace));
  doc.set("nproc", telemetry::Value(std::thread::hardware_concurrency()));
  doc.set("isa", telemetry::Value(hpdr::isa::to_string(hpdr::isa::level())));
  doc.set("correct", telemetry::Value(correct));
  doc.set("attempted", telemetry::Value(r.attempted));
  doc.set("failed", telemetry::Value(r.failed));
  telemetry::Value errors = telemetry::Value::array();
  for (const auto& e : r.errors) errors.push_back(telemetry::Value(e));
  doc.set("errors", std::move(errors));
  telemetry::Value hashes = telemetry::Value::object();
  for (const auto& [codec, h] : r.stream_hashes)
    hashes.set(codec, telemetry::Value(h));
  doc.set("stream_fnv1a", std::move(hashes));
  doc.set("end_to_end", metrics_json(r.end_to_end));
  doc.set("per_layer", metrics_json(r.per_layer));
  const std::string path = result_path(cfg, r.workload);
  std::ofstream f(path, std::ios::trunc);
  HPDR_REQUIRE(f.good(), "cannot open '" << path << "' for writing");
  f << telemetry::dump(doc, 2) << "\n";
  HPDR_REQUIRE(f.good(), "writing '" << path << "' failed");

  telemetry::Value line = telemetry::Value::object();
  line.set("correct", telemetry::Value(correct));
  line.set("attempted", telemetry::Value(r.attempted));
  line.set("failed", telemetry::Value(r.failed));
  line.set("metrics", metrics_json(cfg.trace ? r.per_layer : r.end_to_end));
  std::printf("%s\n", telemetry::dump(line).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

/// One child process per workload, then the cross-width stream check.
int run_all(const RunConfig& cfg) {
  int failures = 0;
  for (const auto& w : workload_names()) {
    const std::string seed = std::to_string(cfg.seed);
    const std::string seconds = std::to_string(cfg.seconds);
    const char* args[] = {"hpdr_bench",     "--workload", w.c_str(),
                          "--seed",         seed.c_str(), "--seconds",
                          seconds.c_str(),  "--trace",    cfg.trace ? "1" : "0",
                          "--out-dir",      cfg.out_dir.c_str(), nullptr};
    pid_t pid = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr,
                    const_cast<char* const*>(args), environ) != 0) {
      std::fprintf(stderr, "hpdr_bench: cannot start the %s run\n", w.c_str());
      ++failures;
      continue;
    }
    int status = 0;
    pid_t waited = 0;
    do {
      waited = waitpid(pid, &status, 0);
    } while (waited < 0 && errno == EINTR);
    if (waited < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
      ++failures;
  }
  // Pool width must not change the stream bytes.
  try {
    const auto a = read_json(result_path(cfg, "nyx-lossy"));
    const auto b = read_json(result_path(cfg, "nyx-lossy-1t"));
    const telemetry::Value* ha = a.is_object() ? a.get("stream_fnv1a") : nullptr;
    const telemetry::Value* hb = b.is_object() ? b.get("stream_fnv1a") : nullptr;
    if (ha == nullptr || hb == nullptr ||
        telemetry::dump(*ha) != telemetry::dump(*hb)) {
      std::fprintf(stderr,
                   "hpdr_bench: nyx-lossy and nyx-lossy-1t streams differ\n");
      ++failures;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hpdr_bench: stream comparison: %s\n", e.what());
    ++failures;
  }
  std::fprintf(stderr, "hpdr_bench: %d failure(s) across %zu workloads\n",
               failures, workload_names().size());
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::string(argv[1]) == "compare")
      return compare_main(argc - 2, argv + 2);
    RunConfig cfg;
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      double n = 0;
      if (flag == "--workload") {
        cfg.workload = value;
      } else if (flag == "--seed" && parse_number(value, 0, 1e15, n)) {
        cfg.seed = static_cast<std::uint64_t>(n);
      } else if (flag == "--seconds" && parse_number(value, 0.01, 600, n)) {
        cfg.seconds = n;
      } else if (flag == "--trace" && (value == "0" || value == "1")) {
        cfg.trace = value == "1";
      } else if (flag == "--out-dir" && !value.empty()) {
        cfg.out_dir = value;
      } else {
        return usage();
      }
    }
    if (cfg.workload.empty()) return usage();
    std::filesystem::create_directories(cfg.out_dir);
    if (cfg.workload == "all") return run_all(cfg);
    for (const auto& w : workload_names())
      if (w == cfg.workload) return run_one(cfg);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hpdr_bench: %s\n", e.what());
    return 1;
  }
}
