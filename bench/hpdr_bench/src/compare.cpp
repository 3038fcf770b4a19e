// `hpdr_bench compare A.json... -- B.json...`: side A is the baseline
// (parent commit), side B the change. For every (workload, end-to-end
// metric) it prints each side's median and quartiles, the relative delta,
// the fraction of pairs (A_i, B_i) that B wins, and a verdict against the
// metric's bound from BENCHMARK.json:
//
//   improved    B wins ≥ 9/10 of the pairs and the medians differ by more
//               than A's own quartile spread;
//   regressed   B's median is worse than A's by more than the bound;
//   unresolved  a side's quartile spread exceeds the bound, unless every B
//               run reads better than every A run;
//   within      otherwise.
//
// Exit code 1 when any metric regressed.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "bench.hpp"

namespace hpdr_bench {

namespace telemetry = hpdr::telemetry;

telemetry::Value read_json(const std::string& path) {
  std::ifstream f(path);
  HPDR_REQUIRE(f.good(), "cannot read '" << path << "'");
  std::stringstream ss;
  ss << f.rdbuf();
  return telemetry::parse(ss.str());
}

namespace {

struct Bound {
  std::string name;
  bool higher_better = true;
  double bound = 0;
};

/// workload → metric → values, in file order.
using Side = std::map<std::string, std::map<std::string, std::vector<double>>>;

const telemetry::Value& field(const telemetry::Value& obj, const char* key,
                              const std::string& path) {
  const telemetry::Value* v = obj.is_object() ? obj.get(key) : nullptr;
  HPDR_REQUIRE(v != nullptr, "'" << path << "' has no '" << key << "'");
  return *v;
}

Side load(const std::vector<std::string>& files) {
  Side side;
  for (const auto& path : files) {
    const telemetry::Value doc = read_json(path);
    const std::string& workload = field(doc, "workload", path).as_string();
    for (const auto& [name, m] : field(doc, "end_to_end", path).as_object())
      side[workload][name].push_back(field(m, "value", path).as_double());
  }
  return side;
}

std::vector<Bound> load_bounds(const std::string& path) {
  const telemetry::Value doc = read_json(path);
  std::vector<Bound> out;
  for (const auto& m : field(doc, "end_to_end", path).as_array()) {
    Bound b;
    b.name = field(m, "name", path).as_string();
    b.higher_better = field(m, "better", path).as_string() == "higher";
    b.bound = field(m, "bound", path).as_double();
    out.push_back(b);
  }
  return out;
}

}  // namespace

int compare_main(int argc, char** argv) {
  std::string bench_path = "BENCHMARK.json";
  std::vector<std::string> files[2];
  int side = 0;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--bench" && i + 1 < argc)
      bench_path = argv[++i];
    else if (arg == "--")
      side = 1;
    else
      files[side].push_back(arg);
  }
  if (files[0].empty() || files[1].empty()) {
    std::fprintf(stderr,
                 "usage: hpdr_bench compare [--bench BENCHMARK.json] "
                 "A.json... -- B.json...\n");
    return 2;
  }
  const std::vector<Bound> bounds = load_bounds(bench_path);
  const Side a = load(files[0]);
  const Side b = load(files[1]);

  std::printf("%-15s %-16s %-34s %-34s %8s %6s  %s\n", "workload", "metric",
              "A median [q1, q3]", "B median [q1, q3]", "delta", "B wins",
              "verdict");
  bool regressed = false;
  for (const auto& [workload, a_metrics] : a) {
    const auto b_it = b.find(workload);
    if (b_it == b.end()) continue;
    for (const Bound& m : bounds) {
      const auto av = a_metrics.find(m.name);
      const auto bv = b_it->second.find(m.name);
      if (av == a_metrics.end() || bv == b_it->second.end()) continue;
      const std::vector<double>& va = av->second;
      const std::vector<double>& vb = bv->second;
      const Quartiles qa = quartiles(va), qb = quartiles(vb);
      const double sign = m.higher_better ? 1.0 : -1.0;
      // Positive = B better, as a share of A's median.
      const double gain = qa.q2 != 0 ? sign * (qb.q2 - qa.q2) / qa.q2 : 0.0;
      const double spread_a = qa.q2 != 0 ? (qa.q3 - qa.q1) / qa.q2 : 0.0;
      const double spread_b = qb.q2 != 0 ? (qb.q3 - qb.q1) / qb.q2 : 0.0;
      const std::size_t pairs = std::min(va.size(), vb.size());
      std::size_t wins = 0;
      for (std::size_t i = 0; i < pairs; ++i)
        if (sign * (vb[i] - va[i]) > 0) ++wins;
      const double win_frac =
          pairs > 0 ? static_cast<double>(wins) / static_cast<double>(pairs)
                    : 0.0;
      const double worst_b = m.higher_better
                                 ? *std::min_element(vb.begin(), vb.end())
                                 : *std::max_element(vb.begin(), vb.end());
      const double best_a = m.higher_better
                                ? *std::max_element(va.begin(), va.end())
                                : *std::min_element(va.begin(), va.end());
      const bool all_better = sign * (worst_b - best_a) > 0;
      const char* verdict = "within";
      if (win_frac >= 0.9 && gain > spread_a) {
        verdict = "improved";
      } else if (std::max(spread_a, spread_b) > m.bound && !all_better) {
        verdict = "unresolved";
      } else if (-gain > m.bound) {
        verdict = "regressed";
        regressed = true;
      }
      char col_a[64], col_b[64];
      std::snprintf(col_a, sizeof(col_a), "%.6g [%.6g, %.6g]", qa.q2, qa.q1,
                    qa.q3);
      std::snprintf(col_b, sizeof(col_b), "%.6g [%.6g, %.6g]", qb.q2, qb.q1,
                    qb.q3);
      std::printf("%-15s %-16s %-34s %-34s %+7.2f%% %6.2f  %s (bound %.0f%%)\n",
                  workload.c_str(), m.name.c_str(), col_a, col_b,
                  sign * gain * 100.0, win_frac, verdict, m.bound * 100.0);
    }
  }
  return regressed ? 1 : 0;
}

}  // namespace hpdr_bench
