#ifndef HPDR_BENCH_COMMON_HPP
#define HPDR_BENCH_COMMON_HPP

/// Shared helpers for the benchmark binaries. Every binary runs with no
/// arguments at a scaled-down size (CI friendly) and accepts --full to run
/// at the paper's scale where feasible.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "hpdr.hpp"

namespace hpdr::bench {

inline bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return true;
  return false;
}

inline data::Size pick_size(int argc, char** argv,
                            data::Size dflt = data::Size::Small) {
  if (has_flag(argc, argv, "--full")) return data::Size::Full;
  if (has_flag(argc, argv, "--medium")) return data::Size::Medium;
  if (has_flag(argc, argv, "--tiny")) return data::Size::Tiny;
  return dflt;
}

inline std::string flag_value(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  return {};
}

/// Honor `--threads N`: resize the process thread pool (and pin the default
/// for any later pool construction). Returns the effective width.
inline unsigned apply_threads(int argc, char** argv) {
  const std::string v = flag_value(argc, argv, "--threads");
  if (!v.empty()) {
    const long n = std::strtol(v.c_str(), nullptr, 10);
    if (n >= 1) {
      ThreadPool::set_default_threads(static_cast<unsigned>(n));
      ThreadPool::instance().resize(static_cast<unsigned>(n));
    }
  }
  return ThreadPool::instance().concurrency();
}

/// Honor `--metrics <file>`: after a bench has run, write a run manifest
/// capturing its command line, an optional bench-specific results object,
/// and the full telemetry-registry state (counters from every subsystem the
/// bench exercised).
inline void maybe_write_manifest(
    int argc, char** argv, const std::string& bench_name,
    telemetry::Value results = telemetry::Value::object()) {
  const std::string path = flag_value(argc, argv, "--metrics");
  if (path.empty()) return;
  telemetry::RunManifest m;
  m.tool = "bench";
  m.command = bench_name;
  telemetry::Value args = telemetry::Value::array();
  for (int i = 1; i < argc; ++i) args.push_back(telemetry::Value(argv[i]));
  m.config = telemetry::Value::object();
  m.config.set("argv", std::move(args));
  m.results = std::move(results);
  telemetry::write_manifest(m, path);
  std::printf("wrote run manifest %s\n", path.c_str());
}

/// Minimal fixed-width table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void print() const {
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
      width[c] = headers_[c].size();
    for (const auto& r : rows_)
      for (std::size_t c = 0; c < r.size() && c < width.size(); ++c)
        width[c] = std::max(width[c], r[c].size());
    auto line = [&](const std::vector<std::string>& cells) {
      std::printf("  ");
      for (std::size_t c = 0; c < cells.size(); ++c)
        std::printf("%-*s  ", static_cast<int>(width[c]), cells[c].c_str());
      std::printf("\n");
    };
    line(headers_);
    std::string sep;
    for (std::size_t c = 0; c < headers_.size(); ++c)
      sep += std::string(width[c], '-') + "  ";
    std::printf("  %s\n", sep.c_str());
    for (const auto& r : rows_) line(r);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v, int prec = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

inline std::string fmt_bytes(double bytes) {
  const char* unit[] = {"B", "KB", "MB", "GB", "TB"};
  int u = 0;
  while (bytes >= 1024.0 && u < 4) {
    bytes /= 1024.0;
    ++u;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f %s", bytes, unit[u]);
  return buf;
}

inline void header(const std::string& title, const std::string& paper_ref) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("reproduces: %s\n\n", paper_ref.c_str());
}

}  // namespace hpdr::bench

#endif  // HPDR_BENCH_COMMON_HPP
