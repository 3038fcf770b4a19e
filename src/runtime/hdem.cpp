#include "runtime/hdem.hpp"

#include <algorithm>

namespace hpdr {

const char* to_string(EngineId e) {
  switch (e) {
    case EngineId::H2D:
      return "H2D";
    case EngineId::D2H:
      return "D2H";
    case EngineId::Compute:
      return "Compute";
  }
  return "?";
}

double Timeline::makespan() const {
  double m = 0;
  for (const auto& t : tasks) m = std::max(m, t.end);
  return m;
}

double Timeline::engine_busy(EngineId e) const {
  double b = 0;
  for (const auto& t : tasks)
    if (t.engine == e) b += t.duration();
  return b;
}

double Timeline::overlap_ratio() const {
  // For each copy task, measure the portion of its span during which any
  // other engine is busy. Tasks on one engine never overlap each other, so
  // summing per-task overlapped time is exact.
  double copy_total = 0;
  double copy_overlapped = 0;
  for (const auto& c : tasks) {
    if (c.engine == EngineId::Compute) continue;
    copy_total += c.duration();
    // Collect busy intervals of the other engines clipped to [c.start,c.end].
    std::vector<std::pair<double, double>> spans;
    for (const auto& o : tasks) {
      if (o.engine == c.engine) continue;
      const double s = std::max(c.start, o.start);
      const double e = std::min(c.end, o.end);
      if (e > s) spans.emplace_back(s, e);
    }
    std::sort(spans.begin(), spans.end());
    double covered = 0, cur_s = 0, cur_e = -1;
    for (auto [s, e] : spans) {
      if (e <= cur_e) continue;
      if (s > cur_e) {
        if (cur_e > cur_s) covered += cur_e - cur_s;
        cur_s = s;
      }
      cur_e = e;
    }
    if (cur_e > cur_s) covered += cur_e - cur_s;
    copy_overlapped += covered;
  }
  return copy_total > 0 ? copy_overlapped / copy_total : 0.0;
}

HdemSimulator::HdemSimulator(int num_queues) : num_queues_(num_queues) {
  HPDR_REQUIRE(num_queues >= 1, "need at least one queue");
  queue_tail_.assign(static_cast<std::size_t>(num_queues), -1);
}

std::uint32_t HdemSimulator::submit(std::uint32_t queue, EngineId engine,
                                    std::string label, double seconds,
                                    std::vector<std::uint32_t> extra_deps) {
  HPDR_REQUIRE(queue < static_cast<std::uint32_t>(num_queues_),
               "queue " << queue << " out of range");
  HPDR_REQUIRE(seconds >= 0, "negative task duration");
  const auto id = static_cast<std::uint32_t>(tasks_.size());
  for (std::uint32_t d : extra_deps)
    HPDR_REQUIRE(d < id, "dependency on not-yet-submitted task");
  Pending p{std::move(label), engine, queue, seconds, std::move(extra_deps)};
  if (queue_tail_[queue] >= 0)
    p.deps.push_back(static_cast<std::uint32_t>(queue_tail_[queue]));
  queue_tail_[queue] = id;
  tasks_.push_back(std::move(p));
  return id;
}

Timeline HdemSimulator::run() {
  // Engines service tasks in submission order (CUDA-like issue order), so a
  // single pass in submission order yields the exact schedule: a task starts
  // at max(its dependencies' ends, its engine's free time).
  Timeline tl;
  tl.tasks.resize(tasks_.size());
  double engine_free[kNumEngines] = {0, 0, 0};
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    const Pending& p = tasks_[i];
    double start = engine_free[static_cast<int>(p.engine)];
    for (std::uint32_t d : p.deps) start = std::max(start, tl.tasks[d].end);
    TaskRecord& r = tl.tasks[i];
    r.id = static_cast<std::uint32_t>(i);
    r.label = p.label;
    r.engine = p.engine;
    r.queue = p.queue;
    r.start = start;
    r.end = start + p.seconds;
    engine_free[static_cast<int>(p.engine)] = r.end;
  }
  // Reset for reuse.
  tasks_.clear();
  queue_tail_.assign(static_cast<std::size_t>(num_queues_), -1);
  return tl;
}

}  // namespace hpdr
