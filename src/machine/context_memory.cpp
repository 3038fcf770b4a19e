#include "machine/context_memory.hpp"

#include "fault/fault.hpp"
#include "telemetry/metrics.hpp"

namespace hpdr {

namespace {

// Cached references: the registry lookup (map + mutex) happens once; the
// hot path is a single relaxed atomic add.
struct CmmInstruments {
  telemetry::Counter& hits = telemetry::counter("cmm.context.hits");
  telemetry::Counter& misses = telemetry::counter("cmm.context.misses");
  telemetry::Gauge& entries = telemetry::gauge("cmm.context.entries");
  telemetry::Counter& alloc_failures =
      telemetry::counter("fault.cmm.alloc_failures");
  telemetry::Counter& evictions = telemetry::counter("fault.cmm.evictions");

  static CmmInstruments& get() {
    static CmmInstruments ins;
    return ins;
  }
};

}  // namespace

ContextCache& ContextCache::instance() {
  static ContextCache c;
  return c;
}

void ContextCache::note_hit() {
  hits_.fetch_add(1, std::memory_order_relaxed);
  if (telemetry::enabled()) CmmInstruments::get().hits.add();
}

bool ContextCache::evict_lru() {
  std::lock_guard<std::mutex> g(mu_);
  if (map_.empty()) return false;
  auto victim = map_.begin();
  for (auto it = map_.begin(); it != map_.end(); ++it)
    if (it->second.last_use < victim->second.last_use) victim = it;
  map_.erase(victim);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  if (telemetry::enabled()) {
    auto& ins = CmmInstruments::get();
    ins.evictions.add();
    ins.entries.set(static_cast<double>(map_.size()));
  }
  return true;
}

void ContextCache::preflight_alloc(const std::string& algorithm) {
  if (!fault::should_fire("cmm.alloc")) return;
  // Simulated device OOM while allocating the new context: free memory by
  // evicting the LRU context, then retry the allocation exactly once.
  if (telemetry::enabled()) CmmInstruments::get().alloc_failures.add();
  HPDR_REQUIRE(evict_lru(), "context allocation for '"
                                << algorithm
                                << "' failed and the cache is empty — "
                                   "nothing to evict");
  if (fault::should_fire("cmm.alloc")) {
    if (telemetry::enabled()) CmmInstruments::get().alloc_failures.add();
    throw Error("context allocation for '" + algorithm +
                "' failed again after LRU eviction");
  }
}

void ContextCache::note_miss(std::size_t entries_now) {
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (telemetry::enabled()) {
    auto& ins = CmmInstruments::get();
    ins.misses.add();
    ins.entries.set(static_cast<double>(entries_now));
  }
}

}  // namespace hpdr
