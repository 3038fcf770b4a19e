#ifndef HPDR_MACHINE_CONTEXT_MEMORY_HPP
#define HPDR_MACHINE_CONTEXT_MEMORY_HPP

/// \file context_memory.hpp
/// Context Memory Model (CMM), paper §III-B. Data-reduction pipelines build
/// a *context* — device buffers, hierarchies, codebooks — whose allocation
/// cost can dominate a memory-bound reduction and, on dense multi-GPU nodes,
/// serializes on the shared runtime and destroys scalability. CMM caches
/// contexts in a hash map keyed by the data characteristics of the reduction
/// call so all allocations persist across repeated invocations. The
/// multi-GPU simulator (sim/multigpu.*) bills the pipelines that do not
/// cache contexts by Compressor::allocs_per_call() — the mechanism behind
/// Fig. 16 (96 % vs 46–74 % scalability).

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <typeindex>
#include <unordered_map>

#include "core/error.hpp"
#include "core/shape.hpp"

namespace hpdr {

/// Key identifying a reduction context: same algorithm + shape + dtype +
/// error bound + device ⇒ identical allocation layout, so the context is
/// reusable (the paper: "reduction processes that share similar data
/// characteristics").
struct ContextKey {
  std::string algorithm;  ///< e.g. "mgard-x"
  std::uint64_t shape_hash = 0;
  int dtype = 0;          ///< DType enum value
  double param = 0.0;     ///< error bound / rate
  std::string device;     ///< device name

  bool operator==(const ContextKey& o) const {
    return algorithm == o.algorithm && shape_hash == o.shape_hash &&
           dtype == o.dtype && param == o.param && device == o.device;
  }
};

struct ContextKeyHash {
  std::size_t operator()(const ContextKey& k) const {
    std::size_t h = std::hash<std::string>{}(k.algorithm);
    auto mix = [&h](std::size_t v) {
      h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    };
    mix(static_cast<std::size_t>(k.shape_hash));
    mix(static_cast<std::size_t>(k.dtype));
    mix(std::hash<double>{}(k.param));
    mix(std::hash<std::string>{}(k.device));
    return h;
  }
};

/// Hash-map cache of type-erased reduction contexts (§III-B). Thread safe;
/// one instance is typically shared by all devices of a node, mirroring the
/// shared runtime the paper describes.
class ContextCache {
 public:
  /// Look up the context for `key`; on miss invoke `make` and cache the
  /// result. The stored pointer is type-checked on every hit.
  template <class Ctx>
  std::shared_ptr<Ctx> get_or_create(
      const ContextKey& key, const std::function<std::shared_ptr<Ctx>()>& make) {
    {
      std::lock_guard<std::mutex> g(mu_);
      auto it = map_.find(key);
      if (it != map_.end()) {
        HPDR_REQUIRE(it->second.type == std::type_index(typeid(Ctx)),
                     "context type mismatch for algorithm " << key.algorithm);
        it->second.last_use = ++tick_;
        note_hit();
        return std::static_pointer_cast<Ctx>(it->second.ptr);
      }
    }
    // Simulated device allocation for the new context. A cmm.alloc fault
    // here models OOM: evict the LRU context, retry once, then Error
    // (DESIGN.md §8).
    preflight_alloc(key.algorithm);
    // Build outside the lock: context construction allocates and may be slow.
    std::shared_ptr<Ctx> ctx = make();
    std::lock_guard<std::mutex> g(mu_);
    auto [it, inserted] = map_.try_emplace(
        key, Entry{ctx, std::type_index(typeid(Ctx)), ++tick_});
    if (!inserted) {
      // Another thread won the race; use theirs to keep allocations minimal.
      note_hit();
      return std::static_pointer_cast<Ctx>(it->second.ptr);
    }
    note_miss(map_.size());
    return ctx;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> g(mu_);
    return map_.size();
  }
  std::uint64_t hits() const { return hits_.load(); }
  std::uint64_t misses() const { return misses_.load(); }
  std::uint64_t evictions() const { return evictions_.load(); }

  /// Drop the least-recently-used context (device-OOM pressure valve).
  /// Returns false when the cache is empty.
  bool evict_lru();

  void clear() {
    std::lock_guard<std::mutex> g(mu_);
    map_.clear();
  }

  /// Process-wide cache shared by all pipelines (mirrors one runtime/node).
  static ContextCache& instance();

 private:
  // Non-template so the telemetry mirroring (cmm.context.*) and the fault
  // check stay in the .cpp; note_miss also publishes the new entry count as
  // a gauge.
  void note_hit();
  void note_miss(std::size_t entries_now);
  void preflight_alloc(const std::string& algorithm);

  struct Entry {
    std::shared_ptr<void> ptr;
    std::type_index type;
    std::uint64_t last_use = 0;  ///< LRU stamp; bumped on every hit
  };
  mutable std::mutex mu_;
  std::unordered_map<ContextKey, Entry, ContextKeyHash> map_;
  std::uint64_t tick_ = 0;  ///< LRU clock, guarded by mu_
  std::atomic<std::uint64_t> hits_{0}, misses_{0}, evictions_{0};
};

}  // namespace hpdr

#endif  // HPDR_MACHINE_CONTEXT_MEMORY_HPP
