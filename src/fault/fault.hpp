#ifndef HPDR_FAULT_FAULT_HPP
#define HPDR_FAULT_FAULT_HPP

/// \file fault.hpp
/// Deterministic, seeded fault injection (DESIGN.md §8). Subsystems declare
/// named *sites* — points where a facility-scale run can fail — and consult
/// the process-wide Injector at each one. A FaultPlan arms a subset of the
/// sites with a trigger (nth call, every-nth call, or per-call probability)
/// plus site-specific parameters (bytes to flip for corruption sites, the
/// timing stretch for stragglers). With no plan armed, every query is a
/// single relaxed atomic load, so instrumented hot paths cost nothing.
///
/// Standard sites (the recovery machinery behind each one):
///   cmm.alloc      context-cache allocation fails → LRU evict + one retry
///   hdem.task      a pipeline chunk's codec task fails → retry → fallback
///   fs.write       transient CLI file write fault → RetryPolicy
///   fs.read        transient CLI file read fault → RetryPolicy
///   gpu.fail       a simulated GPU dies mid-run → timesteps redistribute
///   gpu.straggle   a simulated GPU runs slow → contention model stretches
///   chunk.corrupt  stored chunk bytes flip → checksum detects, decode skips
///   svc.job        a service job poisoned at admission → fails alone, the
///                  other jobs and the service itself proceed (indexed by
///                  job id, so concurrent runners draw deterministically)
///
/// Determinism: each site owns a counter and an RNG seeded from
/// (global seed, site name), so the same plan + seed produce the same fire
/// pattern per site regardless of how calls interleave across sites or
/// threads. Every fire lands in the telemetry registry (`fault.fires`,
/// `fault.<site>.fires`), so run manifests record exactly which faults a
/// run absorbed.
///
/// Indexed draws (`should_fire_at` / `corrupt_at`): call sites that execute
/// *concurrently* — the pipeline's chunk workers — key each decision by a
/// caller-supplied index (the chunk number) plus an attempt ordinal instead
/// of the site's dynamic call counter, so a plan + seed reproduce exactly
/// under any thread schedule. Trigger semantics for indexed sites:
///   nth=N    transient — fires on attempt 0 of index N−1 only (a retry of
///            that index succeeds);
///   every=N  persistent — fires on every attempt of indices N−1, 2N−1, …
///            (count= caps how many indices fire);
///   p=F      independent deterministic draw per (index, attempt); count=
///            is ignored (enforcing it would reintroduce order dependence).

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace hpdr::fault {

/// One armed site of a FaultPlan.
struct SiteSpec {
  enum class Trigger { Nth, Every, Prob };

  std::string site;
  Trigger trigger = Trigger::Nth;
  std::uint64_t n = 1;       ///< nth=/every= call index (1-based)
  double p = 0.0;            ///< p= per-call fire probability
  std::uint64_t count = 0;   ///< max fires; 0 → nth fires once, rest unlimited
  std::uint64_t flip = 1;    ///< corruption sites: bytes to flip per fire
  double factor = 1.5;       ///< straggle sites: timing stretch when fired

  /// Effective fire budget (resolves the count=0 default).
  std::uint64_t max_fires() const;
  std::string to_string() const;
};

/// A parseable set of armed sites. Grammar (whitespace-free):
///
///   plan   := clause (';' clause)*
///   clause := site ':' spec (',' spec)*
///   spec   := 'nth='N | 'every='N | 'p='F | 'count='K | 'flip='B
///           | 'factor='F
///
/// e.g. "fs.write:nth=1;chunk.corrupt:nth=2,flip=4;gpu.fail:nth=3".
struct FaultPlan {
  std::vector<SiteSpec> sites;

  bool empty() const { return sites.empty(); }
  /// Throws hpdr::Error on malformed input (unknown key, bad number,
  /// duplicate site, missing trigger).
  static FaultPlan parse(const std::string& text);
  /// Normalized round-trippable form (parse(to_string()) == *this).
  std::string to_string() const;
};

/// Process-wide fault registry. Thread safe; disarmed by default.
class Injector {
 public:
  static Injector& instance();

  /// Arm `plan` with `seed`; resets all per-site call/fire state.
  void configure(FaultPlan plan, std::uint64_t seed = 0);
  void configure(const std::string& plan_text, std::uint64_t seed = 0);
  /// Disarm and clear all state (plan, counters, RNGs).
  void disarm();

  bool armed() const { return armed_.load(std::memory_order_relaxed); }
  std::string plan_string() const;
  std::uint64_t seed() const;

  /// Count one call at `site`; true if the armed spec says it fails now.
  bool should_fire(std::string_view site);
  /// Indexed draw (see the header comment for trigger semantics): the
  /// decision is a pure function of (plan, seed, site, index, attempt) —
  /// identical under any thread schedule.
  bool should_fire_at(std::string_view site, std::uint64_t index,
                      std::uint64_t attempt = 0);
  /// Corruption sites: if the site fires for `index`, flip spec.flip bytes
  /// of `bytes` at positions keyed by `index` and return true (indexed,
  /// order-independent; used by concurrent chunk workers).
  bool corrupt_at(std::string_view site, std::uint64_t index,
                  std::span<std::uint8_t> bytes);
  /// Straggle sites: spec.factor if the site fires, 1.0 otherwise.
  double stretch(std::string_view site);

  std::uint64_t fires(std::string_view site) const;
  std::uint64_t total_fires() const;

 private:
  Injector() = default;

  struct SiteState {
    SiteSpec spec;
    std::uint64_t calls = 0;
    std::uint64_t fired = 0;
    std::uint64_t rng = 0;  ///< splitmix64 state, advanced per decision
  };

  bool fire_locked(SiteState& st);
  bool fire_indexed_locked(SiteState& st, std::string_view site,
                           std::uint64_t index, std::uint64_t attempt);

  mutable std::mutex mu_;
  std::atomic<bool> armed_{false};
  std::unordered_map<std::string, SiteState> sites_;
  std::string plan_text_;
  std::uint64_t seed_ = 0;
  std::atomic<std::uint64_t> total_fires_{0};
};

/// Zero-cost-when-disarmed shorthands for instrumented code.
inline bool should_fire(std::string_view site) {
  Injector& in = Injector::instance();
  return in.armed() && in.should_fire(site);
}
inline bool should_fire_at(std::string_view site, std::uint64_t index,
                           std::uint64_t attempt = 0) {
  Injector& in = Injector::instance();
  return in.armed() && in.should_fire_at(site, index, attempt);
}
inline bool corrupt_at(std::string_view site, std::uint64_t index,
                       std::span<std::uint8_t> bytes) {
  Injector& in = Injector::instance();
  return in.armed() && in.corrupt_at(site, index, bytes);
}
inline double stretch(std::string_view site) {
  Injector& in = Injector::instance();
  return in.armed() ? in.stretch(site) : 1.0;
}

/// Deterministic splitmix64 step, shared with the retry jitter.
std::uint64_t splitmix64(std::uint64_t& state);

}  // namespace hpdr::fault

#endif  // HPDR_FAULT_FAULT_HPP
