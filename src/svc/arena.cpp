#include "svc/arena.hpp"

#include <algorithm>
#include <chrono>

#include "core/error.hpp"
#include "fault/cancel.hpp"
#include "fault/fault.hpp"
#include "svc/chunk_cache.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/recorder.hpp"

namespace hpdr::svc {
namespace {

struct ArenaInstruments {
  telemetry::Counter& leases = telemetry::counter("svc.arena.leases");
  telemetry::Counter& hits = telemetry::counter("svc.arena.hits");
  telemetry::Counter& misses = telemetry::counter("svc.arena.misses");
  telemetry::Counter& evictions = telemetry::counter("svc.arena.evictions");
  telemetry::Counter& queue_waits = telemetry::counter("svc.queue_wait.count");
  telemetry::Gauge& queue_wait_s = telemetry::gauge("svc.queue_wait.seconds");
  telemetry::Gauge& committed = telemetry::gauge("svc.arena.committed_bytes");
  telemetry::Gauge& high_water =
      telemetry::gauge("svc.arena.high_water_bytes");
  telemetry::Counter& alloc_failures =
      telemetry::counter("fault.cmm.alloc_failures");
  // Quantile view of how long a job's staging lease took end to end —
  // warm hits land in the nanosecond buckets, backpressure waits in the
  // tail (DESIGN.md §12).
  telemetry::LatencyHistogram& lease_wait =
      telemetry::latency("svc.arena.lease_wait");

  static ArenaInstruments& get() {
    static ArenaInstruments ins;
    return ins;
  }
};

}  // namespace

ArenaBudget::ArenaBudget(std::size_t budget_bytes)
    : budget_(std::max<std::size_t>(budget_bytes, std::size_t{64} << 10)) {}

std::size_t ArenaBudget::committed() const {
  std::lock_guard<std::mutex> g(mu_);
  return committed_;
}

std::size_t ArenaBudget::cache_bytes() const {
  std::lock_guard<std::mutex> g(mu_);
  return cache_bytes_;
}

std::size_t ArenaBudget::high_water() const {
  std::lock_guard<std::mutex> g(mu_);
  return high_water_;
}

std::uint64_t ArenaBudget::evictions() const {
  std::lock_guard<std::mutex> g(mu_);
  return evictions_;
}

std::uint64_t ArenaBudget::queue_waits() const {
  std::lock_guard<std::mutex> g(mu_);
  return queue_waits_;
}

void ArenaBudget::acquire(std::size_t bytes, double timeout_s) {
  HPDR_REQUIRE(bytes <= budget_, "arena lease of "
                                     << bytes << " B exceeds the whole "
                                     << budget_ << " B budget");
  auto& ins = ArenaInstruments::get();
  std::unique_lock<std::mutex> lk(mu_);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  bool waited = false;
  const auto wait_from = std::chrono::steady_clock::now();
  for (;;) {
    if (committed_ + cache_bytes_ + bytes <= budget_) {
      committed_ += bytes;
      high_water_ = std::max(high_water_, committed_ + cache_bytes_);
      ins.committed.set(static_cast<double>(committed_));
      ins.high_water.set(static_cast<double>(high_water_));
      if (waited)
        ins.queue_wait_s.add(std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - wait_from)
                                 .count());
      return;
    }
    // Reclaim parked buffers and cache entries before making anyone wait:
    // every evictable byte — both populations — goes before a session
    // lease blocks (DESIGN.md §14).
    if (evict_lru_locked()) continue;
    if (!waited) {
      waited = true;
      ++queue_waits_;
      ins.queue_waits.add();
      telemetry::flight_event(telemetry::EventKind::BackpressureStall,
                              "arena.budget", bytes);
    }
    // Backpressure: every byte is leased out to running jobs; queue until
    // one returns. Waiting happens in bounded slices so the caller's
    // cancel token (deadline expiry, explicit cancel) is polled even while
    // blocked; the timeout turns a wedged service into a loud Overload
    // error instead of a hang.
    fault::poll_cancel();
    const auto slice = std::chrono::steady_clock::now() +
                       std::chrono::duration<double>(0.05);
    if (cv_.wait_until(lk, std::min(deadline, slice)) ==
            std::cv_status::timeout &&
        std::chrono::steady_clock::now() >= deadline &&
        committed_ + cache_bytes_ + bytes > budget_) {
      std::ostringstream os;
      os << "arena backpressure timeout: " << bytes
         << " B still unavailable after " << timeout_s << " s (committed "
         << committed_ << " of " << budget_ << " B)";
      throw Error(ErrorKind::Overload, os.str());
    }
  }
}

void ArenaBudget::release_committed(std::size_t bytes) {
  {
    std::lock_guard<std::mutex> g(mu_);
    HPDR_ASSERT(bytes <= committed_);
    committed_ -= bytes;
    ArenaInstruments::get().committed.set(static_cast<double>(committed_));
  }
  cv_.notify_all();
}

bool ArenaBudget::try_commit_cache(std::size_t bytes) {
  std::lock_guard<std::mutex> g(mu_);
  if (bytes > budget_) return false;
  // Evict-first asymmetry (DESIGN.md §14): an insert may only cannibalize
  // the cache's own LRU entries. When sessions hold the remainder of the
  // budget the insert is skipped — never queued, never displacing staging.
  while (committed_ + cache_bytes_ + bytes > budget_) {
    const std::size_t freed =
        cache_ != nullptr ? cache_->evict_if_older(~std::uint64_t{0}) : 0;
    if (freed == 0) return false;
    HPDR_ASSERT(freed <= cache_bytes_);
    cache_bytes_ -= freed;
    ++evictions_;
    ArenaInstruments::get().evictions.add();
  }
  cache_bytes_ += bytes;
  high_water_ = std::max(high_water_, committed_ + cache_bytes_);
  return true;
}

void ArenaBudget::release_cache_bytes(std::size_t bytes) {
  {
    std::lock_guard<std::mutex> g(mu_);
    HPDR_ASSERT(bytes <= cache_bytes_);
    cache_bytes_ -= bytes;
  }
  cv_.notify_all();
}

void ArenaBudget::attach_cache(ChunkCache* cache) {
  std::lock_guard<std::mutex> g(mu_);
  HPDR_REQUIRE(cache_ == nullptr || cache_ == cache,
               "an ArenaBudget can host at most one ChunkCache");
  cache_ = cache;
}

void ArenaBudget::detach_cache(ChunkCache* cache, std::size_t bytes_held) {
  {
    std::lock_guard<std::mutex> g(mu_);
    if (cache_ != cache) return;
    cache_ = nullptr;
    HPDR_ASSERT(bytes_held == cache_bytes_);
    cache_bytes_ = 0;
  }
  cv_.notify_all();
}

bool ArenaBudget::evict_lru_locked() {
  SessionArena* victim_arena = nullptr;
  std::size_t victim_bucket = 0;
  std::size_t victim_idx = 0;
  std::uint64_t oldest = ~std::uint64_t{0};
  for (SessionArena* a : arenas_) {
    for (auto& [bucket, parked] : a->free_) {
      for (std::size_t i = 0; i < parked.size(); ++i) {
        if (parked[i].last_use < oldest) {
          oldest = parked[i].last_use;
          victim_arena = a;
          victim_bucket = bucket;
          victim_idx = i;
        }
      }
    }
  }
  // Unified LRU across both populations: a cache entry older than the
  // oldest parked buffer goes first (and when nothing is parked, `oldest`
  // is the max tick, so any cache entry qualifies).
  if (cache_ != nullptr) {
    const std::size_t freed = cache_->evict_if_older(oldest);
    if (freed > 0) {
      HPDR_ASSERT(freed <= cache_bytes_);
      cache_bytes_ -= freed;
      ++evictions_;
      ArenaInstruments::get().evictions.add();
      telemetry::flight_event(telemetry::EventKind::Eviction, "cache.lru",
                              freed);
      return true;
    }
  }
  if (!victim_arena) return false;
  auto& parked = victim_arena->free_[victim_bucket];
  parked.erase(parked.begin() + static_cast<std::ptrdiff_t>(victim_idx));
  HPDR_ASSERT(victim_bucket <= committed_);
  committed_ -= victim_bucket;
  ++evictions_;
  auto& ins = ArenaInstruments::get();
  ins.evictions.add();
  ins.committed.set(static_cast<double>(committed_));
  telemetry::flight_event(telemetry::EventKind::Eviction, "arena.lru",
                          victim_bucket);
  return true;
}

SessionArena::SessionArena(std::shared_ptr<ArenaBudget> budget)
    : budget_(std::move(budget)) {
  std::lock_guard<std::mutex> g(budget_->mu_);
  budget_->arenas_.push_back(this);
}

std::shared_ptr<SessionArena> make_arena(std::shared_ptr<ArenaBudget> budget) {
  HPDR_REQUIRE(budget != nullptr, "SessionArena needs an ArenaBudget");
  return std::shared_ptr<SessionArena>(new SessionArena(std::move(budget)));
}

SessionArena::~SessionArena() {
  std::size_t freed = 0;
  {
    std::lock_guard<std::mutex> g(budget_->mu_);
    auto& reg = budget_->arenas_;
    reg.erase(std::remove(reg.begin(), reg.end(), this), reg.end());
    for (auto& [bucket, parked] : free_) freed += bucket * parked.size();
    free_.clear();
    HPDR_ASSERT(freed <= budget_->committed_);
    budget_->committed_ -= freed;
    ArenaInstruments::get().committed.set(
        static_cast<double>(budget_->committed_));
  }
  if (freed > 0) budget_->cv_.notify_all();
}

std::size_t SessionArena::bucket_for(std::size_t bytes) {
  std::size_t b = std::size_t{4} << 10;
  while (b < bytes) b <<= 1;
  return b;
}

SessionArena::Lease SessionArena::lease(std::size_t bytes, double timeout_s) {
  auto& ins = ArenaInstruments::get();
  ins.leases.add();
  const auto t0 = std::chrono::steady_clock::now();
  const auto waited_s = [t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  const std::size_t bucket = bucket_for(bytes);
  Lease lease;
  lease.arena_ = shared_from_this();
  {
    std::lock_guard<std::mutex> g(budget_->mu_);
    auto it = free_.find(bucket);
    if (it != free_.end() && !it->second.empty()) {
      // Warm reuse: most-recently parked buffer of the bucket.
      lease.buf_ = std::move(it->second.back().buf);
      it->second.pop_back();
      ++hits_;
      ins.hits.add();
      ins.lease_wait.observe(waited_s());
      return lease;
    }
  }
  // Miss: commit fresh bytes (may evict parked buffers, then queue).
  budget_->acquire(bucket, timeout_s);
  if (fault::should_fire("cmm.alloc")) {
    // Simulated device OOM on the fresh allocation: evict one LRU parked
    // buffer and retry exactly once — the ContextCache recovery contract.
    ins.alloc_failures.add();
    bool evicted;
    {
      std::lock_guard<std::mutex> g(budget_->mu_);
      evicted = budget_->evict_lru_locked();
    }
    if (!evicted || fault::should_fire("cmm.alloc")) {
      if (evicted) ins.alloc_failures.add();
      budget_->release_committed(bucket);
      throw Error(ErrorKind::Fault,
                  "arena allocation of " + std::to_string(bucket) +
                      " B failed" +
                      (evicted ? " again after LRU eviction"
                               : " and no parked buffer is evictable"));
    }
  }
  lease.buf_.resize(bucket);
  {
    std::lock_guard<std::mutex> g(budget_->mu_);
    ++misses_;
  }
  ins.misses.add();
  ins.lease_wait.observe(waited_s());
  return lease;
}

void SessionArena::park(std::vector<std::uint8_t> buf) {
  {
    std::lock_guard<std::mutex> g(budget_->mu_);
    free_[buf.size()].push_back(Parked{std::move(buf), ++budget_->tick_});
  }
  // Parked bytes are evictable: wake any queued lease so it can reclaim.
  budget_->cv_.notify_all();
}

std::uint64_t SessionArena::hits() const {
  std::lock_guard<std::mutex> g(budget_->mu_);
  return hits_;
}

std::uint64_t SessionArena::misses() const {
  std::lock_guard<std::mutex> g(budget_->mu_);
  return misses_;
}

SessionArena::Lease::Lease(Lease&& o) noexcept
    : arena_(std::move(o.arena_)), buf_(std::move(o.buf_)) {}

SessionArena::Lease& SessionArena::Lease::operator=(Lease&& o) noexcept {
  if (this != &o) {
    if (arena_ && !buf_.empty()) arena_->park(std::move(buf_));
    arena_ = std::move(o.arena_);
    buf_ = std::move(o.buf_);
  }
  return *this;
}

SessionArena::Lease::~Lease() {
  if (arena_ && !buf_.empty()) arena_->park(std::move(buf_));
}

}  // namespace hpdr::svc
