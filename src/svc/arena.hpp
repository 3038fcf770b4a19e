#ifndef HPDR_SVC_ARENA_HPP
#define HPDR_SVC_ARENA_HPP

/// \file arena.hpp
/// Per-session buffer arenas under one global byte budget (DESIGN.md §10).
/// The CMM (machine/context_memory.*) removes repeated *context*
/// allocation from a single pipeline; the serving layer adds the job-level
/// equivalent for *data* buffers: each Session leases its staging/output
/// buffers from size-bucketed free lists, so a session's Nth job reuses the
/// buffers its first job allocated, and every live byte is accounted
/// against an ArenaBudget shared by all sessions of the Service.
///
/// Budget semantics:
///   * committed = bytes held by any arena (leased out + parked on free
///     lists). committed never exceeds the budget — that is the asserted
///     high-water invariant.
///   * A lease that cannot fit first reclaims parked buffers, globally LRU
///     across all sessions (a cold session's buffers are evicted to feed a
///     hot one), and only then *queues*: the caller blocks until running
///     jobs return bytes. This is admission backpressure — a burst of jobs
///     that would OOM the device instead waits, surfaced as
///     svc.queue_wait.* telemetry.
///   * A request larger than the whole budget is a configuration error and
///     throws immediately.
///
/// The cmm.alloc fault site fires here exactly as it does in the
/// ContextCache: a fresh allocation "fails", one LRU parked buffer is
/// evicted and the allocation retried once, then Error (DESIGN.md §8).
///
/// The dedup ChunkCache (chunk_cache.hpp, DESIGN.md §14) is a second
/// evictable population under the same budget: its entries are accounted
/// in a separate cache ledger (committed() stays "session bytes" so the
/// drain-to-zero liveness gate holds with a warm cache), the invariant is
/// committed + cache_bytes <= budget, and eviction is LRU across *both*
/// populations on the shared tick clock. The asymmetry that makes cached
/// bytes evict-first victims: a session lease may evict cache entries (and
/// drains every evictable byte before blocking), while a cache insert may
/// only evict other cache entries — the cache can never displace session
/// staging or make a lease queue.
///
/// Locking: one mutex in the ArenaBudget guards the budget counters and
/// every session's free lists. Leases are per-job events (a handful per
/// job, microseconds apart), not per-chunk, so a single lock is simpler
/// than a lock order across sessions and is TSan-clean. The ChunkCache
/// stripes its own shard locks; the global order is budget mutex → shard
/// mutex (the budget calls into the cache to evict; the cache never calls
/// the budget while holding a shard lock).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace hpdr::svc {

class SessionArena;
class ChunkCache;

/// Global byte budget shared by all SessionArenas of a Service.
class ArenaBudget {
 public:
  explicit ArenaBudget(std::size_t budget_bytes);

  std::size_t budget() const { return budget_; }
  /// Bytes held by sessions (leased + parked). Cache entries are ledgered
  /// separately (cache_bytes()), so committed()==0 after a drain holds
  /// even with a warm dedup cache.
  std::size_t committed() const;
  /// Bytes held by the attached ChunkCache's entries.
  std::size_t cache_bytes() const;
  std::size_t high_water() const;
  std::uint64_t evictions() const;
  std::uint64_t queue_waits() const;

 private:
  friend class SessionArena;
  friend class ChunkCache;

  /// Commit `bytes` for a session, evicting parked buffers and cache
  /// entries (unified LRU) and then blocking (up to `timeout_s`) until
  /// they fit. Throws when bytes > budget or on timeout.
  void acquire(std::size_t bytes, double timeout_s);
  void release_committed(std::size_t bytes);
  /// Evict the least-recently-used evictable byte holder across both
  /// populations — parked session buffers and cache entries compete on
  /// the shared tick clock. Caller holds mu_.
  bool evict_lru_locked();

  /// Cache-side ledger (ChunkCache only). try_commit_cache never blocks
  /// and never displaces session bytes: it evicts the cache's own LRU
  /// entries to make room and returns false when sessions hold the rest
  /// of the budget.
  bool try_commit_cache(std::size_t bytes);
  void release_cache_bytes(std::size_t bytes);
  void attach_cache(ChunkCache* cache);
  void detach_cache(ChunkCache* cache, std::size_t bytes_held);
  /// Shared LRU clock; atomic so cache hits can stamp recency without the
  /// budget mutex.
  std::uint64_t next_tick() {
    return tick_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  const std::size_t budget_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::size_t committed_ = 0;    ///< session bytes (leased + parked)
  std::size_t cache_bytes_ = 0;  ///< ChunkCache entry bytes
  std::size_t high_water_ = 0;
  std::atomic<std::uint64_t> tick_{0};  ///< LRU clock, both populations
  std::uint64_t evictions_ = 0;
  std::uint64_t queue_waits_ = 0;
  std::vector<SessionArena*> arenas_;  ///< registered sessions
  ChunkCache* cache_ = nullptr;        ///< attached dedup cache (≤ 1)
};

/// One session's size-bucketed free lists. Create through make_arena so
/// leases can keep the session alive.
class SessionArena : public std::enable_shared_from_this<SessionArena> {
 public:
  ~SessionArena();

  /// RAII buffer lease; parks the buffer back on the session's free list
  /// on destruction.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&&) noexcept;
    Lease& operator=(Lease&&) noexcept;
    ~Lease();

    std::vector<std::uint8_t>& bytes() { return buf_; }
    std::size_t capacity() const { return buf_.size(); }

   private:
    friend class SessionArena;
    std::shared_ptr<SessionArena> arena_;
    std::vector<std::uint8_t> buf_;
  };

  /// Lease a buffer of at least `bytes` (rounded up to the 4 KiB…pow2
  /// bucket). Blocks under budget pressure; throws if bytes > budget or
  /// the wait exceeds `timeout_s`.
  Lease lease(std::size_t bytes, double timeout_s = 120.0);

  std::uint64_t hits() const;
  std::uint64_t misses() const;

  static std::size_t bucket_for(std::size_t bytes);

 private:
  friend class ArenaBudget;
  /// Registers itself with the budget; only make_arena calls this.
  explicit SessionArena(std::shared_ptr<ArenaBudget> budget);
  friend std::shared_ptr<SessionArena> make_arena(
      std::shared_ptr<ArenaBudget> budget);

  void park(std::vector<std::uint8_t> buf);

  struct Parked {
    std::vector<std::uint8_t> buf;
    std::uint64_t last_use = 0;
  };

  std::shared_ptr<ArenaBudget> budget_;
  /// bucket size → parked buffers; guarded by budget_->mu_.
  std::map<std::size_t, std::vector<Parked>> free_;
  std::uint64_t hits_ = 0;    ///< guarded by budget_->mu_
  std::uint64_t misses_ = 0;  ///< guarded by budget_->mu_
};

std::shared_ptr<SessionArena> make_arena(std::shared_ptr<ArenaBudget> budget);

}  // namespace hpdr::svc

#endif  // HPDR_SVC_ARENA_HPP
