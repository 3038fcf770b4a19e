#ifndef HPDR_SVC_CHUNK_CACHE_HPP
#define HPDR_SVC_CHUNK_CACHE_HPP

/// \file chunk_cache.hpp
/// Content-addressed dedup chunk cache (DESIGN.md §14). Scientific serving
/// traffic is repetitive — successive timesteps, overlapping subdomain
/// reads, many users requesting the same variable at the same error bound —
/// so most fleet work can become a memcpy instead of a codec run. The
/// ChunkCache keys chunks by (content XXH64, codec id, error bound, codec
/// config) and serves both directions of the pipeline chunk loop:
///
///   * repeat *compressions*: identical raw chunk → the cached compressed
///     frame plus its insert-time framing checksum (codec and rehash both
///     skipped);
///   * hot *decompressions*: identical compressed frame → the cached raw
///     bytes, keyed on the per-chunk checksum the framing already carries
///     (the serving path never rehashes the payload).
///
/// Capacity is not a knob: entries lease bytes from the Service's existing
/// ArenaBudget, so cache pressure and session staging negotiate over one
/// global byte budget with a unified LRU across both populations. Cached
/// entries are evict-first victims — a session lease drains them before it
/// ever blocks, while a cache insert may only evict other cache entries and
/// is simply skipped when sessions hold the budget. Because inserts happen
/// per completed chunk inside the pipeline loop, a cancelled or
/// deadline-failed job's finished chunks stay usable as cache entries
/// instead of being discarded with the job.
///
/// Concurrency: 16-way lock striping. Lookups and inserts touch only their
/// shard's mutex (hits stamp recency through the budget's atomic tick
/// clock); only a miss's byte reservation takes the budget mutex, and a
/// miss is about to run a codec anyway. Lock order is budget mutex → shard
/// mutex: the budget calls into the cache to evict, the cache never calls
/// the budget while holding a shard lock.

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "pipeline/pipeline.hpp"
#include "svc/arena.hpp"

namespace hpdr::svc {

class ChunkCache final : public pipeline::ChunkCacheBase {
 public:
  static constexpr std::size_t kShards = 16;

  /// Registers with (at most one cache per) `budget`; entries lease bytes
  /// from it for the cache's lifetime.
  explicit ChunkCache(std::shared_ptr<ArenaBudget> budget);
  ~ChunkCache() override;

  ChunkCache(const ChunkCache&) = delete;
  ChunkCache& operator=(const ChunkCache&) = delete;

  // pipeline::ChunkCacheBase ------------------------------------------------
  bool get_frame(std::uint64_t raw_hash, std::uint64_t meta_hash,
                 std::vector<std::uint8_t>& blob,
                 std::uint64_t& checksum) override;
  void put_frame(std::uint64_t raw_hash, std::uint64_t meta_hash,
                 std::span<const std::uint8_t> blob,
                 std::uint64_t checksum) override;
  bool get_raw(std::uint64_t frame_checksum, std::uint64_t meta_hash,
               std::uint8_t* dst, std::size_t bytes) override;
  void put_raw(std::uint64_t frame_checksum, std::uint64_t meta_hash,
               std::span<const std::uint8_t> raw) override;

  // Stats (relaxed atomics; exact once the workload quiesces) --------------
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  std::uint64_t inserts() const {
    return inserts_.load(std::memory_order_relaxed);
  }
  std::uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Payload bytes currently held (mirrors the budget's cache ledger).
  std::size_t bytes() const { return bytes_.load(std::memory_order_relaxed); }
  std::size_t entries() const;

 private:
  friend class ArenaBudget;

  /// 128-bit key: content hash (raw chunk on encode, framing checksum on
  /// decode) + direction-salted meta hash (codec, error bound, dtype,
  /// chunk geometry). Equality compares both words; a collision needs both
  /// 64-bit hashes to agree.
  struct Key {
    std::uint64_t content = 0;
    std::uint64_t meta = 0;
    bool operator==(const Key& o) const {
      return content == o.content && meta == o.meta;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return static_cast<std::size_t>(k.content ^
                                      (k.meta * 0x9e3779b97f4a7c15ull));
    }
  };
  struct Entry {
    Key key;
    std::vector<std::uint8_t> data;
    std::uint64_t checksum = 0;   ///< frame entries: insert-time FNV-1a
    std::uint64_t last_use = 0;   ///< budget tick clock
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index;
  };

  Shard& shard_of(const Key& k) {
    return shards_[static_cast<std::size_t>(
        (k.content * 0x9e3779b97f4a7c15ull) >> 60) %
        kShards];
  }
  /// Common lookup: on hit copies the payload out under the shard lock,
  /// refreshes recency, returns true. `expect_bytes` (nonzero) rejects a
  /// size mismatch as a miss.
  bool get(const Key& k, std::vector<std::uint8_t>* blob_out,
           std::uint8_t* raw_out, std::size_t expect_bytes,
           std::uint64_t* checksum_out);
  /// Common insert: reserves bytes from the budget (cache-only eviction,
  /// never blocking), then stores a copy. Oversized payloads (> budget/4)
  /// and duplicate keys (racing inserts) are dropped.
  void put(const Key& k, std::span<const std::uint8_t> data,
           std::uint64_t checksum);
  /// ArenaBudget hook (budget mutex held): evict the cache's LRU entry if
  /// it is older than `than`; returns payload bytes freed (0 = none
  /// qualified). Passing ~0 evicts unconditionally.
  std::size_t evict_if_older(std::uint64_t than);

  std::shared_ptr<ArenaBudget> budget_;
  std::array<Shard, kShards> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> inserts_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::size_t> bytes_{0};
};

}  // namespace hpdr::svc

#endif  // HPDR_SVC_CHUNK_CACHE_HPP
