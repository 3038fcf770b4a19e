#ifndef HPDR_ADAPTER_ABSTRACTIONS_HPP
#define HPDR_ADAPTER_ABSTRACTIONS_HPP

/// \file abstractions.hpp
/// The four parallelization abstractions of HPDR (paper §III-A, Fig. 3) and
/// their mapping onto the two execution models (§III-B, Table I):
///
///   Locality      → GEM  (block → group, 1:1)
///   Iterative     → GEM  (B vectors → group)
///   Map & Process → DEM  (all subsets → whole domain)
///   Global        → DEM  (domain → whole domain)
///
/// The Group Execution Model (GEM) partitions work into independent groups;
/// the Domain Execution Model (DEM) runs all threads over the whole domain
/// with global synchronization between stages. Both support multi-stage
/// fusion: consecutive operations sharing a model execute back to back with
/// group-local (GEM) or domain-wide (DEM) staging.
///
/// Device mapping (Table II) is realized here by dispatch on DeviceKind:
///   * Serial: groups run sequentially; staging data lives in the CPU cache
///     by virtue of sequential group execution; stage order by program order.
///   * OpenMP: groups are parallelized across cores (GEM) or the whole
///     domain is parallelized across cores (DEM); stage order by barriers.
///   * StdThread: like OpenMP but on a std::thread fork-join pool — the
///     worked example of adding a new adapter (§III-C extensibility).
///   * SimGpu: executes like OpenMP on the host (the simulated GPU's
///     numerical work is host-executed; see device.hpp) — groups model
///     thread blocks on SMs/CUs, DEM stages model cooperative-group grid
///     synchronization.

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "adapter/device.hpp"
#include "core/shape.hpp"
#include "core/thread_pool.hpp"
#include "fault/cancel.hpp"

namespace hpdr {

/// The four abstractions, named for introspection and Table I tests.
enum class Abstraction { Locality, Iterative, MapAndProcess, Global };

/// The two machine execution models of §III-B.
enum class ExecutionModel { GEM, DEM };

/// Table I: which execution model serves each abstraction.
constexpr ExecutionModel execution_model_of(Abstraction a) {
  switch (a) {
    case Abstraction::Locality:
    case Abstraction::Iterative:
      return ExecutionModel::GEM;
    case Abstraction::MapAndProcess:
    case Abstraction::Global:
      return ExecutionModel::DEM;
  }
  return ExecutionModel::GEM;  // unreachable
}

/// One block of a decomposed domain handed to a Locality functor. Origin and
/// extent are clipped to the domain; halo gives how far beyond the extent
/// the functor may read (reads are clamped by the functor itself).
struct Block {
  Shape origin;        ///< first index of the block in each dimension
  Shape extent;        ///< block size in each dimension (clipped)
  std::size_t index;   ///< linear block id (group id in GEM)
};

namespace detail {

/// Index stride between cooperative cancel polls inside a codec loop: fine
/// enough that a huge single-chunk kernel still honours a deadline, coarse
/// enough that the poll (a thread-local load) never shows in profiles.
constexpr std::size_t kCancelStride = 1024;

/// Runs f(i) for i in [0, n) on `dev`, polling for cancellation every
/// `PollEvery` indices (a power of two) where the adapter allows it.
template <std::size_t PollEvery = kCancelStride, class F>
void run_indexed(const Device& dev, std::size_t n, F&& f) {
  static_assert((PollEvery & (PollEvery - 1)) == 0, "PollEvery: power of 2");
  // Stage boundary: every codec encode/decode loop funnels through here,
  // so a fired job token aborts before the next stage launches.
  fault::poll_cancel();
  switch (dev.kind()) {
    case DeviceKind::Serial:
      for (std::size_t i = 0; i < n; ++i) {
        if ((i & (PollEvery - 1)) == 0) fault::poll_cancel();
        f(i);
      }
      break;
    case DeviceKind::StdThread: {
      // Pool workers don't inherit the caller's thread-local token; hand
      // it to them by value. parallel_for propagates the first throw and
      // early-exits the remaining ranges.
      const fault::CancelToken tok = fault::current_cancel();
      if (!tok.valid()) {
        ThreadPool::instance().parallel_for(n, f);
      } else {
        ThreadPool::instance().parallel_for(n, [&](std::size_t i) {
          if ((i & (PollEvery - 1)) == 0) tok.check();
          f(i);
        });
      }
      break;
    }
    case DeviceKind::OpenMP:
    case DeviceKind::SimGpu: {
      // No polls inside the region: throwing across an OpenMP parallel
      // boundary is undefined; the pre-launch poll above and the caller's
      // chunk-boundary polls bound the overrun to one stage.
#pragma omp parallel for schedule(static)
      for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n); ++i)
        f(static_cast<std::size_t>(i));
      break;
    }
  }
}

}  // namespace detail

/// Locality abstraction (Fig. 3a). Decomposes `domain` into blocks of shape
/// `block` and executes `f(const Block&)` once per block, one group per
/// block (GEM). Blocks at the domain boundary are clipped. The functor sees
/// the whole input; the halo region convention is that `f` may read up to
/// `halo` elements past its extent, clamping at the domain edge.
template <class F>
void locality(const Device& dev, const Shape& domain, const Shape& block,
              F&& f) {
  HPDR_REQUIRE(domain.rank() == block.rank(),
               "domain rank " << domain.rank() << " != block rank "
                              << block.rank());
  const std::size_t rank = domain.rank();
  Shape nblocks = Shape::of_rank(rank);
  std::size_t total = 1;
  for (std::size_t d = 0; d < rank; ++d) {
    HPDR_REQUIRE(block[d] > 0, "zero block extent");
    nblocks[d] = (domain[d] + block[d] - 1) / block[d];
    total *= nblocks[d];
  }
  if (domain.size() == 0) return;
  detail::run_indexed(dev, total, [&](std::size_t bid) {
    Block b;
    b.index = bid;
    b.origin = Shape::of_rank(rank);
    b.extent = Shape::of_rank(rank);
    std::size_t rem = bid;
    for (std::size_t d = rank; d-- > 0;) {
      const std::size_t bd = rem % nblocks[d];
      rem /= nblocks[d];
      b.origin[d] = bd * block[d];
      b.extent[d] = std::min(block[d], domain[d] - b.origin[d]);
    }
    f(static_cast<const Block&>(b));
  });
}

/// Iterative abstraction (Fig. 3b). `num_vectors` independent sequential
/// recurrences (e.g., tridiagonal solves) are distributed across threads,
/// every `group_size` consecutive vectors forming one GEM group so a core
/// can exploit locality across the vectors it owns.
template <class F>
void iterative(const Device& dev, std::size_t num_vectors,
               std::size_t group_size, F&& f) {
  HPDR_REQUIRE(group_size > 0, "group_size must be positive");
  const std::size_t groups = (num_vectors + group_size - 1) / group_size;
  detail::run_indexed(dev, groups, [&](std::size_t g) {
    const std::size_t begin = g * group_size;
    const std::size_t end = std::min(begin + group_size, num_vectors);
    for (std::size_t v = begin; v < end; ++v) f(v);
  });
}

/// Iterative abstraction with group staging: like iterative(), but each
/// GEM group owns `scratch_bytes` of staging memory shared by the vectors
/// it processes (Table II: working data staged in cache/shared memory),
/// and receives its whole vector range so it can step its vectors in
/// lockstep (MGARD's level step runs its tridiagonal solves this way).
/// `f` is void(std::size_t begin, std::size_t end, GroupCtx&) over the
/// group's vectors [begin, end).
template <class F>
void iterative_staged(const Device& dev, std::size_t num_vectors,
                      std::size_t group_size, std::size_t scratch_bytes,
                      F&& f);

/// A subset handed to MapAndProcess: a contiguous index range tagged with
/// the subset id (e.g., a decomposition level in MGARD).
struct Subset {
  std::size_t id;     ///< subset identifier (level number for MGARD)
  std::size_t begin;  ///< first element index (inclusive)
  std::size_t end;    ///< one past the last element index
  std::size_t size() const { return end - begin; }
};

/// Map & Process abstraction (Fig. 3c). The input is mapped to subsets and
/// each subset is processed with a (potentially) different function: `f`
/// receives (subset, element_index) and may branch on subset.id. All
/// subsets execute in the whole domain at once (DEM), dispatched as ranges
/// of at most kCancelStride elements that never cross a subset boundary:
/// each range calls `f` in a tight loop and polls for cancellation once.
template <class F>
void map_and_process(const Device& dev, std::span<const Subset> subsets,
                     F&& f) {
  struct Range {
    const Subset* subset;
    std::size_t begin, end;
  };
  std::vector<Range> ranges;
  for (const Subset& s : subsets)
    for (std::size_t b = s.begin; b < s.end; b += detail::kCancelStride)
      ranges.push_back({&s, b, std::min(b + detail::kCancelStride, s.end)});
  detail::run_indexed<1>(dev, ranges.size(), [&](std::size_t r) {
    const Range& range = ranges[r];
    for (std::size_t i = range.begin; i < range.end; ++i)
      f(*range.subset, i);
  });
}

/// Global pipeline abstraction (Fig. 3d). Runs each stage over the whole
/// domain with a global synchronization between stages (DEM multi-stage).
/// Each stage is `void(std::size_t i)` over [0, domain_size). On CPUs the
/// barrier is the sequential stage order; on the simulated GPU it models a
/// cooperative-groups grid sync.
template <class... Stages>
void global_pipeline(const Device& dev, std::size_t domain_size,
                     Stages&&... stages) {
  (detail::run_indexed(dev, domain_size, std::forward<Stages>(stages)), ...);
}

/// Single-stage DEM launch over an arbitrary-size domain; used by encoders
/// whose stage count is data-dependent.
template <class F>
void global_stage(const Device& dev, std::size_t domain_size, F&& f) {
  detail::run_indexed(dev, domain_size, std::forward<F>(f));
}

/// Per-group staging memory for fused multi-stage GEM kernels — the
/// "ShMem" rows of Table II. On a GPU this is the thread block's shared
/// memory, persisting across block-synchronized stages; on CPU adapters it
/// is a group-private arena that stays cache-resident because the group's
/// stages run back to back on one core.
class GroupCtx {
 public:
  explicit GroupCtx(std::span<std::byte> arena) : arena_(arena) {}

  /// A typed view of the group's staging memory. Repeated calls with the
  /// same type/count return the same storage (stage-to-stage sharing).
  template <class T>
  std::span<T> scratch(std::size_t count) {
    const std::size_t bytes = count * sizeof(T);
    HPDR_REQUIRE(bytes <= arena_.size(),
                 "group scratch overflow: need " << bytes << " B, arena is "
                                                 << arena_.size() << " B");
    return {reinterpret_cast<T*>(arena_.data()), count};
  }

  std::size_t capacity() const { return arena_.size(); }

 private:
  std::span<std::byte> arena_;
};

/// Fused multi-stage Locality launch (§III-B: "multiple operations sharing
/// the same execution model can be fused into one model for more efficient
/// execution"). Every stage is void(const Block&, GroupCtx&); for each
/// group, stages execute back to back with a group-level barrier between
/// them (Table II "Order" row: sequential on CPUs, block sync on GPUs) and
/// share `scratch_bytes` of staging memory.
template <class... Stages>
void locality_fused(const Device& dev, const Shape& domain,
                    const Shape& block, std::size_t scratch_bytes,
                    Stages&&... stages) {
  locality(dev, domain, block, [&](const Block& b) {
    // One arena per group invocation; lives for all fused stages.
    std::vector<std::byte> arena(scratch_bytes);
    GroupCtx ctx(arena);
    (stages(b, ctx), ...);
  });
}

template <class F>
void iterative_staged(const Device& dev, std::size_t num_vectors,
                      std::size_t group_size, std::size_t scratch_bytes,
                      F&& f) {
  HPDR_REQUIRE(group_size > 0, "group_size must be positive");
  const std::size_t groups = (num_vectors + group_size - 1) / group_size;
  detail::run_indexed(dev, groups, [&](std::size_t g) {
    std::vector<std::byte> arena(scratch_bytes);
    GroupCtx ctx(arena);
    const std::size_t begin = g * group_size;
    f(begin, std::min(begin + group_size, num_vectors), ctx);
  });
}

}  // namespace hpdr

#endif  // HPDR_ADAPTER_ABSTRACTIONS_HPP
