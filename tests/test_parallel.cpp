// Host execution engine (DESIGN.md §9): the task-queue ThreadPool —
// coverage, nesting, concurrent callers, exception propagation — and the
// pipeline's chunk-parallel determinism guarantee: the stream, the manifest
// decisions, and the fault/retry accounting are identical at any pool
// width, including under an armed fault plan.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "compressor/compressor.hpp"
#include "core/thread_pool.hpp"
#include "data/generators.hpp"
#include "fault/fault.hpp"
#include "adapter/device.hpp"
#include "pipeline/pipeline.hpp"

namespace hpdr {
namespace {

/// Pool width is process state; every test restores the default on the way
/// out so suites sharing the binary see a pristine pool.
class ThreadPoolEngine : public ::testing::Test {
 protected:
  void TearDown() override {
    ThreadPool::instance().resize(ThreadPool::default_threads());
  }
};

TEST_F(ThreadPoolEngine, ParallelForRunsEveryIndexExactlyOnce) {
  auto& pool = ThreadPool::instance();
  pool.resize(4);
  constexpr std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST_F(ThreadPoolEngine, ZeroAndSingleIndexSpacesWork) {
  auto& pool = ThreadPool::instance();
  pool.resize(3);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST_F(ThreadPoolEngine, NestedParallelForCompletesWithoutDeadlock) {
  auto& pool = ThreadPool::instance();
  pool.resize(4);
  constexpr std::size_t outer = 8, inner = 64;
  std::vector<std::atomic<std::size_t>> sums(outer);
  pool.parallel_for(outer, [&](std::size_t o) {
    // A chunk task whose kernel is itself data-parallel: the inner call
    // shares the same pool and must not wait on the outer batch.
    pool.parallel_for(inner, [&](std::size_t i) {
      sums[o].fetch_add(i + 1, std::memory_order_relaxed);
    });
  });
  for (std::size_t o = 0; o < outer; ++o)
    EXPECT_EQ(sums[o].load(), inner * (inner + 1) / 2);
}

TEST_F(ThreadPoolEngine, DeeplyNestedStress) {
  auto& pool = ThreadPool::instance();
  pool.resize(4);
  std::atomic<std::size_t> leaves{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(4, [&](std::size_t) {
      pool.parallel_for(4, [&](std::size_t) {
        leaves.fetch_add(1, std::memory_order_relaxed);
      });
    });
  });
  EXPECT_EQ(leaves.load(), 64u);
}

TEST_F(ThreadPoolEngine, ConcurrentCallersFromForeignThreads) {
  auto& pool = ThreadPool::instance();
  pool.resize(4);
  constexpr std::size_t callers = 6, n = 2000;
  std::vector<std::size_t> sums(callers, 0);
  std::vector<std::thread> threads;
  threads.reserve(callers);
  for (std::size_t t = 0; t < callers; ++t)
    threads.emplace_back([&, t] {
      std::vector<std::atomic<int>> hits(n);
      pool.parallel_for(n, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      std::size_t total = 0;
      for (auto& h : hits) total += static_cast<std::size_t>(h.load());
      sums[t] = total;
    });
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < callers; ++t) EXPECT_EQ(sums[t], n) << t;
}

TEST_F(ThreadPoolEngine, FirstExceptionPropagatesToCaller) {
  auto& pool = ThreadPool::instance();
  pool.resize(4);
  EXPECT_THROW(
      pool.parallel_for(1000,
                        [&](std::size_t i) {
                          if (i == 137) throw Error("boom");
                        }),
      Error);
  // The pool survives a failed batch.
  std::atomic<int> ok{0};
  pool.parallel_for(16, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 16);
}

TEST_F(ThreadPoolEngine, ResizeAndWorkerIdsStayInRange) {
  auto& pool = ThreadPool::instance();
  pool.resize(3);
  EXPECT_EQ(pool.concurrency(), 3u);
  std::atomic<int> max_id{0};
  pool.parallel_for(1000, [&](std::size_t) {
    const int id = ThreadPool::worker_id();
    EXPECT_GE(id, 0);
    EXPECT_LT(id, 3);
    int cur = max_id.load();
    while (id > cur && !max_id.compare_exchange_weak(cur, id)) {
    }
  });
  pool.resize(1);
  EXPECT_EQ(pool.concurrency(), 1u);
  pool.parallel_for(8, [&](std::size_t) {
    EXPECT_EQ(ThreadPool::worker_id(), 0);  // width 1 → caller runs all
  });
}

TEST_F(ThreadPoolEngine, PeakActiveIsBounded) {
  auto& pool = ThreadPool::instance();
  pool.resize(4);
  pool.reset_peak();
  pool.parallel_for(256, [](std::size_t) {});
  EXPECT_GE(pool.peak_active(), 1u);
  EXPECT_LE(pool.peak_active(), 4u);
}

// ---------------------------------------------------------------------------
// Pipeline determinism across pool widths.
// ---------------------------------------------------------------------------

class ParallelEngine : public ::testing::Test {
 protected:
  void SetUp() override { fault::Injector::instance().disarm(); }
  void TearDown() override {
    fault::Injector::instance().disarm();
    ThreadPool::instance().resize(ThreadPool::default_threads());
  }

  static const data::Dataset& dataset() {
    static data::Dataset ds = data::make("nyx", data::Size::Tiny);
    return ds;
  }

  static pipeline::Options small_chunks() {
    pipeline::Options opts;
    opts.mode = pipeline::Mode::Fixed;
    opts.param = 1e-2;
    opts.fixed_chunk_bytes = 16 << 10;
    return opts;
  }

  static pipeline::CompressResult compress_at(unsigned threads) {
    ThreadPool::instance().resize(threads);
    const auto& ds = dataset();
    return pipeline::compress(Device::serial(), *comp(), ds.data(),
                              ds.shape, ds.dtype, small_chunks());
  }

  static std::shared_ptr<const Compressor> comp() {
    static auto c = make_compressor("zfp-x");
    return c;
  }

  /// Everything a manifest records per chunk except the (intentionally
  /// schedule-dependent) worker slot.
  static void expect_same_decisions(
      const std::vector<telemetry::ChunkDecision>& a,
      const std::vector<telemetry::ChunkDecision>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t c = 0; c < a.size(); ++c) {
      EXPECT_EQ(a[c].index, b[c].index);
      EXPECT_EQ(a[c].bytes, b[c].bytes);
      EXPECT_EQ(a[c].rows, b[c].rows);
      EXPECT_EQ(a[c].stored_bytes, b[c].stored_bytes);
      EXPECT_EQ(a[c].fallback, b[c].fallback);
      EXPECT_EQ(a[c].retries, b[c].retries);
    }
  }
};

TEST_F(ParallelEngine, StreamIsIdenticalAtAnyPoolWidth) {
  const auto serial = compress_at(1);
  ASSERT_GT(serial.chunk_rows.size(), 2u);  // the test needs real fan-out
  const auto wide = compress_at(4);
  const auto rerun = compress_at(4);
  EXPECT_EQ(serial.stream, wide.stream);
  EXPECT_EQ(wide.stream, rerun.stream);
  expect_same_decisions(serial.decisions, wide.decisions);
  expect_same_decisions(wide.decisions, rerun.decisions);
}

TEST_F(ParallelEngine, FaultAccountingIsIdenticalAtAnyPoolWidth) {
  auto& inj = fault::Injector::instance();
  const char* plan = "hdem.task:nth=2;chunk.corrupt:every=3,flip=4";
  inj.configure(plan, /*seed=*/7);
  const auto serial = compress_at(1);
  const auto serial_fires = inj.total_fires();
  inj.configure(plan, /*seed=*/7);  // reset counters, same plan + seed
  const auto wide = compress_at(4);
  EXPECT_EQ(serial.stream, wide.stream);
  EXPECT_EQ(serial.codec_retries, wide.codec_retries);
  EXPECT_EQ(serial.fallback_chunks, wide.fallback_chunks);
  EXPECT_EQ(serial_fires, inj.total_fires());
  expect_same_decisions(serial.decisions, wide.decisions);
  EXPECT_GE(serial.codec_retries + inj.fires("chunk.corrupt"), 1u)
      << "plan did not exercise any fault path";
}

TEST_F(ParallelEngine, DecompressMatchesAtAnyPoolWidth) {
  const auto cr = compress_at(1);
  const auto& ds = dataset();
  const Device dev = Device::serial();
  std::vector<std::uint8_t> a(ds.size_bytes()), b(ds.size_bytes());
  ThreadPool::instance().resize(1);
  pipeline::decompress(dev, *comp(), cr.stream, a.data(), ds.shape, ds.dtype,
                       small_chunks());
  ThreadPool::instance().resize(4);
  pipeline::decompress(dev, *comp(), cr.stream, b.data(), ds.shape, ds.dtype,
                       small_chunks());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace hpdr
