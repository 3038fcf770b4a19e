// Host execution engine (DESIGN.md §9): the task-queue ThreadPool —
// coverage, nesting, concurrent callers, exception propagation — and the
// pipeline's chunk-parallel determinism guarantee: the stream, the manifest
// decisions, and the fault/retry accounting are identical at any pool
// width, including under an armed fault plan.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
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

TEST_F(ParallelEngine, DecompressRowsMatchesFullDecodeCrop) {
  const auto cr = compress_at(4);
  const auto& ds = dataset();
  const Device dev = Device::serial();
  std::vector<std::uint8_t> whole(ds.size_bytes());
  pipeline::decompress(dev, *comp(), cr.stream, whole.data(), ds.shape,
                       ds.dtype, small_chunks());
  // An unaligned row window spanning chunk boundaries, decoded in parallel
  // through the pooled scratch path.
  const std::size_t row_begin = 3;
  const std::size_t row_end = ds.shape[0] - 2;
  const std::size_t slab_bytes =
      ds.size_bytes() / ds.shape[0];
  std::vector<std::uint8_t> window((row_end - row_begin) * slab_bytes);
  pipeline::decompress_rows(dev, *comp(), cr.stream, window.data(), ds.shape,
                            ds.dtype, row_begin, row_end, small_chunks());
  EXPECT_EQ(0, std::memcmp(window.data(),
                           whole.data() + row_begin * slab_bytes,
                           window.size()));
}

/// zfp-x whose decompress runs a caller-supplied stage after decoding, the
/// way a codec's intra-kernel stage may run a nested parallel_for while
/// the decoded chunk still sits in the pipeline's buffer.
class StagedCodec final : public Compressor {
 public:
  explicit StagedCodec(std::function<void()> stage)
      : inner_(make_compressor("zfp-x")), stage_(std::move(stage)) {}
  std::string name() const override { return inner_->name(); }
  bool lossless() const override { return inner_->lossless(); }
  KernelClass compress_kernel() const override {
    return inner_->compress_kernel();
  }
  KernelClass decompress_kernel() const override {
    return inner_->decompress_kernel();
  }
  bool uses_context_cache() const override {
    return inner_->uses_context_cache();
  }
  int allocs_per_call() const override { return inner_->allocs_per_call(); }
  double kernel_derate() const override { return inner_->kernel_derate(); }
  double contention_exposure(bool compress_dir) const override {
    return inner_->contention_exposure(compress_dir);
  }
  std::vector<std::uint8_t> compress(const Device& dev, const void* data,
                                     const Shape& shape, DType dtype,
                                     double param) const override {
    return inner_->compress(dev, data, shape, dtype, param);
  }
  void decompress(const Device& dev, std::span<const std::uint8_t> stream,
                  void* out, const Shape& shape, DType dtype) const override {
    inner_->decompress(dev, stream, out, shape, dtype);
    stage_();
  }

 private:
  std::shared_ptr<const Compressor> inner_;
  std::function<void()> stage_;
};

/// One-shot flag whose wait gives up after 10 s, so a schedule that does
/// not happen fails the test instead of hanging it.
struct Flag {
  std::atomic<bool> on{false};
  void set() { on.store(true); }
  void wait() const {
    const auto end =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!on.load() && std::chrono::steady_clock::now() < end)
      std::this_thread::yield();
  }
};

TEST_F(ParallelEngine, BoundaryChunkScratchSurvivesAReentrantChunk) {
  // A thread waiting in a nested pool join runs whatever ticket is queued,
  // including a chunk of another decode. That chunk must not reuse the
  // pooled scratch still holding the waiting thread's boundary chunk.
  // Forced schedule on a 2-wide pool (main thread M, worker W):
  //   M: call 1 decodes its one boundary chunk into scratch; the codec
  //      stage then runs a nested parallel_for that keeps W inside;
  //   T: call 2 (two boundary chunks) queues a helper ticket, which M's
  //      nested join picks up: M decodes a call-2 chunk before call 1
  //      crops its scratch.
  auto& pool = ThreadPool::instance();
  pool.resize(2);
  const Device dev = Device::serial();
  const auto opts = small_chunks();
  const auto a = data::make("nyx", data::Size::Tiny, 1);
  const auto b = data::make("nyx", data::Size::Tiny, 2);
  const auto ca = pipeline::compress(dev, *comp(), a.data(), a.shape,
                                     a.dtype, opts);
  const auto cb = pipeline::compress(dev, *comp(), b.data(), b.shape,
                                     b.dtype, opts);
  const std::size_t rows0 = ca.chunk_rows[0];
  ASSERT_GE(rows0, 3u);
  ASSERT_EQ(cb.chunk_rows[0], rows0);
  ASSERT_GE(cb.chunk_rows[1], 2u);
  const std::size_t slab = a.size_bytes() / a.shape[0];

  const std::thread::id main_id = std::this_thread::get_id();
  Flag w_inside, go, m_ran_call2;
  StagedCodec codec1([&] {
    pool.parallel_for(2, [&](std::size_t) {
      if (ThreadPool::worker_id() != 0) {  // W: hold the batch open
        w_inside.set();
        m_ran_call2.wait();
        return;
      }
      w_inside.wait();
      const auto issued = pool.tickets_issued();
      go.set();
      const auto end =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (pool.tickets_issued() == issued &&
             std::chrono::steady_clock::now() < end)
        std::this_thread::yield();
    });
  });
  StagedCodec codec2([&] {
    if (std::this_thread::get_id() == main_id)
      m_ran_call2.set();
    else
      m_ran_call2.wait();  // leave one call-2 chunk for M
  });

  std::vector<std::uint8_t> out1(2 * slab), out2(rows0 * slab);
  std::thread t([&] {
    go.wait();
    pipeline::decompress_rows(dev, codec2, cb.stream, out2.data(), b.shape,
                              b.dtype, 1, rows0 + 1, opts);
  });
  pipeline::decompress_rows(dev, codec1, ca.stream, out1.data(), a.shape,
                            a.dtype, 1, 3, opts);
  t.join();
  ASSERT_TRUE(m_ran_call2.on.load()) << "the re-entrant schedule did not occur";

  std::vector<std::uint8_t> ref_a(a.size_bytes()), ref_b(b.size_bytes());
  pipeline::decompress(dev, *comp(), ca.stream, ref_a.data(), a.shape,
                       a.dtype, opts);
  pipeline::decompress(dev, *comp(), cb.stream, ref_b.data(), b.shape,
                       b.dtype, opts);
  EXPECT_EQ(0, std::memcmp(out1.data(), ref_a.data() + slab, out1.size()));
  EXPECT_EQ(0, std::memcmp(out2.data(), ref_b.data() + slab, out2.size()));
}

}  // namespace
}  // namespace hpdr
