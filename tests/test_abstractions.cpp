// Tests for the parallel abstractions (§III-A), execution-model mapping
// (Table I), device adapters (Table II), and the CMM context cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <random>
#include <set>

#include "adapter/abstractions.hpp"
#include "adapter/device.hpp"
#include "algorithms/huffman/huffman.hpp"
#include "fault/cancel.hpp"
#include "machine/context_memory.hpp"
#include "machine/device_registry.hpp"

namespace hpdr {
namespace {

class AbstractionsOnDevice : public ::testing::TestWithParam<DeviceKind> {
 protected:
  Device device() const {
    switch (GetParam()) {
      case DeviceKind::Serial:
        return Device::serial();
      case DeviceKind::OpenMP:
        return Device::openmp();
      case DeviceKind::SimGpu:
        return machine::make_device("V100");
      case DeviceKind::StdThread:
        return Device::std_thread();
    }
    return Device::serial();
  }
};

TEST_P(AbstractionsOnDevice, LocalityCoversDomainExactlyOnce) {
  const Device dev = device();
  Shape domain{10, 7};
  Shape block{4, 3};
  std::vector<std::atomic<int>> visits(domain.size());
  locality(dev, domain, block, [&](const Block& b) {
    for (std::size_t i = 0; i < b.extent[0]; ++i)
      for (std::size_t j = 0; j < b.extent[1]; ++j) {
        const std::size_t flat =
            (b.origin[0] + i) * domain[1] + (b.origin[1] + j);
        visits[flat].fetch_add(1);
      }
  });
  for (auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST_P(AbstractionsOnDevice, LocalityClipsBoundaryBlocks) {
  const Device dev = device();
  std::vector<Block> blocks(6);
  locality(dev, Shape{10}, Shape{4},
           [&](const Block& b) { blocks[b.index] = b; });
  ASSERT_EQ(blocks[2].extent[0], 2u);  // 10 = 4 + 4 + 2
  EXPECT_EQ(blocks[2].origin[0], 8u);
}

TEST_P(AbstractionsOnDevice, IterativeVisitsEveryVector) {
  // 103 vectors in groups of 8: twelve full groups and one of 7, each
  // handed its whole range and a staging arena. Arenas belong to workers,
  // not groups: one call uses at most one per worker.
  const Device dev = device();
  std::vector<std::atomic<int>> visits(103);
  std::mutex mu;
  std::set<const std::byte*> arenas;
  iterative_staged(dev, 103, 8, 8 * sizeof(double),
                   [&](std::size_t begin, std::size_t end, GroupCtx& ctx) {
                     EXPECT_EQ(begin % 8, 0u);
                     EXPECT_EQ(end, std::min<std::size_t>(begin + 8, 103));
                     EXPECT_EQ(ctx.capacity(), 8 * sizeof(double));
                     // Repeated views share the group's storage.
                     EXPECT_EQ(ctx.scratch<double>(8).data(),
                               ctx.scratch<double>(4).data());
                     {
                       const std::lock_guard<std::mutex> lock(mu);
                       arenas.insert(ctx.scratch<std::byte>(1).data());
                     }
                     for (std::size_t v = begin; v < end; ++v)
                       visits[v].fetch_add(1);
                   });
  for (auto& v : visits) EXPECT_EQ(v.load(), 1);
  EXPECT_LE(arenas.size(), detail::worker_slots(dev));
}

TEST_P(AbstractionsOnDevice, MapAndProcessRoutesSubsets) {
  const Device dev = device();
  std::vector<Subset> subsets{{0, 0, 5}, {1, 5, 9}, {2, 9, 20}};
  std::vector<std::atomic<int>> level(20);
  map_and_process(dev, subsets,
                  [&](const Subset& s, std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i)
                      level[i].store(static_cast<int>(s.id) + 1);
                  });
  for (std::size_t i = 0; i < 20; ++i) {
    const int expect = i < 5 ? 1 : i < 9 ? 2 : 3;
    EXPECT_EQ(level[i].load(), expect) << i;
  }
}

TEST_P(AbstractionsOnDevice, MapAndProcessVisitsEveryIndexOnceWithItsSubset) {
  // Ranges are cut at kCancelStride from each subset's start, so a subset
  // longer than the stride, empty subsets, and boundaries off the stride
  // grid all have to come out right. Every range is non-empty, at most
  // kCancelStride long, and inside the subset it is handed with.
  const Device dev = device();
  constexpr std::size_t kStride = detail::kCancelStride;
  const std::vector<std::size_t> sizes{0, 5, 0, 3 * kStride + 7, 1,
                                       kStride,  kStride - 1, 0, 1500};
  std::vector<Subset> subsets;
  std::size_t total = 0;
  for (std::size_t id = 0; id < sizes.size(); ++id) {
    subsets.push_back({id, total, total + sizes[id]});
    total += sizes[id];
  }
  std::vector<std::atomic<int>> visits(total);
  std::vector<std::atomic<std::size_t>> owner(total);
  map_and_process(dev, subsets,
                  [&](const Subset& s, std::size_t begin, std::size_t end) {
                    EXPECT_LT(begin, end);
                    EXPECT_LE(end - begin, kStride);
                    EXPECT_LE(s.begin, begin);
                    EXPECT_LE(end, s.end);
                    for (std::size_t i = begin; i < end; ++i) {
                      visits[i].fetch_add(1);
                      owner[i].store(s.id);
                    }
                  });
  for (const Subset& s : subsets)
    for (std::size_t i = s.begin; i < s.end; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << i;
      EXPECT_EQ(owner[i].load(), s.id) << i;
    }
}

TEST_P(AbstractionsOnDevice, MapAndProcessOverEmptySubsetsIsANoOp) {
  const Device dev = device();
  std::vector<Subset> subsets{{0, 0, 0}, {1, 0, 0}};
  map_and_process(dev, subsets,
                  [&](const Subset&, std::size_t, std::size_t) { FAIL(); });
  map_and_process(dev, std::span<const Subset>{},
                  [&](const Subset&, std::size_t, std::size_t) { FAIL(); });
}

TEST_P(AbstractionsOnDevice, HistogramIsTheSameTableOnEveryAdapter) {
  const Device dev = device();
  constexpr std::size_t kChunk = huffman::kEncodeChunk;
  std::mt19937_64 rng(29);
  for (const std::size_t alphabet : {std::size_t{256}, std::size_t{65538}})
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, kChunk - 1,
                                kChunk, 3 * kChunk + 5}) {
      std::vector<std::uint32_t> symbols(n);
      std::vector<std::uint64_t> expect(alphabet, 0);
      for (auto& s : symbols) {
        // Half the symbols on one hot value, as quantized codes are.
        s = (rng() & 1) ? static_cast<std::uint32_t>(alphabet / 2)
                        : static_cast<std::uint32_t>(rng() % alphabet);
        ++expect[s];
      }
      EXPECT_EQ(huffman::histogram_u32(dev, symbols, alphabet), expect)
          << "alphabet " << alphabet << ", " << n << " symbols";
    }
}

TEST_P(AbstractionsOnDevice, HistogramRejectsOutOfAlphabetSymbol) {
  // The per-symbol check throws on every adapter, wherever the bad symbol
  // sits among the workers' slices.
  const Device dev = device();
  const std::size_t n = 3 * huffman::kEncodeChunk + 5;
  for (const std::size_t at : {std::size_t{0}, n / 2, n - 1}) {
    std::vector<std::uint32_t> symbols(n, 7);
    symbols[at] = 256;
    EXPECT_THROW(huffman::histogram_u32(dev, symbols, 256), Error) << at;
  }
  const std::vector<std::uint32_t> one{65538};
  EXPECT_THROW(huffman::histogram_u32(dev, one, 65538), Error);
}

TEST_P(AbstractionsOnDevice, EmptyDomainsAreNoOps) {
  const Device dev = device();
  locality(dev, Shape{0}, Shape{4}, [&](const Block&) { FAIL(); });
  iterative_staged(dev, 0, 4, 0,
                   [&](std::size_t, std::size_t, GroupCtx&) { FAIL(); });
  global_stage(dev, 0, [&](std::size_t) { FAIL(); });
}

INSTANTIATE_TEST_SUITE_P(AllAdapters, AbstractionsOnDevice,
                         ::testing::Values(DeviceKind::Serial,
                                           DeviceKind::OpenMP,
                                           DeviceKind::SimGpu,
                                           DeviceKind::StdThread),
                         [](const auto& info) {
                           return to_string(info.param);
                         });


TEST_P(AbstractionsOnDevice, GroupScratchOverflowThrows) {
  // Serial reports the error synchronously; the pool rethrows a worker's
  // first throw, and run_indexed carries one out of the OpenMP region.
  const Device dev = device();
  EXPECT_THROW(iterative_staged(dev, 8, 8, 4,
                                [&](std::size_t, std::size_t, GroupCtx& ctx) {
                                  ctx.scratch<double>(100);
                                }),
               Error);
}

TEST(MapAndProcessCancel, FiredTokenStopsSerialRun) {
  // A token fired before launch throws on the Serial adapter, however
  // many stride-sized ranges the subsets cut into.
  const Device dev = Device::serial();
  const std::size_t n = 4 * detail::kCancelStride + 3;
  const std::vector<Subset> subsets{{0, 0, 10}, {1, 10, n}};
  {
    auto tok = fault::CancelToken::make();
    const fault::CancelScope scope(tok);
    tok.cancel();
    std::size_t visited = 0;
    EXPECT_THROW(
        map_and_process(dev, subsets,
                        [&](const Subset&, std::size_t begin,
                            std::size_t end) { visited += end - begin; }),
        Error);
    EXPECT_EQ(visited, 0u);
  }
  {
    // Fired inside the first range (subset 0's 10 elements): the range
    // runs to its end, and the next range's poll throws.
    auto tok = fault::CancelToken::make();
    const fault::CancelScope scope(tok);
    std::size_t visited = 0;
    EXPECT_THROW(map_and_process(dev, subsets,
                                 [&](const Subset&, std::size_t begin,
                                     std::size_t end) {
                                   if (visited == 0) tok.cancel();
                                   visited += end - begin;
                                 }),
                 Error);
    EXPECT_EQ(visited, 10u);
  }
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  auto& pool = ThreadPool::instance();
  std::vector<std::atomic<int>> hits(10007);
  pool.parallel_for(hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, PropagatesExceptions) {
  auto& pool = ThreadPool::instance();
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 37)
                                     throw Error("boom");
                                 }),
               Error);
  // The pool remains usable afterwards.
  std::atomic<int> count{0};
  pool.parallel_for(50, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, ZeroAndOneElement) {
  auto& pool = ThreadPool::instance();
  pool.parallel_for(0, [&](std::size_t) { FAIL(); });
  int seen = -1;
  pool.parallel_for(1, [&](std::size_t i) { seen = int(i); });
  EXPECT_EQ(seen, 0);
}

TEST(ExecutionModels, TableOneMapping) {
  // Table I of the paper: Locality/Iterative → GEM, Map&Process/Global → DEM.
  EXPECT_EQ(execution_model_of(Abstraction::Locality), ExecutionModel::GEM);
  EXPECT_EQ(execution_model_of(Abstraction::Iterative), ExecutionModel::GEM);
  EXPECT_EQ(execution_model_of(Abstraction::MapAndProcess),
            ExecutionModel::DEM);
  EXPECT_EQ(execution_model_of(Abstraction::Global), ExecutionModel::DEM);
}

TEST(DeviceRegistry, KnownDevicesConstruct) {
  for (const auto& name : machine::known_devices()) {
    const Device d = machine::make_device(name);
    EXPECT_EQ(d.name() == "serial" ? "serial" : d.name(), d.name());
    EXPECT_GE(d.spec().compute_units, 1);
  }
  EXPECT_THROW(machine::make_device("TPU"), Error);
}

TEST(DeviceRegistry, Figure12ProcessorsAreFiveWithGpusAndCpu) {
  auto procs = machine::figure12_processors();
  ASSERT_EQ(procs.size(), 5u);
  int gpus = 0, cpus = 0;
  for (const auto& p : procs) {
    const Device d = machine::make_device(p);
    (d.spec().is_gpu() ? gpus : cpus)++;
  }
  EXPECT_EQ(gpus, 4);
  EXPECT_EQ(cpus, 1);
}

TEST(DeviceRegistry, GpuCalibrationMatchesPaperOrdering) {
  // Table II / Fig. 12: ZFP fastest, then Huffman, then MGARD, per GPU.
  for (const auto& name : {"V100", "A100", "MI250X", "RTX3090"}) {
    const Device d = machine::make_device(name);
    const auto mg =
        machine::kernel_calibration(d.spec(), KernelClass::MgardCompress);
    const auto zf =
        machine::kernel_calibration(d.spec(), KernelClass::ZfpEncode);
    const auto hf =
        machine::kernel_calibration(d.spec(), KernelClass::HuffmanEncode);
    EXPECT_GT(zf.gamma, hf.gamma) << name;
    EXPECT_GT(hf.gamma, mg.gamma) << name;
  }
}

TEST(ContextCache, HitsAfterFirstMiss) {
  ContextCache cache;
  ContextKey key{"alg", 42, 0, 1e-3, "V100"};
  int builds = 0;
  auto make = [&]() {
    ++builds;
    return std::make_shared<int>(7);
  };
  auto a = cache.get_or_create<int>(key, make);
  auto b = cache.get_or_create<int>(key, make);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ContextCache, DistinctKeysBuildDistinctContexts) {
  ContextCache cache;
  ContextKey k1{"alg", 1, 0, 1e-3, "V100"};
  ContextKey k2{"alg", 1, 0, 1e-4, "V100"};  // different error bound
  auto a = cache.get_or_create<int>(k1, [] { return std::make_shared<int>(1); });
  auto b = cache.get_or_create<int>(k2, [] { return std::make_shared<int>(2); });
  EXPECT_NE(*a, *b);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ContextCache, TypeMismatchThrows) {
  ContextCache cache;
  ContextKey key{"alg", 9, 0, 0.0, "cpu"};
  cache.get_or_create<int>(key, [] { return std::make_shared<int>(1); });
  EXPECT_THROW(cache.get_or_create<double>(
                   key, [] { return std::make_shared<double>(1.0); }),
               Error);
}

}  // namespace
}  // namespace hpdr
