// Tests for the parallel abstractions (§III-A), execution-model mapping
// (Table I), device adapters (Table II), and the CMM context cache.
#include <gtest/gtest.h>

#include <atomic>
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
  const Device dev = device();
  std::vector<std::atomic<int>> visits(103);
  iterative(dev, 103, 8, [&](std::size_t v) { visits[v].fetch_add(1); });
  for (auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST_P(AbstractionsOnDevice, MapAndProcessRoutesSubsets) {
  const Device dev = device();
  std::vector<Subset> subsets{{0, 0, 5}, {1, 5, 9}, {2, 9, 20}};
  std::vector<std::atomic<int>> level(20);
  map_and_process(dev, subsets, [&](const Subset& s, std::size_t i) {
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
  // grid all have to come out right.
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
  map_and_process(dev, subsets, [&](const Subset& s, std::size_t i) {
    visits[i].fetch_add(1);
    owner[i].store(s.id);
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
  map_and_process(dev, subsets, [&](const Subset&, std::size_t) { FAIL(); });
  map_and_process(dev, std::span<const Subset>{},
                  [&](const Subset&, std::size_t) { FAIL(); });
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

TEST_P(AbstractionsOnDevice, GlobalPipelineStagesAreOrdered) {
  const Device dev = device();
  std::vector<int> data(50, 0);
  global_pipeline(
      dev, data.size(), [&](std::size_t i) { data[i] = static_cast<int>(i); },
      [&](std::size_t i) { data[i] *= 2; });
  for (std::size_t i = 0; i < data.size(); ++i)
    EXPECT_EQ(data[i], static_cast<int>(2 * i));
}

TEST_P(AbstractionsOnDevice, EmptyDomainsAreNoOps) {
  const Device dev = device();
  locality(dev, Shape{0}, Shape{4}, [&](const Block&) { FAIL(); });
  iterative(dev, 0, 4, [&](std::size_t) { FAIL(); });
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


TEST_P(AbstractionsOnDevice, FusedStagesShareGroupScratch) {
  // Table II staging semantics: stages of one group share "shared memory"
  // and are separated by a group-level barrier; groups are independent.
  const Device dev = device();
  const std::size_t n = 64;
  std::vector<double> input(n), output(n, 0);
  for (std::size_t i = 0; i < n; ++i) input[i] = double(i);
  locality_fused(
      dev, Shape{n}, Shape{8}, /*scratch=*/8 * sizeof(double),
      // Stage 1: load the block into staging memory, doubled.
      [&](const Block& b, GroupCtx& ctx) {
        auto stage = ctx.scratch<double>(b.extent[0]);
        for (std::size_t i = 0; i < b.extent[0]; ++i)
          stage[i] = 2.0 * input[b.origin[0] + i];
      },
      // Stage 2: reverse the staged block into the output — only correct
      // if the scratch written by stage 1 is still visible.
      [&](const Block& b, GroupCtx& ctx) {
        auto stage = ctx.scratch<double>(b.extent[0]);
        for (std::size_t i = 0; i < b.extent[0]; ++i)
          output[b.origin[0] + i] = stage[b.extent[0] - 1 - i];
      });
  for (std::size_t g = 0; g < n / 8; ++g)
    for (std::size_t i = 0; i < 8; ++i)
      EXPECT_EQ(output[g * 8 + i], 2.0 * double(g * 8 + (7 - i)));
}

TEST_P(AbstractionsOnDevice, FusedScratchOverflowThrows) {
  const Device dev = device();
  // Serial device reports the error synchronously; parallel adapters may
  // surface it through their exception propagation — either way it throws.
  if (GetParam() != DeviceKind::Serial && GetParam() != DeviceKind::StdThread)
    GTEST_SKIP() << "OpenMP cannot propagate exceptions out of a region";
  EXPECT_THROW(locality_fused(dev, Shape{8}, Shape{8}, 4,
                              [&](const Block&, GroupCtx& ctx) {
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
    std::size_t calls = 0;
    EXPECT_THROW(
        map_and_process(dev, subsets,
                        [&](const Subset&, std::size_t) { ++calls; }),
        Error);
    EXPECT_EQ(calls, 0u);
  }
  {
    // Fired inside the first range (subset 0's 10 elements): the range
    // runs to its end, and the next range's poll throws.
    auto tok = fault::CancelToken::make();
    const fault::CancelScope scope(tok);
    std::size_t calls = 0;
    EXPECT_THROW(map_and_process(dev, subsets,
                                 [&](const Subset&, std::size_t) {
                                   if (++calls == 1) tok.cancel();
                                 }),
                 Error);
    EXPECT_EQ(calls, 10u);
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

TEST(AllocationStats, CountsAllocations) {
  auto& stats = AllocationStats::instance();
  stats.reset();
  stats.record_alloc(100);
  stats.record_alloc(200);
  stats.record_free();
  EXPECT_EQ(stats.allocations(), 2u);
  EXPECT_EQ(stats.bytes(), 300u);
  EXPECT_EQ(stats.frees(), 1u);
  stats.reset();
}

}  // namespace
}  // namespace hpdr
