// Tests for the chunked HDEM pipelines (§V, Figs. 9/10/13/14) and the
// adaptive chunk scheduler (Alg. 4).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "compressor/compressor.hpp"
#include "core/stats.hpp"
#include "data/generators.hpp"
#include "machine/device_registry.hpp"
#include "pipeline/adaptive.hpp"
#include "pipeline/pipeline.hpp"

namespace hpdr::pipeline {
namespace {

data::Dataset& nyx_tiny() {
  static data::Dataset ds = data::make("nyx", data::Size::Small);
  return ds;
}

TEST(AdaptiveSchedule, GrowsMonotonicallyToEquilibriumOrLimit) {
  // Alg. 4 grows C until a chunk's compute time equals its transfer time.
  // Two regimes: when the kernel's saturated rate γ is below the link rate
  // (V100 MGARD: 32 < 40 GB/s) the transfer always outruns the compute and
  // C grows to C_limit; when γ exceeds the link (ZFP), C converges to the
  // fixpoint Φ(C*) = BW_h2d.
  const Device v100 = machine::make_device("V100");
  GpuPerfModel m(v100.spec());
  const std::size_t limit = std::size_t{2} << 30;
  // Regime 1: compute-limited kernel → clamp at C_limit.
  std::size_t c = std::size_t{8} << 20;
  std::size_t prev = c;
  for (int i = 0; i < 64; ++i) {
    c = next_chunk_bytes(m, KernelClass::MgardCompress, c, limit);
    EXPECT_GE(c, prev);
    EXPECT_LE(c, limit);
    prev = c;
  }
  EXPECT_EQ(c, limit);
  // Regime 2: fast kernel → equilibrium where Φ(C*) ≈ BW.
  c = std::size_t{8} << 20;
  for (int i = 0; i < 64; ++i)
    c = next_chunk_bytes(m, KernelClass::ZfpEncode, c, limit);
  const double phi = m.kernel_model(KernelClass::ZfpEncode)
                         .gbps(static_cast<double>(c) / (1 << 20));
  EXPECT_NEAR(phi, v100.spec().h2d_gbps, v100.spec().h2d_gbps * 0.3);
}

TEST(AdaptiveSchedule, ClampsAtLimit) {
  const Device v100 = machine::make_device("V100");
  GpuPerfModel m(v100.spec());
  const std::size_t limit = std::size_t{16} << 20;  // below equilibrium
  std::size_t c = std::size_t{8} << 20;
  for (int i = 0; i < 10; ++i)
    c = next_chunk_bytes(m, KernelClass::MgardCompress, c, limit);
  EXPECT_EQ(c, limit);
}

TEST(AdaptiveSchedule, CoversTotalExactly) {
  const Device v100 = machine::make_device("V100");
  GpuPerfModel m(v100.spec());
  const std::size_t granule = 1 << 20;  // 1 MB slabs
  const std::size_t total = (std::size_t{333} << 20) + granule;  // odd size
  auto chunks = adaptive_schedule(m, KernelClass::ZfpEncode, total, granule,
                                  std::size_t{4} << 20,
                                  std::size_t{128} << 20);
  std::size_t sum = 0;
  for (auto c : chunks) sum += c;
  EXPECT_EQ(sum, total);
  EXPECT_GT(chunks.size(), 1u);
  // Chunks grow: each at least as large as its predecessor (except the
  // final remainder).
  for (std::size_t i = 1; i + 1 < chunks.size(); ++i)
    EXPECT_GE(chunks[i], chunks[i - 1]);
}

TEST(FixedSchedule, RoundsToGranule) {
  auto chunks = fixed_schedule(100, 8, 30);
  // chunk = 24 bytes (3 granules); 100 = 24+24+24+24+4.
  ASSERT_EQ(chunks.size(), 5u);
  EXPECT_EQ(chunks[0], 24u);
  EXPECT_EQ(chunks[4], 4u);
}

class PipelineRoundTrip : public ::testing::TestWithParam<Mode> {};

TEST_P(PipelineRoundTrip, MgardCompressDecompressWithinBound) {
  const Device dev = machine::make_device("V100");
  auto comp = make_compressor("mgard-x");
  const auto& ds = nyx_tiny();
  Options opts;
  opts.mode = GetParam();
  opts.param = 1e-3;
  opts.fixed_chunk_bytes = std::size_t{256} << 10;
  opts.init_chunk_bytes = std::size_t{64} << 10;
  opts.max_chunk_bytes = std::size_t{4} << 20;
  auto result =
      compress(dev, *comp, ds.data(), ds.shape, ds.dtype, opts);
  EXPECT_GT(result.ratio(), 1.5);
  std::vector<float> out(ds.elements());
  auto dres = decompress(dev, *comp, result.stream, out.data(), ds.shape,
                         ds.dtype, opts);
  EXPECT_GT(dres.model_seconds(), 0.0);
  auto stats = compute_error_stats(ds.as_f32(), std::span<const float>(out));
  EXPECT_LE(stats.max_rel_error, 1e-3 * 1.0001);
}

INSTANTIATE_TEST_SUITE_P(Modes, PipelineRoundTrip,
                         ::testing::Values(Mode::None, Mode::Fixed,
                                           Mode::Adaptive),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(Pipeline, OverlapRanking) {
  // Fig. 13's premise: pipelined modes beat Mode::None end-to-end, because
  // transfers overlap with compute. Needs MB-scale data so per-task
  // latencies don't dominate.
  const Device dev = machine::make_device("V100");
  auto comp = make_compressor("zfp-x");
  auto ds = data::make("nyx", data::Size::Medium);
  Options none;
  none.mode = Mode::None;
  none.param = 1e-3;
  Options fixed = none;
  fixed.mode = Mode::Fixed;
  fixed.fixed_chunk_bytes = std::size_t{1} << 20;
  Options adaptive = none;
  adaptive.mode = Mode::Adaptive;
  adaptive.init_chunk_bytes = std::size_t{512} << 10;
  adaptive.max_chunk_bytes = std::size_t{64} << 20;

  auto r_none = compress(dev, *comp, ds.data(), ds.shape, ds.dtype, none);
  auto r_fixed = compress(dev, *comp, ds.data(), ds.shape, ds.dtype, fixed);
  auto r_adapt =
      compress(dev, *comp, ds.data(), ds.shape, ds.dtype, adaptive);
  EXPECT_EQ(r_none.overlap(), 0.0);
  EXPECT_GT(r_fixed.overlap(), 0.3);
  EXPECT_LT(r_fixed.model_seconds(), r_none.model_seconds());
  EXPECT_LT(r_adapt.model_seconds(), r_none.model_seconds());
}

TEST(Pipeline, AdaptiveRestoresCompressionRatio) {
  // Fig. 14: small fixed chunks hurt MGARD's ratio; adaptive chunks grow
  // large and recover it.
  const Device dev = machine::make_device("V100");
  auto comp = make_compressor("mgard-x");
  auto ds = data::make("nyx", data::Size::Small);
  Options none;
  none.mode = Mode::None;
  none.param = 1e-2;
  Options small_fixed = none;
  small_fixed.mode = Mode::Fixed;
  small_fixed.fixed_chunk_bytes = std::size_t{64} << 10;  // tiny chunks
  Options adaptive = none;
  adaptive.mode = Mode::Adaptive;
  adaptive.init_chunk_bytes = std::size_t{128} << 10;
  adaptive.max_chunk_bytes = std::size_t{64} << 20;

  const double ratio_none =
      compress(dev, *comp, ds.data(), ds.shape, ds.dtype, none).ratio();
  const double ratio_small =
      compress(dev, *comp, ds.data(), ds.shape, ds.dtype, small_fixed)
          .ratio();
  const double ratio_adapt =
      compress(dev, *comp, ds.data(), ds.shape, ds.dtype, adaptive).ratio();
  EXPECT_LT(ratio_small, ratio_none);          // chunking costs ratio
  EXPECT_GT(ratio_adapt, ratio_small);         // adaptive recovers it
  EXPECT_GT(ratio_adapt / ratio_none, 0.8);    // within ~20 % of unchunked
}


TEST(Pipeline, ChunkLimitRespectsDeviceMemory) {
  // Alg. 4: C_limit is bounded by GPU memory. A 16 GB V100 shrunk to a
  // miniature with tiny memory must split even a modest tensor.
  DeviceSpec spec = machine::make_device("V100").spec();
  spec.memory_bytes = 512 << 10;  // 512 KiB device → ~85 KiB chunk cap
  const Device small_gpu{spec};
  auto comp = make_compressor("zfp-x");
  auto ds = data::make("nyx", data::Size::Small);  // 1 MiB
  Options opts;
  opts.mode = Mode::Adaptive;
  opts.param = 1e-2;
  opts.init_chunk_bytes = ds.size_bytes();  // ask for one huge chunk
  opts.max_chunk_bytes = ds.size_bytes();
  auto result = pipeline::compress(small_gpu, *comp, ds.data(), ds.shape,
                                   ds.dtype, opts);
  EXPECT_GE(result.chunk_rows.size(), 8u);  // forced into many chunks
  const std::size_t slab = ds.size_bytes() / ds.shape[0];
  for (auto rows : result.chunk_rows)
    EXPECT_LE(rows * slab, spec.memory_bytes / 6 + 4 * slab);
  // CPU devices are unconstrained (host memory is the model's 512 GB).
  auto host = pipeline::compress(Device::openmp(), *comp, ds.data(),
                                 ds.shape, ds.dtype, opts);
  EXPECT_EQ(host.chunk_rows.size(), 1u);
}

TEST(Pipeline, BaselinePaysAllocationTime) {
  const Device dev = machine::make_device("V100");
  auto hpdr_mgard = make_compressor("mgard-x");
  auto base_mgard = make_compressor("mgard-gpu");
  const auto& ds = nyx_tiny();
  Options opts;
  opts.mode = Mode::None;
  opts.param = 1e-3;
  auto r_x = compress(dev, *hpdr_mgard, ds.data(), ds.shape, ds.dtype, opts);
  auto r_gpu =
      compress(dev, *base_mgard, ds.data(), ds.shape, ds.dtype, opts);
  double alloc_x = 0, alloc_gpu = 0;
  for (const auto& t : r_x.timeline.tasks)
    if (t.label == "alloc") alloc_x += t.duration();
  for (const auto& t : r_gpu.timeline.tasks)
    if (t.label == "alloc") alloc_gpu += t.duration();
  EXPECT_EQ(alloc_x, 0.0);        // CMM: no per-call management
  EXPECT_GT(alloc_gpu, 0.0);      // baseline allocates every call
  EXPECT_GT(r_gpu.model_seconds(), r_x.model_seconds());
}

TEST(Pipeline, LaunchReorderingHelpsReconstruction) {
  const Device dev = machine::make_device("V100");
  auto comp = make_compressor("zfp-x");
  const auto& ds = nyx_tiny();
  Options opts;
  opts.mode = Mode::Fixed;
  opts.param = 1e-3;
  opts.fixed_chunk_bytes = std::size_t{128} << 10;
  auto cres = compress(dev, *comp, ds.data(), ds.shape, ds.dtype, opts);
  std::vector<float> out(ds.elements());
  Options reordered = opts;
  reordered.reorder_launches = true;
  Options plain = opts;
  plain.reorder_launches = false;
  auto r1 = decompress(dev, *comp, cres.stream, out.data(), ds.shape,
                       ds.dtype, reordered);
  auto r2 = decompress(dev, *comp, cres.stream, out.data(), ds.shape,
                       ds.dtype, plain);
  // Reversal never hurts.
  EXPECT_LE(r1.model_seconds(), r2.model_seconds() * 1.0001);
}

TEST(Pipeline, InspectReportsGeometry) {
  const Device dev = machine::make_device("V100");
  auto comp = make_compressor("zfp-x");
  const auto& ds = nyx_tiny();
  Options opts;
  opts.mode = Mode::Fixed;
  opts.param = 1e-2;
  opts.fixed_chunk_bytes = std::size_t{256} << 10;
  auto result = compress(dev, *comp, ds.data(), ds.shape, ds.dtype, opts);
  auto info = inspect(result.stream);
  EXPECT_EQ(info.shape, ds.shape);
  EXPECT_EQ(info.dtype, ds.dtype);
  EXPECT_EQ(info.compressor, "zfp-x");
  EXPECT_EQ(info.num_chunks, result.chunk_rows.size());
  EXPECT_GT(info.num_chunks, 1u);
}

TEST(Pipeline, WrongCompressorForStreamThrows) {
  const Device dev = machine::make_device("V100");
  auto zfp = make_compressor("zfp-x");
  auto mgard = make_compressor("mgard-x");
  const auto& ds = nyx_tiny();
  Options opts;
  opts.param = 1e-2;
  auto result = compress(dev, *zfp, ds.data(), ds.shape, ds.dtype, opts);
  std::vector<float> out(ds.elements());
  EXPECT_THROW(decompress(dev, *mgard, result.stream, out.data(), ds.shape,
                          ds.dtype, opts),
               Error);
}

TEST(Pipeline, CpuDeviceWorksWithZeroTransferTime) {
  const Device cpu = Device::openmp();
  auto comp = make_compressor("mgard-x");
  const auto& ds = nyx_tiny();
  Options opts;
  opts.mode = Mode::None;
  opts.param = 1e-2;
  auto result = compress(cpu, *comp, ds.data(), ds.shape, ds.dtype, opts);
  EXPECT_DOUBLE_EQ(result.timeline.engine_busy(EngineId::H2D), 0.0);
  std::vector<float> out(ds.elements());
  decompress(cpu, *comp, result.stream, out.data(), ds.shape, ds.dtype,
             opts);
  auto stats = compute_error_stats(ds.as_f32(), std::span<const float>(out));
  EXPECT_LE(stats.max_rel_error, 1e-2);
}


TEST(Pipeline, HostDevicesBillNoModeledTime) {
  // Only a SimGpu device bills the HDEM DAG. A host call carries no
  // modeled time: an empty timeline, zero model fields in its chunk
  // decisions, and the same stream a V100 call writes.
  auto comp = make_compressor("mgard-x");
  const auto& ds = nyx_tiny();
  Options opts;
  opts.mode = Mode::Fixed;
  opts.param = 1e-2;
  opts.fixed_chunk_bytes = std::size_t{256} << 10;
  const Device v100 = machine::make_device("V100");
  const auto gpu = compress(v100, *comp, ds.data(), ds.shape, ds.dtype, opts);
  ASSERT_FALSE(gpu.timeline.tasks.empty());
  ASSERT_GT(gpu.model_seconds(), 0.0);
  ASSERT_GT(gpu.decisions.size(), 1u);
  EXPECT_GT(gpu.decisions[0].predicted_compute_s, 0.0);
  std::vector<float> out(ds.elements());
  EXPECT_GT(decompress(v100, *comp, gpu.stream, out.data(), ds.shape,
                       ds.dtype, opts)
                .model_seconds(),
            0.0);
  for (const Device& host :
       {Device::serial(), Device::openmp(), Device::std_thread()}) {
    SCOPED_TRACE(host.name());
    const auto c = compress(host, *comp, ds.data(), ds.shape, ds.dtype, opts);
    EXPECT_EQ(c.stream, gpu.stream);
    EXPECT_TRUE(c.timeline.tasks.empty());
    EXPECT_EQ(c.model_seconds(), 0.0);
    EXPECT_EQ(c.model_gbps(), 0.0);
    EXPECT_EQ(c.overlap(), 0.0);
    ASSERT_EQ(c.decisions.size(), gpu.decisions.size());
    for (const auto& d : c.decisions) {
      EXPECT_EQ(d.predicted_compute_s, 0.0);
      EXPECT_EQ(d.predicted_h2d_s, 0.0);
      EXPECT_EQ(d.realized_compute_s, 0.0);
      EXPECT_EQ(d.realized_h2d_s, 0.0);
    }
    const auto d = decompress(host, *comp, c.stream, out.data(), ds.shape,
                              ds.dtype, opts);
    EXPECT_TRUE(d.timeline.tasks.empty());
    EXPECT_EQ(d.model_seconds(), 0.0);
    EXPECT_EQ(d.model_gbps(), 0.0);
  }
}

TEST(Compressors, AllRegisteredNamesRoundTrip) {
  const Device dev = machine::make_device("V100");
  auto ds = data::make("nyx", data::Size::Tiny);
  Options opts;
  opts.mode = Mode::None;
  opts.param = 1e-2;
  for (const auto& name : compressor_names()) {
    auto comp = make_compressor(name);
    auto result = compress(dev, *comp, ds.data(), ds.shape, ds.dtype, opts);
    std::vector<float> out(ds.elements());
    decompress(dev, *comp, result.stream, out.data(), ds.shape, ds.dtype,
               opts);
    auto stats =
        compute_error_stats(ds.as_f32(), std::span<const float>(out));
    if (comp->lossless()) {
      EXPECT_EQ(stats.max_abs_error, 0.0) << name;
    } else {
      EXPECT_LE(stats.max_rel_error, 1e-2 * 1.001) << name;
    }
  }
}

TEST(Compressors, RegistryHoldsExactlyThePaperPipelines) {
  // The paper's seven pipelines: three on HPDR, four baselines. A stream
  // naming any other codec, such as `sz3-interp`, is rejected wherever a
  // decoder resolves its codec by name.
  EXPECT_EQ(compressor_names(),
            (std::vector<std::string>{"mgard-x", "zfp-x", "huffman-x",
                                      "mgard-gpu", "zfp-cuda", "cusz",
                                      "nvcomp-lz4"}));
  EXPECT_THROW(make_compressor("sz3-interp"), Error);
}

TEST(Compressors, RateFromEbMonotone) {
  EXPECT_LT(rate_from_eb(1e-2, DType::F32), rate_from_eb(1e-4, DType::F32));
  EXPECT_LE(rate_from_eb(1e-12, DType::F32), 32.0);
  EXPECT_LE(rate_from_eb(1e-15, DType::F64), 64.0);
  EXPECT_GE(rate_from_eb(0.5, DType::F32), 4.0);
}

}  // namespace
}  // namespace hpdr::pipeline
