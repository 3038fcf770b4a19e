// Tests for the cluster simulation layer: multi-GPU contention (Fig. 16
// mechanics), weak-scaling aggregation (Fig. 15), and the I/O-at-scale
// composition (Figs. 17-18).
#include <gtest/gtest.h>

#include "data/generators.hpp"
#include "machine/device_registry.hpp"
#include "sim/cluster.hpp"
#include "sim/multigpu.hpp"
#include "sim/scaling.hpp"

namespace hpdr::sim {
namespace {

const data::Dataset& nyx() {
  static data::Dataset ds = data::make("nyx", data::Size::Tiny);
  return ds;
}

// MB-scale tensor for the timing-sensitive tests: per-task latencies must
// not dominate the pipeline or scalability numbers degenerate.
const data::Dataset& nyx_small() {
  static data::Dataset ds = data::make("nyx", data::Size::Small);
  return ds;
}

pipeline::Options small_opts(pipeline::Mode mode, double eb = 1e-2) {
  pipeline::Options o;
  o.mode = mode;
  o.param = eb;
  o.fixed_chunk_bytes = 32 << 10;
  o.init_chunk_bytes = 16 << 10;
  o.max_chunk_bytes = 1 << 20;
  return o;
}

TEST(Clusters, MatchPaperConfigurations) {
  auto s = summit();
  EXPECT_EQ(s.node.gpus_per_node, 6);   // 6 V100 per node
  EXPECT_EQ(s.node.gpu, "V100");
  EXPECT_EQ(s.max_nodes, 4608);
  EXPECT_EQ(s.aggregation, Aggregation::WriterPerNode);
  EXPECT_EQ(s.writers(512), 512);

  auto f = frontier();
  EXPECT_EQ(f.node.gpus_per_node, 4);   // 4 MI250X per node
  EXPECT_EQ(f.node.gpu, "MI250X");
  EXPECT_EQ(f.max_nodes, 9408);
  EXPECT_EQ(f.aggregation, Aggregation::WriterPerGpu);
  EXPECT_EQ(f.writers(1024), 4096);
  EXPECT_EQ(f.gpus(1024), 4096);

  EXPECT_EQ(jetstream2().node.gpu, "A100");
  EXPECT_EQ(workstation().node.gpu, "RTX3090");
}

TEST(MultiGpu, CmmPipelineScalesNearIdeal) {
  const Device v100 = machine::make_device("V100");
  auto comp = make_compressor("mgard-x");
  auto opts = small_opts(pipeline::Mode::Adaptive);
  opts.init_chunk_bytes = 128 << 10;
  opts.max_chunk_bytes = 4 << 20;
  auto sweep = sweep_node(v100, 6, *comp, opts, nyx_small().data(),
                          nyx_small().shape, nyx_small().dtype,
                          /*compress=*/true, /*timesteps=*/2);
  EXPECT_GE(sweep.average_scalability, 0.90);  // paper: 96 %
  // Monotone: scalability degrades (weakly) as GPUs are added.
  for (std::size_t i = 1; i < sweep.points.size(); ++i)
    EXPECT_LE(sweep.points[i].scalability,
              sweep.points[i - 1].scalability + 1e-9);
}

TEST(MultiGpu, NonCmmBaselinesLoseScalability) {
  const Device v100 = machine::make_device("V100");
  auto mgard_x = make_compressor("mgard-x");
  auto mgard_gpu = make_compressor("mgard-gpu");
  auto zfp_cuda = make_compressor("zfp-cuda");
  auto opts = small_opts(pipeline::Mode::None);
  auto sx = sweep_node(v100, 6, *mgard_x, opts, nyx().data(), nyx().shape,
                       nyx().dtype, true, 2);
  auto sg = sweep_node(v100, 6, *mgard_gpu, opts, nyx().data(), nyx().shape,
                       nyx().dtype, true, 2);
  auto sz = sweep_node(v100, 6, *zfp_cuda, opts, nyx().data(), nyx().shape,
                       nyx().dtype, true, 2);
  // Fig. 16 ordering: HPDR ≫ MGARD-GPU > ZFP-CUDA (faster kernels make the
  // serialized allocations relatively more expensive).
  EXPECT_GT(sx.average_scalability, sg.average_scalability);
  EXPECT_GT(sg.average_scalability, sz.average_scalability);
  EXPECT_LT(sg.average_scalability, 0.93);
}

TEST(MultiGpu, AggregateThroughputGrowsWithGpus) {
  const Device v100 = machine::make_device("V100");
  auto comp = make_compressor("mgard-x");
  auto opts = small_opts(pipeline::Mode::Adaptive);
  double prev = 0;
  for (int n : {1, 2, 4, 6}) {
    auto r = run_node(v100, n, *comp, opts, nyx().data(), nyx().shape,
                      nyx().dtype, true, 2);
    EXPECT_GT(r.aggregate_gbps, prev);
    prev = r.aggregate_gbps;
    EXPECT_LE(r.scalability, 1.0 + 1e-9);
  }
}


TEST(MultiGpu, SweepProducesOnePointPerGpuCount) {
  const Device v100 = machine::make_device("V100");
  auto comp = make_compressor("mgard-x");
  auto sweep = sweep_node(v100, 3, *comp, small_opts(pipeline::Mode::None),
                          nyx().data(), nyx().shape, nyx().dtype, true, 1);
  ASSERT_EQ(sweep.points.size(), 3u);
  EXPECT_EQ(sweep.points[0].ngpus, 1);
  EXPECT_EQ(sweep.points[2].ngpus, 3);
  EXPECT_DOUBLE_EQ(sweep.points[0].scalability, 1.0);
}

TEST(MultiGpu, RunNodeRejectsHostDevice) {
  // Scalability divides by the modeled makespan, which a host device does
  // not bill.
  auto comp = make_compressor("mgard-x");
  EXPECT_THROW(run_node(Device::serial(), 1, *comp,
                        small_opts(pipeline::Mode::None), nyx().data(),
                        nyx().shape, nyx().dtype, true, 1),
               Error);
}

TEST(Simulation, DeterministicAcrossRuns) {
  // The whole simulation stack is deterministic: repeated runs produce
  // byte-identical results (required for reproducible experiments).
  const Device v100 = machine::make_device("V100");
  auto comp = make_compressor("mgard-x");
  auto opts = small_opts(pipeline::Mode::Adaptive);
  auto a = pipeline::compress(v100, *comp, nyx().data(), nyx().shape,
                              nyx().dtype, opts);
  auto b = pipeline::compress(v100, *comp, nyx().data(), nyx().shape,
                              nyx().dtype, opts);
  EXPECT_EQ(a.stream, b.stream);
  EXPECT_DOUBLE_EQ(a.model_seconds(), b.model_seconds());
  EXPECT_DOUBLE_EQ(a.overlap(), b.overlap());
}

TEST(ScaledReplica, PreservesDimensionlessShape) {
  // A miniature device must keep ratio-type quantities: the ramp knee
  // scales with the factor, the saturated throughput does not.
  const Device full = machine::make_device("V100");
  const Device mini = machine::scaled_replica("V100", 0.01);
  const auto f =
      machine::kernel_calibration(full.spec(), KernelClass::MgardCompress);
  const auto m =
      machine::kernel_calibration(mini.spec(), KernelClass::MgardCompress);
  EXPECT_DOUBLE_EQ(m.gamma, f.gamma);
  EXPECT_NEAR(m.threshold_mb, f.threshold_mb * 0.01, 1e-9);
  EXPECT_NEAR(mini.spec().copy_latency_us, full.spec().copy_latency_us * 0.01,
              1e-12);
  EXPECT_THROW(machine::scaled_replica("V100", 0.0), Error);
  EXPECT_THROW(machine::scaled_replica("V100", 2.0), Error);
}

TEST(WeakScaling, AggregateGrowsNearLinearly) {
  auto cfg = summit();
  auto comp = make_compressor("mgard-x");
  auto opts = small_opts(pipeline::Mode::Adaptive);
  auto r64 = weak_scale_reduction(cfg, 64, *comp, opts, nyx().data(),
                                  nyx().shape, nyx().dtype, 2);
  auto r512 = weak_scale_reduction(cfg, 512, *comp, opts, nyx().data(),
                                   nyx().shape, nyx().dtype, 2);
  EXPECT_EQ(r512.gpus, 3072);  // paper: 3,072 V100s at 512 nodes
  const double growth = r512.compress_gbps / r64.compress_gbps;
  EXPECT_GT(growth, 6.5);  // 8× nodes, ≥ ~81 % efficiency
  EXPECT_LE(growth, 8.0);
  EXPECT_GT(r512.decompress_gbps, 0.0);
}

TEST(IoScaling, ReductionAcceleratesIo) {
  auto cfg = frontier();
  auto comp = make_compressor("mgard-x");
  // Realistic pipeline options: the adaptive scheduler must be allowed to
  // grow chunks to GPU-saturating sizes at the 7.5 GB/GPU workload.
  pipeline::Options opts;
  opts.mode = pipeline::Mode::Adaptive;
  opts.param = 1e-2;
  auto r = scale_io(cfg, 64, *comp, opts, nyx().data(), nyx().shape,
                    nyx().dtype, std::size_t{7} << 30);
  EXPECT_GT(r.ratio, 5.0);
  EXPECT_GT(r.write_acceleration(), 1.5);
  EXPECT_GT(r.read_acceleration(), 1.0);
  EXPECT_LT(r.stored_bytes_total, r.raw_bytes_total);
}

TEST(IoScaling, SlowBaselineCanAddOverhead) {
  // Fig. 17's LZ4 result: ~1.1× ratio with compute overhead means no
  // acceleration (extra cost instead).
  auto cfg = summit();
  auto comp = make_compressor("nvcomp-lz4");
  auto opts = small_opts(pipeline::Mode::None);
  auto r = scale_io(cfg, 64, *comp, opts, nyx().data(), nyx().shape,
                    nyx().dtype, std::size_t{7} << 30);
  EXPECT_LT(r.ratio, 2.0);
  EXPECT_LT(r.write_acceleration(), 1.2);
}

TEST(IoScaling, StrongScalingSplitsData) {
  auto cfg = frontier();
  auto comp = make_compressor("mgard-x");
  auto opts = small_opts(pipeline::Mode::Adaptive, 1e-4);
  const std::size_t total = std::size_t{32} << 40;  // 32 TB (E3SM test)
  auto r512 = strong_scale_io(cfg, 512, *comp, opts, nyx().data(),
                              nyx().shape, nyx().dtype, total);
  auto r2048 = strong_scale_io(cfg, 2048, *comp, opts, nyx().data(),
                               nyx().shape, nyx().dtype, total);
  EXPECT_EQ(r512.raw_bytes_total, r2048.raw_bytes_total);
  // More nodes → less data per GPU → shorter compression time.
  EXPECT_LT(r2048.compress_seconds, r512.compress_seconds);
}

TEST(IoScaling, OutOfRangeNodesThrow) {
  auto cfg = workstation();
  auto comp = make_compressor("mgard-x");
  EXPECT_THROW(weak_scale_reduction(cfg, 2, *comp, {}, nyx().data(),
                                    nyx().shape, nyx().dtype),
               Error);
}

}  // namespace
}  // namespace hpdr::sim
