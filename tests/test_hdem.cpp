// Tests for the HDEM discrete-event runtime (Fig. 8/9 semantics) and the
// roofline/transfer performance models (Fig. 11).
#include <gtest/gtest.h>

#include "machine/device_registry.hpp"
#include "runtime/hdem.hpp"
#include "runtime/perf_model.hpp"
#include "telemetry/span.hpp"

namespace hpdr {
namespace {

TEST(Hdem, SequentialSameEngineTasksDoNotOverlap) {
  HdemSimulator sim(3);
  sim.submit(0, EngineId::Compute, "a", 1.0);
  sim.submit(1, EngineId::Compute, "b", 1.0);  // other queue, same engine
  auto tl = sim.run();
  EXPECT_DOUBLE_EQ(tl.makespan(), 2.0);  // compute engine is exclusive
}

TEST(Hdem, DifferentEnginesOverlap) {
  HdemSimulator sim(3);
  sim.submit(0, EngineId::H2D, "copy", 1.0);
  sim.submit(1, EngineId::Compute, "kernel", 1.0);
  sim.submit(2, EngineId::D2H, "out", 1.0);
  auto tl = sim.run();
  EXPECT_DOUBLE_EQ(tl.makespan(), 1.0);  // three engines run concurrently
}

TEST(Hdem, QueueOrderIsFifo) {
  HdemSimulator sim(2);
  sim.submit(0, EngineId::H2D, "h2d", 1.0);
  sim.submit(0, EngineId::Compute, "k", 1.0);  // waits for queue-0 h2d
  auto tl = sim.run();
  EXPECT_DOUBLE_EQ(tl.tasks[1].start, 1.0);
  EXPECT_DOUBLE_EQ(tl.makespan(), 2.0);
}

TEST(Hdem, ExplicitDependenciesAreHonored) {
  HdemSimulator sim(3);
  auto a = sim.submit(0, EngineId::H2D, "a", 1.0);
  sim.submit(1, EngineId::Compute, "b", 1.0, {a});
  auto tl = sim.run();
  EXPECT_DOUBLE_EQ(tl.tasks[1].start, 1.0);
}

TEST(Hdem, ThreeStagePipelineHidesTransferLatency) {
  // Classic software pipeline: with three queues, steady-state makespan is
  // dominated by the slowest stage, not the sum of stages.
  HdemSimulator sim(3);
  const int n = 12;
  for (int c = 0; c < n; ++c) {
    const auto q = static_cast<std::uint32_t>(c % 3);
    sim.submit(q, EngineId::H2D, "h2d", 1.0);
    sim.submit(q, EngineId::Compute, "k", 1.0);
    sim.submit(q, EngineId::D2H, "d2h", 1.0);
  }
  auto tl = sim.run();
  // Ideal: 1 (fill) + n×1 (compute) + 1 (drain) = n + 2.
  EXPECT_NEAR(tl.makespan(), n + 2.0, 1e-9);
  EXPECT_GT(tl.overlap_ratio(), 0.85);
}

TEST(Hdem, NoOverlapWithoutPipelining) {
  HdemSimulator sim(1);
  for (int c = 0; c < 4; ++c) {
    sim.submit(0, EngineId::H2D, "h2d", 1.0);
    sim.submit(0, EngineId::Compute, "k", 1.0);
    sim.submit(0, EngineId::D2H, "d2h", 1.0);
  }
  auto tl = sim.run();
  EXPECT_DOUBLE_EQ(tl.makespan(), 12.0);
  EXPECT_DOUBLE_EQ(tl.overlap_ratio(), 0.0);
}

TEST(Hdem, EngineBusyAccounting) {
  HdemSimulator sim(2);
  sim.submit(0, EngineId::H2D, "a", 1.5);
  sim.submit(0, EngineId::H2D, "b", 0.5);
  sim.submit(1, EngineId::Compute, "c", 3.0);
  auto tl = sim.run();
  EXPECT_DOUBLE_EQ(tl.engine_busy(EngineId::H2D), 2.0);
  EXPECT_DOUBLE_EQ(tl.engine_busy(EngineId::Compute), 3.0);
  EXPECT_DOUBLE_EQ(tl.engine_busy(EngineId::D2H), 0.0);
}

TEST(Hdem, SimulatorIsReusableAfterRun) {
  HdemSimulator sim(3);
  sim.submit(0, EngineId::Compute, "a", 1.0);
  EXPECT_DOUBLE_EQ(sim.run().makespan(), 1.0);
  sim.submit(0, EngineId::Compute, "b", 2.0);
  EXPECT_DOUBLE_EQ(sim.run().makespan(), 2.0);
}

TEST(Hdem, InvalidSubmissionsThrow) {
  HdemSimulator sim(2);
  EXPECT_THROW(sim.submit(5, EngineId::H2D, "x", 1.0), Error);
  EXPECT_THROW(sim.submit(0, EngineId::H2D, "x", -1.0), Error);
  EXPECT_THROW(sim.submit(0, EngineId::H2D, "x", 1.0, {42}), Error);
}



TEST(Hdem, EmptyTimelineIsWellDefined) {
  HdemSimulator sim(3);
  auto tl = sim.run();
  EXPECT_EQ(tl.makespan(), 0.0);
  EXPECT_EQ(tl.overlap_ratio(), 0.0);
  EXPECT_EQ(tl.engine_busy(EngineId::H2D), 0.0);
  EXPECT_EQ(telemetry::merged_chrome_trace(&tl, {}).front(), '[');
}

TEST(Hdem, DefaultConstructedTimelineIsWellDefined) {
  // A Timeline that never saw a simulator must behave the same as an empty
  // run: all derived metrics are zero, none divide by zero.
  Timeline tl;
  EXPECT_EQ(tl.makespan(), 0.0);
  EXPECT_EQ(tl.overlap_ratio(), 0.0);
  EXPECT_EQ(tl.engine_busy(EngineId::H2D), 0.0);
  EXPECT_EQ(tl.engine_busy(EngineId::D2H), 0.0);
  EXPECT_EQ(tl.engine_busy(EngineId::Compute), 0.0);
}

TEST(Hdem, EngineNames) {
  EXPECT_STREQ(to_string(EngineId::H2D), "H2D");
  EXPECT_STREQ(to_string(EngineId::D2H), "D2H");
  EXPECT_STREQ(to_string(EngineId::Compute), "Compute");
}

// ---------------------------------------------------------------------------
// Performance models.
// ---------------------------------------------------------------------------

TEST(Roofline, PiecewiseShape) {
  auto m = RooflineModel::from_saturation(100.0, 50.0);
  EXPECT_DOUBLE_EQ(m.gbps(50.0), 100.0);
  EXPECT_DOUBLE_EQ(m.gbps(500.0), 100.0);
  EXPECT_LT(m.gbps(5.0), 100.0);
  EXPECT_GT(m.gbps(25.0), m.gbps(5.0));  // monotone ramp
}

TEST(Roofline, FitRecoversKneeAndSaturation) {
  // Synthetic profile: linear ramp to 80 GB/s at 64 MB, flat beyond.
  std::vector<ProfilePoint> pts;
  for (double mb : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0}) {
    const double gbps = mb < 64.0 ? 80.0 * mb / 64.0 : 80.0;
    pts.push_back({mb, gbps});
  }
  auto m = RooflineModel::fit(pts, 0.9);
  EXPECT_NEAR(m.gamma, 80.0, 1e-9);
  EXPECT_NEAR(m.threshold_mb, 64.0, 1e-9);
  EXPECT_NEAR(m.gbps(32.0), 40.0, 4.0);  // regression through the ramp
}

TEST(Roofline, SecondsInverseOfThroughput) {
  auto m = RooflineModel::from_saturation(10.0, 1.0);
  // 10 decimal GB at a saturated 10 GB/s is exactly 1 s.
  EXPECT_NEAR(m.seconds(std::size_t{10} * 1000 * 1000 * 1000), 1.0, 1e-6);
}

TEST(TransferModel, ThetaIsInverseOfSeconds) {
  TransferModel t{12.0, 10.0};
  const std::size_t bytes = std::size_t{1} << 30;
  const double s = t.seconds(bytes);
  EXPECT_NEAR(static_cast<double>(t.max_bytes(s)),
              static_cast<double>(bytes), 1e-3 * bytes);
  EXPECT_EQ(t.max_bytes(0.0), 0u);  // below latency → nothing fits
}

TEST(GpuPerfModel, KernelSecondsScaleWithBytes) {
  const Device v100 = machine::make_device("V100");
  GpuPerfModel m(v100.spec());
  // Both sizes in the saturated regime (V100 MGARD saturates at 768 MB).
  const double t1 =
      m.kernel_seconds(KernelClass::MgardCompress, std::size_t{1} << 30);
  const double t2 =
      m.kernel_seconds(KernelClass::MgardCompress, std::size_t{2} << 30);
  EXPECT_NEAR(t2 / t1, 2.0, 0.1);
  // Below the threshold the same doubling costs less than 2× (ramp).
  const double s1 =
      m.kernel_seconds(KernelClass::MgardCompress, std::size_t{64} << 20);
  const double s2 =
      m.kernel_seconds(KernelClass::MgardCompress, std::size_t{128} << 20);
  EXPECT_LT(s2 / s1, 1.99);
}

TEST(GpuPerfModel, AllocCostGrowsWithSize) {
  const Device v100 = machine::make_device("V100");
  GpuPerfModel m(v100.spec());
  EXPECT_GT(m.alloc_seconds(std::size_t{100} << 20),
            m.alloc_seconds(std::size_t{1} << 20));
  EXPECT_GT(m.alloc_seconds(0), 0.0);  // base cost
}

}  // namespace
}  // namespace hpdr
