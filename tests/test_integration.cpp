// Cross-layer integration tests: whole workflows through generator →
// pipeline → container → I/O → reconstruction, and consistency properties
// of the simulation stack that no single-module test covers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "hpdr.hpp"

namespace hpdr {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Integration, GenerateCompressWriteReadVerify) {
  // The full write-side workflow of the paper: science data → adaptive
  // HPDR pipeline on a modeled GPU → BP-style file → transparent read →
  // error bound verified. Every layer participates.
  const std::string path = temp_path("hpdr_integration_full.bp");
  const Device gpu = machine::make_device("MI250X");
  auto ds = data::make("nyx", data::Size::Small);
  NDView<const float> view(reinterpret_cast<const float*>(ds.data()),
                           ds.shape);
  pipeline::Options opts;
  opts.mode = pipeline::Mode::Adaptive;
  opts.param = 1e-3;
  opts.init_chunk_bytes = ds.size_bytes() / 8;
  {
    io::ReducedWriter writer(path, gpu, "mgard-x", opts);
    writer.begin_step();
    writer.put_f32("density", view);
    writer.end_step();
    // Second step: same variable evolves (scaled).
    NDArray<float> evolved(ds.shape);
    auto orig = ds.as_f32();
    for (std::size_t i = 0; i < evolved.size(); ++i)
      evolved[i] = 1.1f * orig[i];
    writer.begin_step();
    writer.put_f32("density", evolved.view());
    writer.end_step();
    writer.close();
  }
  // Read back on a *different* adapter (portability through the file).
  const Device cpu = Device::serial();
  io::ReducedReader reader(path, cpu);
  ASSERT_EQ(reader.num_steps(), 2u);
  auto step0 = reader.get_f32(0, "density");
  auto stats = compute_error_stats(ds.as_f32(), step0.span());
  EXPECT_LE(stats.max_rel_error, 1e-3 * 1.0001);
  auto step1 = reader.get_f32(1, "density");
  EXPECT_NEAR(step1[0] / step0[0], 1.1, 0.05);
  std::remove(path.c_str());
}

TEST(Integration, SimulatedThroughputConsistentAcrossLayers) {
  // The analytic scaling model (sim/scaling) and the discrete-event
  // pipeline (pipeline/) describe the same machine: a single-GPU
  // weak-scaling node at N=1 must match the pipeline's throughput within
  // the fill/drain slack.
  const Device v100 = machine::make_device("V100");
  auto ds = data::make("nyx", data::Size::Small);
  auto comp = make_compressor("mgard-x");
  pipeline::Options opts;
  opts.mode = pipeline::Mode::Adaptive;
  opts.param = 1e-2;
  opts.init_chunk_bytes = ds.size_bytes() / 8;
  opts.max_chunk_bytes = ds.size_bytes();
  auto direct =
      pipeline::compress(v100, *comp, ds.data(), ds.shape, ds.dtype, opts);
  auto node = sim::run_node(v100, 1, *comp, opts, ds.data(), ds.shape,
                            ds.dtype, true, 1);
  EXPECT_NEAR(node.aggregate_gbps, direct.model_gbps(),
              direct.model_gbps() * 0.05);
}

TEST(Integration, WeakScalingIsMonotoneInNodes) {
  auto cluster = sim::frontier();
  auto comp = make_compressor("mgard-x");
  auto ds = data::make("nyx", data::Size::Tiny);
  pipeline::Options opts;
  opts.mode = pipeline::Mode::Adaptive;
  opts.param = 1e-2;
  double prev = 0;
  for (int nodes : {16, 64, 256, 1024}) {
    auto r = sim::weak_scale_reduction(cluster, nodes, *comp, opts,
                                       ds.data(), ds.shape, ds.dtype, 2,
                                       0.01);
    EXPECT_GT(r.compress_gbps, prev);
    prev = r.compress_gbps;
  }
}

TEST(Integration, IoAccelerationOrderingMatchesPaper) {
  // Fig. 17's qualitative ranking must hold at any scale the model runs:
  // MGARD-X > MGARD-GPU > ZFP-CUDA > LZ4 in write acceleration on NYX.
  auto cluster = sim::summit();
  auto ds = data::make("nyx", data::Size::Tiny);
  pipeline::Options hpdr_opts;
  hpdr_opts.mode = pipeline::Mode::Adaptive;
  hpdr_opts.param = 1e-2;
  pipeline::Options base;
  base.mode = pipeline::Mode::None;
  base.param = 1e-2;
  auto accel = [&](const char* name, const pipeline::Options& o) {
    auto comp = make_compressor(name);
    return sim::scale_io(cluster, 128, *comp, o, ds.data(), ds.shape,
                         ds.dtype, std::size_t{7} << 30)
        .write_acceleration();
  };
  const double mgard_x = accel("mgard-x", hpdr_opts);
  const double mgard_gpu = accel("mgard-gpu", base);
  const double zfp_cuda = accel("zfp-cuda", base);
  const double lz4 = accel("nvcomp-lz4", base);
  EXPECT_GT(mgard_x, mgard_gpu);
  EXPECT_GT(mgard_gpu, zfp_cuda);
  EXPECT_GT(zfp_cuda, lz4);
  EXPECT_LT(lz4, 1.1);  // LZ4 cannot accelerate (paper Fig. 17)
}

TEST(Integration, TraceOfRealPipelineLoadsRoundTrip) {
  const std::string path = temp_path("hpdr_trace.json");
  const Device v100 = machine::make_device("V100");
  auto ds = data::make("nyx", data::Size::Tiny);
  auto comp = make_compressor("mgard-x");
  pipeline::Options opts;
  opts.mode = pipeline::Mode::Fixed;
  opts.param = 1e-2;
  opts.fixed_chunk_bytes = 32 << 10;
  auto result =
      pipeline::compress(v100, *comp, ds.data(), ds.shape, ds.dtype, opts);
  write_chrome_trace(result.timeline, path);
  EXPECT_GT(std::filesystem::file_size(path), 100u);
  std::remove(path.c_str());
}

TEST(Integration, AllCompressorsSurviveAllDatasets) {
  // Matrix smoke test: every pipeline × every Table III dataset family.
  const Device dev = Device::serial();
  for (const auto& dsname : data::dataset_names()) {
    auto ds = data::make(dsname, data::Size::Tiny);
    for (const auto& cname : compressor_names()) {
      auto comp = make_compressor(cname);
      pipeline::Options opts;
      opts.mode = pipeline::Mode::None;
      opts.param = 1e-2;
      auto result =
          pipeline::compress(dev, *comp, ds.data(), ds.shape, ds.dtype, opts);
      std::vector<std::uint8_t> out(ds.size_bytes());
      pipeline::decompress(dev, *comp, result.stream, out.data(), ds.shape,
                           ds.dtype, opts);
      if (comp->lossless()) {
        EXPECT_EQ(std::memcmp(out.data(), ds.data(), ds.size_bytes()), 0)
            << cname << "/" << dsname;
      }
    }
  }
}

}  // namespace
}  // namespace hpdr
