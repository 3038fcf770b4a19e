// Compare every registered reduction pipeline — the three HPDR pipelines
// (MGARD-X, ZFP-X, Huffman-X) and the four baselines (MGARD-GPU, ZFP-CUDA,
// cuSZ, nvCOMP-LZ4) — on the three Table III datasets: compression ratio,
// measured reconstruction error, host wall-clock, and (for the modeled
// GPU) simulated end-to-end pipeline throughput.
//
//   ./examples/compressor_comparison [rel_eb]
#include <chrono>
#include <cstdio>

#include "hpdr.hpp"

using namespace hpdr;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const double rel_eb = argc > 1 ? std::atof(argv[1]) : 1e-3;
  const Device host = Device::openmp();
  const Device v100 = machine::make_device("V100");

  std::printf("relative error bound: %g\n\n", rel_eb);
  for (const auto& dsname : data::dataset_names()) {
    auto ds = data::make(dsname, data::Size::Tiny);
    std::printf("=== %s/%s %s %s ===\n", ds.name.c_str(), ds.field.c_str(),
                ds.shape.to_string().c_str(), to_string(ds.dtype));
    std::printf("  %-11s %8s %12s %12s %14s %12s\n", "pipeline", "ratio",
                "max rel err", "host ms", "V100 GB/s(sim)", "lossless");
    for (const auto& cname : compressor_names()) {
      auto comp = make_compressor(cname);
      pipeline::Options opts;
      opts.mode = pipeline::Mode::None;
      opts.param = rel_eb;

      const double t0 = now_ms();
      auto result =
          pipeline::compress(host, *comp, ds.data(), ds.shape, ds.dtype, opts);
      std::vector<std::uint8_t> restored(ds.size_bytes());
      pipeline::decompress(host, *comp, result.stream, restored.data(),
                           ds.shape, ds.dtype, opts);
      const double host_ms = now_ms() - t0;

      double max_rel = 0;
      if (ds.dtype == DType::F32) {
        auto stats = compute_error_stats(
            ds.as_f32(),
            {reinterpret_cast<const float*>(restored.data()),
             ds.elements()});
        max_rel = stats.max_rel_error;
      } else {
        auto stats = compute_error_stats(
            ds.as_f64(),
            {reinterpret_cast<const double*>(restored.data()),
             ds.elements()});
        max_rel = stats.max_rel_error;
      }

      auto sim = pipeline::compress(v100, *comp, ds.data(), ds.shape,
                                    ds.dtype, opts);
      std::printf("  %-11s %8.2f %12.3g %12.1f %14.2f %12s\n", cname.c_str(),
                  result.ratio(), max_rel, host_ms, sim.model_gbps(),
                  comp->lossless() ? "yes" : "no");
    }
    std::printf("\n");
  }
  std::printf(
      "Notes: lossy pipelines must satisfy max rel err <= %g; lossless ones "
      "report 0.\nLZ4 shows the paper's premise: byte-level LZ on floats "
      "yields ~1.1x.\n",
      rel_eb);
  return 0;
}
