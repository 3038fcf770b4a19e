// Tuning the adaptive pipeline on a new machine — the §V-C workflow end to
// end: (1) profile the real reduction kernel at several chunk sizes on this
// host, (2) fit the roofline Φ(C), (3) derive the Alg. 4 chunk schedule the
// fitted model implies, and (4) run the pipeline with it. This is exactly
// what a port to new hardware does before enabling the adaptive mode.
//
//   ./examples/adaptive_tuning [rel_eb]
#include <cstdio>

#include "hpdr.hpp"

using namespace hpdr;

int main(int argc, char** argv) {
  const double rel_eb = argc > 1 ? std::atof(argv[1]) : 1e-3;
  const Device host = Device::openmp();
  auto ds = data::make("nyx", data::Size::Small);
  NDView<const float> view(reinterpret_cast<const float*>(ds.data()),
                           ds.shape);
  const std::size_t slab = ds.size_bytes() / ds.shape[0];

  // (1) Profile the real MGARD kernel over chunk sizes (whole slabs).
  std::printf("profiling mgard-x on this host (%d threads)...\n",
              host.spec().compute_units);
  std::vector<std::size_t> sizes;
  for (std::size_t rows = 4; rows <= ds.shape[0]; rows *= 2)
    sizes.push_back(rows * slab);
  auto kernel = [&](std::size_t bytes) {
    Shape s = ds.shape;
    s[0] = std::min(bytes / slab, ds.shape[0]);
    auto blob = mgard::compress(
        host,
        NDView<const float>(reinterpret_cast<const float*>(ds.data()), s),
        rel_eb);
    (void)blob;
  };
  auto points = profile_kernel(kernel, sizes, 3);
  std::printf("%-12s %12s\n", "chunk", "GB/s");
  for (const auto& p : points)
    std::printf("%-12s %12.3f\n",
                (std::to_string(p.chunk_mb) + " MB").c_str(), p.gbps);

  // (2) Fit Φ(C).
  auto model = RooflineModel::fit(points, 0.9);
  std::printf("\nfitted Φ: γ = %.3f GB/s, C_threshold = %.2f MB, α = %.4f, "
              "β = %.3f\n",
              model.gamma, model.threshold_mb, model.alpha, model.beta);

  // (3) The chunk schedule Alg. 4 derives from the fit (assuming a
  //     NVLink-class interconnect for illustration).
  DeviceSpec tuned = machine::make_device("V100").spec();
  GpuPerfModel pm(tuned);
  auto schedule = pipeline::adaptive_schedule(
      pm, KernelClass::MgardCompress, ds.size_bytes(), slab,
      ds.size_bytes() / 16, ds.size_bytes());
  std::printf("\nderived schedule (%zu chunks): ", schedule.size());
  for (auto c : schedule) std::printf("%.1fMB ", c / 1048576.0);
  std::printf("\n");

  // (4) Run the pipeline with the tuned settings.
  auto comp = make_compressor("mgard-x");
  pipeline::Options opts;
  opts.mode = pipeline::Mode::Adaptive;
  opts.param = rel_eb;
  opts.init_chunk_bytes = ds.size_bytes() / 16;
  opts.max_chunk_bytes = ds.size_bytes();
  auto result = pipeline::compress(machine::make_device("V100"), *comp,
                                   ds.data(), ds.shape, ds.dtype, opts);
  std::printf("\npipeline: ratio %.1fx, %.2f GB/s (simulated V100), "
              "%.0f%% overlap\n",
              result.ratio(), result.model_gbps(),
              100 * result.overlap());
  return 0;
}
