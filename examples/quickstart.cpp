// Quickstart: compress a scientific dataset with MGARD-X through the HPDR
// adaptive pipeline, decompress it, and verify the error bound.
//
//   ./examples/quickstart [device] [rel_eb]
//   device: openmp (default), serial, V100, A100, MI250X, RTX3090
//
// Demonstrates the three core API calls: make_compressor(),
// pipeline::compress(), pipeline::decompress().
#include <cstdio>
#include <cstring>

#include "hpdr.hpp"

using namespace hpdr;

int main(int argc, char** argv) {
  const std::string device_name = argc > 1 ? argv[1] : "openmp";
  const double rel_eb = argc > 2 ? std::atof(argv[2]) : 1e-3;

  // 1. A device: real host adapters (serial/openmp) or a modeled GPU.
  const Device dev = machine::make_device(device_name);
  std::printf("device    : %s (%s adapter)\n", dev.name().c_str(),
              to_string(dev.kind()));

  // 2. Some scientific data — a synthetic NYX cosmology density field.
  auto ds = data::make("nyx", data::Size::Small);
  std::printf("dataset   : %s/%s %s %s (%.1f MB)\n", ds.name.c_str(),
              ds.field.c_str(), ds.shape.to_string().c_str(),
              to_string(ds.dtype), ds.size_bytes() / 1048576.0);

  // 3. A reduction pipeline: MGARD-X with a relative L∞ error bound,
  //    chunked adaptively (Alg. 4 of the paper).
  auto mgard = make_compressor("mgard-x");
  pipeline::Options opts;
  opts.mode = pipeline::Mode::Adaptive;
  opts.param = rel_eb;
  opts.init_chunk_bytes = ds.size_bytes() / 8;
  opts.max_chunk_bytes = ds.size_bytes();

  auto result =
      pipeline::compress(dev, *mgard, ds.data(), ds.shape, ds.dtype, opts);
  std::printf("compressed: %.1f MB -> %.2f MB  (ratio %.1fx, %zu chunks)\n",
              ds.size_bytes() / 1048576.0, result.stream.size() / 1048576.0,
              result.ratio(), result.chunk_rows.size());
  if (dev.spec().is_gpu())
    std::printf("pipeline  : %.2f GB/s end-to-end, %.0f%% transfer overlap "
                "(simulated %s)\n",
                result.model_gbps(), 100 * result.overlap(),
                dev.name().c_str());

  // 4. Decompress and verify the error bound.
  std::vector<float> restored(ds.elements());
  pipeline::decompress(dev, *mgard, result.stream, restored.data(), ds.shape,
                       ds.dtype, opts);
  auto stats = compute_error_stats(ds.as_f32(),
                                   std::span<const float>(restored));
  std::printf("error     : max relative %.3g (bound %.3g) — %s\n",
              stats.max_rel_error, rel_eb,
              stats.max_rel_error <= rel_eb ? "BOUND SATISFIED" : "VIOLATED");
  std::printf("psnr      : %.1f dB\n", stats.psnr_db);
  return stats.max_rel_error <= rel_eb ? 0 : 1;
}
