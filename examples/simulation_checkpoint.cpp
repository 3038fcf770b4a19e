// Checkpoint/restart with reduced I/O — the workflow the paper's
// introduction motivates: a running simulation writes state every few
// steps through a reduction pipeline, and a restarted run continues from a
// reduced checkpoint.
//
// The "simulation" is a real 2-D heat-diffusion solver (explicit finite
// differences). We run it twice:
//   1. a reference run writing raw checkpoints,
//   2. a run writing an MGARD-X-reduced checkpoint (one pipeline stream in
//      one file on disk),
// then restart from the *reduced* checkpoint and measure how far the
// restarted trajectory drifts from the reference — demonstrating that an
// error-bounded checkpoint preserves the physics while shrinking the file.
//
//   ./examples/simulation_checkpoint [rel_eb]
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "hpdr.hpp"

using namespace hpdr;

namespace {

constexpr std::size_t kN = 192;       // grid edge
constexpr double kAlpha = 0.2;        // diffusion number (stable < 0.25)
constexpr int kStepsPerPhase = 200;

/// One explicit diffusion step with insulated borders.
void step(NDArray<float>& u, NDArray<float>& tmp) {
  const Device dev = Device::openmp();
  global_stage(dev, (kN - 2) * (kN - 2), [&](std::size_t idx) {
    const std::size_t i = 1 + idx / (kN - 2);
    const std::size_t j = 1 + idx % (kN - 2);
    tmp.at(i, j) = static_cast<float>(
        u.at(i, j) + kAlpha * (u.at(i - 1, j) + u.at(i + 1, j) +
                               u.at(i, j - 1) + u.at(i, j + 1) -
                               4.0 * u.at(i, j)));
  });
  for (std::size_t k = 0; k < kN; ++k) {
    tmp.at(0, k) = tmp.at(1, k);
    tmp.at(kN - 1, k) = tmp.at(kN - 2, k);
    tmp.at(k, 0) = tmp.at(k, 1);
    tmp.at(k, kN - 1) = tmp.at(k, kN - 2);
  }
  std::swap(u, tmp);
}

NDArray<float> initial_condition() {
  NDArray<float> u(Shape{kN, kN}, 0.0f);
  // Two hot blobs and a cold sink.
  for (std::size_t i = 0; i < kN; ++i)
    for (std::size_t j = 0; j < kN; ++j) {
      auto blob = [&](double ci, double cj, double s, double a) {
        const double r2 = (double(i) - ci) * (double(i) - ci) +
                          (double(j) - cj) * (double(j) - cj);
        return a * std::exp(-r2 / (2 * s * s));
      };
      u.at(i, j) = static_cast<float>(blob(48, 48, 12, 100) +
                                      blob(130, 140, 18, 80) -
                                      blob(96, 60, 15, 40));
    }
  return u;
}

}  // namespace

int main(int argc, char** argv) {
  const double rel_eb = argc > 1 ? std::atof(argv[1]) : 1e-4;
  const Device dev = Device::openmp();
  const std::string ckpt_path =
      (std::filesystem::temp_directory_path() / "hpdr_checkpoint.hpdr")
          .string();

  // Phase 1: run and checkpoint (reduced) halfway.
  NDArray<float> u = initial_condition();
  NDArray<float> tmp(u.shape());
  for (int s = 0; s < kStepsPerPhase; ++s) step(u, tmp);

  pipeline::Options opts;
  opts.mode = pipeline::Mode::Adaptive;
  opts.param = rel_eb;
  opts.init_chunk_bytes = u.size_bytes() / 4;
  opts.max_chunk_bytes = u.size_bytes();
  const auto mgard = make_compressor("mgard-x");
  const auto ckpt =
      pipeline::compress(dev, *mgard, u.data(), u.shape(), DType::F32, opts);
  std::ofstream(ckpt_path, std::ios::binary)
      .write(reinterpret_cast<const char*>(ckpt.stream.data()),
             static_cast<std::streamsize>(ckpt.stream.size()));
  const std::size_t stored = std::filesystem::file_size(ckpt_path);
  std::printf("checkpoint: %zu B raw -> %zu B on disk (ratio %.1fx, eb %g)\n",
              u.size_bytes(), stored,
              double(u.size_bytes()) / double(stored), rel_eb);

  // Phase 2a: reference — continue from the exact state.
  NDArray<float> ref = u;
  for (int s = 0; s < kStepsPerPhase; ++s) step(ref, tmp);

  // Phase 2b: restart from the reduced checkpoint and continue.
  NDArray<float> restarted(u.shape());
  {
    std::ifstream in(ckpt_path, std::ios::binary);
    const std::vector<std::uint8_t> stream(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    pipeline::decompress(dev, *mgard, stream, restarted.data(), u.shape(),
                         DType::F32, opts);
  }
  auto ckpt_stats = compute_error_stats(u.span(), restarted.span());
  for (int s = 0; s < kStepsPerPhase; ++s) step(restarted, tmp);

  auto drift = compute_error_stats(ref.span(), restarted.span());
  std::printf("checkpoint error : max rel %.3g (bound %g)\n",
              ckpt_stats.max_rel_error, rel_eb);
  std::printf("trajectory drift : max rel %.3g after %d more steps\n",
              drift.max_rel_error, kStepsPerPhase);
  std::printf("verdict          : %s\n",
              drift.max_rel_error < 10 * rel_eb
                  ? "restart from reduced checkpoint is faithful"
                  : "drift exceeded 10x the checkpoint bound");
  std::remove(ckpt_path.c_str());
  return drift.max_rel_error < 10 * rel_eb ? 0 : 1;
}
