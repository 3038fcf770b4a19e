// Progressive retrieval: write a climate field once as a stream-format v3
// container (DESIGN.md §15), then refine one reader down a ladder of error
// bounds and show the accuracy-vs-bytes tradeoff at each stop — the
// incremental-retrieval workflow of the data-refactoring line of work the
// HPDR paper builds on. Each refine() fetches only components the reader
// has not consumed yet. Exits 1 if full precision misses the write bound.
//
//   ./examples/progressive_retrieval [rel_eb]
#include <cstdio>

#include "hpdr.hpp"

using namespace hpdr;

int main(int argc, char** argv) {
  const double rel_eb = argc > 1 ? std::atof(argv[1]) : 1e-4;
  const Device dev = Device::openmp();
  auto ds = data::make("e3sm", data::Size::Small);
  std::printf("dataset : %s/%s %s (%.1f MB), eb %g\n", ds.name.c_str(),
              ds.field.c_str(), ds.shape.to_string().c_str(),
              ds.size_bytes() / 1048576.0, rel_eb);

  pipeline::Options opts;
  opts.mode = pipeline::Mode::None;
  opts.param = rel_eb;
  const auto stream = pipeline::progressive_compress(dev, ds.data(), ds.shape,
                                                     ds.dtype, opts);
  pipeline::ProgressiveReader reader(stream);
  const std::size_t total = reader.total_payload_bytes();
  std::printf("written as %zu components, %.2f MB total (%.1fx)\n\n",
              reader.components_total(), stream.size() / 1048576.0,
              double(ds.size_bytes()) / double(stream.size()));

  std::printf("%-10s %11s %14s %10s %14s %10s\n", "bound", "components",
              "bytes fetched", "% of full", "max rel error", "psnr(dB)");
  double full_error = 0;
  for (const double bound : {1e-1, 1e-2, 1e-3, 0.0}) {
    reader.refine(dev, bound);
    const std::span<const float> approx(
        reinterpret_cast<const float*>(reader.data().data()), ds.elements());
    const auto stats = compute_error_stats(ds.as_f32(), approx);
    full_error = stats.max_rel_error;
    char label[16] = "full";
    if (bound > 0) std::snprintf(label, sizeof label, "%g", bound);
    std::printf("%-10s %11zu %14zu %9.1f%% %14.3g %10.1f\n", label,
                reader.components_consumed(), reader.bytes_consumed(),
                100.0 * reader.bytes_consumed() / total, stats.max_rel_error,
                stats.psnr_db);
  }
  std::printf(
      "\nA reader with a loose accuracy target stops early and fetches a "
      "fraction of the bytes;\nrefining to full precision reaches the write "
      "bound (%g): %s.\n",
      rel_eb, full_error <= rel_eb ? "satisfied" : "VIOLATED");
  return full_error <= rel_eb ? 0 : 1;
}
