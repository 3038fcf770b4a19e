#ifndef HPDR_ALGORITHMS_MGARD_MGARD_HPP
#define HPDR_ALGORITHMS_MGARD_MGARD_HPP

/// \file mgard.hpp
/// MGARD-X: error-bounded lossy compression (paper §IV-A, Alg. 1, Fig. 5).
/// Pipeline: multilevel decomposition (transform.hpp) → level-wise linear
/// quantization via the Map&Process abstraction (different bin sizes per
/// level, finer bins at coarser levels to control error amplification
/// through recomposition) → Huffman entropy coding of the level-ordered
/// quantized coefficients, with an explicit outlier list for coefficients
/// outside the dictionary.
///
/// The error bound is *relative*: `rel_eb` bounds L∞(u−û) / range(u), the
/// convention used throughout the paper's evaluation (e.g., "1e-2 error
/// bound" in Figs. 1, 10, 13, 14).

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "adapter/device.hpp"
#include "core/ndarray.hpp"

namespace hpdr::mgard {

class Hierarchy;

/// Compress with a relative L∞ error bound. Shapes are normalized
/// internally (size-1 dimensions dropped, dimensions of size < 3 merged);
/// inputs too small to decompose are stored raw.
///
/// `s` is the smoothness-norm parameter of the multilevel theory (§IV-A:
/// per-level bin sizes "improve the compression ratio and capability to
/// preserve the quantities of interest"): s = 0 (default) controls the
/// strict L∞ error; s > 0 progressively relaxes the fine-scale
/// (high-frequency) coefficients, whose errors cancel in smooth quantities
/// of interest such as averages and integrals — trading pointwise error
/// for substantially better ratios while preserving QoI accuracy.
std::vector<std::uint8_t> compress(const Device& dev,
                                   NDView<const float> data, double rel_eb,
                                   double s = 0.0);
std::vector<std::uint8_t> compress(const Device& dev,
                                   NDView<const double> data, double rel_eb,
                                   double s = 0.0);

/// Decompress straight into `out`, whose shape and element type must be
/// the stream's: a stream of any other shape or type throws before the
/// decoder allocates, builds a hierarchy or writes a value. A stream that
/// fails later may leave `out` partly written.
void decompress(const Device& dev, std::span<const std::uint8_t> stream,
                NDView<float> out);
void decompress(const Device& dev, std::span<const std::uint8_t> stream,
                NDView<double> out);

/// Shape normalization applied before decomposition: size-1 dimensions are
/// dropped, dimensions smaller than 3 are merged into a neighbour, and the
/// rank is capped at kMaxRank. Exposed so alternate encoders (the
/// progressive v3 refactorer) can quantize on exactly the grid the v2
/// codec would use — byte-identical reconstructions depend on it.
Shape normalize_shape(const Shape& s);

/// True when a (normalized) shape has too few nodes to decompose: under 27
/// in all or under 3 along some dimension. The v2 codec stores such input
/// raw and the v3 encoder as one raw component.
bool too_small_to_decompose(const Shape& shape);

/// The hierarchy for `shape` on `dev`, built once and then shared through
/// the context cache (§III-B). The v2 codec and the v3 progressive encoder
/// and decoder all call this, so they share one cache entry per shape.
std::shared_ptr<Hierarchy> cached_hierarchy(const Device& dev,
                                            const Shape& shape);

/// Quantization bin size used for level `l` of `L` on a rank-`rank` grid,
/// given the absolute error bound. Exposed so tests can verify the error
/// budget: the per-level worst-case amplifications of the bins must sum to
/// at most abs_eb.
double level_bin(double abs_eb, std::size_t l, std::size_t L,
                 std::size_t rank);

/// s-weighted bin: level_bin scaled by 2^(s·l), leaving the coarsest level
/// untouched and relaxing fine levels (their errors cancel in smooth QoIs).
double level_bin_s(double abs_eb, std::size_t l, std::size_t L,
                   std::size_t rank, double s);

}  // namespace hpdr::mgard

#endif  // HPDR_ALGORITHMS_MGARD_MGARD_HPP
