#ifndef HPDR_COMPRESSOR_COMPRESSOR_HPP
#define HPDR_COMPRESSOR_COMPRESSOR_HPP

/// \file compressor.hpp
/// Type-erased reduction-pipeline interface. The HDEM pipeline, the serving
/// layer, and the cluster simulators all drive compressors through this
/// interface, so HPDR pipelines (MGARD-X, ZFP-X, Huffman-X) and the
/// non-HPDR baselines (MGARD-GPU, ZFP-CUDA, cuSZ, nvCOMP-LZ4) are
/// interchangeable in every experiment.
///
/// `param` is the reduction knob, matching the paper's usage:
///   * MGARD / SZ : relative L∞ error bound,
///   * ZFP        : relative error bound mapped to a fixed rate
///                  (rate_from_eb), since fix-rate is the only GPU mode,
///   * lossless   : ignored.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "adapter/device.hpp"
#include "core/shape.hpp"
#include "runtime/perf_model.hpp"

namespace hpdr {

enum class DType : std::uint8_t { F32 = 0, F64 = 1 };

inline std::size_t dtype_size(DType t) { return t == DType::F32 ? 4 : 8; }
const char* to_string(DType t);

/// Abstract reduction pipeline.
class Compressor {
 public:
  virtual ~Compressor() = default;

  virtual std::string name() const = 0;
  virtual bool lossless() const = 0;

  /// Kernel classes billed by the performance model for the compute stages.
  virtual KernelClass compress_kernel() const = 0;
  virtual KernelClass decompress_kernel() const = 0;

  /// True for HPDR pipelines: reduction contexts persist in the CMM, so
  /// repeated calls perform no device memory management (§III-B).
  virtual bool uses_context_cache() const = 0;

  /// Device memory-management operations per invocation for pipelines that
  /// do NOT cache contexts — the quantity that serializes on the shared
  /// runtime and limits multi-GPU scalability (Fig. 16).
  virtual int allocs_per_call() const = 0;

  /// Kernel-speed handicap of this implementation relative to the HPDR
  /// kernels of the same algorithm (1.0 = none). Calibrated from the
  /// paper's cross-implementation gaps (e.g., Fig. 15's MGARD-X vs
  /// MGARD-GPU aggregate throughput on Frontier).
  virtual double kernel_derate() const = 0;

  /// Fraction of this pipeline's runtime spent inside shared-runtime
  /// critical sections (allocation driver locks and their implicit device
  /// synchronizations). On an N-GPU node each unit of exposure serializes
  /// behind the other N−1 GPUs, which is the Fig. 16 scalability mechanism.
  /// ≈0 for CMM pipelines; calibrated from the reference implementations'
  /// measured multi-GPU behaviour for the baselines (see DESIGN.md §1).
  virtual double contention_exposure(bool compress_dir) const = 0;

  virtual std::vector<std::uint8_t> compress(const Device& dev,
                                             const void* data,
                                             const Shape& shape, DType dtype,
                                             double param) const = 0;

  /// Decodes straight into `out`, which holds shape.size() elements of
  /// `dtype`. The codec checks the stream's declared shape (lossy codecs)
  /// or byte length (lossless codecs) against `out` before it allocates
  /// or writes anything, and throws hpdr::Error on a mismatch. A stream
  /// that fails later may leave `out` partly written.
  virtual void decompress(const Device& dev,
                          std::span<const std::uint8_t> stream, void* out,
                          const Shape& shape, DType dtype) const = 0;
};

/// Factory. Known names: "mgard-x", "zfp-x", "huffman-x" (HPDR pipelines);
/// "mgard-gpu", "zfp-cuda", "cusz", "nvcomp-lz4" (baselines). Throws for
/// unknown names.
std::shared_ptr<const Compressor> make_compressor(const std::string& name);

/// All registered pipeline names, HPDR pipelines first.
std::vector<std::string> compressor_names();

/// ZFP fix-rate equivalent of a relative error bound (bits per value).
double rate_from_eb(double rel_eb, DType dtype);

}  // namespace hpdr

#endif  // HPDR_COMPRESSOR_COMPRESSOR_HPP
