#ifndef HPDR_IO_REDUCTION_IO_HPP
#define HPDR_IO_REDUCTION_IO_HPP

/// \file reduction_io.hpp
/// Reduction-integrated file I/O: the HPDR analogue of plugging a reduction
/// operator into ADIOS2's write/read path (§VI-A). Variables written through
/// ReducedWriter are pushed through a reduction pipeline and stored in a
/// BPLite container together with the metadata needed to reconstruct them;
/// ReducedReader reverses the process transparently.

#include <memory>
#include <string>

#include "compressor/compressor.hpp"
#include "core/ndarray.hpp"
#include "io/bplite.hpp"
#include "pipeline/pipeline.hpp"

namespace hpdr::io {

/// Writer that reduces variables on the way to disk.
class ReducedWriter {
 public:
  /// `compressor` may be empty/"none" for raw writes.
  ReducedWriter(const std::string& path, Device device,
                std::string compressor, pipeline::Options opts);

  void begin_step() { writer_.begin_step(); }
  void end_step() { writer_.end_step(); }
  void close() { writer_.close(); }

  /// Transient-write retry policy, forwarded to the BPLite writer.
  void set_retry(const fault::RetryPolicy& p) { writer_.set_retry(p); }

  /// Write one variable; returns stored (post-reduction) bytes.
  std::size_t put_f32(const std::string& name, NDView<const float> data);
  std::size_t put_f64(const std::string& name, NDView<const double> data);

  std::uint64_t bytes_written() const { return writer_.bytes_written(); }

 private:
  std::size_t put_raw(const std::string& name, const void* data,
                      const Shape& shape, DType dtype);
  BPWriter writer_;
  Device device_;
  std::shared_ptr<const Compressor> compressor_;  // null → raw
  pipeline::Options opts_;
};

/// Reader that reconstructs reduced variables transparently. A corrupt
/// chunk throws (pipeline::ChunkRecovery::Strict).
class ReducedReader {
 public:
  ReducedReader(const std::string& path, Device device);

  std::size_t num_steps() const { return reader_.num_steps(); }
  std::vector<std::string> variables(std::size_t step) const {
    return reader_.variables(step);
  }
  const VarRecord& record(std::size_t step, const std::string& name) const {
    return reader_.record(step, name);
  }

  NDArray<float> get_f32(std::size_t step, const std::string& name);
  NDArray<double> get_f64(std::size_t step, const std::string& name);

  /// Transient-read retry policy, forwarded to the BPLite reader.
  void set_retry(const fault::RetryPolicy& p) { reader_.set_retry(p); }

  /// Sub-selection read: only rows [row_begin, row_end) of the slowest
  /// dimension. For reduced variables only the container chunks overlapping
  /// the range are decoded.
  NDArray<float> get_f32_rows(std::size_t step, const std::string& name,
                              std::size_t row_begin, std::size_t row_end);
  NDArray<double> get_f64_rows(std::size_t step, const std::string& name,
                               std::size_t row_begin, std::size_t row_end);

 private:
  BPReader reader_;
  Device device_;
};

}  // namespace hpdr::io

#endif  // HPDR_IO_REDUCTION_IO_HPP
