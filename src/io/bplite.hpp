#ifndef HPDR_IO_BPLITE_HPP
#define HPDR_IO_BPLITE_HPP

/// \file bplite.hpp
/// BPLite: a self-describing step/variable container in the spirit of
/// ADIOS2's BP format (the paper integrates HPDR into ADIOS2 with BP5,
/// §VI-A). Layout:
///
///   [magic u32][version u32]
///   [payload blob 0][payload blob 1]...
///   [index: steps → variable records]
///   [index offset u64][magic u32]
///
/// Payloads are appended as written (streaming friendly); the index is
/// written on close and located from the fixed-size trailer, so readers
/// never scan the data region — the same design that makes BP metadata
/// cheap at scale.

#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "compressor/compressor.hpp"
#include "core/shape.hpp"
#include "fault/retry.hpp"

namespace hpdr::io {

/// Index entry for one variable in one step.
struct VarRecord {
  std::string name;
  Shape shape;
  DType dtype = DType::F32;
  std::string reduction;  ///< compressor name, or "none" for raw payloads
  double param = 0.0;     ///< error bound / rate used
  std::uint64_t offset = 0;
  std::uint64_t nbytes = 0;     ///< stored (possibly compressed) size
  std::uint64_t raw_bytes = 0;  ///< original size
  std::uint64_t checksum = 0;   ///< FNV-1a 64 of the stored payload
};

/// FNV-1a 64-bit checksum used by the container for payload integrity.
std::uint64_t fnv1a(std::span<const std::uint8_t> bytes);

/// Streaming writer. Steps group variables; close() (or destruction)
/// finalizes the index.
class BPWriter {
 public:
  explicit BPWriter(const std::string& path);
  ~BPWriter();
  BPWriter(const BPWriter&) = delete;
  BPWriter& operator=(const BPWriter&) = delete;

  void begin_step();
  /// Append a payload for `name`. `payload` may be raw data or a reduced
  /// stream; `reduction` records which.
  void put(const std::string& name, const Shape& shape, DType dtype,
           std::span<const std::uint8_t> payload,
           const std::string& reduction = "none", double param = 0.0,
           std::uint64_t raw_bytes = 0);
  void end_step();
  void close();

  /// Transient-failure policy for payload/index writes (the bplite.write
  /// fault site): each attempt rewinds to the record start, so a failed
  /// attempt never leaves partial bytes in the container.
  void set_retry(const fault::RetryPolicy& p) { retry_ = p; }

  std::uint64_t bytes_written() const { return data_end_; }

 private:
  std::ofstream file_;
  std::string path_;
  std::vector<std::vector<VarRecord>> steps_;
  fault::RetryPolicy retry_;
  std::uint64_t data_end_ = 0;
  bool in_step_ = false;
  bool closed_ = false;
};

/// Random-access reader over a closed BPLite file.
class BPReader {
 public:
  explicit BPReader(const std::string& path);

  std::size_t num_steps() const { return steps_.size(); }
  std::vector<std::string> variables(std::size_t step) const;
  const VarRecord& record(std::size_t step, const std::string& name) const;
  bool has(std::size_t step, const std::string& name) const;

  /// Read the stored payload (compressed bytes if the variable was
  /// reduced); the payload checksum is verified and a mismatch throws —
  /// silent corruption must never decode into wrong science data.
  /// Transient read failures (the bplite.read fault site) are retried per
  /// the reader's RetryPolicy; the checksum check sits outside the retry
  /// loop, so corruption-at-rest fails fast instead of burning attempts.
  std::vector<std::uint8_t> read_payload(std::size_t step,
                                         const std::string& name);

  void set_retry(const fault::RetryPolicy& p) { retry_ = p; }

 private:
  mutable std::ifstream file_;
  std::vector<std::vector<VarRecord>> steps_;
  fault::RetryPolicy retry_;
};

}  // namespace hpdr::io

#endif  // HPDR_IO_BPLITE_HPP
