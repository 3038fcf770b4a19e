#include "io/reduction_io.hpp"

#include <cstring>

#include "core/error.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace hpdr::io {

namespace {

struct IoInstruments {
  telemetry::Counter& vars_written = telemetry::counter("io.vars_written");
  telemetry::Counter& vars_read = telemetry::counter("io.vars_read");
  telemetry::Counter& raw_in = telemetry::counter("io.write.raw_bytes");
  telemetry::Counter& stored_out = telemetry::counter("io.write.stored_bytes");
  telemetry::Counter& stored_in = telemetry::counter("io.read.stored_bytes");
  telemetry::Counter& raw_out = telemetry::counter("io.read.raw_bytes");

  static IoInstruments& get() {
    static IoInstruments ins;
    return ins;
  }
};

}  // namespace

ReducedWriter::ReducedWriter(const std::string& path, Device device,
                             std::string compressor, pipeline::Options opts)
    : writer_(path), device_(std::move(device)), opts_(opts) {
  if (!compressor.empty() && compressor != "none")
    compressor_ = make_compressor(compressor);
}

std::size_t ReducedWriter::put_raw(const std::string& name, const void* data,
                                   const Shape& shape, DType dtype) {
  telemetry::Span span("io.put", "io");
  auto& ins = IoInstruments::get();
  const std::size_t raw = shape.size() * dtype_size(dtype);
  if (!compressor_) {
    writer_.put(name, shape, dtype,
                {static_cast<const std::uint8_t*>(data), raw}, "none", 0.0,
                raw);
    if (telemetry::enabled()) {
      ins.vars_written.add();
      ins.raw_in.add(raw);
      ins.stored_out.add(raw);
    }
    return raw;
  }
  auto result =
      pipeline::compress(device_, *compressor_, data, shape, dtype, opts_);
  writer_.put(name, shape, dtype, result.stream, compressor_->name(),
              opts_.param, raw);
  if (telemetry::enabled()) {
    ins.vars_written.add();
    ins.raw_in.add(raw);
    ins.stored_out.add(result.stream.size());
  }
  return result.stream.size();
}

std::size_t ReducedWriter::put_f32(const std::string& name,
                                   NDView<const float> data) {
  return put_raw(name, data.data(), data.shape(), DType::F32);
}

std::size_t ReducedWriter::put_f64(const std::string& name,
                                   NDView<const double> data) {
  return put_raw(name, data.data(), data.shape(), DType::F64);
}

ReducedReader::ReducedReader(const std::string& path, Device device)
    : reader_(path), device_(std::move(device)) {}

namespace {

template <class T>
NDArray<T> get_rows_impl(BPReader& reader, const Device& device,
                         std::size_t step, const std::string& name,
                         DType expect, std::size_t row_begin,
                         std::size_t row_end,
                         pipeline::ChunkRecovery recovery) {
  telemetry::Span span("io.get", "io");
  const VarRecord& r = reader.record(step, name);
  HPDR_REQUIRE(r.dtype == expect, "variable '" << name << "' is "
                                               << to_string(r.dtype));
  HPDR_REQUIRE(row_begin < row_end && row_end <= r.shape[0],
               "row range out of bounds for '" << name << "'");
  Shape out_shape = r.shape;
  out_shape[0] = row_end - row_begin;
  NDArray<T> out(out_shape);
  auto payload = reader.read_payload(step, name);
  if (telemetry::enabled()) {
    auto& ins = IoInstruments::get();
    ins.vars_read.add();
    ins.stored_in.add(payload.size());
    ins.raw_out.add(out.size_bytes());
  }
  const std::size_t slab_bytes =
      r.shape.size() / r.shape[0] * dtype_size(expect);
  if (r.reduction == "none") {
    HPDR_REQUIRE(payload.size() == r.shape.size() * dtype_size(expect),
                 "raw payload size mismatch for '" << name << "'");
    std::memcpy(out.data(), payload.data() + row_begin * slab_bytes,
                out.size_bytes());
    return out;
  }
  auto comp = make_compressor(r.reduction);
  pipeline::Options opts;
  opts.recovery = recovery;
  pipeline::decompress_rows(device, *comp, payload, out.data(), r.shape,
                            expect, row_begin, row_end, opts);
  return out;
}

}  // namespace

NDArray<float> ReducedReader::get_f32(std::size_t step,
                                      const std::string& name) {
  return get_f32_rows(step, name, 0, reader_.record(step, name).shape[0]);
}

NDArray<float> ReducedReader::get_f32_rows(std::size_t step,
                                           const std::string& name,
                                           std::size_t row_begin,
                                           std::size_t row_end) {
  return get_rows_impl<float>(reader_, device_, step, name, DType::F32,
                              row_begin, row_end, recovery_);
}

NDArray<double> ReducedReader::get_f64_rows(std::size_t step,
                                            const std::string& name,
                                            std::size_t row_begin,
                                            std::size_t row_end) {
  return get_rows_impl<double>(reader_, device_, step, name, DType::F64,
                               row_begin, row_end, recovery_);
}

NDArray<double> ReducedReader::get_f64(std::size_t step,
                                       const std::string& name) {
  return get_f64_rows(step, name, 0, reader_.record(step, name).shape[0]);
}

}  // namespace hpdr::io
