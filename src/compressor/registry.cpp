#include "compressor/compressor.hpp"

#include <chrono>
#include <cmath>

#include "algorithms/huffman/huffman.hpp"
#include "algorithms/lz4/lz4.hpp"
#include "algorithms/mgard/mgard.hpp"
#include "algorithms/sz/sz.hpp"
#include "algorithms/zfp/zfp.hpp"
#include "core/error.hpp"
#include "core/ndarray.hpp"
#include "telemetry/metrics.hpp"

namespace hpdr {

const char* to_string(DType t) { return t == DType::F32 ? "f32" : "f64"; }

double rate_from_eb(double rel_eb, DType dtype) {
  // Heuristic used by fix-rate ZFP users: ~log2(1/eb) mantissa bits plus
  // transform headroom, clamped to the dtype width.
  const double bits = std::ceil(std::log2(1.0 / rel_eb)) + 4.0;
  const double max_rate = 8.0 * static_cast<double>(dtype_size(dtype));
  return std::clamp(bits, 4.0, max_rate);
}

namespace {

/// Shared glue: the pipeline's model parameters plus its telemetry.
/// Non-virtual interface: compress()/decompress() are final and record the
/// per-codec telemetry counters and host wall time; codecs implement
/// do_compress() / do_decompress() only.
class CompressorBase : public Compressor {
 public:
  CompressorBase(std::string name, bool lossless, KernelClass ck,
                 KernelClass dk, bool cached, int allocs,
                 double exposure_c = 0.0, double exposure_d = 0.0,
                 double derate = 1.0)
      : name_(std::move(name)),
        lossless_(lossless),
        ck_(ck),
        dk_(dk),
        cached_(cached),
        allocs_(allocs),
        exposure_c_(exposure_c),
        exposure_d_(exposure_d),
        derate_(derate) {
    const std::string p = "codec." + name_ + ".";
    c_calls_ = &telemetry::counter(p + "compress.calls");
    c_in_ = &telemetry::counter(p + "compress.in_bytes");
    c_out_ = &telemetry::counter(p + "compress.out_bytes");
    d_calls_ = &telemetry::counter(p + "decompress.calls");
    d_in_ = &telemetry::counter(p + "decompress.in_bytes");
    d_out_ = &telemetry::counter(p + "decompress.out_bytes");
    c_seconds_ = &telemetry::latency(p + "compress.seconds");
    d_seconds_ = &telemetry::latency(p + "decompress.seconds");
  }

  std::string name() const override { return name_; }
  bool lossless() const override { return lossless_; }
  KernelClass compress_kernel() const override { return ck_; }
  KernelClass decompress_kernel() const override { return dk_; }
  bool uses_context_cache() const override { return cached_; }
  int allocs_per_call() const override { return allocs_; }
  double contention_exposure(bool compress_dir) const override {
    return compress_dir ? exposure_c_ : exposure_d_;
  }
  double kernel_derate() const override { return derate_; }

  std::vector<std::uint8_t> compress(const Device& dev, const void* data,
                                     const Shape& shape, DType dtype,
                                     double param) const final {
    const std::size_t raw = shape.size() * dtype_size(dtype);
    const auto t0 = std::chrono::steady_clock::now();
    auto out = do_compress(dev, data, shape, dtype, param);
    if (telemetry::enabled()) {
      c_calls_->add();
      c_in_->add(raw);
      c_out_->add(out.size());
      c_seconds_->observe(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
    }
    return out;
  }

  void decompress(const Device& dev, std::span<const std::uint8_t> stream,
                  void* out, const Shape& shape, DType dtype) const final {
    const std::size_t raw = shape.size() * dtype_size(dtype);
    const auto t0 = std::chrono::steady_clock::now();
    do_decompress(dev, stream, out, shape, dtype);
    if (telemetry::enabled()) {
      d_calls_->add();
      d_in_->add(stream.size());
      d_out_->add(raw);
      d_seconds_->observe(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
    }
  }

 protected:
  virtual std::vector<std::uint8_t> do_compress(const Device& dev,
                                                const void* data,
                                                const Shape& shape,
                                                DType dtype,
                                                double param) const = 0;
  virtual void do_decompress(const Device& dev,
                             std::span<const std::uint8_t> stream, void* out,
                             const Shape& shape, DType dtype) const = 0;

 private:
  std::string name_;
  bool lossless_;
  KernelClass ck_, dk_;
  bool cached_;
  int allocs_;
  double exposure_c_, exposure_d_;
  double derate_;
  telemetry::Counter* c_calls_;
  telemetry::Counter* c_in_;
  telemetry::Counter* c_out_;
  telemetry::Counter* d_calls_;
  telemetry::Counter* d_in_;
  telemetry::Counter* d_out_;
  telemetry::LatencyHistogram* c_seconds_;
  telemetry::LatencyHistogram* d_seconds_;
};

class MgardCompressor final : public CompressorBase {
 public:
  MgardCompressor(std::string name, bool cached, int allocs,
                  double exposure_c, double exposure_d, double derate)
      : CompressorBase(std::move(name), false, KernelClass::MgardCompress,
                       KernelClass::MgardDecompress, cached, allocs,
                       exposure_c, exposure_d, derate) {}

  std::vector<std::uint8_t> do_compress(const Device& dev, const void* data,
                                        const Shape& shape, DType dtype,
                                        double eb) const override {
    if (dtype == DType::F32)
      return mgard::compress(
          dev, NDView<const float>(static_cast<const float*>(data), shape),
          eb);
    return mgard::compress(
        dev, NDView<const double>(static_cast<const double*>(data), shape),
        eb);
  }

  void do_decompress(const Device& dev, std::span<const std::uint8_t> stream,
                     void* out, const Shape& shape,
                     DType dtype) const override {
    if (dtype == DType::F32)
      mgard::decompress(dev, stream,
                        NDView<float>(static_cast<float*>(out), shape));
    else
      mgard::decompress(dev, stream,
                        NDView<double>(static_cast<double*>(out), shape));
  }
};

class ZfpCompressor final : public CompressorBase {
 public:
  ZfpCompressor(std::string name, bool cached, int allocs,
                double exposure_c, double exposure_d, double derate)
      : CompressorBase(std::move(name), false, KernelClass::ZfpEncode,
                       KernelClass::ZfpDecode, cached, allocs, exposure_c,
                       exposure_d, derate) {}

  std::vector<std::uint8_t> do_compress(const Device& dev, const void* data,
                                        const Shape& shape, DType dtype,
                                        double eb) const override {
    const double rate = rate_from_eb(eb, dtype);
    if (dtype == DType::F32)
      return zfp::compress(
          dev, NDView<const float>(static_cast<const float*>(data), shape),
          rate);
    return zfp::compress(
        dev, NDView<const double>(static_cast<const double*>(data), shape),
        rate);
  }

  void do_decompress(const Device& dev, std::span<const std::uint8_t> stream,
                     void* out, const Shape& shape,
                     DType dtype) const override {
    if (dtype == DType::F32)
      zfp::decompress(dev, stream,
                      NDView<float>(static_cast<float*>(out), shape));
    else
      zfp::decompress(dev, stream,
                      NDView<double>(static_cast<double*>(out), shape));
  }
};

/// cuSZ v0.6 baseline — uses the authentic dual-quantization codec (the
/// design that makes cuSZ's kernels parallel; sz.hpp).
class SzCompressor final : public CompressorBase {
 public:
  SzCompressor()
      : CompressorBase("cusz", false, KernelClass::SzCompress,
                       KernelClass::SzDecompress, /*cached=*/false,
                       /*allocs=*/28, /*exposure_c=*/0.67,
                       /*exposure_d=*/0.62, /*derate=*/1.25) {}

  std::vector<std::uint8_t> do_compress(const Device& dev, const void* data,
                                        const Shape& shape, DType dtype,
                                        double eb) const override {
    if (dtype == DType::F32)
      return sz::compress(
          dev, NDView<const float>(static_cast<const float*>(data), shape),
          eb);
    return sz::compress(
        dev, NDView<const double>(static_cast<const double*>(data), shape),
        eb);
  }

  void do_decompress(const Device& dev, std::span<const std::uint8_t> stream,
                     void* out, const Shape& shape,
                     DType dtype) const override {
    if (dtype == DType::F32)
      sz::decompress(dev, stream,
                     NDView<float>(static_cast<float*>(out), shape));
    else
      sz::decompress(dev, stream,
                     NDView<double>(static_cast<double*>(out), shape));
  }
};

class Lz4Compressor final : public CompressorBase {
 public:
  Lz4Compressor()
      : CompressorBase("nvcomp-lz4", true, KernelClass::Lz4Compress,
                       KernelClass::Lz4Decompress, /*cached=*/false,
                       /*allocs=*/10, /*exposure_c=*/0.17,
                       /*exposure_d=*/0.21, /*derate=*/1.1) {}

  std::vector<std::uint8_t> do_compress(const Device& dev, const void* data,
                                        const Shape& shape, DType dtype,
                                        double) const override {
    return lz4::compress(
        dev, {static_cast<const std::uint8_t*>(data),
              shape.size() * dtype_size(dtype)});
  }

  void do_decompress(const Device& dev, std::span<const std::uint8_t> stream,
                     void* out, const Shape& shape,
                     DType dtype) const override {
    lz4::decompress(
        dev, stream,
        {static_cast<std::uint8_t*>(out), shape.size() * dtype_size(dtype)});
  }
};

class HuffmanCompressor final : public CompressorBase {
 public:
  HuffmanCompressor()
      : CompressorBase("huffman-x", true, KernelClass::HuffmanEncode,
                       KernelClass::HuffmanDecode, /*cached=*/true,
                       /*allocs=*/0) {}

  std::vector<std::uint8_t> do_compress(const Device& dev, const void* data,
                                        const Shape& shape, DType dtype,
                                        double) const override {
    return huffman::compress_bytes(
        dev, {static_cast<const std::uint8_t*>(data),
              shape.size() * dtype_size(dtype)});
  }

  void do_decompress(const Device& dev, std::span<const std::uint8_t> stream,
                     void* out, const Shape& shape,
                     DType dtype) const override {
    huffman::decompress_bytes(
        dev, stream,
        {static_cast<std::uint8_t*>(out), shape.size() * dtype_size(dtype)});
  }
};

}  // namespace

std::shared_ptr<const Compressor> make_compressor(const std::string& name) {
  // HPDR pipelines: context-cached, no per-call device memory management.
  if (name == "mgard-x")
    return std::make_shared<MgardCompressor>("mgard-x", true, 0, 0.022,
                                             0.065, 1.0);
  if (name == "zfp-x")
    return std::make_shared<ZfpCompressor>("zfp-x", true, 0, 0.02, 0.05,
                                           1.0);
  if (name == "huffman-x") return std::make_shared<HuffmanCompressor>();
  // Baselines: per-call allocation counts reflect the reference
  // implementations' buffer management (MGARD-GPU builds a hierarchy per
  // call; cuSZ allocates codebooks, workspaces, and outlier buffers; ZFP
  // and nvCOMP allocate stream workspaces).
  if (name == "mgard-gpu")
    return std::make_shared<MgardCompressor>("mgard-gpu", false, 36, 0.19,
                                             0.16, 4.0);
  if (name == "zfp-cuda")
    return std::make_shared<ZfpCompressor>("zfp-cuda", false, 24, 0.62,
                                           0.48, 1.15);
  if (name == "cusz") return std::make_shared<SzCompressor>();
  if (name == "nvcomp-lz4") return std::make_shared<Lz4Compressor>();
  HPDR_REQUIRE(false, "unknown compressor '" << name << "'");
  return nullptr;
}

std::vector<std::string> compressor_names() {
  return {"mgard-x",  "zfp-x", "huffman-x",  "mgard-gpu",
          "zfp-cuda", "cusz",  "nvcomp-lz4"};
}

}  // namespace hpdr
