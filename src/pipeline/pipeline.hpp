#ifndef HPDR_PIPELINE_PIPELINE_HPP
#define HPDR_PIPELINE_PIPELINE_HPP

/// \file pipeline.hpp
/// End-to-end reduction/reconstruction pipelines (paper §V, Fig. 9). Input
/// tensors are chunked along the slowest dimension; each chunk flows through
/// the HDEM task DAG:
///
///   reduction:      H2D → Reduce → D2H(output) → Serialize
///   reconstruction: CopyIn(H2D) → Deserialize(D2H) → Reconstruct → CopyOut
///
/// across three queues with two input/output buffer pairs. The dotted-edge
/// dependencies of Fig. 9 (queue X waits on queue (X+2)%3's serialize) make
/// two buffer pairs sufficient; the red-edge launch-order reversal issues
/// the next chunk's deserialization before the previous chunk's output copy
/// so reconstruction overlaps the copy.
///
/// Three modes reproduce the paper's comparison (Figs. 10/13/14):
///   None     — no overlap: alloc (for non-CMM baselines), H2D, kernel, D2H
///              run back-to-back on one queue, whole tensor at once;
///   Fixed    — pipelined with a constant chunk size;
///   Adaptive — Alg. 4: start small, grow each chunk to what the H2D engine
///              can ship while the compute engine works (Φ and Θ models);
///              a host device has no H2D engine, so its chunks never grow.
///
/// Chunks are *real*: every chunk is independently compressed by the actual
/// codec, so the compression-ratio effects of chunking (Fig. 14) are
/// genuine measurements. Only a SimGpu device bills the task DAG, with
/// durations from the calibrated device model (see DESIGN.md §1); a host
/// device's result carries no modeled time (an empty timeline), since its
/// real cost is the host clock the codec.<name>.* histograms record.
///
/// Container format v4 (DESIGN.md §8.2) frames every chunk with a codec tag
/// and an XXH64 checksum (v2 streams, FNV-1a framed, still decode): a chunk
/// whose codec fails is retried then stored through the lossless
/// passthrough fallback, and a chunk corrupted at rest is detected at
/// decode and — under ChunkRecovery::Skip — zero-filled instead of
/// poisoning the whole tensor (partial reconstruction).

#include <cstdint>
#include <span>
#include <vector>

#include "compressor/compressor.hpp"
#include "runtime/hdem.hpp"
#include "telemetry/manifest.hpp"

namespace hpdr::pipeline {

enum class Mode { None, Fixed, Adaptive };
const char* to_string(Mode m);

/// What decompress() does with a chunk whose checksum or decode fails
/// (DESIGN.md §8): Strict rejects the whole stream (the historical
/// behaviour — corruption must never silently decode); Skip zero-fills the
/// chunk's rows, records its index, and reconstructs the rest (partial
/// reconstruction — one bad chunk no longer destroys the tensor).
enum class ChunkRecovery { Strict, Skip };

/// Content-addressed chunk cache consulted by the chunk loops (DESIGN.md
/// §14). The serving layer implements it (svc::ChunkCache) so repeat
/// compressions of an identical raw chunk skip the codec and return the
/// cached compressed frame, and hot decompressions of an identical frame
/// return the cached raw bytes. Implementations must be thread-safe (the
/// chunk loops call from pool workers concurrently) and must return byte
/// values identical to what the codec would produce — the pipeline's
/// determinism guarantee extends across any hit/miss mix.
class ChunkCacheBase {
 public:
  virtual ~ChunkCacheBase() = default;

  /// Encode direction: cached compressed frame for a raw chunk. On hit
  /// fills `blob` and the frame's XXH64 `checksum` (computed at insert,
  /// so a hit re-frames without rehashing the payload).
  virtual bool get_frame(std::uint64_t raw_hash, std::uint64_t meta_hash,
                         std::vector<std::uint8_t>& blob,
                         std::uint64_t& checksum) = 0;
  virtual void put_frame(std::uint64_t raw_hash, std::uint64_t meta_hash,
                         std::span<const std::uint8_t> blob,
                         std::uint64_t checksum) = 0;

  /// Decode direction: cached raw bytes for a compressed frame, keyed on
  /// the per-chunk checksum the framing already carries. On hit copies
  /// exactly `bytes` into `dst` (an entry of a different size is a miss).
  virtual bool get_raw(std::uint64_t frame_checksum, std::uint64_t meta_hash,
                       std::uint8_t* dst, std::size_t bytes) = 0;
  virtual void put_raw(std::uint64_t frame_checksum, std::uint64_t meta_hash,
                       std::span<const std::uint8_t> raw) = 0;
};

struct Options {
  Mode mode = Mode::Adaptive;
  /// Reduction knob: relative error bound (MGARD/SZ) or eb→rate (ZFP).
  double param = 1e-3;
  std::size_t fixed_chunk_bytes = std::size_t{100} << 20;  ///< Fixed mode
  std::size_t init_chunk_bytes = std::size_t{16} << 20;    ///< Alg. 4 C_init
  std::size_t max_chunk_bytes = std::size_t{2} << 30;      ///< Alg. 4 C_limit
  /// Disable the Fig. 9 red-edge launch-order reversal (ablation).
  bool reorder_launches = true;
  /// When false, Fixed/Adaptive chunking still applies but every task runs
  /// on one queue with a device synchronization after each chunk — the
  /// "no overlapping pipeline" baseline of Figs. 13/14 (existing
  /// non-HPDR reduction loops process chunk-by-chunk synchronously).
  bool overlap = true;
  /// Re-attempts for a chunk whose codec throws before the chunk falls back
  /// to the lossless passthrough codec (stored raw, tagged in the stream).
  int codec_retries = 1;
  /// Corrupt-chunk policy on decompress; see ChunkRecovery.
  ChunkRecovery recovery = ChunkRecovery::Strict;
  /// Store every chunk via the lossless kTagRaw passthrough framing
  /// without invoking the codec at all — the degraded-service mode an
  /// open circuit breaker selects (DESIGN.md §13). The stream stays
  /// self-describing and decodable (raw chunks skip the codec on decode);
  /// only the compression ratio is sacrificed.
  bool force_passthrough = false;
  /// Optional dedup chunk cache (non-owning; thread-safe; DESIGN.md §14).
  /// Consulted per chunk on both paths. Ignored while a fault plan is
  /// armed (a hit would skip the chunk's indexed fault draws and diverge
  /// from the injected-failure accounting) and under force_passthrough
  /// (cached frames are codec-tagged; degraded streams must stay raw).
  ChunkCacheBase* cache = nullptr;
};

/// Result of a pipelined reduction.
struct CompressResult {
  std::vector<std::uint8_t> stream;    ///< self-describing chunk container
  Timeline timeline;                   ///< HDEM schedule; empty on hosts
  std::size_t raw_bytes = 0;
  std::vector<std::size_t> chunk_rows; ///< slab count per chunk (tests)
  /// Per-chunk scheduler record: model predictions vs. realized simulated
  /// durations — the run-manifest payload for Alg. 4 tuning. The model
  /// fields are zero on host devices.
  std::vector<telemetry::ChunkDecision> decisions;
  /// Chunks that exhausted codec retries and were stored via the lossless
  /// passthrough fallback (still bit-exact on reconstruction).
  std::size_t fallback_chunks = 0;
  /// Codec re-attempts absorbed across all chunks.
  std::size_t codec_retries = 0;
  /// Dedup-cache outcome (zero unless Options::cache was consulted). Host
  /// wall time lives in the codec.<name>.*.seconds and
  /// svc.cache.hit.latency histograms, not here (DESIGN.md §14).
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;

  /// Modeled HDEM makespan of the simulated DAG, not host wall time; 0 on
  /// host devices, as are model_gbps() and overlap().
  double model_seconds() const { return timeline.makespan(); }
  double model_gbps() const {
    const double s = model_seconds();
    return s > 0 ? static_cast<double>(raw_bytes) / (s * 1e9) : 0.0;
  }
  double ratio() const {
    return stream.empty() ? 0.0
                          : static_cast<double>(raw_bytes) /
                                static_cast<double>(stream.size());
  }
  double overlap() const { return timeline.overlap_ratio(); }
};

/// Result of a pipelined reconstruction.
struct DecompressResult {
  Timeline timeline;
  std::size_t raw_bytes = 0;
  /// Chunk indices detected corrupt (checksum mismatch or decode failure)
  /// and zero-filled under ChunkRecovery::Skip. Empty on a clean stream.
  std::vector<std::size_t> corrupt_chunks;
  /// Dedup-cache outcome; see CompressResult.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  bool partial() const { return !corrupt_chunks.empty(); }
  /// Modeled time; see CompressResult.
  double model_seconds() const { return timeline.makespan(); }
  double model_gbps() const {
    const double s = model_seconds();
    return s > 0 ? static_cast<double>(raw_bytes) / (s * 1e9) : 0.0;
  }
};

/// Compress `data` through the pipeline. The container records the chunking
/// so decompress() can reassemble the tensor.
CompressResult compress(const Device& dev, const Compressor& comp,
                        const void* data, const Shape& shape, DType dtype,
                        const Options& opts);

/// Reconstruct into `out` (shape.size() elements of dtype).
DecompressResult decompress(const Device& dev, const Compressor& comp,
                            std::span<const std::uint8_t> stream, void* out,
                            const Shape& shape, DType dtype,
                            const Options& opts);

/// Peek at a container: original shape/dtype and chunk count.
struct StreamInfo {
  Shape shape;
  DType dtype = DType::F32;
  std::size_t num_chunks = 0;
  std::string compressor;
  std::uint8_t version = 0;          ///< container version (2/4 = framed
                                     ///< by FNV-1a/XXH64, 3 = progressive)
  std::size_t fallback_chunks = 0;   ///< chunks stored via passthrough
                                     ///< (v3: raw-mode chunks)
  std::size_t components = 0;        ///< v3: refinement components indexed
};
StreamInfo inspect(std::span<const std::uint8_t> stream);

}  // namespace hpdr::pipeline

#endif  // HPDR_PIPELINE_PIPELINE_HPP
