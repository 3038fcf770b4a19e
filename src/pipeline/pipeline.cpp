#include "pipeline/pipeline.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/bitstream.hpp"
#include "core/checksum.hpp"
#include "core/error.hpp"
#include "core/thread_pool.hpp"
#include "fault/cancel.hpp"
#include "fault/fault.hpp"
#include "pipeline/adaptive.hpp"
#include "pipeline/progressive.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "telemetry/trace_context.hpp"

namespace hpdr::pipeline {
namespace {

/// Pipeline instruments, looked up once (registry lookups take a lock; the
/// references are stable for the life of the process).
struct Instruments {
  telemetry::Counter& compress_calls =
      telemetry::counter("pipeline.compress.calls");
  telemetry::Counter& compress_chunks =
      telemetry::counter("pipeline.compress.chunks");
  telemetry::Counter& compress_raw_bytes =
      telemetry::counter("pipeline.compress.raw_bytes");
  telemetry::Counter& compress_stored_bytes =
      telemetry::counter("pipeline.compress.stored_bytes");
  telemetry::Counter& decompress_calls =
      telemetry::counter("pipeline.decompress.calls");
  telemetry::Counter& decompress_raw_bytes =
      telemetry::counter("pipeline.decompress.raw_bytes");
  telemetry::Counter& rows_calls =
      telemetry::counter("pipeline.decompress_rows.calls");
  telemetry::Counter& rows_chunks_skipped =
      telemetry::counter("pipeline.decompress_rows.chunks_skipped");
  // Resilience counters (DESIGN.md §8) — all under fault.* so a fault-free
  // run asserts to zero across the family.
  telemetry::Counter& encode_retries =
      telemetry::counter("fault.chunk.encode_retries");
  telemetry::Counter& fallbacks =
      telemetry::counter("fault.chunk.fallbacks");
  telemetry::Counter& corrupt_detected =
      telemetry::counter("fault.chunk.corrupt_detected");
  telemetry::Counter& chunks_skipped =
      telemetry::counter("fault.chunk.skipped");
  // 64 KiB … 4 GiB in powers of four.
  telemetry::Histogram& chunk_bytes = telemetry::histogram(
      "pipeline.chunk_bytes", telemetry::exp_buckets(65536.0, 4.0, 9));
  // Peak pool workers concurrently inside a chunk loop (1, 2, 4, … 128):
  // the host execution engine's occupancy record (DESIGN.md §9).
  telemetry::Histogram& pool_occupancy = telemetry::histogram(
      "pipeline.pool.occupancy", telemetry::exp_buckets(1.0, 2.0, 8));

  static Instruments& get() {
    static Instruments i;
    return i;
  }
};

/// Chunk-level vs. intra-kernel parallelism split (DESIGN.md §9): with C
/// chunks on P pool threads, the chunk loop takes min(C, P) workers, so
/// each OpenMP/SimGpu codec invocation is capped to the leftover P/min(C,P)
/// threads — the two levels never oversubscribe the machine. StdThread
/// codecs need no cap: their nested parallel_for shares the chunk pool's
/// task queue and balances automatically.
class KernelWidthSplit {
 public:
  KernelWidthSplit(std::size_t chunks, const Device& dev) {
#ifdef _OPENMP
    if (chunks > 1 && (dev.kind() == DeviceKind::OpenMP ||
                       dev.kind() == DeviceKind::SimGpu)) {
      const unsigned cores = ThreadPool::instance().concurrency();
      const unsigned width =
          static_cast<unsigned>(std::min<std::size_t>(chunks, cores));
      inner_ = static_cast<int>(std::max(1u, cores / width));
      saved_ = omp_get_max_threads();
      active_ = true;
    }
#else
    (void)chunks;
    (void)dev;
#endif
  }

  ~KernelWidthSplit() {
#ifdef _OPENMP
    // Pool workers get their width overwritten by the next apply(); only
    // the calling thread's OpenMP setting outlives the chunk loop.
    if (active_) omp_set_num_threads(saved_);
#endif
  }

  /// Call at the top of each chunk task: caps the executing thread's next
  /// OpenMP parallel region to the intra-kernel share.
  void apply() const {
#ifdef _OPENMP
    if (active_) omp_set_num_threads(inner_);
#endif
  }

 private:
  int inner_ = 1;
  int saved_ = 0;
  bool active_ = false;
};

/// Per-thread decode scratch for boundary chunks, reused across chunks and
/// calls. A user takes the buffer out of the slot and puts it back when
/// done: a codec's nested parallel_for may run another chunk of the same
/// loop on this thread while it waits, and that chunk needs its own buffer.
std::vector<std::uint8_t>& scratch_slot() {
  thread_local std::vector<std::uint8_t> slot;
  return slot;
}

constexpr std::uint8_t kMagic = 0x48;  // 'H'
/// v1: [rows][size] per chunk; v2 adds a codec tag and an FNV-1a checksum
/// per chunk (stream-format v2 chunk framing, DESIGN.md §8). Readers accept
/// both; writers emit v2.
constexpr std::uint8_t kVersion = 2;
constexpr std::uint8_t kMinVersion = 1;
/// Chunk codec tags (v2).
constexpr std::uint8_t kTagCodec = 0;  ///< payload from the named codec
constexpr std::uint8_t kTagRaw = 1;    ///< lossless passthrough fallback
constexpr double kSerializeBytes = 256;  // metadata embedded per chunk
/// Unpipelined baselines copy straight from/to pageable application buffers
/// (§II-B: "host memory is typically used by applications to save output
/// data"); the HPDR pipeline stages through pinned buffers. Pageable
/// transfers sustain roughly a third of the pinned link rate.
constexpr double kPageablePenalty = 0.35;

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::None:
      return "none";
    case Mode::Fixed:
      return "fixed";
    case Mode::Adaptive:
      return "adaptive";
  }
  return "?";
}

/// Chunking geometry: slabs along the slowest dimension.
struct Slabs {
  std::size_t rows = 0;        ///< shape[0]
  std::size_t slab_elems = 0;  ///< elements per slab
  std::size_t slab_bytes = 0;

  Slabs(const Shape& shape, DType dtype) {
    HPDR_REQUIRE(shape.rank() >= 1 && shape.size() > 0,
                 "pipeline needs a non-empty tensor");
    rows = shape[0];
    slab_elems = shape.size() / rows;
    slab_bytes = slab_elems * dtype_size(dtype);
  }

  Shape chunk_shape(const Shape& full, std::size_t chunk_rows) const {
    Shape s = full;
    s[0] = chunk_rows;
    return s;
  }
};

/// Parsed container header + chunk table (both format versions).
struct Header {
  std::uint8_t version = 0;
  std::string compressor;
  DType dtype = DType::F32;
  Shape shape = Shape::of_rank(1);
  std::uint8_t mode = 0;
  std::vector<std::size_t> rows;
  std::vector<std::size_t> sizes;
  std::vector<std::uint8_t> tags;            ///< kTagCodec for v1 streams
  std::vector<std::uint64_t> checksums;      ///< empty for v1 streams

  bool framed() const { return version >= 2; }
};

/// Parse and sanity-cap the header; `in` is left at the first chunk blob.
/// Every count/length is bounded against the actual container size before
/// any allocation, so a flipped size field is rejected, not malloc'd.
Header parse_header(ByteReader& in) {
  Header h;
  HPDR_REQUIRE(in.get_u8() == kMagic, "not an HPDR pipeline container");
  h.version = in.get_u8();
  HPDR_REQUIRE(h.version >= kMinVersion && h.version <= kVersion,
               "unsupported container version "
                   << static_cast<int>(h.version));
  h.compressor = in.get_string();
  const auto dtype_raw = in.get_u8();
  HPDR_REQUIRE(dtype_raw <= 1, "corrupt container dtype");
  h.dtype = static_cast<DType>(dtype_raw);
  const std::size_t rank = in.get_u8();
  HPDR_REQUIRE(rank >= 1 && rank <= kMaxRank, "corrupt container rank");
  h.shape = Shape::of_rank(rank);
  for (std::size_t d = 0; d < rank; ++d) h.shape[d] = in.get_varint();
  h.mode = in.get_u8();
  const std::size_t nchunks = in.get_varint();
  // A chunk holds at least one slab, its table entry at least two bytes.
  HPDR_REQUIRE(nchunks <= h.shape[0] && nchunks <= in.remaining() / 2 + 1,
               "implausible chunk count");
  h.rows.resize(nchunks);
  h.sizes.resize(nchunks);
  h.tags.assign(nchunks, kTagCodec);
  if (h.framed()) h.checksums.resize(nchunks);
  std::size_t total = 0;
  for (std::size_t c = 0; c < nchunks; ++c) {
    h.rows[c] = in.get_varint();
    h.sizes[c] = in.get_varint();
    if (h.framed()) {
      h.tags[c] = in.get_u8();
      HPDR_REQUIRE(h.tags[c] <= kTagRaw, "corrupt chunk codec tag");
      h.checksums[c] = in.get_u64();
    }
    total += h.sizes[c];
    HPDR_REQUIRE(h.sizes[c] <= in.remaining() && total <= in.remaining(),
                 "chunk table exceeds container size");
  }
  return h;
}

/// Dedup-cache key derivation (DESIGN.md §14). A key is the pair
/// (content hash, meta hash): the content hash addresses the bytes being
/// transformed (raw chunk on encode; the v2 framing checksum on decode —
/// reused, never recomputed, per the serving-path contract), and the meta
/// hash pins everything else that shapes the output. Direction salts keep
/// an encode entry from ever answering a decode lookup of colliding hashes.
constexpr std::uint64_t kCacheFrameSalt = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kCacheRawSalt = 0xc2b2ae3d27d4eb4full;

/// Per-call meta base: codec identity, dtype and the chunk-invariant shape
/// dims (dim 0 varies per chunk and is folded per lookup). `param` is the
/// error bound for encode keys; decode is param-independent (frames are
/// self-describing), callers pass 0.
std::uint64_t cache_meta_base(std::uint64_t salt, const std::string& codec,
                              DType dtype, const Shape& shape, double param) {
  std::uint64_t h = fnv1a64(
      {reinterpret_cast<const std::uint8_t*>(codec.data()), codec.size()},
      salt);
  h = fnv1a64_fold(static_cast<std::uint8_t>(dtype), h);
  h = fnv1a64_fold(shape.rank(), h);
  for (std::size_t d = 1; d < shape.rank(); ++d) h = fnv1a64_fold(shape[d], h);
  return fnv1a64_fold(param, h);
}

/// Cache participation gate for one pipeline call: opt-in via Options,
/// never while a fault plan is armed (hits would skip indexed fault draws
/// and diverge from cache-off accounting), never in degraded passthrough
/// mode (cached frames are codec-tagged).
ChunkCacheBase* cache_for(const Options& opts) {
  if (opts.cache == nullptr || opts.force_passthrough) return nullptr;
  if (fault::Injector::instance().armed()) return nullptr;
  return opts.cache;
}

void check_stream_matches(const Header& h, const Compressor& comp,
                          const Shape& shape, DType dtype) {
  HPDR_REQUIRE(h.compressor == comp.name(),
               "stream was produced by '" << h.compressor << "', not '"
                                          << comp.name() << "'");
  HPDR_REQUIRE(h.dtype == dtype, "container dtype mismatch");
  HPDR_REQUIRE(h.shape == shape, "container shape " << h.shape.to_string()
                                                    << " != "
                                                    << shape.to_string());
}

/// Decode chunk `c` into `dst` with checksum verification and containment.
/// Returns true on success; false when the chunk is corrupt and `recovery`
/// is Skip (dst is zero-filled, telemetry recorded). Throws under Strict.
///
/// With a cache, codec-tagged framed chunks first consult the raw-bytes
/// store keyed on the framing checksum the chunk table already carries
/// (satellite of DESIGN.md §14: the serving path never rehashes the
/// payload). A hit skips both the verification hash and the codec — the
/// cached bytes were produced from a frame whose payload hashed to
/// exactly this key. A miss verifies and decodes as before, then
/// populates the store so the next request for this frame is a memcpy.
bool decode_chunk(const Device& dev, const Compressor& comp, const Header& h,
                  std::size_t c, std::span<const std::uint8_t> blob,
                  std::uint8_t* dst, const Shape& chunk_shape,
                  std::size_t chunk_bytes, ChunkRecovery recovery,
                  ChunkCacheBase* cache, std::uint64_t meta_base,
                  std::uint8_t& cache_hit, std::uint8_t& cache_miss) {
  auto& ins = Instruments::get();
  std::uint64_t cmeta = 0;
  const bool cacheable =
      cache != nullptr && h.framed() && h.tags[c] == kTagCodec;
  if (cacheable) {
    cmeta = fnv1a64_fold(blob.size(), fnv1a64_fold(h.rows[c], meta_base));
    if (cache->get_raw(h.checksums[c], cmeta, dst, chunk_bytes)) {
      cache_hit = 1;
      return true;
    }
    cache_miss = 1;
  }
  const char* why = nullptr;
  if (h.framed() && fnv1a64(blob) != h.checksums[c]) {
    ins.corrupt_detected.add();
    why = "checksum mismatch";
  } else if (h.tags[c] == kTagRaw) {
    if (blob.size() != chunk_bytes) {
      ins.corrupt_detected.add();
      why = "passthrough chunk size mismatch";
    } else {
      std::memcpy(dst, blob.data(), blob.size());
      return true;
    }
  } else {
    try {
      comp.decompress(dev, blob, dst, chunk_shape, h.dtype);
      if (cacheable)
        cache->put_raw(h.checksums[c], cmeta, {dst, chunk_bytes});
      return true;
    } catch (const Error& e) {
      // A fired cancel token is a job abort, not chunk corruption: Skip
      // recovery must not zero-fill and carry on.
      if (is_cancellation(e)) throw;
      if (recovery == ChunkRecovery::Strict) throw;
      ins.corrupt_detected.add();
      why = "decode failure";
    }
  }
  HPDR_REQUIRE(recovery == ChunkRecovery::Skip,
               "chunk " << c << " corrupt (" << why << ")");
  std::memset(dst, 0, chunk_bytes);
  ins.chunks_skipped.add();
  return false;
}

/// True for a v3 progressive container (handled by ProgressiveReader, not
/// the v1/v2 decoder below).
bool is_progressive_stream(std::span<const std::uint8_t> stream) {
  return stream.size() >= 2 && stream[0] == kMagic && stream[1] == 3;
}

/// The one v1/v2 decoder (DESIGN.md §9): reconstruct rows [row_begin,
/// row_end) of the tensor into `out` and bill the Fig. 9 reconstruction DAG
/// over exactly the chunks that overlap them. decompress() is the
/// whole-tensor call, decompress_rows() the range-checked one.
DecompressResult decode_rows(const Device& dev, const Compressor& comp,
                             std::span<const std::uint8_t> stream, void* out,
                             const Shape& shape, DType dtype,
                             std::size_t row_begin, std::size_t row_end,
                             const Options& opts) {
  HPDR_REQUIRE(!is_progressive_stream(stream),
               "v3 progressive container: decode through "
               "pipeline::ProgressiveReader (refine to a bound)");
  auto& ins = Instruments::get();
  ByteReader in(stream);
  const Header h = parse_header(in);
  check_stream_matches(h, comp, shape, dtype);
  const Slabs slabs(shape, dtype);
  const GpuPerfModel model(dev.spec());
  const bool gpu = dev.spec().is_gpu();
  auto* out_bytes = static_cast<std::uint8_t*>(out);

  // Serial planning pass over the chunk table: which chunks overlap the row
  // range, where their blobs sit, and which of their decoded bytes land
  // where in the output.
  struct Touched {
    std::size_t c;         ///< chunk index in the stream
    std::size_t blob_off;  ///< payload-relative blob offset
    std::size_t skip;      ///< decoded bytes of the chunk before the range
    std::size_t bytes;     ///< decoded bytes of the chunk inside the range
    std::size_t out_off;   ///< byte offset into `out`
  };
  const std::uint8_t* payload =
      stream.data() + (stream.size() - in.remaining());
  std::vector<Touched> touched;
  std::size_t off = 0;
  std::size_t row = 0;
  std::size_t written = 0;
  for (std::size_t c = 0; c < h.rows.size(); ++c) {
    // A subtraction, so a corrupt row count cannot wrap `row`.
    HPDR_REQUIRE(h.rows[c] <= slabs.rows - row, "chunks overrun the tensor");
    const std::size_t c_begin = row;
    row += h.rows[c];
    off += h.sizes[c];
    HPDR_REQUIRE(off <= in.remaining(), "chunk blobs exceed container size");
    if (row <= row_begin || c_begin >= row_end) {
      ins.rows_chunks_skipped.add();
      continue;
    }
    const std::size_t ov_begin = std::max(c_begin, row_begin);
    const std::size_t bytes =
        (std::min(row, row_end) - ov_begin) * slabs.slab_bytes;
    touched.push_back({c, off - h.sizes[c],
                       (ov_begin - c_begin) * slabs.slab_bytes, bytes,
                       written});
    written += bytes;
  }
  HPDR_REQUIRE(written == (row_end - row_begin) * slabs.slab_bytes,
               "chunks do not cover rows [" << row_begin << ", " << row_end
                                            << ")");
  const std::size_t n = touched.size();

  // Decode the touched chunks in parallel. Whole chunks decode straight
  // into the output; a chunk straddling the range boundary decodes into
  // the pooled scratch and is cropped. Corrupt chunks zero-fill under
  // ChunkRecovery::Skip — partial reconstruction — and reject the stream
  // under Strict; their indices gather in chunk order afterwards.
  DecompressResult result;
  {
    telemetry::Span span("pipeline.decode", "pipeline");
    auto& pool = ThreadPool::instance();
    pool.reset_peak();
    const KernelWidthSplit split(n, dev);
    std::vector<std::uint8_t> chunk_ok(n, 1);
    std::vector<std::uint8_t> cache_hit(n, 0);
    std::vector<std::uint8_t> cache_miss(n, 0);
    // Overlapping subdomain reads are the dedup cache's decode sweet spot:
    // a boundary chunk decoded for one row range hits for every
    // neighbouring range that touches the same chunk.
    ChunkCacheBase* const cache = cache_for(opts);
    const std::uint64_t meta_base =
        cache != nullptr ? cache_meta_base(kCacheRawSalt, h.compressor,
                                           h.dtype, shape, 0.0)
                         : 0;
    const telemetry::TraceContext trace = telemetry::current_trace();
    const fault::CancelToken cancel = fault::current_cancel();
    pool.parallel_for(n, [&](std::size_t i) {
      const telemetry::TraceScope trace_scope(trace);
      const fault::CancelScope cancel_scope(cancel);
      fault::poll_cancel();
      split.apply();
      const Touched& t = touched[i];
      const std::size_t chunk_bytes = h.rows[t.c] * slabs.slab_bytes;
      const bool whole = t.bytes == chunk_bytes;
      std::vector<std::uint8_t> scratch;
      if (!whole) {
        scratch = std::exchange(scratch_slot(), {});
        if (scratch.size() < chunk_bytes) scratch.resize(chunk_bytes);
      }
      std::uint8_t* dst = whole ? out_bytes + t.out_off : scratch.data();
      chunk_ok[i] = decode_chunk(
          dev, comp, h, t.c, {payload + t.blob_off, h.sizes[t.c]}, dst,
          slabs.chunk_shape(shape, h.rows[t.c]), chunk_bytes, opts.recovery,
          cache, meta_base, cache_hit[i], cache_miss[i]);
      if (!whole) {
        std::memcpy(out_bytes + t.out_off, dst + t.skip, t.bytes);
        scratch_slot() = std::move(scratch);
      }
    });
    ins.pool_occupancy.observe(pool.peak_active());
    for (std::size_t i = 0; i < n; ++i) {
      if (!chunk_ok[i]) result.corrupt_chunks.push_back(touched[i].c);
      result.cache_hits += cache_hit[i];
      result.cache_misses += cache_miss[i];
    }
  }

  // HDEM reconstruction DAG (Fig. 9 bottom) over the touched chunks, each
  // copy-out sized to the bytes it delivers. Launch-order optimization:
  // chunk i+1's deserialize is issued before chunk i's output copy so both
  // D2H-engine clients don't serialize behind the (large) output copy.
  const bool pipelined = opts.overlap;
  const double page = pipelined ? 1.0 : kPageablePenalty;
  auto queue = [&](std::size_t i) {
    return pipelined ? static_cast<std::uint32_t>(i % 3) : 0u;
  };
  HdemSimulator sim(3);
  std::vector<std::uint32_t> comp_id(n);
  std::vector<std::uint32_t> copyout_id(n);
  auto submit_copyout = [&](std::size_t i) {
    copyout_id[i] = sim.submit(
        queue(i), EngineId::D2H, "copy-out",
        gpu ? model.d2h().seconds(touched[i].bytes) / page : 0.0);
  };
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = touched[i].c;
    const std::size_t chunk_bytes = h.rows[c] * slabs.slab_bytes;
    const std::uint32_t q = queue(i);
    if (!comp.uses_context_cache()) {
      const double alloc_s =
          gpu ? comp.allocs_per_call() *
                    model.alloc_seconds(chunk_bytes /
                                        std::max(1, comp.allocs_per_call()))
              : 0.0;
      sim.submit(q, EngineId::Compute, "alloc", alloc_s);
    }
    // Input buffer pair frees once chunk i-2's kernel consumed it.
    std::vector<std::uint32_t> in_deps;
    if (pipelined && i >= 2) in_deps.push_back(comp_id[i - 2]);
    sim.submit(q, EngineId::H2D, "copy-in",
               gpu ? model.h2d().seconds(h.sizes[c]) / page : 0.0, {},
               std::move(in_deps));
    // Default (unoptimized) order: the previous output copy is issued to
    // the D2H engine before this chunk's deserialization, delaying it.
    if (!opts.reorder_launches && i >= 1) submit_copyout(i - 1);
    sim.submit(q, EngineId::D2H, "deserialize",
               gpu ? model.d2h().seconds(
                         static_cast<std::size_t>(kSerializeBytes))
                   : 0.0);
    std::vector<std::uint32_t> k_deps;
    if (pipelined && i >= 2) k_deps.push_back(copyout_id[i - 2]);
    comp_id[i] = sim.submit(
        q, EngineId::Compute, "reconstruct",
        comp.kernel_derate() *
            model.kernel_seconds(comp.decompress_kernel(), chunk_bytes),
        {}, std::move(k_deps));
    if (opts.reorder_launches && i >= 1) submit_copyout(i - 1);
  }
  submit_copyout(n - 1);  // n >= 1: the range is non-empty and covered

  result.timeline = sim.run();
  result.raw_bytes = written;
  return result;
}

}  // namespace

const char* to_string(Mode m) { return mode_name(m); }

CompressResult compress(const Device& dev, const Compressor& comp,
                        const void* data, const Shape& shape, DType dtype,
                        const Options& opts) {
  const Slabs slabs(shape, dtype);
  const std::size_t total_bytes = shape.size() * dtype_size(dtype);
  const GpuPerfModel model(dev.spec());
  auto& ins = Instruments::get();
  ins.compress_calls.add();
  ins.compress_raw_bytes.add(total_bytes);
  telemetry::Span span_all("pipeline.compress", "pipeline");

  // Chunk schedule in bytes (whole slabs; four-slab granules when the
  // tensor is tall enough, so chunk boundaries stay aligned with the
  // codecs' 4^d block structure).
  const std::size_t granule =
      slabs.rows >= 8 ? 4 * slabs.slab_bytes : slabs.slab_bytes;
  // Alg. 4's C_limit is "the maximum chunk size limited by GPU memory":
  // the double-buffered pipeline holds two input and two output buffers
  // plus the kernel workspace (~2× input for the codecs here), so a chunk
  // may use at most ~1/6 of device memory.
  const std::size_t mem_limit =
      dev.spec().is_gpu() ? dev.spec().memory_bytes / 6 : SIZE_MAX;
  std::vector<std::size_t> schedule;
  {
    telemetry::Span span("pipeline.schedule", "pipeline");
    switch (opts.mode) {
      case Mode::None:
        schedule = {total_bytes};
        break;
      case Mode::Fixed:
        schedule = fixed_schedule(
            total_bytes, granule,
            std::min(opts.fixed_chunk_bytes, mem_limit));
        break;
      case Mode::Adaptive:
        schedule = adaptive_schedule(
            model, comp.compress_kernel(), total_bytes, granule,
            std::min(opts.init_chunk_bytes, mem_limit),
            std::min(opts.max_chunk_bytes, mem_limit));
        break;
    }
  }
  ins.compress_chunks.add(schedule.size());
  for (std::size_t b : schedule)
    ins.chunk_bytes.observe(static_cast<double>(b));

  // Compress every chunk with the real codec (eagerly: task durations for
  // D2H need the actual compressed sizes). Chunks are independent, so the
  // loop fans out across the process thread pool; every per-chunk result
  // lands in an indexed slot and every fault draw is keyed by the chunk
  // index, so the stream, manifest, and fault accounting are byte-identical
  // to the serial order no matter how the chunks interleave. Per-chunk
  // containment: a codec failure — injected at the hdem.task site or
  // genuine — is retried up to opts.codec_retries times, then the chunk
  // falls back to the lossless passthrough codec so the run completes with
  // that chunk stored raw.
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  const std::size_t nchunks = schedule.size();
  std::vector<std::vector<std::uint8_t>> blobs(nchunks);
  std::vector<std::size_t> chunk_rows(nchunks);
  std::vector<std::size_t> row_begin(nchunks);
  std::vector<std::uint8_t> tags(nchunks, kTagCodec);
  std::vector<std::uint64_t> checksums(nchunks, 0);
  std::vector<std::size_t> retries(nchunks, 0);
  std::vector<int> workers(nchunks, 0);
  std::vector<std::uint8_t> cache_hit(nchunks, 0);
  std::vector<std::uint8_t> cache_miss(nchunks, 0);
  ChunkCacheBase* const cache = cache_for(opts);
  const std::uint64_t meta_base =
      cache != nullptr
          ? cache_meta_base(kCacheFrameSalt, comp.name(), dtype, shape,
                            opts.param)
          : 0;
  {
    std::size_t row = 0;
    for (std::size_t c = 0; c < nchunks; ++c) {
      const std::size_t rows_c = schedule[c] / slabs.slab_bytes;
      HPDR_ASSERT(rows_c >= 1 && schedule[c] % slabs.slab_bytes == 0);
      chunk_rows[c] = rows_c;
      row_begin[c] = row;
      row += rows_c;
    }
    HPDR_ASSERT(row == slabs.rows);
  }
  CompressResult result;
  {
    telemetry::Span span("pipeline.encode", "pipeline");
    auto& pool = ThreadPool::instance();
    pool.reset_peak();
    const KernelWidthSplit split(nchunks, dev);
    const auto max_attempts =
        static_cast<std::size_t>(std::max(0, opts.codec_retries));
    // Carry the caller's request trace — and its cancel token — into the
    // pool workers so per-chunk codec spans attribute to the job that
    // fanned them out and chunk tasks honour the job's deadline.
    const telemetry::TraceContext trace = telemetry::current_trace();
    const fault::CancelToken cancel = fault::current_cancel();
    pool.parallel_for(nchunks, [&](std::size_t c) {
      const telemetry::TraceScope trace_scope(trace);
      const fault::CancelScope cancel_scope(cancel);
      // Chunk boundary: a fired token aborts here; parallel_for propagates
      // the throw and early-exits the remaining chunks, so a cancelled job
      // stops within one chunk's work.
      fault::poll_cancel();
      split.apply();
      workers[c] = ThreadPool::worker_id();
      const Shape cshape = slabs.chunk_shape(shape, chunk_rows[c]);
      const std::uint8_t* src = bytes + row_begin[c] * slabs.slab_bytes;
      // Dedup lookup: content hash of the raw chunk + the call's meta key
      // (codec, eb, dtype, chunk geometry). A hit returns the frame an
      // identical cache-off run would have produced — the codec is
      // deterministic over exactly the fields the key pins — along with
      // its insert-time checksum, so the framing rehash is skipped too.
      std::uint64_t raw_hash = 0;
      std::uint64_t cmeta = 0;
      if (cache != nullptr) {
        raw_hash = fnv1a64({src, schedule[c]});
        cmeta = fnv1a64_fold(chunk_rows[c], meta_base);
        if (cache->get_frame(raw_hash, cmeta, blobs[c], checksums[c])) {
          cache_hit[c] = 1;
          fault::corrupt_at("chunk.corrupt", c, blobs[c]);
          return;
        }
        cache_miss[c] = 1;
      }
      if (opts.force_passthrough) {
        // Degraded mode: raw framing without touching the codec at all.
        blobs[c].assign(src, src + schedule[c]);
        tags[c] = kTagRaw;
        ins.fallbacks.add();
      } else {
        for (std::size_t attempt = 0;; ++attempt) {
          try {
            if (fault::should_fire_at("hdem.task", c, attempt))
              throw Error(ErrorKind::Fault, "injected hdem.task fault");
            blobs[c] = comp.compress(dev, src, cshape, dtype, opts.param);
            break;
          } catch (const Error& e) {
            // Deadline/cancel aborts the job; it must not be absorbed as
            // one more transient codec failure and retried or stored raw.
            if (is_cancellation(e)) throw;
            if (attempt < max_attempts) {
              ++retries[c];
              ins.encode_retries.add();
              continue;
            }
            // Lossless passthrough: the chunk's raw bytes, trivially
            // within any error bound, decodable without the codec.
            blobs[c].assign(src, src + schedule[c]);
            tags[c] = kTagRaw;
            ins.fallbacks.add();
            break;
          }
        }
      }
      // Checksum the payload as produced, then let the fault plan corrupt
      // the stored bytes — decode detects exactly this mismatch. Only a
      // clean codec frame is cacheable: passthrough fallbacks depend on
      // retry state, not content, and raw frames gain nothing over memcpy.
      checksums[c] = fnv1a64(blobs[c]);
      if (cache != nullptr && tags[c] == kTagCodec)
        cache->put_frame(raw_hash, cmeta, blobs[c], checksums[c]);
      fault::corrupt_at("chunk.corrupt", c, blobs[c]);
    });
    ins.pool_occupancy.observe(pool.peak_active());
    for (std::size_t c = 0; c < nchunks; ++c) {
      result.codec_retries += retries[c];
      if (tags[c] == kTagRaw) ++result.fallback_chunks;
      result.cache_hits += cache_hit[c];
      result.cache_misses += cache_miss[c];
    }
  }

  // Build and run the HDEM task DAG (Fig. 9 top).
  telemetry::Span span_sim("pipeline.simulate", "pipeline");
  HdemSimulator sim(3);
  const bool gpu = dev.spec().is_gpu();
  const bool pipelined = opts.overlap && opts.mode != Mode::None;
  std::vector<std::uint32_t> serialize_id(schedule.size());
  std::vector<std::uint32_t> d2h_id(schedule.size());
  std::vector<std::uint32_t> h2d_id(schedule.size());
  std::vector<std::uint32_t> reduce_id(schedule.size());
  for (std::size_t c = 0; c < schedule.size(); ++c) {
    const std::uint32_t q =
        pipelined ? static_cast<std::uint32_t>(c % 3) : 0;
    // Non-CMM baselines pay device memory management on every invocation.
    if (!comp.uses_context_cache()) {
      const double alloc_s =
          gpu ? comp.allocs_per_call() *
                    model.alloc_seconds(schedule[c] / std::max(
                        1, comp.allocs_per_call()))
              : 0.0;
      sim.submit(q, EngineId::Compute, "alloc", alloc_s);
    }
    // H2D of the input chunk; Fig. 9 dotted edge: the buffer pair frees
    // when chunk c-2's serialize finishes.
    std::vector<std::uint32_t> h2d_deps;
    if (pipelined && c >= 2) h2d_deps.push_back(serialize_id[c - 2]);
    const double page = pipelined ? 1.0 : kPageablePenalty;
    h2d_id[c] = sim.submit(q, EngineId::H2D, "h2d",
                           gpu ? model.h2d().seconds(schedule[c]) / page : 0.0,
                           {}, std::move(h2d_deps));
    // Reduction kernel; output buffer frees when chunk c-2's D2H finishes.
    const double kernel_s =
        comp.kernel_derate() *
        model.kernel_seconds(comp.compress_kernel(), schedule[c]);
    // A retried codec task re-executes on the device: each absorbed retry
    // bills one extra kernel occurrence before the successful run.
    for (std::size_t r = 0; r < retries[c]; ++r)
      sim.submit(q, EngineId::Compute, "reduce-retry", kernel_s);
    std::vector<std::uint32_t> comp_deps;
    if (pipelined && c >= 2) comp_deps.push_back(d2h_id[c - 2]);
    reduce_id[c] = sim.submit(q, EngineId::Compute, "reduce", kernel_s, {},
                              std::move(comp_deps));
    // D2H of the compressed output (real size!), then serialization.
    d2h_id[c] = sim.submit(
        q, EngineId::D2H, "d2h",
        gpu ? model.d2h().seconds(blobs[c].size()) / page : 0.0);
    serialize_id[c] = sim.submit(
        q, EngineId::D2H, "serialize",
        gpu ? model.d2h().seconds(static_cast<std::size_t>(kSerializeBytes))
            : 0.0);
    // Unoverlapped baselines synchronize the device after every chunk.
    if (!pipelined && schedule.size() > 1)
      sim.submit(q, EngineId::Compute, "sync",
                 gpu ? 4 * dev.spec().kernel_launch_us * 1e-6 : 0.0);
  }

  result.timeline = sim.run();
  result.raw_bytes = total_bytes;
  result.chunk_rows = chunk_rows;
  span_sim.end();

  // Per-chunk manifest records: what the Φ/Θ models predicted vs. what the
  // simulated schedule realized (task ids index the timeline directly).
  result.decisions.resize(schedule.size());
  for (std::size_t c = 0; c < schedule.size(); ++c) {
    telemetry::ChunkDecision& d = result.decisions[c];
    d.index = c;
    d.bytes = schedule[c];
    d.rows = chunk_rows[c];
    d.stored_bytes = blobs[c].size();
    d.predicted_compute_s =
        comp.kernel_derate() *
        model.kernel_seconds(comp.compress_kernel(), schedule[c]);
    d.predicted_h2d_s = gpu ? model.h2d().seconds(schedule[c]) : 0.0;
    d.realized_compute_s = result.timeline.tasks[reduce_id[c]].duration();
    d.realized_h2d_s = result.timeline.tasks[h2d_id[c]].duration();
    d.fallback = tags[c] == kTagRaw;
    d.retries = retries[c];
    d.worker = workers[c];
  }

  // Container (v2: per-chunk codec tag + checksum framing). The header and
  // chunk table are tiny and go through a ByteWriter; the payload region's
  // exact size is known from the chunk table, so the stream is sized once
  // and every blob is copied straight to its final offset — in parallel —
  // instead of growing a second full-size buffer byte by byte.
  telemetry::Span span_ser("pipeline.serialize", "pipeline");
  ByteWriter head;
  head.put_u8(kMagic);
  head.put_u8(kVersion);
  head.put_string(comp.name());
  head.put_u8(static_cast<std::uint8_t>(dtype));
  head.put_u8(static_cast<std::uint8_t>(shape.rank()));
  for (std::size_t d = 0; d < shape.rank(); ++d) head.put_varint(shape[d]);
  head.put_u8(static_cast<std::uint8_t>(opts.mode));
  head.put_varint(blobs.size());
  std::vector<std::size_t> blob_off(nchunks);
  std::size_t payload = 0;
  for (std::size_t c = 0; c < nchunks; ++c) {
    head.put_varint(chunk_rows[c]);
    head.put_varint(blobs[c].size());
    head.put_u8(tags[c]);
    head.put_u64(checksums[c]);
    blob_off[c] = payload;
    payload += blobs[c].size();
  }
  result.stream = head.take();
  const std::size_t base = result.stream.size();
  result.stream.resize(base + payload);
  ThreadPool::instance().parallel_for(nchunks, [&](std::size_t c) {
    if (!blobs[c].empty())
      std::memcpy(result.stream.data() + base + blob_off[c], blobs[c].data(),
                  blobs[c].size());
  });
  ins.compress_stored_bytes.add(result.stream.size());
  return result;
}

DecompressResult decompress(const Device& dev, const Compressor& comp,
                            std::span<const std::uint8_t> stream, void* out,
                            const Shape& shape, DType dtype,
                            const Options& opts) {
  auto& ins = Instruments::get();
  ins.decompress_calls.add();
  telemetry::Span span_all("pipeline.decompress", "pipeline");
  DecompressResult result =
      decode_rows(dev, comp, stream, out, shape, dtype, 0,
                  Slabs(shape, dtype).rows, opts);
  ins.decompress_raw_bytes.add(result.raw_bytes);
  return result;
}

DecompressResult decompress_rows(const Device& dev, const Compressor& comp,
                                 std::span<const std::uint8_t> stream,
                                 void* out, const Shape& shape, DType dtype,
                                 std::size_t row_begin, std::size_t row_end,
                                 const Options& opts) {
  HPDR_REQUIRE(row_begin < row_end && row_end <= shape[0],
               "row range [" << row_begin << ", " << row_end
                             << ") out of bounds");
  Instruments::get().rows_calls.add();
  telemetry::Span span_all("pipeline.decompress_rows", "pipeline");
  return decode_rows(dev, comp, stream, out, shape, dtype, row_begin, row_end,
                     opts);
}

StreamInfo inspect(std::span<const std::uint8_t> stream) {
  if (is_progressive_stream(stream)) return progressive_inspect(stream);
  ByteReader in(stream);
  const Header h = parse_header(in);
  StreamInfo info;
  info.compressor = h.compressor;
  info.dtype = h.dtype;
  info.shape = h.shape;
  info.num_chunks = h.rows.size();
  info.version = h.version;
  for (std::uint8_t t : h.tags)
    if (t == kTagRaw) ++info.fallback_chunks;
  return info;
}

}  // namespace hpdr::pipeline
