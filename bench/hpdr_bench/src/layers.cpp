// Per-layer measurement: the codec decorator, the op spans, the stage
// replays, and the reduction of the "bench" spans to per-layer metrics.
// Only spans of category "bench" are read, so the metrics do not depend on
// which spans the program records internally.
#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <unordered_map>

#include "bench.hpp"
#include "core/checksum.hpp"

namespace hpdr_bench {

using namespace hpdr;

// ---------------------------------------------------------------------------
// Statistics

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

Quartiles quartiles(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 1) return {v[0], v[0], v[0]};
  // statistics.quantiles(method="exclusive"): cut point i of 4 sits at
  // position i·(n+1)/4 (1-based), interpolating between neighbours.
  double q[3];
  for (std::size_t i = 1; i <= 3; ++i) {
    const auto m = static_cast<long long>(i * (n + 1));
    const auto j = std::clamp<long long>(m / 4, 1,
                                         static_cast<long long>(n) - 1);
    const auto delta = static_cast<double>(m - j * 4);
    q[i - 1] = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  }
  return {q[0], q[1], q[2]};
}

// ---------------------------------------------------------------------------
// Spans

OpScope::OpScope(const char* name, OpInfo info, std::vector<OpInfo>& table) {
  if (!telemetry::enabled()) return;
  info.id = telemetry::mint_trace_id();
  table.push_back(info);
  trace_ = std::make_unique<telemetry::TraceScope>(
      telemetry::TraceContext{info.id, 0});
  span_ = std::make_unique<telemetry::Span>(name, "bench");
}

TimedCompressor::TimedCompressor(std::shared_ptr<const Compressor> inner)
    : inner_(std::move(inner)),
      compress_span_("codec." + inner_->name() + ".compress"),
      decompress_span_("codec." + inner_->name() + ".decompress") {}

std::vector<std::uint8_t> TimedCompressor::compress(const Device& dev,
                                                    const void* data,
                                                    const Shape& shape,
                                                    DType dtype,
                                                    double param) const {
  std::optional<telemetry::Span> span;
  if (telemetry::enabled()) span.emplace(compress_span_, "bench");
  return inner_->compress(dev, data, shape, dtype, param);
}

void TimedCompressor::decompress(const Device& dev,
                                 std::span<const std::uint8_t> stream,
                                 void* out, const Shape& shape,
                                 DType dtype) const {
  std::optional<telemetry::Span> span;
  if (telemetry::enabled()) span.emplace(decompress_span_, "bench");
  inner_->decompress(dev, stream, out, shape, dtype);
}

void write_trace(const std::string& path) {
  const std::string json = telemetry::merged_chrome_trace(
      nullptr, telemetry::SpanLog::instance().snapshot());
  std::ofstream f(path, std::ios::trunc);
  HPDR_REQUIRE(f.good(), "cannot open '" << path << "' for writing");
  f << json;
  HPDR_REQUIRE(f.good(), "writing '" << path << "' failed");
}

// ---------------------------------------------------------------------------
// Stage replays

namespace {

constexpr int kReplayRounds = 3;

/// Keeps replayed results observable so no call can be optimized away.
volatile std::uint64_t g_sink = 0;

OpInfo replay_op(const char* stage, double bytes) {
  OpInfo op;
  op.type = OpInfo::Type::Replay;
  op.stage = stage;
  op.bytes = bytes;
  return op;
}

template <class T>
void replay_chunk(const Device& dev, const Chunk& c, std::vector<OpInfo>& ops) {
  const auto* src = static_cast<const T*>(c.data);
  const std::size_t n = c.shape.size();
  const double bytes = static_cast<double>(c.bytes());

  // MGARD works on the normalized grid, as mgard::compress does.
  const mgard::Hierarchy h(mgard::normalize_shape(c.shape));
  std::vector<T> work(src, src + n);

  // ZFP transforms every 4x4x4 block; the blocks here are consecutive runs
  // of 64 values in block-floating-point form. The transform's cost does
  // not depend on which values a block holds.
  const std::size_t blocks = n / 64;
  std::vector<std::int64_t> q(blocks * 64);
  for (std::size_t i = 0; i < q.size(); ++i)
    q[i] = static_cast<std::int64_t>(
        std::clamp(static_cast<double>(src[i]) * 65536.0, -1e15, 1e15));
  const double block_bytes = static_cast<double>(blocks * 64 * sizeof(T));

  // Huffman-X compresses bytes as 32-bit symbols over a 256-letter alphabet.
  const auto* raw = static_cast<const std::uint8_t*>(c.data);
  const std::vector<std::uint32_t> symbols(raw, raw + c.bytes());

  for (int r = 0; r < kReplayRounds; ++r) {
    {
      OpScope op("replay.mgard.decompose", replay_op("mgard.decompose", bytes),
                 ops);
      mgard::decompose(dev, h, work.data());
    }
    {
      OpScope op("replay.mgard.recompose", replay_op("mgard.recompose", bytes),
                 ops);
      mgard::recompose(dev, h, work.data());
    }
    {
      OpScope op("replay.zfp.fwd_transform",
                 replay_op("zfp.fwd_transform", block_bytes), ops);
      for (std::size_t b = 0; b < blocks; ++b)
        zfp::detail::fwd_transform(q.data() + 64 * b, 3);
    }
    {
      OpScope op("replay.zfp.inv_transform",
                 replay_op("zfp.inv_transform", block_bytes), ops);
      for (std::size_t b = 0; b < blocks; ++b)
        zfp::detail::inv_transform(q.data() + 64 * b, 3);
    }
    {
      OpScope op("replay.huffman.histogram",
                 replay_op("huffman.histogram", bytes), ops);
      g_sink = g_sink + huffman::histogram_u32(dev, symbols, 256)[0];
    }
  }
  std::uint64_t bits = 0;
  std::memcpy(&bits, &work[n / 2], sizeof(T));
  g_sink = g_sink + bits + static_cast<std::uint64_t>(q.empty() ? 0 : q[0]);
}

}  // namespace

void replay_stages(const std::vector<Chunk>& chunks,
                   const std::vector<const std::vector<std::uint8_t>*>& streams,
                   std::vector<OpInfo>& ops) {
  const Device dev = Device::serial();
  for (const Chunk& c : chunks) {
    if (c.dtype == DType::F32)
      replay_chunk<float>(dev, c, ops);
    else
      replay_chunk<double>(dev, c, ops);
  }
  for (int r = 0; r < kReplayRounds; ++r)
    for (const auto* s : streams) {
      OpScope op("replay.core.checksum",
                 replay_op("core.checksum", static_cast<double>(s->size())),
                 ops);
      g_sink = g_sink + fnv1a64(*s);
    }
}

// ---------------------------------------------------------------------------
// Reduction of spans to per-layer metrics

namespace {

/// Codecs the per-layer table names, whether or not a workload runs them.
const char* const kCodecs[] = {"mgard-x", "zfp-x", "huffman-x", "nvcomp-lz4"};

/// Replayed stage behind each share: (codec, direction, stage).
struct StageShare {
  const char* codec;
  bool compress;
  const char* stage;
  const char* metric;
};
const StageShare kShares[] = {
    {"mgard-x", true, "mgard.decompose", "codec.mgard-x.share.decompose"},
    {"mgard-x", false, "mgard.recompose", "codec.mgard-x.share.recompose"},
    {"zfp-x", true, "zfp.fwd_transform", "codec.zfp-x.share.fwd_transform"},
    {"zfp-x", false, "zfp.inv_transform", "codec.zfp-x.share.inv_transform"},
    {"huffman-x", true, "huffman.histogram",
     "codec.huffman-x.share.histogram"},
};

struct CodecDir {
  double bytes = 0;
  double us = 0;
  std::vector<double> call_ms;
  double gbps() const { return us > 0 ? bytes / (us * 1e3) : 0.0; }
};

double safe_div(double a, double b) { return b > 0 ? a / b : 0.0; }

/// Length of the union of [start, end) intervals, clipped to [lo, hi).
double union_us(std::vector<std::pair<double, double>> iv, double lo,
                double hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0, cur_lo = 0, cur_hi = -1;
  bool open = false;
  for (auto [s, e] : iv) {
    s = std::max(s, lo);
    e = std::min(e, hi);
    if (e <= s) continue;
    if (open && s <= cur_hi) {
      cur_hi = std::max(cur_hi, e);
      continue;
    }
    if (open) total += cur_hi - cur_lo;
    cur_lo = s;
    cur_hi = e;
    open = true;
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

}  // namespace

std::vector<Metric> layer_metrics(const std::vector<OpInfo>& ops,
                                  unsigned width) {
  const auto all = telemetry::SpanLog::instance().snapshot();
  std::unordered_map<std::uint64_t, std::vector<const telemetry::SpanRecord*>>
      by_op;
  for (const auto& s : all)
    if (s.category == "bench" && s.trace_id != 0)
      by_op[s.trace_id].push_back(&s);

  std::map<std::string, CodecDir> codec[2];  // [compress ? 0 : 1]
  std::map<std::string, std::vector<double>> stage_gbps;
  std::vector<double> share[2], self_ms[2], straggler_ms[2];

  for (const OpInfo& op : ops) {
    const auto it = by_op.find(op.id);
    if (it == by_op.end()) continue;
    if (op.type == OpInfo::Type::Replay) {
      for (const auto* s : it->second)
        if (s->duration_us() > 0)
          stage_gbps[op.stage].push_back(op.bytes / (s->duration_us() * 1e3));
      continue;
    }
    if (op.type != OpInfo::Type::Pipeline) continue;
    const int d = op.compress ? 0 : 1;
    const telemetry::SpanRecord* op_span = nullptr;
    std::vector<std::pair<double, double>> calls;
    double sum_us = 0, first = 1e300, last = -1e300;
    for (const auto* s : it->second) {
      if (s->name.rfind("op.", 0) == 0) {
        op_span = s;
      } else if (s->name.rfind("codec.", 0) == 0) {
        calls.emplace_back(s->start_us, s->end_us);
        sum_us += s->duration_us();
        first = std::min(first, s->start_us);
        last = std::max(last, s->end_us);
        codec[d][op.codec].call_ms.push_back(s->duration_us() / 1e3);
      }
    }
    if (op_span == nullptr || calls.empty()) continue;
    CodecDir& cd = codec[d][op.codec];
    cd.bytes += op.bytes;
    cd.us += sum_us;
    const double op_us = op_span->duration_us();
    share[d].push_back(safe_div(sum_us, op_us * width));
    self_ms[d].push_back(
        (op_us - union_us(calls, op_span->start_us, op_span->end_us)) / 1e3);
    // Codec-phase makespan minus the makespan of a perfectly balanced
    // fan-out: idle and imbalance across the pool, plus the gaps between
    // consecutive chunks on one thread.
    const double lanes = static_cast<double>(
        std::min<std::size_t>(std::max(1u, width), calls.size()));
    straggler_ms[d].push_back(((last - first) - sum_us / lanes) / 1e3);
  }

  std::vector<Metric> out;
  for (const char* c : kCodecs) {
    const CodecDir& cc = codec[0][c];
    const CodecDir& dc = codec[1][c];
    const std::string p = std::string("codec.") + c + ".";
    out.push_back({p + "compress.gbps", cc.gbps(), "GB/s"});
    out.push_back({p + "decompress.gbps", dc.gbps(), "GB/s"});
    out.push_back({p + "compress.call_p50_ms", median(cc.call_ms), "ms"});
    out.push_back({p + "calls",
                   static_cast<double>(cc.call_ms.size() + dc.call_ms.size()),
                   "count"});
  }
  for (const char* s : {"mgard.decompose", "mgard.recompose",
                        "zfp.fwd_transform", "zfp.inv_transform",
                        "huffman.histogram"})
    out.push_back({std::string(s) + ".gbps", median(stage_gbps[s]), "GB/s"});
  for (const StageShare& sh : kShares)
    out.push_back({sh.metric,
                   safe_div(codec[sh.compress ? 0 : 1][sh.codec].gbps(),
                            median(stage_gbps[sh.stage])),
                   "frac"});
  const char* dirs[] = {"compress", "decompress"};
  for (int d = 0; d < 2; ++d) {
    const std::string p = std::string("pipeline.") + dirs[d] + ".";
    out.push_back({p + "codec_share", median(share[d]), "frac"});
    out.push_back({p + "self_ms", median(self_ms[d]), "ms"});
    out.push_back({p + "straggler_ms", median(straggler_ms[d]), "ms"});
  }
  out.push_back(
      {"core.checksum.gbps", median(stage_gbps["core.checksum"]), "GB/s"});
  return out;
}

}  // namespace hpdr_bench
