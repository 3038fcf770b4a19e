// hpdr — command-line front end to the HPDR framework.
//
//   hpdr generate <dataset> <size> <out.raw>          synthesize a dataset
//   hpdr compress <in.raw> <out.hpdr> --shape 64x64x64 [options]
//   hpdr decompress <in.hpdr> <out.raw> [--device D]
//   hpdr info <in.hpdr>
//   hpdr verify <a.raw> <b.raw> --dtype f32|f64       error statistics
//   hpdr trace <in.raw> <out.json> --shape ... --device V100 [options]
//   hpdr retrieve <in.hpdr> <out.raw> --bound X [--refine Y,Z] [--device D]
//              progressive retrieval from a v3 container (DESIGN.md §15):
//              fetch only the component prefix that meets --bound (relative
//              to each chunk's value range; 0 = full precision), then
//              --refine streams further components into the same
//              reconstruction — already-consumed bytes are never re-read
//   hpdr serve --jobs N [--sessions S] [--requests R] [--budget-mb M]
//              [--stats-file F] [--stats-interval S] [--deadline S]
//              [--queue-limit N] [--breaker off|fail|degrade] [--cache on]
//              replay a mixed compress/decompress workload through the
//              job-level service (DESIGN.md §10); --deadline arms a job
//              deadline on Normal/Low-priority requests, --queue-limit
//              bounds the admission queue, --breaker picks the open-circuit
//              behaviour (DESIGN.md §13), --cache on serves repeat chunks
//              from the content-addressed dedup cache (DESIGN.md §14);
//              --progressive on replays a progressive-retrieval workload
//              instead: each session stages a v3 stream once and submits a
//              sequence of tightening --bound requests, so later jobs
//              refine the session-held reconstruction (DESIGN.md §15)
//   hpdr stats [snapshot.prom]   print a Prometheus stats snapshot — either
//              one published by `serve --stats-file`, or the current
//              process's registry (DESIGN.md §12)
//   hpdr write-golden <dir>    regenerate the golden-stream corpus
//
// compress options:
//   --shape AxBxC    tensor shape (required)
//   --dtype f32|f64  element type           (default f32)
//   --algo NAME      mgard-x|zfp-x|huffman-x|cusz|nvcomp-lz4|... (default mgard-x)
//   --eb X           relative error bound   (default 1e-3)
//   --mode M         none|fixed|adaptive    (default adaptive)
//   --chunk-mb N     chunk size in MiB for fixed mode / initial chunk for
//                    adaptive (defaults: 100 / 16)
//   --progressive on write the stream-format v3 refinement container
//                    (mgard-x only) that `hpdr retrieve --bound` reads
//   --device D       serial|openmp|stdthread|V100|A100|MI250X|RTX3090
//                    (default openmp)
//
// observability (any command; see DESIGN.md §12):
//   --metrics F      write a JSON run manifest (config, dataset, per-chunk
//                    scheduler decisions, results, telemetry counters,
//                    latency quantiles, drained flight recorder) to F
//   --trace F        write a merged chrome-trace JSON (simulated HDEM device
//                    + host wall-clock spans, request trace/span ids and
//                    cross-thread flow arrows) to F; open in ui.perfetto.dev
//
// resilience (any command; see DESIGN.md §8):
//   --faults PLAN    arm the fault injector, e.g.
//                    "fs.write:nth=1;chunk.corrupt:nth=2,flip=4"
//   --fault-seed N   seed for probabilistic triggers/corruption (default 0)
//   --retry N        attempts for transient faults: file I/O and, on
//                    compress, the per-chunk codec before fallback
//   --recover M      decompress corrupt-chunk policy: strict (default,
//                    reject stream) or skip (zero-fill + report)
//
// execution (any command; see DESIGN.md §9):
//   --threads N      host thread-pool width for chunk-parallel encode/decode
//                    (default: HPDR_THREADS env var, else all cores)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <string>
#include <vector>

#include "core/bitstream.hpp"
#include "hpdr.hpp"

using namespace hpdr;

namespace {

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage:\n"
               "  hpdr generate <nyx|xgc|e3sm> <tiny|small|medium|full> "
               "<out.raw>\n"
               "  hpdr compress <in.raw> <out.hpdr> --shape AxBxC "
               "[--dtype f32|f64] [--algo NAME] [--eb X] [--mode M] "
               "[--chunk-mb N] [--device D] [--metrics F] [--trace F]\n"
               "  hpdr decompress <in.hpdr> <out.raw> [--device D] "
               "[--metrics F] [--trace F]\n"
               "  hpdr info <in.hpdr>\n"
               "  hpdr verify <a.raw> <b.raw> --dtype f32|f64\n"
               "  hpdr trace <in.raw> <out.json> --shape AxBxC [--algo NAME] "
               "[--eb X] [--device D]\n"
               "  hpdr retrieve <in.hpdr> <out.raw> [--bound X] "
               "[--refine Y,Z] [--device D] [--recover strict|skip]\n"
               "  hpdr serve [--jobs N] [--sessions S] [--requests R] "
               "[--budget-mb M] [--algo NAME] [--device D] [--metrics F] "
               "[--stats-file F] [--stats-interval S] [--deadline S] "
               "[--queue-limit N] [--breaker off|fail|degrade] "
               "[--cache on|off] [--progressive on|off]\n"
               "  hpdr stats [snapshot.prom] [--format prom|summary]\n"
               "  hpdr write-golden <dir>\n"
               "resilience flags (any command): --faults PLAN "
               "[--fault-seed N] [--retry N] [--recover strict|skip]\n"
               "execution flags (any command): --threads N\n"
               "observability flags (any command): --metrics F "
               "[--trace F]\n");
  std::exit(2);
}

/// Retry policy for the CLI's own file I/O (fs.read / fs.write fault
/// sites); --retry raises the attempt budget.
fault::RetryPolicy g_file_retry;

std::map<std::string, std::string> parse_flags(int argc, char** argv,
                                               int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) usage("unexpected positional argument");
    if (i + 1 >= argc) usage("flag missing value");
    flags[key.substr(2)] = argv[++i];
  }
  return flags;
}

Shape parse_shape(const std::string& s) {
  Shape shape = Shape::of_rank(0);
  std::vector<std::size_t> dims;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t next = s.find('x', pos);
    if (next == std::string::npos) next = s.size();
    dims.push_back(std::stoull(s.substr(pos, next - pos)));
    pos = next + 1;
  }
  if (dims.empty() || dims.size() > kMaxRank) usage("bad --shape");
  shape = Shape::of_rank(dims.size());
  for (std::size_t d = 0; d < dims.size(); ++d) shape[d] = dims[d];
  return shape;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  telemetry::Span span("io.file.read", "io");
  std::vector<std::uint8_t> bytes;
  fault::with_retry(g_file_retry, [&] {
    if (fault::should_fire("fs.read"))
      throw Error("injected fs.read fault");
    std::ifstream f(path, std::ios::binary | std::ios::ate);
    HPDR_REQUIRE(f.good(), "cannot open '" << path << "'");
    const auto size = static_cast<std::size_t>(f.tellg());
    bytes.resize(size);
    f.seekg(0);
    f.read(reinterpret_cast<char*>(bytes.data()),
           static_cast<std::streamsize>(size));
    HPDR_REQUIRE(f.good(), "read failed for '" << path << "'");
  });
  telemetry::counter("io.file.reads").add();
  telemetry::counter("io.file.bytes_read").add(bytes.size());
  return bytes;
}

void write_file(const std::string& path, std::span<const std::uint8_t> b) {
  telemetry::Span span("io.file.write", "io");
  fault::with_retry(g_file_retry, [&] {
    if (fault::should_fire("fs.write"))
      throw Error("injected fs.write fault");
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    HPDR_REQUIRE(f.good(), "cannot open '" << path << "' for writing");
    f.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
    HPDR_REQUIRE(f.good(), "write failed for '" << path << "'");
  });
  telemetry::counter("io.file.writes").add();
  telemetry::counter("io.file.bytes_written").add(b.size());
}

/// The single observability choke point every subcommand funnels through
/// (DESIGN.md §12): echoes the raw CLI flags into the config section, then
/// honors --metrics (JSON run manifest — config, dataset, results, chunk
/// decisions, telemetry counters and latency quantiles, plus the drained
/// flight recorder when a fault or failure tripped it) and --trace (merged
/// chrome trace with request trace/span ids). Commands with no chunk table
/// or timeline pass {} / nullptr.
void emit_observability(const std::map<std::string, std::string>& flags,
                        const std::string& command, telemetry::Value config,
                        telemetry::Value dataset, telemetry::Value results,
                        std::vector<telemetry::ChunkDecision> chunks = {},
                        const Timeline* tl = nullptr) {
  for (const auto& [k, v] : flags)
    config.set("flag." + k, telemetry::Value(v));
  if (flags.count("metrics")) {
    telemetry::RunManifest m;
    m.tool = "hpdr_cli";
    m.command = command;
    m.config = std::move(config);
    m.dataset = std::move(dataset);
    m.results = std::move(results);
    m.chunks = std::move(chunks);
    telemetry::write_manifest(m, flags.at("metrics"));
    std::printf("wrote run manifest %s\n", flags.at("metrics").c_str());
  }
  if (flags.count("trace")) {
    telemetry::write_merged_trace(tl, flags.at("trace"));
    std::printf("wrote merged trace %s (open in https://ui.perfetto.dev)\n",
                flags.at("trace").c_str());
  }
}

telemetry::Value config_json(const std::string& algo, const Device& dev,
                             const pipeline::Options& opts) {
  telemetry::Value c = telemetry::Value::object();
  c.set("algo", telemetry::Value(algo));
  c.set("device", telemetry::Value(dev.name()));
  c.set("mode", telemetry::Value(pipeline::to_string(opts.mode)));
  c.set("eb", telemetry::Value(opts.param));
  return c;
}

pipeline::Options options_from(const std::map<std::string, std::string>& f) {
  pipeline::Options opts;
  opts.param = f.count("eb") ? std::stod(f.at("eb")) : 1e-3;
  const std::string mode = f.count("mode") ? f.at("mode") : "adaptive";
  if (mode == "none")
    opts.mode = pipeline::Mode::None;
  else if (mode == "fixed")
    opts.mode = pipeline::Mode::Fixed;
  else if (mode == "adaptive")
    opts.mode = pipeline::Mode::Adaptive;
  else
    usage("bad --mode");
  if (f.count("chunk-mb")) {
    const std::size_t mb = std::stoull(f.at("chunk-mb"));
    HPDR_REQUIRE(mb >= 1, "--chunk-mb must be >= 1");
    opts.fixed_chunk_bytes = mb << 20;
    opts.init_chunk_bytes = mb << 20;
  }
  if (f.count("retry")) opts.codec_retries = std::stoi(f.at("retry"));
  if (f.count("recover")) {
    const std::string& r = f.at("recover");
    if (r == "strict")
      opts.recovery = pipeline::ChunkRecovery::Strict;
    else if (r == "skip")
      opts.recovery = pipeline::ChunkRecovery::Skip;
    else
      usage("bad --recover (want strict|skip)");
  }
  return opts;
}

int cmd_generate(int argc, char** argv) {
  if (argc < 5) usage("generate needs <dataset> <size> <out.raw>");
  auto flags = parse_flags(argc, argv, 5);
  const std::string name = argv[2], size_s = argv[3], out = argv[4];
  data::Size size = data::Size::Small;
  if (size_s == "tiny")
    size = data::Size::Tiny;
  else if (size_s == "small")
    size = data::Size::Small;
  else if (size_s == "medium")
    size = data::Size::Medium;
  else if (size_s == "full")
    size = data::Size::Full;
  else
    usage("bad size");
  auto ds = data::make(name, size);
  write_file(out, ds.bytes);
  std::printf("%s/%s %s %s -> %s (%.1f MB)\n", ds.name.c_str(),
              ds.field.c_str(), ds.shape.to_string().c_str(),
              to_string(ds.dtype), out.c_str(),
              ds.size_bytes() / 1048576.0);
  std::printf("compress with: hpdr compress %s out.hpdr --shape %s "
              "--dtype %s\n",
              out.c_str(),
              [&] {
                std::string s;
                for (std::size_t d = 0; d < ds.shape.rank(); ++d) {
                  if (d) s += "x";
                  s += std::to_string(ds.shape[d]);
                }
                return s;
              }()
                  .c_str(),
              to_string(ds.dtype));
  telemetry::Value res = telemetry::Value::object();
  res.set("out", telemetry::Value(out));
  res.set("bytes", telemetry::Value(ds.size_bytes()));
  emit_observability(flags, "generate", telemetry::Value::object(),
                     telemetry::dataset_json(ds.shape, to_string(ds.dtype),
                                             ds.size_bytes()),
                     std::move(res));
  return 0;
}

int cmd_compress(int argc, char** argv) {
  if (argc < 4) usage("compress needs <in.raw> <out.hpdr>");
  auto flags = parse_flags(argc, argv, 4);
  if (!flags.count("shape")) usage("--shape is required");
  const Shape shape = parse_shape(flags.at("shape"));
  const DType dtype =
      (flags.count("dtype") && flags.at("dtype") == "f64") ? DType::F64
                                                           : DType::F32;
  const std::string algo =
      flags.count("algo") ? flags.at("algo") : "mgard-x";
  const Device dev = machine::make_device(
      flags.count("device") ? flags.at("device") : "openmp");
  auto raw = read_file(argv[2]);
  HPDR_REQUIRE(raw.size() == shape.size() * dtype_size(dtype),
               "file size " << raw.size() << " != shape "
                            << shape.to_string() << " x "
                            << dtype_size(dtype));
  const pipeline::Options opts = options_from(flags);
  if (flags.count("progressive") && flags.at("progressive") == "on") {
    HPDR_REQUIRE(algo == "mgard-x",
                 "--progressive writes the v3 MGARD refinement container "
                 "(use --algo mgard-x)");
    auto stream =
        pipeline::progressive_compress(dev, raw.data(), shape, dtype, opts);
    write_file(argv[3], stream);
    const auto info = pipeline::inspect(stream);
    std::printf("%s v3: %.2f MB -> %.2f MB  ratio %.2fx  chunks %zu  "
                "components %zu\n",
                algo.c_str(), raw.size() / 1048576.0,
                stream.size() / 1048576.0,
                double(raw.size()) / double(stream.size()), info.num_chunks,
                info.components);
    std::printf("retrieve with: hpdr retrieve %s out.raw --bound 0.5\n",
                argv[3]);
    telemetry::Value res = telemetry::Value::object();
    res.set("raw_bytes", telemetry::Value(raw.size()));
    res.set("stored_bytes", telemetry::Value(stream.size()));
    res.set("chunks", telemetry::Value(info.num_chunks));
    res.set("components", telemetry::Value(info.components));
    emit_observability(flags, "compress", config_json(algo, dev, opts),
                       telemetry::dataset_json(shape, to_string(dtype),
                                               raw.size()),
                       std::move(res));
    return 0;
  }
  auto comp = make_compressor(algo);
  auto result =
      pipeline::compress(dev, *comp, raw.data(), shape, dtype, opts);
  write_file(argv[3], result.stream);
  std::printf("%s: %.2f MB -> %.2f MB  ratio %.2fx  chunks %zu\n",
              algo.c_str(), raw.size() / 1048576.0,
              result.stream.size() / 1048576.0, result.ratio(),
              result.chunk_rows.size());
  if (dev.spec().is_gpu())
    std::printf("simulated %s pipeline: %.2f GB/s, %.0f%% overlap\n",
                dev.name().c_str(), result.model_gbps(),
                100 * result.overlap());
  telemetry::Value res = telemetry::Value::object();
  res.set("raw_bytes", telemetry::Value(result.raw_bytes));
  res.set("stored_bytes", telemetry::Value(result.stream.size()));
  res.set("ratio", telemetry::Value(result.ratio()));
  res.set("chunks", telemetry::Value(result.chunk_rows.size()));
  res.set("simulated_seconds", telemetry::Value(result.model_seconds()));
  res.set("simulated_gbps", telemetry::Value(result.model_gbps()));
  res.set("overlap_ratio", telemetry::Value(result.overlap()));
  emit_observability(flags, "compress", config_json(algo, dev, opts),
                     telemetry::dataset_json(shape, to_string(dtype),
                                             result.raw_bytes),
                     std::move(res), std::move(result.decisions),
                     &result.timeline);
  return 0;
}

int cmd_decompress(int argc, char** argv) {
  if (argc < 4) usage("decompress needs <in.hpdr> <out.raw>");
  auto flags = parse_flags(argc, argv, 4);
  const Device dev = machine::make_device(
      flags.count("device") ? flags.at("device") : "openmp");
  auto stream = read_file(argv[2]);
  auto info = pipeline::inspect(stream);
  auto comp = make_compressor(info.compressor);
  std::vector<std::uint8_t> out(info.shape.size() * dtype_size(info.dtype));
  pipeline::Options opts;
  if (flags.count("recover") && flags.at("recover") == "skip")
    opts.recovery = pipeline::ChunkRecovery::Skip;
  auto result = pipeline::decompress(dev, *comp, stream, out.data(),
                                     info.shape, info.dtype, opts);
  write_file(argv[3], out);
  std::printf("%s %s %s -> %s (%.2f MB)\n", info.compressor.c_str(),
              info.shape.to_string().c_str(), to_string(info.dtype), argv[3],
              out.size() / 1048576.0);
  if (result.partial())
    std::fprintf(stderr,
                 "warning: %zu corrupt chunk(s) zero-filled "
                 "(partial reconstruction)\n",
                 result.corrupt_chunks.size());
  telemetry::Value res = telemetry::Value::object();
  res.set("raw_bytes", telemetry::Value(result.raw_bytes));
  res.set("stored_bytes", telemetry::Value(stream.size()));
  res.set("simulated_seconds", telemetry::Value(result.model_seconds()));
  res.set("simulated_gbps", telemetry::Value(result.model_gbps()));
  res.set("corrupt_chunks", telemetry::Value(result.corrupt_chunks.size()));
  emit_observability(flags, "decompress",
                     config_json(info.compressor, dev, {}),
                     telemetry::dataset_json(info.shape,
                                             to_string(info.dtype),
                                             result.raw_bytes),
                     std::move(res), {}, &result.timeline);
  return 0;
}

/// Progressive retrieval from a v3 container (DESIGN.md §15): refine the
/// reconstruction to --bound, then through each --refine stop, reporting
/// the payload bytes each stage fetched. The instrumented reader proves
/// the forward-only property: bytes_reread() stays 0 across the chain.
int cmd_retrieve(int argc, char** argv) {
  if (argc < 4) usage("retrieve needs <in.hpdr> <out.raw>");
  auto flags = parse_flags(argc, argv, 4);
  const Device dev = machine::make_device(
      flags.count("device") ? flags.at("device") : "openmp");
  auto stream = read_file(argv[2]);
  const double bound =
      flags.count("bound") ? std::stod(flags.at("bound")) : 0.0;
  pipeline::ProgressiveReader::Options ropts;
  if (flags.count("recover") && flags.at("recover") == "skip")
    ropts.recovery = pipeline::ChunkRecovery::Skip;
  pipeline::ProgressiveReader reader(stream, ropts);
  const std::size_t total = reader.total_payload_bytes();
  auto stage = [&](double b) {
    const std::size_t fetched = reader.refine(dev, b);
    std::printf("  bound %-10.3g fetched %7zu B  (cumulative %zu/%zu B, "
                "%.1f%%)  achieved %.3g\n",
                b, fetched, reader.bytes_consumed(), total,
                total ? 100.0 * reader.bytes_consumed() / total : 0.0,
                reader.achieved_rel_bound());
  };
  std::printf("%s %s %s, %zu chunks, %zu components\n",
              argv[2], reader.shape().to_string().c_str(),
              to_string(reader.dtype()),
              pipeline::progressive_inspect(stream).num_chunks,
              reader.components_total());
  // --refine alone is a pure ladder; an explicit --bound (or neither flag,
  // meaning full precision) adds an initial stage before it.
  if (flags.count("bound") || !flags.count("refine")) stage(bound);
  if (flags.count("refine")) {
    const std::string list = flags.at("refine");
    std::size_t pos = 0;
    while (pos < list.size()) {
      std::size_t next = list.find(',', pos);
      if (next == std::string::npos) next = list.size();
      stage(std::stod(list.substr(pos, next - pos)));
      pos = next + 1;
    }
  }
  HPDR_ASSERT(reader.bytes_reread() == 0);
  write_file(argv[3], reader.data());
  if (reader.poisoned_chunks() > 0)
    std::fprintf(stderr,
                 "warning: %zu chunk(s) frozen at a shorter verified "
                 "prefix (corrupt/truncated components skipped)\n",
                 reader.poisoned_chunks());
  std::printf("retrieved %zu/%zu components (%.1f%% of payload) -> %s\n",
              reader.components_consumed(), reader.components_total(),
              total ? 100.0 * reader.bytes_consumed() / total : 0.0,
              argv[3]);
  telemetry::Value res = telemetry::Value::object();
  res.set("bytes_consumed", telemetry::Value(reader.bytes_consumed()));
  res.set("payload_bytes", telemetry::Value(total));
  res.set("components_consumed",
          telemetry::Value(reader.components_consumed()));
  res.set("components_total", telemetry::Value(reader.components_total()));
  res.set("achieved_bound", telemetry::Value(reader.achieved_rel_bound()));
  res.set("poisoned_chunks", telemetry::Value(reader.poisoned_chunks()));
  emit_observability(flags, "retrieve", telemetry::Value::object(),
                     telemetry::dataset_json(reader.shape(),
                                             to_string(reader.dtype()),
                                             reader.data().size()),
                     std::move(res));
  return 0;
}

int cmd_info(int argc, char** argv) {
  if (argc < 3) usage("info needs <in.hpdr>");
  auto flags = parse_flags(argc, argv, 3);
  auto stream = read_file(argv[2]);
  auto info = pipeline::inspect(stream);
  const std::size_t raw = info.shape.size() * dtype_size(info.dtype);
  std::printf("compressor : %s\n", info.compressor.c_str());
  std::printf("shape      : %s %s\n", info.shape.to_string().c_str(),
              to_string(info.dtype));
  std::printf("chunks     : %zu\n", info.num_chunks);
  if (info.version == 3)
    std::printf("components : %zu (progressive v3; retrieve with "
                "--bound)\n",
                info.components);
  std::printf("stored     : %zu B (ratio %.2fx)\n", stream.size(),
              double(raw) / double(stream.size()));
  telemetry::Value res = telemetry::Value::object();
  res.set("compressor", telemetry::Value(info.compressor));
  res.set("version", telemetry::Value(std::size_t{info.version}));
  res.set("components", telemetry::Value(info.components));
  res.set("chunks", telemetry::Value(info.num_chunks));
  res.set("stored_bytes", telemetry::Value(stream.size()));
  res.set("raw_bytes", telemetry::Value(raw));
  emit_observability(flags, "info", telemetry::Value::object(),
                     telemetry::dataset_json(info.shape,
                                             to_string(info.dtype), raw),
                     std::move(res));
  return 0;
}

int cmd_verify(int argc, char** argv) {
  if (argc < 4) usage("verify needs <a.raw> <b.raw>");
  auto flags = parse_flags(argc, argv, 4);
  const bool f64 = flags.count("dtype") && flags.at("dtype") == "f64";
  auto a = read_file(argv[2]);
  auto b = read_file(argv[3]);
  HPDR_REQUIRE(a.size() == b.size(), "file sizes differ");
  ErrorStats stats;
  if (f64)
    stats = compute_error_stats(
        {reinterpret_cast<const double*>(a.data()), a.size() / 8},
        {reinterpret_cast<const double*>(b.data()), b.size() / 8});
  else
    stats = compute_error_stats(
        {reinterpret_cast<const float*>(a.data()), a.size() / 4},
        {reinterpret_cast<const float*>(b.data()), b.size() / 4});
  std::printf("max abs error : %.6g\n", stats.max_abs_error);
  std::printf("max rel error : %.6g\n", stats.max_rel_error);
  std::printf("psnr          : %.2f dB\n", stats.psnr_db);
  std::printf("value range   : [%.6g, %.6g]\n", stats.original_min,
              stats.original_max);
  telemetry::Value res = telemetry::Value::object();
  res.set("max_abs_error", telemetry::Value(stats.max_abs_error));
  res.set("max_rel_error", telemetry::Value(stats.max_rel_error));
  res.set("psnr_db", telemetry::Value(stats.psnr_db));
  emit_observability(flags, "verify", telemetry::Value::object(),
                     telemetry::Value::object(), std::move(res));
  return 0;
}

int cmd_trace(int argc, char** argv) {
  if (argc < 4) usage("trace needs <in.raw> <out.json>");
  auto flags = parse_flags(argc, argv, 4);
  if (!flags.count("shape")) usage("--shape is required");
  const Shape shape = parse_shape(flags.at("shape"));
  const DType dtype =
      (flags.count("dtype") && flags.at("dtype") == "f64") ? DType::F64
                                                           : DType::F32;
  const Device dev = machine::make_device(
      flags.count("device") ? flags.at("device") : "V100");
  auto raw = read_file(argv[2]);
  HPDR_REQUIRE(raw.size() == shape.size() * dtype_size(dtype),
               "file size does not match --shape/--dtype");
  auto comp = make_compressor(
      flags.count("algo") ? flags.at("algo") : "mgard-x");
  auto result = pipeline::compress(dev, *comp, raw.data(), shape, dtype,
                                   options_from(flags));
  write_chrome_trace(result.timeline, argv[3]);
  std::printf("wrote %s: %zu tasks, makespan %.3f ms, overlap %.0f%%\n",
              argv[3], result.timeline.tasks.size(),
              result.model_seconds() * 1e3, 100 * result.overlap());
  std::printf("open in chrome://tracing or https://ui.perfetto.dev\n");
  telemetry::Value res = telemetry::Value::object();
  res.set("tasks", telemetry::Value(result.timeline.tasks.size()));
  res.set("simulated_seconds", telemetry::Value(result.model_seconds()));
  res.set("overlap_ratio", telemetry::Value(result.overlap()));
  emit_observability(flags, "trace",
                     config_json(comp->name(), dev, options_from(flags)),
                     telemetry::dataset_json(shape, to_string(dtype),
                                             result.raw_bytes),
                     std::move(res), std::move(result.decisions),
                     &result.timeline);
  return 0;
}

/// `hpdr stats [snapshot.prom]` — live-stats viewer (DESIGN.md §12). With a
/// file argument it prints a snapshot published by `serve --stats-file` (or
/// any Prometheus text file); without one it exports the current process's
/// registry via telemetry::export_prometheus(). --format summary collapses
/// the exposition to sorted `name value` lines (labels and comments
/// dropped), handy for grepping a quantile out of a publisher snapshot.
int cmd_stats(int argc, char** argv) {
  std::string path;
  int first = 2;
  if (argc >= 3 && std::strncmp(argv[2], "--", 2) != 0) {
    path = argv[2];
    first = 3;
  }
  auto flags = parse_flags(argc, argv, first);
  const std::string format =
      flags.count("format") ? flags.at("format") : "prom";
  std::string text;
  if (!path.empty()) {
    const auto bytes = read_file(path);
    text.assign(bytes.begin(), bytes.end());
  } else {
    text = telemetry::export_prometheus();
  }
  std::size_t samples = 0;
  if (format == "prom") {
    std::fputs(text.c_str(), stdout);
    for (std::size_t pos = 0; pos < text.size();) {
      std::size_t eol = text.find('\n', pos);
      if (eol == std::string::npos) eol = text.size();
      if (eol > pos && text[pos] != '#') ++samples;
      pos = eol + 1;
    }
  } else if (format == "summary") {
    // One "name value" line per sample: strip comments, flatten a label
    // set into the name ({quantile="0.99"} -> .q0_99 stays readable as-is).
    std::vector<std::string> lines;
    for (std::size_t pos = 0; pos < text.size();) {
      std::size_t eol = text.find('\n', pos);
      if (eol == std::string::npos) eol = text.size();
      const std::string line = text.substr(pos, eol - pos);
      pos = eol + 1;
      if (line.empty() || line[0] == '#') continue;
      lines.push_back(line);
      ++samples;
    }
    std::sort(lines.begin(), lines.end());
    for (const auto& l : lines) std::printf("%s\n", l.c_str());
  } else {
    usage("bad --format (want prom|summary)");
  }
  telemetry::Value res = telemetry::Value::object();
  res.set("source", telemetry::Value(path.empty() ? std::string("process")
                                                  : path));
  res.set("samples", telemetry::Value(samples));
  emit_observability(flags, "stats", telemetry::Value::object(),
                     telemetry::Value::object(), std::move(res));
  return samples == 0 && !path.empty() ? 1 : 0;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

/// Replay a mixed compress/decompress workload through the job-level
/// service (DESIGN.md §10): R requests across S sessions, at most N running
/// concurrently, priorities cycling High/Normal/Low. Prints aggregate
/// throughput and latency percentiles; --metrics embeds the per-job records.
int cmd_serve(int argc, char** argv) {
  auto flags = parse_flags(argc, argv, 2);
  const unsigned jobs =
      flags.count("jobs") ? unsigned(std::stoul(flags.at("jobs"))) : 4;
  const unsigned sessions =
      flags.count("sessions") ? unsigned(std::stoul(flags.at("sessions"))) : 2;
  const unsigned requests = flags.count("requests")
                                ? unsigned(std::stoul(flags.at("requests")))
                                : 4 * std::max(1u, jobs);
  const std::size_t budget_mb =
      flags.count("budget-mb") ? std::stoull(flags.at("budget-mb")) : 64;
  const std::string algo = flags.count("algo") ? flags.at("algo") : "mgard-x";
  const std::string device =
      flags.count("device") ? flags.at("device") : "serial";
  // Deadline-aware serving knobs (DESIGN.md §13). --deadline arms a job
  // deadline on Normal/Low-priority requests only, so High-priority work
  // keeps the replay's success floor even under an aggressive bound.
  const double deadline_s =
      flags.count("deadline") ? std::stod(flags.at("deadline")) : 0.0;
  const std::size_t queue_limit =
      flags.count("queue-limit") ? std::stoull(flags.at("queue-limit")) : 0;
  const std::string breaker_mode =
      flags.count("breaker") ? flags.at("breaker") : "fail";
  HPDR_REQUIRE(breaker_mode == "off" || breaker_mode == "fail" ||
                   breaker_mode == "degrade",
               "--breaker must be off, fail or degrade");
  // Content-addressed dedup cache (DESIGN.md §14). Off by default: the
  // replay intentionally repeats its two datasets, so turning it on shows
  // the repeat-compression / hot-decompression fast path.
  const std::string cache_mode =
      flags.count("cache") ? flags.at("cache") : "off";
  HPDR_REQUIRE(cache_mode == "on" || cache_mode == "off",
               "--cache must be on or off");
  const bool use_cache = cache_mode == "on";
  // Progressive-retrieval replay (DESIGN.md §15): each session repeatedly
  // requests the same v3 stream at tightening bounds, so every request
  // after a session's first refines held state instead of re-decoding.
  const std::string prog_mode =
      flags.count("progressive") ? flags.at("progressive") : "off";
  HPDR_REQUIRE(prog_mode == "on" || prog_mode == "off",
               "--progressive must be on or off");
  const bool progressive = prog_mode == "on";
  HPDR_REQUIRE(jobs >= 1 && sessions >= 1 && requests >= 1,
               "serve needs --jobs/--sessions/--requests >= 1");
  const pipeline::Options opts = options_from(flags);

  // Workload: two tiny datasets; every third request replays a decompress
  // of a stream produced up front by the direct pipeline path.
  const auto ds_a = data::make("nyx", data::Size::Tiny);
  const auto ds_b = data::make("e3sm", data::Size::Tiny);
  const Device dev = machine::make_device(device);
  auto comp = make_compressor(algo);
  const auto pre_a = pipeline::compress(dev, *comp, ds_a.data(), ds_a.shape,
                                        ds_a.dtype, opts);
  const auto pre_b = pipeline::compress(dev, *comp, ds_b.data(), ds_b.shape,
                                        ds_b.dtype, opts);
  std::vector<std::uint8_t> prog_a, prog_b;
  if (progressive) {
    prog_a = pipeline::progressive_compress(dev, ds_a.data(), ds_a.shape,
                                            ds_a.dtype, opts);
    prog_b = pipeline::progressive_compress(dev, ds_b.data(), ds_b.shape,
                                            ds_b.dtype, opts);
  }

  svc::Service::Config cfg;
  cfg.max_concurrent_jobs = jobs;
  cfg.arena_budget_bytes = budget_mb << 20;
  cfg.max_queue_depth = queue_limit;
  // Demo-scale breaker so a short fault-plan replay can actually trip it
  // (the library default window of 32 outlasts most CLI runs).
  cfg.breaker.window = 8;
  cfg.breaker.trip_failures = 4;
  cfg.breaker.cooldown_s = 0.25;
  cfg.breaker.enabled = breaker_mode != "off";
  cfg.breaker.degrade = breaker_mode == "degrade";
  // Live-stats publisher (DESIGN.md §12): --stats-file names the snapshot
  // target ("-" = stdout), --stats-interval the period in seconds. A file
  // with no interval defaults to 50 ms so short replays still publish.
  if (flags.count("stats-interval"))
    cfg.stats_interval_s = std::stod(flags.at("stats-interval"));
  if (flags.count("stats-file")) {
    cfg.stats_path = flags.at("stats-file");
    if (cfg.stats_interval_s <= 0.0) cfg.stats_interval_s = 0.05;
  }
  svc::Service service(cfg);
  std::vector<svc::Service::Session> sess;
  for (unsigned s = 0; s < sessions; ++s)
    sess.push_back(service.open_session());

  std::vector<std::future<svc::JobResult>> futs;
  futs.reserve(requests);
  const auto t0 = std::chrono::steady_clock::now();
  for (unsigned r = 0; r < requests; ++r) {
    const data::Dataset& ds = (r % 2 == 0) ? ds_a : ds_b;
    const pipeline::CompressResult& pre = (r % 2 == 0) ? pre_a : pre_b;
    svc::JobSpec spec;
    spec.codec = algo;
    spec.shape = ds.shape;
    spec.dtype = ds.dtype;
    spec.opts = opts;
    spec.device = device;
    spec.priority = r % 3 == 0   ? svc::Priority::High
                    : r % 3 == 1 ? svc::Priority::Normal
                                 : svc::Priority::Low;
    spec.use_cache = use_cache;
    if (spec.priority != svc::Priority::High) spec.deadline_s = deadline_s;
    if (progressive) {
      // One stream per session; bounds tighten with each round so a
      // session's later requests refine the reconstruction its first
      // request staged (0 = full write-time precision last).
      const auto& pv = (r % sessions) % 2 == 0 ? prog_a : prog_b;
      static constexpr double kBounds[] = {0.5, 0.05, 0.0};
      spec.kind = svc::JobKind::Progressive;
      spec.codec = "mgard-x";
      spec.input = pv.data();
      spec.input_bytes = pv.size();
      spec.bound = kBounds[std::min<std::size_t>(r / sessions, 2)];
    } else if (r % 3 == 2) {
      spec.kind = svc::JobKind::Decompress;
      spec.input = pre.stream.data();
      spec.input_bytes = pre.stream.size();
    } else {
      spec.kind = svc::JobKind::Compress;
      spec.input = ds.data();
      spec.input_bytes = ds.size_bytes();
    }
    futs.push_back(sess[r % sessions].submit(std::move(spec)));
  }
  std::vector<svc::JobResult> results;
  results.reserve(requests);
  for (auto& f : futs) results.push_back(f.get());
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::size_t ok = 0, failed = 0, raw_bytes = 0, degraded = 0;
  std::vector<double> latencies;
  for (const auto& r : results) {
    r.ok ? ++ok : ++failed;
    if (r.ok) raw_bytes += r.raw_bytes;
    if (r.degraded) ++degraded;
    latencies.push_back(r.queue_wait_s + r.run_s);
  }
  const double gbps = raw_bytes / 1e9 / std::max(wall, 1e-12);
  const double p50 = percentile(latencies, 0.50);
  const double p99 = percentile(latencies, 0.99);
  // End-to-end quantiles from the lock-free log-bucketed histogram the
  // service feeds (svc.request.latency) — the same numbers the Prometheus
  // publisher exports as svc_request_latency_p50/p90/p99/p999.
  const auto& hist = telemetry::latency("svc.request.latency");
  std::printf("serve: %u requests, %u sessions, %u concurrent jobs, "
              "budget %zu MB, codec %s\n",
              requests, sessions, jobs, budget_mb, algo.c_str());
  std::printf("  ok %zu  failed %zu  wall %.3f s  aggregate %.3f GB/s\n",
              ok, failed, wall, gbps);
  std::printf("  latency p50 %.2f ms  p99 %.2f ms\n", p50 * 1e3, p99 * 1e3);
  std::printf("  histogram p50 %.2f ms  p90 %.2f ms  p99 %.2f ms  "
              "p999 %.2f ms\n",
              hist.quantile(0.50) * 1e3, hist.quantile(0.90) * 1e3,
              hist.quantile(0.99) * 1e3, hist.quantile(0.999) * 1e3);
  if (!cfg.stats_path.empty() && cfg.stats_path != "-")
    std::printf("  stats snapshots -> %s (every %.0f ms)\n",
                cfg.stats_path.c_str(), cfg.stats_interval_s * 1e3);
  std::printf("  arena: high-water %.2f MB of %zu MB, %llu eviction(s), "
              "%llu queue wait(s)\n",
              service.budget().high_water() / 1048576.0, budget_mb,
              static_cast<unsigned long long>(service.budget().evictions()),
              static_cast<unsigned long long>(
                  service.budget().queue_waits()));
  // Overload/degradation ledger (DESIGN.md §13): how the failures split
  // by kind, plus the codec breaker's final state.
  if (failed > 0 || service.shed() > 0 || degraded > 0) {
    std::printf("  shed %llu  degraded %zu  failures by kind:",
                static_cast<unsigned long long>(service.shed()), degraded);
    for (const ErrorKind k :
         {ErrorKind::Overload, ErrorKind::Deadline, ErrorKind::Cancelled,
          ErrorKind::Fault, ErrorKind::Internal})
      if (const auto n = service.failed_by(k))
        std::printf("  %s %llu", to_string(k),
                    static_cast<unsigned long long>(n));
    std::printf("\n");
  }
  // Dedup-cache ledger (DESIGN.md §14): hit ratio across the replay plus
  // the bytes the cache currently leases from the arena budget.
  if (use_cache) {
    const auto& cache = service.cache();
    const std::size_t lookups = cache.hits() + cache.misses();
    std::printf("  cache: %llu hit(s) / %llu lookup(s) (%.1f%%), "
                "%llu insert(s), %llu eviction(s), %.2f MB resident\n",
                static_cast<unsigned long long>(cache.hits()),
                static_cast<unsigned long long>(lookups),
                lookups ? 100.0 * cache.hits() / lookups : 0.0,
                static_cast<unsigned long long>(cache.inserts()),
                static_cast<unsigned long long>(cache.evictions()),
                cache.bytes() / 1048576.0);
  }
  // Progressive-retrieval ledger (DESIGN.md §15): how many requests
  // refined session-held state vs. staged fresh, and the payload bytes
  // actually fetched (the svc.progressive.* counters the stats publisher
  // exports).
  std::size_t prog_fetched = 0, prog_refines = 0;
  if (progressive) {
    for (const auto& jr : results) {
      prog_fetched += jr.bytes_fetched;
      if (jr.ok && jr.refined) ++prog_refines;
    }
    std::printf("  progressive: %zu refine(s) of session-held state, "
                "%.2f MB fetched\n",
                prog_refines, prog_fetched / 1048576.0);
  }
  if (cfg.breaker.enabled && service.breakers().trips(algo) > 0)
    std::printf("  breaker[%s]: %s after %llu trip(s)\n", algo.c_str(),
                to_string(service.breakers().state(algo)),
                static_cast<unsigned long long>(
                    service.breakers().trips(algo)));
  for (const auto& r : results)
    if (!r.ok)
      std::fprintf(stderr, "  job %llu failed: %s\n",
                   static_cast<unsigned long long>(r.id), r.error.c_str());

  telemetry::Value res = telemetry::Value::object();
  res.set("requests", telemetry::Value(std::size_t{requests}));
  res.set("ok", telemetry::Value(ok));
  res.set("failed", telemetry::Value(failed));
  res.set("wall_seconds", telemetry::Value(wall));
  res.set("aggregate_gbps", telemetry::Value(gbps));
  res.set("latency_p50_s", telemetry::Value(p50));
  res.set("latency_p99_s", telemetry::Value(p99));
  res.set("latency_histogram", hist.summary_json());
  res.set("arena_high_water_bytes",
          telemetry::Value(service.budget().high_water()));
  res.set("arena_evictions", telemetry::Value(service.budget().evictions()));
  res.set("arena_queue_waits",
          telemetry::Value(service.budget().queue_waits()));
  res.set("shed", telemetry::Value(service.shed()));
  res.set("degraded", telemetry::Value(degraded));
  telemetry::Value by_kind = telemetry::Value::object();
  for (const ErrorKind k :
       {ErrorKind::Overload, ErrorKind::Deadline, ErrorKind::Cancelled,
        ErrorKind::Fault, ErrorKind::Internal})
    by_kind.set(to_string(k), telemetry::Value(service.failed_by(k)));
  res.set("failed_by_kind", std::move(by_kind));
  res.set("breakers", service.breakers().to_json());
  if (use_cache) {
    const auto& cache = service.cache();
    telemetry::Value cj = telemetry::Value::object();
    cj.set("hits", telemetry::Value(cache.hits()));
    cj.set("misses", telemetry::Value(cache.misses()));
    cj.set("inserts", telemetry::Value(cache.inserts()));
    cj.set("evictions", telemetry::Value(cache.evictions()));
    cj.set("resident_bytes", telemetry::Value(cache.bytes()));
    res.set("cache", std::move(cj));
  }
  if (progressive) {
    res.set("progressive_refines", telemetry::Value(prog_refines));
    res.set("progressive_bytes_fetched", telemetry::Value(prog_fetched));
  }
  // Per-job records in submission order (payloads omitted).
  telemetry::Value job_records = telemetry::Value::array();
  for (const auto& r : results) job_records.push_back(r.to_json());
  res.set("jobs", std::move(job_records));
  telemetry::Value config = telemetry::Value::object();
  config.set("algo", telemetry::Value(algo));
  config.set("device", telemetry::Value(device));
  config.set("max_concurrent_jobs",
             telemetry::Value(std::size_t{jobs}));
  config.set("sessions", telemetry::Value(std::size_t{sessions}));
  config.set("budget_mb", telemetry::Value(budget_mb));
  config.set("deadline_s", telemetry::Value(deadline_s));
  config.set("queue_limit", telemetry::Value(queue_limit));
  config.set("breaker", telemetry::Value(breaker_mode));
  config.set("cache", telemetry::Value(cache_mode));
  config.set("progressive", telemetry::Value(prog_mode));
  emit_observability(flags, "serve", std::move(config),
                     telemetry::Value::object(), std::move(res));
  // Injected per-job failures are the point of a fault-plan run: the
  // service surviving them is success. Only a fully-failed replay is an
  // error.
  return ok == 0 ? 1 : 0;
}

/// Regenerate the golden-stream corpus (tests/golden/): a fixed input
/// raster, byte-exact v1 (hand-composed legacy framing) and v2 container
/// streams, and the expected decode. test_golden.cpp locks decoder
/// compatibility and writer stability against these bytes.
int cmd_write_golden(int argc, char** argv) {
  if (argc < 3) usage("write-golden needs <dir>");
  const std::string dir = argv[2];
  std::filesystem::create_directories(dir);
  const Device dev = machine::make_device("serial");

  // Fixed raster: NYX density 16^3 f32, seed 1234 (generators are
  // deterministic in shape+seed).
  Shape shape = Shape::of_rank(3);
  shape[0] = shape[1] = shape[2] = 16;
  const auto field = data::nyx_density(shape, 1234);
  const std::span<const std::uint8_t> raw{
      reinterpret_cast<const std::uint8_t*>(field.data()),
      shape.size() * sizeof(float)};
  write_file(dir + "/input.raw", raw);

  // 4 rows per chunk -> 4 chunks; the same split the v1 composer uses, so
  // both versions decode identically.
  const std::size_t rows_per = 4;
  const std::size_t slab_bytes = shape[1] * shape[2] * sizeof(float);
  pipeline::Options gopts;
  gopts.mode = pipeline::Mode::Fixed;
  gopts.fixed_chunk_bytes = rows_per * slab_bytes;
  gopts.param = 1e-3;

  auto zfp = make_compressor("zfp-x");
  const auto v2 =
      pipeline::compress(dev, *zfp, raw.data(), shape, DType::F32, gopts);
  write_file(dir + "/v2_zfp.hpdr", v2.stream);
  std::vector<std::uint8_t> decoded(raw.size());
  pipeline::decompress(dev, *zfp, v2.stream, decoded.data(), shape,
                       DType::F32, {});
  write_file(dir + "/v2_zfp.raw", decoded);

  // Hand-composed v1 container: magic, version 1, then a chunk table of
  // [rows][size] pairs — no codec tags, no checksums. Same chunk split and
  // codec as the v2 stream, so its blobs (and decode) match exactly.
  {
    ByteWriter head;
    head.put_u8(0x48);  // 'H'
    head.put_u8(1);     // legacy version
    head.put_string(zfp->name());
    head.put_u8(static_cast<std::uint8_t>(DType::F32));
    head.put_u8(static_cast<std::uint8_t>(shape.rank()));
    for (std::size_t d = 0; d < shape.rank(); ++d) head.put_varint(shape[d]);
    head.put_u8(static_cast<std::uint8_t>(pipeline::Mode::Fixed));
    const std::size_t nchunks = shape[0] / rows_per;
    Shape cshape = shape;
    cshape[0] = rows_per;
    std::vector<std::vector<std::uint8_t>> blobs;
    for (std::size_t c = 0; c < nchunks; ++c)
      blobs.push_back(zfp->compress(dev,
                                    raw.data() + c * rows_per * slab_bytes,
                                    cshape, DType::F32, gopts.param));
    head.put_varint(nchunks);
    for (const auto& b : blobs) {
      head.put_varint(rows_per);
      head.put_varint(b.size());
    }
    auto stream = head.take();
    for (const auto& b : blobs) stream.insert(stream.end(), b.begin(),
                                              b.end());
    write_file(dir + "/v1_zfp.hpdr", stream);
  }

  // Lossless reference: huffman-x round-trips bit-exactly to input.raw.
  auto huff = make_compressor("huffman-x");
  const auto v2h =
      pipeline::compress(dev, *huff, raw.data(), shape, DType::F32, gopts);
  write_file(dir + "/v2_huffman.hpdr", v2h.stream);

  // Stream-format v3 (DESIGN.md §15): the progressive MGARD refinement
  // container, same raster and chunk split. v3_mgard.raw is the
  // full-refinement decode, which the byte-identity guarantee makes equal
  // to a one-shot v2 mgard-x decode of the same tensor/options.
  const auto v3 = pipeline::progressive_compress(dev, raw.data(), shape,
                                                 DType::F32, gopts);
  write_file(dir + "/v3_mgard.hpdr", v3);
  pipeline::ProgressiveReader rd(v3);
  rd.refine_full(dev);
  write_file(dir + "/v3_mgard.raw", rd.data());

  std::printf("golden corpus in %s: input.raw, v1_zfp.hpdr, v2_zfp.hpdr, "
              "v2_zfp.raw, v2_huffman.hpdr, v3_mgard.hpdr, v3_mgard.raw\n",
              dir.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  try {
    // Resilience and execution flags apply to every command, so they're
    // scanned before dispatch: --faults/--fault-seed arm the process-wide
    // injector, --retry raises the file-I/O attempt budget (and, via
    // options_from, the codec retry budget on compress), --threads sets the
    // host thread-pool width before any pipeline call instantiates it.
    std::string plan;
    std::uint64_t seed = 0;
    for (int i = 2; i + 1 < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--faults") plan = argv[i + 1];
      if (a == "--fault-seed") seed = std::stoull(argv[i + 1]);
      if (a == "--retry") g_file_retry.max_attempts = std::stoi(argv[i + 1]);
      if (a == "--threads") {
        const int n = std::stoi(argv[i + 1]);
        if (n < 1) usage("--threads must be >= 1");
        ThreadPool::set_default_threads(static_cast<unsigned>(n));
        ThreadPool::instance().resize(static_cast<unsigned>(n));
      }
    }
    if (!plan.empty()) fault::Injector::instance().configure(plan, seed);

    int rc = -1;
    if (cmd == "generate") rc = cmd_generate(argc, argv);
    else if (cmd == "compress") rc = cmd_compress(argc, argv);
    else if (cmd == "decompress") rc = cmd_decompress(argc, argv);
    else if (cmd == "info") rc = cmd_info(argc, argv);
    else if (cmd == "verify") rc = cmd_verify(argc, argv);
    else if (cmd == "trace") rc = cmd_trace(argc, argv);
    else if (cmd == "retrieve") rc = cmd_retrieve(argc, argv);
    else if (cmd == "serve") rc = cmd_serve(argc, argv);
    else if (cmd == "stats") rc = cmd_stats(argc, argv);
    else if (cmd == "write-golden") rc = cmd_write_golden(argc, argv);
    else usage("unknown command");

    auto& inj = fault::Injector::instance();
    if (inj.armed())
      std::fprintf(stderr, "faults: %llu fire(s) absorbed (plan '%s')\n",
                   static_cast<unsigned long long>(inj.total_fires()),
                   inj.plan_string().c_str());
    return rc;
  } catch (const Error& e) {
    // One-line diagnostic, nonzero exit: a resilience failure (retries
    // exhausted, unrecoverable corruption) must fail loudly, not crash.
    std::fprintf(stderr, "hpdr: error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
