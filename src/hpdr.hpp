#ifndef HPDR_HPDR_HPP
#define HPDR_HPDR_HPP

/// \file hpdr.hpp
/// Umbrella header: the public API of the HPDR framework.
///
/// Quick start (see examples/quickstart.cpp):
///
///   #include "hpdr.hpp"
///   using namespace hpdr;
///
///   Device dev = machine::make_device("V100");   // or Device::openmp()
///   auto mgard = make_compressor("mgard-x");
///   pipeline::Options opts;
///   opts.mode = pipeline::Mode::Adaptive;
///   opts.param = 1e-3;                            // relative error bound
///   auto result = pipeline::compress(dev, *mgard, data.data(),
///                                    data.shape(), DType::F32, opts);
///   // result.stream  — portable compressed bytes
///   // result.ratio() — compression ratio
///   // result.model_gbps() — modeled (HDEM) throughput, not wall time
///
/// Layering (paper Fig. 2, top to bottom):
///   svc/        job-level serving: fair-share scheduler, session arenas,
///               concurrent compress/decompress jobs (§10)
///   pipeline/   optimized reduction pipelines (chunking, overlap, Alg. 4)
///               and progressive retrieval (stream-format v3)
///   compressor/ the paper's seven pipelines behind one interface
///   algorithms/ MGARD-X, ZFP-X, Huffman-X + cuSZ/LZ4 baselines
///   adapter/    parallel abstractions + execution models + device adapters
///   machine/    context memory model (CMM), device registry
///   runtime/    HDEM device model, discrete-event timelines, roofline
///   io/         BPLite containers, filesystem models, reduced I/O
///   sim/        multi-GPU nodes and clusters (Summit, Frontier, ...)
///   data/       synthetic scientific datasets (NYX, XGC, E3SM)
///   fault/      deterministic fault injection + retry/backoff (§8), usable
///               from every layer above

#include "adapter/abstractions.hpp"
#include "adapter/device.hpp"
#include "algorithms/huffman/huffman.hpp"
#include "algorithms/lz4/lz4.hpp"
#include "algorithms/mgard/hierarchy.hpp"
#include "algorithms/mgard/mgard.hpp"
#include "algorithms/mgard/progressive.hpp"
#include "algorithms/mgard/transform.hpp"
#include "algorithms/sz/sz.hpp"
#include "algorithms/zfp/zfp.hpp"
#include "compressor/compressor.hpp"
#include "core/ndarray.hpp"
#include "core/shape.hpp"
#include "core/stats.hpp"
#include "core/thread_pool.hpp"
#include "data/generators.hpp"
#include "fault/cancel.hpp"
#include "fault/chaos.hpp"
#include "fault/fault.hpp"
#include "fault/retry.hpp"
#include "io/bplite.hpp"
#include "io/fs_model.hpp"
#include "io/reduction_io.hpp"
#include "machine/context_memory.hpp"
#include "machine/device_registry.hpp"
#include "pipeline/adaptive.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/progressive.hpp"
#include "runtime/hdem.hpp"
#include "runtime/perf_model.hpp"
#include "runtime/profiler.hpp"
#include "runtime/trace.hpp"
#include "sim/cluster.hpp"
#include "sim/multigpu.hpp"
#include "sim/scaling.hpp"
#include "svc/service.hpp"
#include "telemetry/telemetry.hpp"

#endif  // HPDR_HPDR_HPP
