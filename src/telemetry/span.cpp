#include "telemetry/span.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <sstream>

#include "core/error.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"

namespace hpdr::telemetry {

namespace {

std::chrono::steady_clock::time_point process_start() {
  static const auto t0 = std::chrono::steady_clock::now();
  return t0;
}

}  // namespace

// Dense thread index for stable, compact trace rows.
std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t idx =
      next.fetch_add(1, std::memory_order_relaxed);
  return idx;
}

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - process_start())
      .count();
}

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

void SpanLog::record(SpanRecord r) {
  std::lock_guard<std::mutex> g(mu_);
  spans_.push_back(std::move(r));
}

std::vector<SpanRecord> SpanLog::snapshot() const {
  std::lock_guard<std::mutex> g(mu_);
  return spans_;
}

std::vector<SpanRecord> SpanLog::for_trace(std::uint64_t trace_id) const {
  std::vector<SpanRecord> out;
  if (trace_id == 0) return out;
  {
    std::lock_guard<std::mutex> g(mu_);
    for (const auto& s : spans_)
      if (s.trace_id == trace_id) out.push_back(s);
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_us < b.start_us;
            });
  return out;
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> g(mu_);
  return spans_.size();
}

void SpanLog::clear() {
  std::lock_guard<std::mutex> g(mu_);
  spans_.clear();
}

Span::Span(std::string name, std::string category) {
  if (!enabled()) return;
  rec_.name = std::move(name);
  rec_.category = std::move(category);
  rec_.thread = thread_index();
  const TraceContext tc = current_trace();
  if (tc.active()) {
    // Attribute this span to the current request and make it the parent
    // of any span opened inside it on this thread. The raw thread-local
    // write (instead of a nested TraceScope member) keeps untraced spans
    // zero-cost; end() restores the enclosing context.
    rec_.trace_id = tc.trace_id;
    rec_.parent_span = tc.span_id;
    rec_.span_id = mint_span_id();
    enclosing_ = tc;
    scoped_ = true;
    detail::set_current_trace({tc.trace_id, rec_.span_id});
  }
  rec_.start_us = now_us();
  open_ = true;
}

void Span::end() {
  if (!open_) return;
  open_ = false;
  rec_.end_us = now_us();
  if (scoped_) {
    scoped_ = false;
    detail::set_current_trace(enclosing_);
  }
  SpanLog::instance().record(std::move(rec_));
}

Span::~Span() { end(); }

std::string merged_chrome_trace(const Timeline* tl,
                                const std::vector<SpanRecord>& spans) {
  // pid 0 = simulated HDEM device, pid 1 = host wall clock. Chrome's trace
  // viewer groups rows by pid, so the two time bases (simulated seconds vs.
  // real microseconds since process start) land in visually separate
  // process groups.
  std::ostringstream os;
  os << "[";
  bool first = true;
  auto emit = [&](const std::string& event) {
    if (!first) os << ",";
    first = false;
    os << event;
  };
  emit(R"j({"name":"process_name","ph":"M","pid":0,"tid":0,)j"
       R"j("args":{"name":"HDEM device (simulated)"}})j");
  emit(R"j({"name":"process_name","ph":"M","pid":1,"tid":0,)j"
       R"j("args":{"name":"host (wall clock)"}})j");
  // Device rows: one per engine, one slice per task. A host run's empty
  // timeline has none.
  if (tl != nullptr && !tl->tasks.empty()) {
    for (int e = 0; e < kNumEngines; ++e) {
      std::ostringstream m;
      m << R"({"name":"thread_name","ph":"M","pid":0,"tid":)" << e
        << R"(,"args":{"name":")"
        << json_escape(to_string(static_cast<EngineId>(e))) << R"("}})";
      emit(m.str());
    }
    for (const auto& t : tl->tasks) {
      if (t.duration() <= 0) continue;
      std::ostringstream e;
      e << R"({"name":")" << json_escape(t.label) << R"(","cat":"queue)"
        << t.queue << R"(","ph":"X","pid":0,"tid":)"
        << static_cast<int>(t.engine) << R"(,"ts":)" << t.start * 1e6
        << R"(,"dur":)" << t.duration() * 1e6 << R"(,"args":{"queue":)"
        << t.queue << "}}";
      emit(e.str());
    }
  }
  // Host thread-name rows.
  std::uint32_t max_thread = 0;
  for (const auto& s : spans) max_thread = std::max(max_thread, s.thread);
  if (!spans.empty()) {
    for (std::uint32_t t = 0; t <= max_thread; ++t) {
      std::ostringstream m;
      m << R"({"name":"thread_name","ph":"M","pid":1,"tid":)" << t
        << R"(,"args":{"name":"host-thread-)" << t << R"("}})";
      emit(m.str());
    }
  }
  // Index spans by id for parent/child flow binding below.
  std::map<std::uint64_t, const SpanRecord*> by_id;
  for (const auto& s : spans)
    if (s.span_id != 0) by_id.emplace(s.span_id, &s);
  for (const auto& s : spans) {
    if (s.duration_us() < 0) continue;
    std::ostringstream e;
    e << R"({"name":")" << json_escape(s.name) << R"(","cat":")"
      << json_escape(s.category) << R"(","ph":"X","pid":1,"tid":)"
      << s.thread << R"(,"ts":)" << s.start_us << R"(,"dur":)"
      << s.duration_us();
    if (s.trace_id != 0)
      e << R"(,"args":{"trace":")" << trace_id_hex(s.trace_id)
        << R"(","span":")" << trace_id_hex(s.span_id) << R"(","parent":")"
        << trace_id_hex(s.parent_span) << R"("}})";
    else
      e << "}";
    emit(e.str());
    // Parent/child flow arrows: a flow-start anchored inside the parent's
    // slice on the parent's thread, a flow-end at the child's start on the
    // child's thread. Only cross-thread edges get arrows — same-thread
    // nesting is already visible as slice stacking — and that is exactly
    // what makes a request fanned out by parallel_for readable as one
    // tree in Perfetto.
    const auto parent_it = s.parent_span != 0 ? by_id.find(s.parent_span)
                                              : by_id.end();
    if (parent_it != by_id.end() && parent_it->second->thread != s.thread) {
      const SpanRecord& p = *parent_it->second;
      const double anchor =
          std::min(std::max(s.start_us, p.start_us), p.end_us);
      std::ostringstream fs;
      fs << R"({"name":"trace","cat":"flow","ph":"s","id":")"
         << trace_id_hex(s.span_id) << R"(","pid":1,"tid":)" << p.thread
         << R"(,"ts":)" << anchor << "}";
      emit(fs.str());
      std::ostringstream ff;
      ff << R"({"name":"trace","cat":"flow","ph":"f","bp":"e","id":")"
         << trace_id_hex(s.span_id) << R"(","pid":1,"tid":)" << s.thread
         << R"(,"ts":)" << s.start_us << "}";
      emit(ff.str());
    }
  }
  os << "]";
  return os.str();
}

Value trace_timeline(std::uint64_t trace_id) {
  Value v = Value::object();
  v.set("trace", Value(trace_id_hex(trace_id)));
  Value spans = Value::array();
  for (const SpanRecord& s : SpanLog::instance().for_trace(trace_id)) {
    Value sv = Value::object();
    sv.set("name", Value(s.name));
    sv.set("category", Value(s.category));
    sv.set("thread", Value(static_cast<std::uint64_t>(s.thread)));
    sv.set("start_us", Value(s.start_us));
    sv.set("dur_us", Value(s.duration_us()));
    sv.set("span", Value(trace_id_hex(s.span_id)));
    sv.set("parent", Value(trace_id_hex(s.parent_span)));
    spans.push_back(std::move(sv));
  }
  v.set("spans", std::move(spans));
  return v;
}

void write_merged_trace(const Timeline* tl, const std::string& path) {
  const std::string json =
      merged_chrome_trace(tl, SpanLog::instance().snapshot());
  std::ofstream f(path, std::ios::trunc);
  HPDR_REQUIRE(f.good(), "cannot open '" << path << "' for writing");
  f << json;
  HPDR_REQUIRE(f.good(), "writing trace to '" << path << "' failed");
}

}  // namespace hpdr::telemetry
