#include "fault/fault.hpp"

#include <algorithm>
#include <sstream>

#include "core/error.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/recorder.hpp"

namespace hpdr::fault {

namespace {

// Every fire bumps the fault counters and leaves a flight-recorder event
// attributed to whichever request was running — and marks the recorder
// drain-worthy, so the next manifest carries the post-mortem log.
void note_fire(std::string_view site) {
  telemetry::counter("fault.fires").add();
  telemetry::counter("fault." + std::string(site) + ".fires").add();
  telemetry::flight_event(telemetry::EventKind::FaultFire, site);
}

std::uint64_t hash_site(std::string_view site) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : site) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t parse_u64(const std::string& v, const std::string& clause) {
  HPDR_REQUIRE(!v.empty() && v.find_first_not_of("0123456789") ==
                   std::string::npos,
               "fault plan: bad integer '" << v << "' in '" << clause << "'");
  return std::stoull(v);
}

double parse_f64(const std::string& v, const std::string& clause) {
  try {
    std::size_t used = 0;
    const double d = std::stod(v, &used);
    HPDR_REQUIRE(used == v.size(), "fault plan: trailing junk in '" << clause
                                                                    << "'");
    return d;
  } catch (const std::logic_error&) {
    HPDR_REQUIRE(false,
                 "fault plan: bad number '" << v << "' in '" << clause << "'");
  }
  return 0.0;  // unreachable
}

}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t SiteSpec::max_fires() const {
  if (count > 0) return count;
  return trigger == Trigger::Nth ? 1 : UINT64_MAX;
}

std::string SiteSpec::to_string() const {
  std::ostringstream os;
  os << site << ':';
  switch (trigger) {
    case Trigger::Nth:
      os << "nth=" << n;
      break;
    case Trigger::Every:
      os << "every=" << n;
      break;
    case Trigger::Prob:
      os << "p=" << p;
      break;
  }
  if (count > 0) os << ",count=" << count;
  if (flip != 1) os << ",flip=" << flip;
  if (factor != 1.5) os << ",factor=" << factor;
  return os.str();
}

FaultPlan FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t semi = text.find(';', pos);
    if (semi == std::string::npos) semi = text.size();
    const std::string clause = text.substr(pos, semi - pos);
    pos = semi + 1;
    if (clause.empty()) continue;
    const std::size_t colon = clause.find(':');
    HPDR_REQUIRE(colon != std::string::npos && colon > 0,
                 "fault plan: clause '" << clause << "' has no site:spec");
    SiteSpec spec;
    spec.site = clause.substr(0, colon);
    for (const auto& existing : plan.sites)
      HPDR_REQUIRE(existing.site != spec.site,
                   "fault plan: duplicate site '" << spec.site << "'");
    bool have_trigger = false;
    std::size_t kpos = colon + 1;
    while (kpos <= clause.size()) {
      std::size_t comma = clause.find(',', kpos);
      if (comma == std::string::npos) comma = clause.size();
      const std::string kv = clause.substr(kpos, comma - kpos);
      kpos = comma + 1;
      if (kv.empty()) continue;
      const std::size_t eq = kv.find('=');
      HPDR_REQUIRE(eq != std::string::npos,
                   "fault plan: spec '" << kv << "' is not key=value");
      const std::string key = kv.substr(0, eq);
      const std::string val = kv.substr(eq + 1);
      if (key == "nth") {
        spec.trigger = SiteSpec::Trigger::Nth;
        spec.n = parse_u64(val, clause);
        HPDR_REQUIRE(spec.n >= 1, "fault plan: nth must be >= 1");
        have_trigger = true;
      } else if (key == "every") {
        spec.trigger = SiteSpec::Trigger::Every;
        spec.n = parse_u64(val, clause);
        HPDR_REQUIRE(spec.n >= 1, "fault plan: every must be >= 1");
        have_trigger = true;
      } else if (key == "p") {
        spec.trigger = SiteSpec::Trigger::Prob;
        spec.p = parse_f64(val, clause);
        HPDR_REQUIRE(spec.p >= 0.0 && spec.p <= 1.0,
                     "fault plan: p must be in [0,1]");
        have_trigger = true;
      } else if (key == "count") {
        spec.count = parse_u64(val, clause);
      } else if (key == "flip") {
        spec.flip = parse_u64(val, clause);
        HPDR_REQUIRE(spec.flip >= 1, "fault plan: flip must be >= 1");
      } else if (key == "factor") {
        spec.factor = parse_f64(val, clause);
        HPDR_REQUIRE(spec.factor > 0.0, "fault plan: factor must be > 0");
      } else {
        HPDR_REQUIRE(false, "fault plan: unknown key '" << key << "' in '"
                                                        << clause << "'");
      }
    }
    HPDR_REQUIRE(have_trigger, "fault plan: site '"
                                   << spec.site
                                   << "' needs nth=/every=/p=");
    plan.sites.push_back(std::move(spec));
  }
  return plan;
}

std::string FaultPlan::to_string() const {
  std::string out;
  for (const auto& s : sites) {
    if (!out.empty()) out += ';';
    out += s.to_string();
  }
  return out;
}

Injector& Injector::instance() {
  static Injector i;
  return i;
}

void Injector::configure(FaultPlan plan, std::uint64_t seed) {
  std::lock_guard<std::mutex> g(mu_);
  sites_.clear();
  plan_text_ = plan.to_string();
  seed_ = seed;
  total_fires_.store(0, std::memory_order_relaxed);
  for (auto& spec : plan.sites) {
    SiteState st;
    st.rng = seed ^ hash_site(spec.site);
    st.spec = std::move(spec);
    sites_.emplace(st.spec.site, std::move(st));
  }
  armed_.store(!sites_.empty(), std::memory_order_relaxed);
}

void Injector::configure(const std::string& plan_text, std::uint64_t seed) {
  configure(FaultPlan::parse(plan_text), seed);
}

void Injector::disarm() {
  std::lock_guard<std::mutex> g(mu_);
  sites_.clear();
  plan_text_.clear();
  seed_ = 0;
  total_fires_.store(0, std::memory_order_relaxed);
  armed_.store(false, std::memory_order_relaxed);
}

std::string Injector::plan_string() const {
  std::lock_guard<std::mutex> g(mu_);
  return plan_text_;
}

std::uint64_t Injector::seed() const {
  std::lock_guard<std::mutex> g(mu_);
  return seed_;
}

bool Injector::fire_locked(SiteState& st) {
  ++st.calls;
  if (st.fired >= st.spec.max_fires()) return false;
  bool fire = false;
  switch (st.spec.trigger) {
    case SiteSpec::Trigger::Nth:
      fire = st.calls == st.spec.n;
      break;
    case SiteSpec::Trigger::Every:
      fire = st.calls % st.spec.n == 0;
      break;
    case SiteSpec::Trigger::Prob: {
      const double u =
          static_cast<double>(splitmix64(st.rng) >> 11) * 0x1.0p-53;
      fire = u < st.spec.p;
      break;
    }
  }
  if (!fire) return false;
  ++st.fired;
  total_fires_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool Injector::should_fire(std::string_view site) {
  bool fired = false;
  {
    std::lock_guard<std::mutex> g(mu_);
    auto it = sites_.find(std::string(site));
    if (it == sites_.end()) return false;
    fired = fire_locked(it->second);
  }
  if (fired) {
    note_fire(site);
  }
  return fired;
}

bool Injector::fire_indexed_locked(SiteState& st, std::string_view site,
                                   std::uint64_t index,
                                   std::uint64_t attempt) {
  ++st.calls;
  const SiteSpec& spec = st.spec;
  bool fire = false;
  switch (spec.trigger) {
    case SiteSpec::Trigger::Nth:
      // Transient: the planned fault hits one index's first attempt; the
      // retry of that index draws attempt 1 and succeeds.
      fire = attempt == 0 && index + 1 == spec.n;
      break;
    case SiteSpec::Trigger::Every:
      // Persistent: the selected indices are broken on every attempt, so
      // retries exhaust and containment (fallback/skip) must engage.
      fire = (index + 1) % spec.n == 0 &&
             (index + 1) / spec.n <= spec.max_fires();
      break;
    case SiteSpec::Trigger::Prob: {
      // Stateless draw from (seed, site, index, attempt): no shared RNG
      // stream, so concurrent draws can never observe each other.
      std::uint64_t state = seed_ ^ hash_site(site);
      state += 0x9e3779b97f4a7c15ull * (index + 1);
      state += 0x517cc1b727220a95ull * (attempt + 1);
      const double u =
          static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
      fire = u < spec.p;
      break;
    }
  }
  if (!fire) return false;
  ++st.fired;
  total_fires_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool Injector::should_fire_at(std::string_view site, std::uint64_t index,
                              std::uint64_t attempt) {
  bool fired = false;
  {
    std::lock_guard<std::mutex> g(mu_);
    auto it = sites_.find(std::string(site));
    if (it == sites_.end()) return false;
    fired = fire_indexed_locked(it->second, site, index, attempt);
  }
  if (fired) {
    note_fire(site);
  }
  return fired;
}

bool Injector::corrupt_at(std::string_view site, std::uint64_t index,
                          std::span<std::uint8_t> bytes) {
  if (bytes.empty()) return false;
  std::uint64_t flips = 0;
  std::uint64_t rng = 0;
  {
    std::lock_guard<std::mutex> g(mu_);
    auto it = sites_.find(std::string(site));
    if (it == sites_.end()) return false;
    if (!fire_indexed_locked(it->second, site, index, 0)) return false;
    flips = std::min<std::uint64_t>(it->second.spec.flip, bytes.size());
    // Flip positions come from a per-index stateless stream, so which bytes
    // of chunk `index` flip does not depend on what other chunks did.
    rng = seed_ ^ hash_site(site);
    rng += 0x9e3779b97f4a7c15ull * (index + 1);
  }
  for (std::uint64_t f = 0; f < flips; ++f) {
    const std::uint64_t r = splitmix64(rng);
    bytes[r % bytes.size()] ^=
        static_cast<std::uint8_t>(1 + (r >> 32) % 255);
  }
  note_fire(site);
  telemetry::counter("fault.bytes_flipped").add(flips);
  return true;
}

double Injector::stretch(std::string_view site) {
  double factor = 1.0;
  {
    std::lock_guard<std::mutex> g(mu_);
    auto it = sites_.find(std::string(site));
    if (it == sites_.end()) return 1.0;
    if (!fire_locked(it->second)) return 1.0;
    factor = it->second.spec.factor;
  }
  note_fire(site);
  return factor;
}

std::uint64_t Injector::fires(std::string_view site) const {
  std::lock_guard<std::mutex> g(mu_);
  auto it = sites_.find(std::string(site));
  return it == sites_.end() ? 0 : it->second.fired;
}

std::uint64_t Injector::total_fires() const {
  return total_fires_.load(std::memory_order_relaxed);
}

}  // namespace hpdr::fault
