#include "obs/trace.h"

#include <algorithm>
#include <cstdlib>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace mig::obs {

namespace internal {
bool g_enabled = false;

namespace {
// MIG_TRACE=1 (or any non-empty value other than "0") switches the whole
// process to instrumented mode at startup — the `trace` ctest preset uses
// this to run the full suite with observability on.
bool env_init() {
  const char* v = std::getenv("MIG_TRACE");
  if (v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0'))
    g_enabled = true;
  return true;
}
const bool g_env_initialized = env_init();
}  // namespace
}  // namespace internal

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

void TraceRecorder::clear() {
  events_.clear();
  thread_names_.clear();
}

void TraceRecorder::ensure_thread(uint32_t tid,
                                  const std::string& thread_name) {
  auto it = std::find_if(thread_names_.begin(), thread_names_.end(),
                         [&](const auto& p) { return p.first == tid; });
  if (it == thread_names_.end()) thread_names_.emplace_back(tid, thread_name);
}

void TraceRecorder::begin(uint64_t ts_ns, uint32_t tid,
                          const std::string& thread_name, std::string name,
                          std::string cat, Args args) {
  if (!enabled()) return;
  ensure_thread(tid, thread_name);
  Event e;
  e.ph = 'B';
  e.ts_ns = ts_ns;
  e.tid = tid;
  e.name = std::move(name);
  e.cat = std::move(cat);
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

void TraceRecorder::end(uint64_t ts_ns, uint32_t tid, Args args) {
  if (!enabled()) return;
  Event e;
  e.ph = 'E';
  e.ts_ns = ts_ns;
  e.tid = tid;
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

void TraceRecorder::instant(uint64_t ts_ns, uint32_t tid,
                            const std::string& thread_name, std::string name,
                            std::string cat, Args args) {
  if (!enabled()) return;
  ensure_thread(tid, thread_name);
  Event e;
  e.ph = 'i';
  e.ts_ns = ts_ns;
  e.tid = tid;
  e.name = std::move(name);
  e.cat = std::move(cat);
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

size_t TraceRecorder::span_count(std::string_view name) const {
  size_t n = 0;
  for (const Event& e : events_) {
    if (e.ph == 'B' && e.name == name) ++n;
  }
  return n;
}

size_t TraceRecorder::instant_count(std::string_view name) const {
  size_t n = 0;
  for (const Event& e : events_) {
    if (e.ph == 'i' && e.name == name) ++n;
  }
  return n;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xf];
          out += hex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

// Chrome trace "ts" is in microseconds; emit ns with fixed 3 fractional
// digits so output is deterministic (no floating-point formatting involved).
std::string ts_us(uint64_t ns) {
  std::string frac = std::to_string(ns % 1000);
  return std::to_string(ns / 1000) + "." +
         std::string(3 - frac.size(), '0') + frac;
}

void append_args(std::string& out, const Args& args) {
  out += "{";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ",";
    out.append("\"").append(json_escape(args[i].key)).append("\":");
    if (args[i].is_str) {
      out.append("\"").append(json_escape(args[i].str)).append("\"");
    } else {
      out += std::to_string(args[i].u64);
    }
  }
  out += "}";
}

}  // namespace

std::string TraceRecorder::chrome_json() const {
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ",";
    first = false;
    out += "\n";
  };

  std::vector<std::pair<uint32_t, std::string>> names = thread_names_;
  std::sort(names.begin(), names.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [tid, name] : names) {
    sep();
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(tid) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
           json_escape(name) + "\"}}";
  }

  // Per-tid open-span stacks so 'E' events can carry the matching 'B' name
  // (Perfetto tolerates anonymous ends; named ones are self-describing).
  std::vector<std::pair<uint32_t, std::vector<const Event*>>> stacks;
  auto stack_for = [&](uint32_t tid) -> std::vector<const Event*>& {
    for (auto& [t, s] : stacks) {
      if (t == tid) return s;
    }
    stacks.emplace_back(tid, std::vector<const Event*>{});
    return stacks.back().second;
  };

  for (const Event& e : events_) {
    sep();
    out += "{\"ph\":\"";
    out += e.ph;
    out += "\",\"pid\":1,\"tid\":" + std::to_string(e.tid) +
           ",\"ts\":" + ts_us(e.ts_ns);
    const Event* open = nullptr;
    if (e.ph == 'B') {
      stack_for(e.tid).push_back(&e);
    } else if (e.ph == 'E') {
      auto& stack = stack_for(e.tid);
      if (!stack.empty()) {
        open = stack.back();
        stack.pop_back();
      }
    }
    const std::string& name = e.ph == 'E' && open != nullptr ? open->name
                                                             : e.name;
    const std::string& cat = e.ph == 'E' && open != nullptr ? open->cat
                                                            : e.cat;
    out += ",\"name\":\"" + json_escape(name) + "\"";
    if (!cat.empty()) out += ",\"cat\":\"" + json_escape(cat) + "\"";
    if (e.ph == 'i') out += ",\"s\":\"t\"";
    out += ",\"args\":";
    append_args(out, e.args);
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

ScopedObservation::ScopedObservation(bool on) : prev_(internal::g_enabled) {
  TraceRecorder::global().clear();
  MetricsRegistry::global().clear();
  // The flight recorder is always on; clearing it here scopes failure
  // forensics to this capture the same way traces and metrics are scoped.
  FlightRecorder::global().clear();
  internal::g_enabled = on;
}

ScopedObservation::~ScopedObservation() { internal::g_enabled = prev_; }

}  // namespace mig::obs
