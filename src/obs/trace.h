// Virtual-time tracing for the deterministic simulator.
//
// The paper's whole evaluation is about *where time goes* during a migration
// (two-phase checkpoint latency, pre-copy round behavior, restore/CSSA-replay
// cost — Figs. 9-11). TraceRecorder makes that visible: instrumented code
// opens RAII spans and drops instant events stamped with the calling sim
// thread's virtual clock, and the recorder exports Chrome trace-event JSON
// that Perfetto (ui.perfetto.dev) renders as a per-sim-thread timeline of an
// entire VM migration — pre-copy rounds, checkpoint, attestation/DH
// handshake, key handoff, restore, CSSA replay.
//
// Design constraints, in order:
//  * Deterministic: events are appended in sim-execution order, which the
//    executor already makes deterministic (one sim thread runs at a time,
//    handoff at explicit points). Same seed + same program = byte-identical
//    JSON, so traces are diffable in tests.
//  * Near-zero cost when disabled: every entry point checks one global bool;
//    call sites that would build argument strings guard on obs::enabled()
//    first. No allocation, no locking, nothing else happens when off.
//  * No dependency on sim/: spans are templated on the context type (they
//    only need now()/id()/name()), so sim itself can be instrumented without
//    a dependency cycle (obs sits between util and sim in the module DAG).
//
// The recorder is process-global and disabled by default; tests use
// ScopedObservation to enable + clear it for one capture. Setting MIG_TRACE=1
// in the environment enables tracing and metrics from startup, which is how
// the `trace` ctest preset runs the whole suite instrumented.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace mig::obs {

namespace internal {
extern bool g_enabled;
}  // namespace internal

// The one switch for tracing and metrics (MIG_TRACE or a ScopedObservation
// sets it). Also the guard for call sites that build args for either.
inline bool enabled() { return internal::g_enabled; }

// One key/value argument attached to a trace event. Values are u64 or string
// (everything the instrumentation needs: byte counts, round numbers, phase
// outcomes, names).
struct Arg {
  template <typename T, typename = std::enable_if_t<std::is_integral_v<T>>>
  Arg(std::string k, T v)
      : key(std::move(k)), is_str(false), u64(static_cast<uint64_t>(v)) {}
  Arg(std::string k, const char* v) : key(std::move(k)), is_str(true), str(v) {}
  Arg(std::string k, std::string v)
      : key(std::move(k)), is_str(true), str(std::move(v)) {}

  std::string key;
  bool is_str = false;
  uint64_t u64 = 0;
  std::string str;
};
using Args = std::vector<Arg>;

class TraceRecorder {
 public:
  // Event phases mirror the Chrome trace-event ones we emit: 'B'egin/'E'nd
  // span pairs and 'i'nstant events.
  struct Event {
    char ph = 'i';
    uint64_t ts_ns = 0;
    uint32_t tid = 0;
    std::string name;  // empty on 'E' (filled from the matching 'B' on export)
    std::string cat;
    Args args;
  };

  static TraceRecorder& global();

  // Drops all recorded events and thread names.
  void clear();

  // Raw recording interface. `thread_name` is registered once per tid (first
  // sighting wins) and exported as Chrome thread_name metadata.
  void begin(uint64_t ts_ns, uint32_t tid, const std::string& thread_name,
             std::string name, std::string cat, Args args = {});
  void end(uint64_t ts_ns, uint32_t tid, Args args = {});
  void instant(uint64_t ts_ns, uint32_t tid, const std::string& thread_name,
               std::string name, std::string cat, Args args = {});

  // Chrome trace-event JSON (object form, loadable in Perfetto / Chrome
  // about:tracing). Deterministic: metadata sorted by tid, events in record
  // order, fixed number formatting.
  std::string chrome_json() const;

  // ---- query API for tests ----
  const std::vector<Event>& events() const { return events_; }
  size_t span_count(std::string_view name) const;     // 'B' events named so
  size_t instant_count(std::string_view name) const;  // 'i' events named so
  bool has_span(std::string_view name) const { return span_count(name) > 0; }

 private:
  void ensure_thread(uint32_t tid, const std::string& thread_name);

  std::vector<Event> events_;
  // tid -> name in registration order (deterministic); export sorts by tid.
  std::vector<std::pair<uint32_t, std::string>> thread_names_;
};

inline TraceRecorder& trace() { return TraceRecorder::global(); }

// RAII span on the calling sim thread's virtual clock. Templated so obs does
// not depend on sim::ThreadCtx; any type with now()/id()/name() works.
template <typename Ctx>
class Span {
 public:
  Span() = default;
  Span(Ctx& ctx, std::string name, std::string cat, Args args = {}) {
    if (!enabled()) return;
    ctx_ = &ctx;
    trace().begin(ctx.now(), ctx.id(), ctx.name(), std::move(name),
                  std::move(cat), std::move(args));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& o) noexcept : ctx_(o.ctx_) { o.ctx_ = nullptr; }
  ~Span() { finish(); }

  // Ends the span early, optionally attaching result args (bytes produced,
  // outcome) that were unknown when it opened.
  void finish(Args args = {}) {
    if (ctx_ == nullptr) return;
    trace().end(ctx_->now(), ctx_->id(), std::move(args));
    ctx_ = nullptr;
  }

 private:
  Ctx* ctx_ = nullptr;
};

template <typename Ctx>
inline void instant(Ctx& ctx, std::string name, std::string cat,
                    Args args = {}) {
  if (!enabled()) return;
  trace().instant(ctx.now(), ctx.id(), ctx.name(), std::move(name),
                  std::move(cat), std::move(args));
}

// Turns trace + metrics on (or, with `on` false, off) for one capture,
// clearing previous data; restores the prior switch on destruction
// (recorded data stays readable until the next capture clears it).
class ScopedObservation {
 public:
  explicit ScopedObservation(bool on = true);
  ~ScopedObservation();
  ScopedObservation(const ScopedObservation&) = delete;
  ScopedObservation& operator=(const ScopedObservation&) = delete;

 private:
  bool prev_;
};

// Escapes a string for embedding in JSON output (shared by trace/metrics/
// bench emitters).
std::string json_escape(std::string_view s);

}  // namespace mig::obs
