#include "obs/attribution.h"

#include <algorithm>
#include <map>

#include "obs/metrics.h"

namespace mig::obs {

namespace {

// A balanced B/E pair reconstructed from the event stream.
struct CompletedSpan {
  std::string name;
  uint32_t tid = 0;
  uint64_t b_ts = 0;
  uint64_t e_ts = 0;
  size_t depth = 0;  // nesting depth on its tid at the B event (0 = root)
};

struct InstantEvent {
  std::string name;
  uint32_t tid = 0;
  uint64_t ts = 0;
};

// The source half's direct child spans, in ledger order. Anything else that
// shows up as a direct child folds into "other" so the gauge name set stays
// closed (docs/trace-schema.md registers every attr.* name).
constexpr std::string_view kPhaseOrder[] = {
    "precopy_rounds", "prepare_enclaves", "stop_and_copy",
    "postcopy_tail",  "restore_wait",     "other",
};

std::string_view phase_for_child(std::string_view span_name) {
  if (span_name == "precopy_round") return "precopy_rounds";
  if (span_name == "prepare_enclaves") return "prepare_enclaves";
  if (span_name == "stop_and_copy") return "stop_and_copy";
  if (span_name == "postcopy.vm_serve") return "postcopy_tail";
  if (span_name == "wait_restore_report") return "restore_wait";
  return "other";
}

// Cross-thread contributors: trace span name -> aggregate name.
constexpr std::pair<std::string_view, std::string_view> kSpanTotals[] = {
    {"two_phase_checkpoint", "checkpoint"},
    {"delta.baseline", "delta_dump"},
    {"delta.round", "delta_dump"},
    {"delta.final", "delta_dump"},
    {"ctl.advance_counter", "counter_roundtrip"},
    {"store.counter.serve", "counter_roundtrip"},
    {"restore.enclave", "enclave_restore"},
    {"cssa_replay", "cssa_replay"},
    {"postcopy.pull", "postcopy_pull"},
    {"postcopy.vm_pull", "postcopy_pull"},
};

constexpr std::string_view kSpanTotalOrder[] = {
    "checkpoint",      "delta_dump", "counter_roundtrip",
    "enclave_restore", "cssa_replay", "postcopy_pull",
};

uint64_t find_phase(const std::vector<AttributionPhase>& v,
                    std::string_view name) {
  for (const AttributionPhase& p : v)
    if (p.name == name) return p.ns;
  return 0;
}

void append_phases(std::string& out, const char* key,
                   const std::vector<AttributionPhase>& v) {
  out += "\"";
  out += key;
  out += "\":{";
  bool first = true;
  for (const AttributionPhase& p : v) {
    if (!first) out += ',';
    first = false;
    out.append("\"").append(json_escape(p.name)).append("\":");
    out += std::to_string(p.ns);
  }
  out += "}";
}

}  // namespace

uint64_t AttributionLedger::phase_ns(std::string_view name) const {
  return find_phase(phases, name);
}
uint64_t AttributionLedger::downtime_phase_ns(std::string_view name) const {
  return find_phase(downtime_phases, name);
}
uint64_t AttributionLedger::span_total_ns(std::string_view name) const {
  return find_phase(span_totals, name);
}

void AttributionLedger::publish() const {
  if (!enabled() || !present) return;
  MetricsRegistry& m = metrics();
  m.set_gauge("attr.total_ns", total_ns);
  m.set_gauge("attr.downtime_ns", downtime_ns);
  for (const AttributionPhase& p : phases)
    m.set_gauge("attr.phase." + p.name + "_ns", p.ns);
  for (const AttributionPhase& p : downtime_phases)
    m.set_gauge("attr.downtime." + p.name + "_ns", p.ns);
  for (const AttributionPhase& p : span_totals)
    m.set_gauge("attr.span." + p.name + "_ns", p.ns);
}

std::string AttributionLedger::json() const {
  std::string out = "{\"present\":";
  out += present ? "true" : "false";
  out += ",\"total_ns\":" + std::to_string(total_ns);
  out += ",\"downtime_ns\":" + std::to_string(downtime_ns) + ",";
  append_phases(out, "phases", phases);
  out += ",";
  append_phases(out, "downtime_phases", downtime_phases);
  out += ",";
  append_phases(out, "span_totals", span_totals);
  out += "}";
  return out;
}

Result<AttributionLedger> attribute_migration(const TraceRecorder& trace) {
  // Pass 1: reconstruct balanced spans and instants. Per-tid stacks mirror
  // the exporter's E-name backfill; unbalanced leftovers (spans still open
  // when the capture was taken) are simply not completed spans.
  std::vector<CompletedSpan> spans;
  std::vector<InstantEvent> instants;
  std::map<uint32_t, std::vector<CompletedSpan>> open;  // per-tid stacks
  for (const TraceRecorder::Event& ev : trace.events()) {
    if (ev.ph == 'B') {
      CompletedSpan s;
      s.name = ev.name;
      s.tid = ev.tid;
      s.b_ts = ev.ts_ns;
      s.depth = open[ev.tid].size();
      open[ev.tid].push_back(std::move(s));
    } else if (ev.ph == 'E') {
      auto it = open.find(ev.tid);
      if (it == open.end() || it->second.empty())
        return Error(ErrorCode::kInvalidArgument,
                     "unbalanced trace: E without matching B");
      CompletedSpan s = std::move(it->second.back());
      it->second.pop_back();
      s.e_ts = ev.ts_ns;
      spans.push_back(std::move(s));
    } else if (ev.ph == 'i') {
      instants.push_back({ev.name, ev.tid, ev.ts_ns});
    }
  }

  // The last complete migration in the capture (retries leave earlier,
  // aborted attempts behind; the committed one is the one to attribute).
  const CompletedSpan* src = nullptr;
  for (const CompletedSpan& s : spans)
    if (s.name == "migrate_source" &&
        (src == nullptr || s.b_ts >= src->b_ts))
      src = &s;
  if (src == nullptr)
    return Error(ErrorCode::kFailedPrecondition,
                 "trace holds no complete migrate_source span");

  AttributionLedger led;
  led.present = true;
  led.total_ns = src->e_ts - src->b_ts;

  // Total-time partition: direct children of migrate_source on its tid.
  std::map<std::string_view, uint64_t> phase_ns;
  uint64_t child_sum = 0;
  const CompletedSpan* stop = nullptr;
  for (const CompletedSpan& s : spans) {
    if (s.tid != src->tid || s.depth != src->depth + 1) continue;
    if (s.b_ts < src->b_ts || s.e_ts > src->e_ts) continue;
    phase_ns[phase_for_child(s.name)] += s.e_ts - s.b_ts;
    child_sum += s.e_ts - s.b_ts;
    if (s.name == "stop_and_copy" && (stop == nullptr || s.b_ts > stop->b_ts))
      stop = &s;
  }
  phase_ns["other"] += led.total_ns - child_sum;  // inter-span gaps
  for (std::string_view name : kPhaseOrder)
    led.phases.push_back({std::string(name), phase_ns[name]});

  // Downtime partition: stop_and_copy B (== the engine's stop_time) to the
  // vm.resumed instant (== the kResumeAck payload the engine subtracts).
  if (stop != nullptr) {
    uint64_t t_stop = stop->b_ts;
    auto first_instant = [&](std::string_view name,
                             uint64_t not_before) -> const InstantEvent* {
      const InstantEvent* best = nullptr;
      for (const InstantEvent& i : instants)
        if (i.name == name && i.ts >= not_before && i.ts <= src->e_ts &&
            (best == nullptr || i.ts < best->ts))
          best = &i;
      return best;
    };
    const InstantEvent* resumed = first_instant("vm.resumed", t_stop);
    if (resumed != nullptr) {
      led.downtime_ns = resumed->ts - t_stop;
      const InstantEvent* saved = first_instant("stop.device_saved", t_stop);
      const InstantEvent* received =
          saved ? first_instant("stop.final_received", saved->ts) : nullptr;
      if (saved != nullptr && received != nullptr &&
          received->ts <= resumed->ts) {
        led.downtime_phases.push_back({"device_save", saved->ts - t_stop});
        led.downtime_phases.push_back({"final_copy", received->ts - saved->ts});
        led.downtime_phases.push_back(
            {"device_restore", resumed->ts - received->ts});
      } else {
        // Pre-instant traces: attribute the whole window as one phase so the
        // sum-to-downtime invariant still holds.
        led.downtime_phases.push_back({"stop_to_resume", led.downtime_ns});
      }
    }
  }

  // Cross-thread contributors inside the migration window.
  std::map<std::string_view, uint64_t> totals;
  for (const CompletedSpan& s : spans) {
    if (s.b_ts < src->b_ts || s.e_ts > src->e_ts) continue;
    for (const auto& [span_name, agg] : kSpanTotals)
      if (s.name == span_name) totals[agg] += s.e_ts - s.b_ts;
  }
  for (std::string_view name : kSpanTotalOrder)
    led.span_totals.push_back({std::string(name), totals[name]});

  return led;
}

}  // namespace mig::obs
