#include "obs/flight_recorder.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace mig::obs {

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder instance;
  return instance;
}

void FlightRecorder::record(uint64_t ts_ns, uint32_t tid, std::string where,
                            std::string what, std::string detail) {
  Record& slot = ring_[count_ % kCapacity];
  slot.seq = count_;
  slot.ts_ns = ts_ns;
  slot.tid = tid;
  slot.where = std::move(where);
  slot.what = std::move(what);
  slot.detail = std::move(detail);
  ++count_;
  if (enabled()) {
    metrics().add("flightrec.records");
    metrics().set_gauge("flightrec.dropped", dropped());
  }
}

void FlightRecorder::clear() {
  for (Record& r : ring_) r = Record{};
  count_ = 0;
}

std::vector<FlightRecorder::Record> FlightRecorder::snapshot() const {
  std::vector<Record> out;
  size_t n = size();
  out.reserve(n);
  uint64_t first = count_ - n;
  for (uint64_t s = first; s < count_; ++s)
    out.push_back(ring_[s % kCapacity]);
  return out;
}

std::string FlightRecorder::dump() const {
  std::string out = "{\"dropped\":" + std::to_string(dropped()) +
                    ",\"records\":[";
  bool first = true;
  for (const Record& r : snapshot()) {
    if (!first) out += ',';
    first = false;
    out += "{\"seq\":" + std::to_string(r.seq) +
           ",\"ts_ns\":" + std::to_string(r.ts_ns) +
           ",\"tid\":" + std::to_string(r.tid) + ",\"where\":\"" +
           json_escape(r.where) + "\",\"what\":\"" + json_escape(r.what) +
           "\",\"detail\":\"" + json_escape(r.detail) + "\"}";
  }
  out += "]}";
  return out;
}

bool FlightRecorder::contains(std::string_view needle) const {
  for (const Record& r : snapshot()) {
    if (r.where.find(needle) != std::string::npos ||
        r.what.find(needle) != std::string::npos ||
        r.detail.find(needle) != std::string::npos)
      return true;
  }
  return false;
}

}  // namespace mig::obs
