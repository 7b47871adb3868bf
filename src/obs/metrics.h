// Metrics registry for the migration pipeline.
//
// Counters (monotone: bytes shipped, rounds, retries, faults injected, CSSA
// pumps), gauges (last-run facts: downtime_ns, migration.success) and
// log2-bucketed histograms (distributions: round bytes, message sizes).
// Everything is process-global, deterministic, and dumps to JSON with sorted
// keys so two identical seeded runs produce byte-identical output.
//
// The registry is the single source of truth the benches and tests read:
// MigrationReport::publish_metrics() folds the engine's report into it, so
// engine-level numbers and trace-derived numbers cannot drift apart.
//
// Naming convention (dot-separated, layer first):
//   hv.*        pre-copy engine          (hv.rounds, hv.transferred_bytes)
//   migration.* session/report level     (migration.downtime_ns, ...)
//   sdk.*       enclave runtime          (sdk.aex, sdk.cssa_pumps, sdk.parks)
//   net.*       simulated links          (net.bytes_sent, net.msg_bytes)
//   sim.*       executor + fault layer   (sim.slices, sim.faults.injected)
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "obs/trace.h"  // the enable switch + json_escape live there

namespace mig::obs {

class MetricsRegistry {
 public:
  // 65 buckets: bucket 0 holds value 0, bucket i>0 holds [2^(i-1), 2^i).
  static constexpr size_t kBuckets = 65;
  struct Histogram {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0;
    uint64_t max = 0;
    std::array<uint64_t, kBuckets> buckets{};
  };

  static MetricsRegistry& global();

  void clear();

  // Recording (no-ops while disabled).
  void add(std::string_view name, uint64_t delta = 1);  // counter +=
  void set_gauge(std::string_view name, uint64_t v);    // gauge =
  void observe(std::string_view name, uint64_t v);      // histogram sample

  // Query API for tests/benches. Missing names read as zero/empty.
  uint64_t counter(std::string_view name) const;
  uint64_t gauge(std::string_view name) const;
  bool has_gauge(std::string_view name) const;
  Histogram histogram(std::string_view name) const;

  // {"counters":{...},"gauges":{...},"histograms":{...}} with sorted keys
  // and only non-empty histogram buckets listed.
  std::string json() const;

  static size_t bucket_index(uint64_t v);

 private:
  std::map<std::string, uint64_t, std::less<>> counters_;
  std::map<std::string, uint64_t, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

inline MetricsRegistry& metrics() { return MetricsRegistry::global(); }

}  // namespace mig::obs
