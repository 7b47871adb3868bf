#include "obs/metrics.h"

#include <bit>

#include "obs/trace.h"

namespace mig::obs {

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

void MetricsRegistry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

void MetricsRegistry::add(std::string_view name, uint64_t delta) {
  if (!enabled()) return;
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void MetricsRegistry::set_gauge(std::string_view name, uint64_t v) {
  if (!enabled()) return;
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(name), v);
  } else {
    it->second = v;
  }
}

size_t MetricsRegistry::bucket_index(uint64_t v) {
  return static_cast<size_t>(std::bit_width(v));
}

void MetricsRegistry::observe(std::string_view name, uint64_t v) {
  if (!enabled()) return;
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.emplace(std::string(name), Histogram{}).first;
  Histogram& h = it->second;
  if (h.count == 0 || v < h.min) h.min = v;
  if (h.count == 0 || v > h.max) h.max = v;
  h.count += 1;
  h.sum += v;
  h.buckets[bucket_index(v)] += 1;
}

uint64_t MetricsRegistry::counter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

uint64_t MetricsRegistry::gauge(std::string_view name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second;
}

bool MetricsRegistry::has_gauge(std::string_view name) const {
  return gauges_.find(name) != gauges_.end();
}

MetricsRegistry::Histogram MetricsRegistry::histogram(
    std::string_view name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? Histogram{} : it->second;
}

std::string MetricsRegistry::json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [k, v] : counters_) {
    if (!first) out += ",";
    first = false;
    out += "\n\"" + json_escape(k) + "\":" + std::to_string(v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [k, v] : gauges_) {
    if (!first) out += ",";
    first = false;
    out += "\n\"" + json_escape(k) + "\":" + std::to_string(v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [k, h] : histograms_) {
    if (!first) out += ",";
    first = false;
    out += "\n\"" + json_escape(k) + "\":{\"count\":" +
           std::to_string(h.count) + ",\"sum\":" + std::to_string(h.sum) +
           ",\"min\":" + std::to_string(h.min) +
           ",\"max\":" + std::to_string(h.max) + ",\"buckets\":{";
    bool bfirst = true;
    for (size_t i = 0; i < kBuckets; ++i) {
      if (h.buckets[i] == 0) continue;
      if (!bfirst) out += ",";
      bfirst = false;
      out.append("\"").append(std::to_string(i)).append("\":");
      out += std::to_string(h.buckets[i]);
    }
    out += "}}";
  }
  out += "}}\n";
  return out;
}

}  // namespace mig::obs
