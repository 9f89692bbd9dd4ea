#include "telemetry/metrics.h"

#include <algorithm>
#include <utility>

namespace blockoptr {

void Gauge::Set(double v) {
  value_ = v;
  if (!seen_) {
    min_ = max_ = v;
    seen_ = true;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
}

void Gauge::Set(double value, double min, double max) {
  value_ = value;
  min_ = min;
  max_ = max;
  seen_ = true;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::Observe(double v) {
  size_t i = static_cast<size_t>(
      std::upper_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  // upper_bound gives the first bound strictly greater than v; a value
  // exactly on a bound belongs to that bound's (inclusive) bucket.
  if (i > 0 && v == bounds_[i - 1]) --i;
  ++counts_[i];
  ++count_;
  sum_ += v;
}

std::vector<double> Histogram::RatioBounds() {
  return {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) { return gauges_[name]; }

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, Histogram(std::move(bounds))).first;
  }
  return it->second;
}

JsonValue MetricsRegistry::SnapshotJson() const {
  JsonValue::Object counters;
  for (const auto& [name, c] : counters_) {
    counters[name] = JsonValue(c.value());
  }
  JsonValue::Object gauges;
  for (const auto& [name, g] : gauges_) {
    JsonValue::Object entry;
    entry["value"] = JsonValue(g.value());
    // A gauge that was never set has no extremes: emit null, not 0.0, so
    // consumers can tell "absent" from "observed zero".
    entry["min"] = g.seen() ? JsonValue(g.min()) : JsonValue();
    entry["max"] = g.seen() ? JsonValue(g.max()) : JsonValue();
    gauges[name] = JsonValue(std::move(entry));
  }
  JsonValue::Object histograms;
  for (const auto& [name, h] : histograms_) {
    JsonValue::Object entry;
    entry["count"] = JsonValue(h.count());
    entry["sum"] = JsonValue(h.sum());
    entry["mean"] = JsonValue(h.Mean());
    JsonValue::Array bounds;
    for (double b : h.bounds()) bounds.push_back(JsonValue(b));
    entry["bounds"] = JsonValue(std::move(bounds));
    JsonValue::Array buckets;
    for (uint64_t c : h.bucket_counts()) buckets.push_back(JsonValue(c));
    entry["buckets"] = JsonValue(std::move(buckets));
    histograms[name] = JsonValue(std::move(entry));
  }
  JsonValue::Object root;
  root["counters"] = JsonValue(std::move(counters));
  root["gauges"] = JsonValue(std::move(gauges));
  root["histograms"] = JsonValue(std::move(histograms));
  return JsonValue(std::move(root));
}

}  // namespace blockoptr
