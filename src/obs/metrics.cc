#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>

namespace bkup {

namespace {

// Index of the bucket holding the `fraction` quantile: the first bucket at
// which the cumulative count reaches ceil(fraction * total). Returns n - 1
// when the buckets cannot cover the target (total of zero is the caller's
// guard).
size_t PercentileBucketIndex(const uint64_t* buckets, size_t n,
                             uint64_t total, double fraction) {
  fraction = std::clamp(fraction, 0.0, 1.0);
  const auto target =
      static_cast<uint64_t>(std::ceil(fraction * static_cast<double>(total)));
  uint64_t seen = 0;
  for (size_t i = 0; i < n; ++i) {
    seen += buckets[i];
    if (seen >= target) {
      return i;
    }
  }
  return n - 1;
}

}  // namespace

size_t Histogram::BucketIndex(double value) {
  if (value < 2.0) {
    return 0;
  }
  const double clamped = std::min(value, std::ldexp(1.0, 63));
  const auto idx = static_cast<size_t>(std::log2(clamped));
  return std::min<size_t>(idx, kBuckets - 1);
}

void Histogram::Observe(double value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  ++buckets_[BucketIndex(value)];
}

double Histogram::min() const { return count_ > 0 ? min_ : 0.0; }
double Histogram::max() const { return count_ > 0 ? max_ : 0.0; }

double Histogram::Percentile(double fraction) const {
  if (count_ == 0) {
    return 0.0;
  }
  const size_t i =
      PercentileBucketIndex(buckets_.data(), kBuckets, count_, fraction);
  return std::ldexp(1.0, static_cast<int>(i) + 1);
}

// -------------------------------------------------------------- registry ---

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

std::string MetricsRegistry::SeriesKey(std::string_view name,
                                       const MetricLabels& labels) {
  std::string key(name);
  if (!labels.empty()) {
    key += '{';
    for (size_t i = 0; i < labels.size(); ++i) {
      if (i > 0) {
        key += ',';
      }
      key += labels[i].first;
      key += '=';
      key += labels[i].second;
    }
    key += '}';
  }
  return key;
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     const MetricLabels& labels) {
  auto [it, inserted] = counters_.try_emplace(SeriesKey(name, labels));
  if (inserted) {
    it->second = {std::string(name), labels, std::make_unique<Counter>()};
  }
  return it->second.metric.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name,
                                 const MetricLabels& labels) {
  auto [it, inserted] = gauges_.try_emplace(SeriesKey(name, labels));
  if (inserted) {
    it->second = {std::string(name), labels, std::make_unique<Gauge>()};
  }
  return it->second.metric.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         const MetricLabels& labels) {
  auto [it, inserted] = histograms_.try_emplace(SeriesKey(name, labels));
  if (inserted) {
    it->second = {std::string(name), labels,
                  std::make_unique<Histogram>()};
  }
  return it->second.metric.get();
}

const Counter* MetricsRegistry::FindCounter(std::string_view name,
                                            const MetricLabels& labels) const {
  auto it = counters_.find(SeriesKey(name, labels));
  return it != counters_.end() ? it->second.metric.get() : nullptr;
}

const Gauge* MetricsRegistry::FindGauge(std::string_view name,
                                        const MetricLabels& labels) const {
  auto it = gauges_.find(SeriesKey(name, labels));
  return it != gauges_.end() ? it->second.metric.get() : nullptr;
}

const Histogram* MetricsRegistry::FindHistogram(
    std::string_view name, const MetricLabels& labels) const {
  auto it = histograms_.find(SeriesKey(name, labels));
  return it != histograms_.end() ? it->second.metric.get() : nullptr;
}

void MetricsRegistry::Clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

namespace {

void WriteLabels(JsonWriter* w, const MetricLabels& labels) {
  w->Key("labels").BeginObject();
  for (const auto& [k, v] : labels) {
    w->Field(k, v);
  }
  w->EndObject();
}

// Sorted keys so the serialization is deterministic across runs.
template <typename Map>
std::vector<const typename Map::value_type*> SortedEntries(const Map& map) {
  std::vector<const typename Map::value_type*> out;
  out.reserve(map.size());
  for (const auto& entry : map) {
    out.push_back(&entry);
  }
  std::sort(out.begin(), out.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  return out;
}

}  // namespace

void MetricsRegistry::WriteJson(JsonWriter* w) const {
  w->BeginObject();
  w->Key("counters").BeginArray();
  for (const auto* entry : SortedEntries(counters_)) {
    const auto& s = entry->second;
    w->BeginObject().Field("name", s.name);
    WriteLabels(w, s.labels);
    w->Field("value", s.metric->value()).EndObject();
  }
  w->EndArray();
  w->Key("gauges").BeginArray();
  for (const auto* entry : SortedEntries(gauges_)) {
    const auto& s = entry->second;
    w->BeginObject().Field("name", s.name);
    WriteLabels(w, s.labels);
    w->Field("value", s.metric->value()).EndObject();
  }
  w->EndArray();
  w->Key("histograms").BeginArray();
  for (const auto* entry : SortedEntries(histograms_)) {
    const auto& s = entry->second;
    const Histogram& h = *s.metric;
    w->BeginObject().Field("name", s.name);
    WriteLabels(w, s.labels);
    w->Field("count", h.count())
        .Field("sum", h.sum())
        .Field("min", h.min())
        .Field("max", h.max())
        .Field("mean", h.mean())
        .Field("p50", h.Percentile(0.50))
        .Field("p90", h.Percentile(0.90))
        .Field("p99", h.Percentile(0.99))
        .EndObject();
  }
  w->EndArray();
  w->EndObject();
}

std::string MetricsRegistry::ToJson() const {
  JsonWriter w;
  WriteJson(&w);
  return w.Take();
}

}  // namespace bkup
