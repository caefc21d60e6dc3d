#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "src/util/stats.h"

namespace bkup {

Histogram::Histogram(HistogramOptions options) : options_(options) {
  const size_t n = options_.kind == HistogramOptions::Kind::kLog2
                       ? 64
                       // Linear: underflow + body + overflow.
                       : static_cast<size_t>(std::max(1, options_.buckets)) + 2;
  buckets_.assign(n, 0);
}

size_t Histogram::BucketIndex(double value) const {
  if (options_.kind == HistogramOptions::Kind::kLog2) {
    if (value < 2.0) {
      return 0;
    }
    const double clamped = std::min(value, std::ldexp(1.0, 63));
    const auto idx = static_cast<size_t>(std::log2(clamped));
    return std::min<size_t>(idx, buckets_.size() - 1);
  }
  if (value < options_.lo) {
    return 0;  // underflow
  }
  const auto body = static_cast<size_t>(std::max(1, options_.buckets));
  const double offset = (value - options_.lo) / options_.width;
  if (offset >= static_cast<double>(body)) {
    return buckets_.size() - 1;  // overflow
  }
  return 1 + static_cast<size_t>(offset);
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

double Histogram::BucketUpperBound(size_t i) const {
  if (options_.kind == HistogramOptions::Kind::kLog2) {
    return std::ldexp(1.0, static_cast<int>(i) + 1);
  }
  if (i == 0) {
    return options_.lo;  // underflow bucket
  }
  if (i == buckets_.size() - 1) {
    return std::numeric_limits<double>::infinity();
  }
  return options_.lo + static_cast<double>(i) * options_.width;
}

double Histogram::Percentile(double fraction) const {
  if (count_ == 0) {
    return 0.0;
  }
  return BucketUpperBound(PercentileBucketIndex(
      buckets_.data(), buckets_.size(), count_, fraction));
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
                                         const HistogramOptions& options,
                                         const MetricLabels& labels) {
  auto [it, inserted] = histograms_.try_emplace(SeriesKey(name, labels));
  if (inserted) {
    it->second = {std::string(name), labels,
                  std::make_unique<Histogram>(options)};
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

std::vector<std::pair<std::string, uint64_t>>
MetricsRegistry::CounterSnapshot() const {
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [key, series] : counters_) {
    out.emplace_back(key, series.metric->value());
  }
  std::sort(out.begin(), out.end());
  return out;
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
