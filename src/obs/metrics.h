// Process-wide metrics: named counters, gauges and histograms with label
// support, cheap enough to leave always-on in the hot simulation paths.
//
// Lookup (`GetCounter` etc.) costs one hash-map probe and returns a stable
// pointer; call sites that care about the hot path resolve the handle once
// (e.g. in a constructor) and bump the cached pointer afterwards — an
// increment is then a single add on a plain uint64. The simulator is
// single-threaded, so no atomics or locks are involved.
//
// Labels distinguish instances of the same series ("disk.access_us" per
// device, "dump.stream_bytes" per volume). A metric's identity is its name
// plus its label set, Prometheus-style: disk.bytes{device=home.g0.d3}.
#ifndef BKUP_OBS_METRICS_H_
#define BKUP_OBS_METRICS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/obs/json.h"

namespace bkup {

using MetricLabels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void Increment(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double d) { value_ += d; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// Log2-bucketed histogram: bucket i covers [2^i, 2^(i+1)) for i in [0, 63]
// (values below 2 land in the first bucket).
class Histogram {
 public:
  void Observe(double value);
  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const;
  double max() const;
  double mean() const { return count_ > 0 ? sum_ / count_ : 0.0; }

  // Smallest bucket upper bound below which at least `fraction` of the
  // samples fall (bucket-granular).
  double Percentile(double fraction) const;

 private:
  static constexpr size_t kBuckets = 64;
  static size_t BucketIndex(double value);

  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Registry of all metric series. `Default()` is the process-wide instance
// every subsystem records into; tests construct private registries.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Default();

  // Get-or-create. The returned pointer is stable for the registry's
  // lifetime. Counters, gauges and histograms are separate namespaces.
  Counter* GetCounter(std::string_view name, const MetricLabels& labels = {});
  Gauge* GetGauge(std::string_view name, const MetricLabels& labels = {});
  Histogram* GetHistogram(std::string_view name,
                          const MetricLabels& labels = {});

  // Lookup without creation; nullptr when the series does not exist.
  const Counter* FindCounter(std::string_view name,
                             const MetricLabels& labels = {}) const;
  const Gauge* FindGauge(std::string_view name,
                         const MetricLabels& labels = {}) const;
  const Histogram* FindHistogram(std::string_view name,
                                 const MetricLabels& labels = {}) const;

  size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  // Drops every series (invalidates previously returned handles); tests
  // use this to isolate themselves from earlier activity.
  void Clear();

  // Serializes every series as one JSON object:
  //   {"counters": [{"name":..., "labels": {...}, "value": N}, ...],
  //    "gauges": [...],
  //    "histograms": [{"name":..., "count":, "sum":, "p50":, "p99":, ...}]}
  void WriteJson(JsonWriter* w) const;
  std::string ToJson() const;

 private:
  // "name{k=v,k2=v2}" — the canonical series key.
  static std::string SeriesKey(std::string_view name,
                               const MetricLabels& labels);

  template <typename T>
  struct Series {
    std::string name;
    MetricLabels labels;
    std::unique_ptr<T> metric;
  };

  std::unordered_map<std::string, Series<Counter>> counters_;
  std::unordered_map<std::string, Series<Gauge>> gauges_;
  std::unordered_map<std::string, Series<Histogram>> histograms_;
};

}  // namespace bkup

#endif  // BKUP_OBS_METRICS_H_
