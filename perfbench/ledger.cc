#include "perfbench/ledger.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>

#include "src/obs/json.h"

namespace perfbench {

double Ledger::Seconds(uint32_t run, const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.run == run && s.name == name) {
      total += s.end_s - s.start_s;
    }
  }
  return total;
}

void Ledger::PrintSelfTimeTable() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_s[s.parent] += s.end_s - s.start_s;
    }
  }
  struct Row {
    uint64_t spans = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, Row> layers;
  double root_s = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double d = s.end_s - s.start_s;
    Row& row = layers[s.name.substr(0, s.name.find('.'))];
    ++row.spans;
    row.total_s += d;
    row.self_s += d - child_s[i];
    if (s.parent < 0) {
      root_s += d;
    }
  }
  std::printf("per-layer host time over traced iterations (%.3f s traced)\n",
              root_s);
  std::printf("  %-10s %8s %12s %12s %8s\n", "layer", "spans", "total_s",
              "self_s", "self%");
  for (const auto& [layer, row] : layers) {
    std::printf("  %-10s %8llu %12.6f %12.6f %7.2f%%\n", layer.c_str(),
                static_cast<unsigned long long>(row.spans), row.total_s,
                row.self_s, root_s > 0 ? 100.0 * row.self_s / root_s : 0.0);
  }
}

bool Ledger::WriteChromeTrace(
    const std::string& path, const std::string& process_name,
    const std::vector<std::pair<std::string, double>>& counters,
    const std::vector<std::pair<std::string, std::string>>& stamp) const {
  std::vector<std::vector<size_t>> children(spans_.size());
  std::vector<size_t> roots;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[spans_[i].parent].push_back(i);
    } else {
      roots.push_back(i);
    }
  }

  bkup::JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents").BeginArray();
  w.BeginObject()
      .Field("ph", "M")
      .Field("name", "process_name")
      .Field("pid", int64_t{1})
      .Key("args")
      .BeginObject()
      .Field("name", process_name)
      .EndObject()
      .EndObject();
  w.BeginObject()
      .Field("ph", "M")
      .Field("name", "thread_name")
      .Field("pid", int64_t{1})
      .Field("tid", int64_t{1})
      .Key("args")
      .BeginObject()
      .Field("name", "benchmark")
      .EndObject()
      .EndObject();
  // Depth-first emission keeps B/E balanced and timestamps monotone, since
  // children lie inside their parent and siblings are in start order.
  std::function<void(size_t)> emit = [&](size_t i) {
    const Span& s = spans_[i];
    w.BeginObject()
        .Field("ph", "B")
        .Field("name", s.name)
        .Field("pid", int64_t{1})
        .Field("tid", int64_t{1})
        .Field("ts", s.start_s * 1e6)
        .Key("args")
        .BeginObject()
        .Field("run", static_cast<uint64_t>(s.run))
        .Field("span", static_cast<uint64_t>(i))
        .Field("parent", static_cast<int64_t>(s.parent))
        .EndObject()
        .EndObject();
    for (size_t c : children[i]) {
      emit(c);
    }
    w.BeginObject()
        .Field("ph", "E")
        .Field("pid", int64_t{1})
        .Field("tid", int64_t{1})
        .Field("ts", s.end_s * 1e6)
        .EndObject();
  };
  for (size_t r : roots) {
    emit(r);
  }
  double last_ts = 0.0;
  for (size_t r : roots) {
    last_ts = std::max(last_ts, spans_[r].end_s * 1e6);
  }
  for (const auto& [name, value] : counters) {
    w.BeginObject()
        .Field("ph", "C")
        .Field("name", name)
        .Field("pid", int64_t{1})
        .Field("tid", int64_t{1})
        .Field("ts", last_ts)
        .Key("args")
        .BeginObject()
        .Field("value", value)
        .EndObject()
        .EndObject();
  }
  w.EndArray();
  w.Key("otherData").BeginObject().Field("dropped_events", uint64_t{0});
  for (const auto& [key, value] : stamp) {
    w.Field(key, value);
  }
  w.EndObject();
  w.EndObject();

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::string json = w.Take();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
