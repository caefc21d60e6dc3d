// Host-time ledger: steady-clock spans the benchmark records around its own
// calls into the simulator's public layers (nothing inside src/ is
// instrumented). Spans nest by call structure on the one benchmark thread;
// each carries the id of the workload iteration ("run") that opened it.
// The ledger keeps them in memory and, at exit, writes them as a Chrome
// trace and folds them into a per-layer self-time table.
#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Ledger {
 public:
  struct Span {
    std::string name;  // "<layer>.<what>", e.g. "dump.verify"
    double start_s = 0.0;  // since the ledger was created
    double end_s = 0.0;
    int parent = -1;  // index into spans(), -1 for a root
    uint32_t run = 0;
  };

  Ledger() : origin_(std::chrono::steady_clock::now()) {}

  // Spans are kept only while recording; timing is always returned.
  void set_recording(bool on) { recording_ = on; }
  bool recording() const { return recording_; }
  void set_run(uint32_t run) { run_ = run; }

  double Now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  // Runs `fn` inside a span called `name` and returns its host seconds.
  template <typename F>
  double Time(const std::string& name, F&& fn) {
    int index = -1;
    const int outer = open_;
    const double start = Now();
    if (recording_) {
      index = static_cast<int>(spans_.size());
      spans_.push_back(Span{name, start, start, outer, run_});
      open_ = index;
    }
    std::forward<F>(fn)();
    const double end = Now();
    if (index >= 0) {
      spans_[index].end_s = end;
      open_ = outer;
    }
    return end - start;
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Sum of the durations of spans called `name` opened in `run`.
  double Seconds(uint32_t run, const std::string& name) const;

  // Prints, per layer (the span-name prefix before the first '.'), span
  // count, total time and self time — a span's duration minus the part its
  // direct children cover — over every recorded span.
  void PrintSelfTimeTable() const;

  // Writes the spans as a Chrome trace (B/E events, one track, run and
  // parent in args) plus `counters` as one counter sample each. Returns
  // false when the file cannot be written.
  bool WriteChromeTrace(
      const std::string& path, const std::string& process_name,
      const std::vector<std::pair<std::string, double>>& counters,
      const std::vector<std::pair<std::string, std::string>>& stamp) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  bool recording_ = false;
  uint32_t run_ = 0;
  int open_ = -1;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
