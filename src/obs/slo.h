// Live SLO monitoring for the nightly backup window.
//
// A finished NightReport can tell you a volume missed its deadline; it
// cannot tell you whether anyone could have *known* before it happened. The
// `SloMonitor` closes that gap: objectives (one per volume) are registered
// up front with their deadline and catalog-estimated byte total, progress is reported as bytes land on
// tape, and `Sample()` computes — at any simulated instant — per-objective
// progress, throughput, projected finish (ETA), deadline-risk and budget
// burn. The scheduler samples on a timer and publishes the series as
// `night_health` in the night's JSON report, so the bench gate can assert
// "every missed deadline was flagged while the night was still live"
// (DESIGN.md §14).
//
// Determinism: the monitor is pure bookkeeping on simulated time. Sampling
// never changes scheduling decisions, so a night with and without a monitor
// executes identically.
#ifndef BKUP_OBS_SLO_H_
#define BKUP_OBS_SLO_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/sim/environment.h"
#include "src/util/units.h"

namespace bkup {

// One live health reading for every registered objective.
struct SloHealthSample {
  struct Entry {
    std::string name;
    double progress = 0.0;    // bytes_done / estimated total, clamped to 1
    double rate_mb_s = 0.0;   // observed since registration (10^6 bytes/s)
    SimTime eta = -1;         // projected finish; -1 = unknown
    double burn = 0.0;        // deadline-budget burn ratio (>1 = too slow)
    bool at_risk = false;     // ETA (or projection) lands past the deadline
    bool breached = false;    // deadline already passed without completion
    bool done = false;
  };
  SimTime t = 0;
  std::vector<Entry> entries;
};

class SloMonitor {
 public:
  static constexpr SimTime kNoDeadline = std::numeric_limits<SimTime>::max();

  explicit SloMonitor(SimEnvironment* env) : env_(env) {}

  // Planning-rate fallback (MB/s) used to project objectives that have not
  // produced bytes yet; 0 leaves their ETA unknown.
  void set_default_rate_mb_s(double mb_s) { default_rate_mb_s_ = mb_s; }

  // Registers a deadline/progress objective. `total_bytes` is the catalog
  // (or planner) estimate of the work; 0 means progress is unknown until
  // completion. Re-registering a name resets it.
  void Register(const std::string& name, SimTime deadline,
                uint64_t total_bytes);

  // Monotone progress in bytes (absolute, not a delta).
  void ReportProgress(const std::string& name, uint64_t bytes_done);

  // Marks the objective finished now. A completion past the deadline counts
  // as a breach whether or not a sample ever saw it.
  void Complete(const std::string& name, bool ok);

  // Computes a health reading now and appends it to `history()`.
  const SloHealthSample& Sample();

  const std::vector<SloHealthSample>& history() const { return history_; }

  // True if any live sample flagged `name` at-risk or breached — the
  // "nobody was silently going to miss a deadline" check.
  bool WasFlaggedLive(const std::string& name) const;

  // Objectives whose deadline passed before completion (final accounting,
  // updated by Sample() and Complete()).
  uint64_t breaches() const;

  // {"samples": [...], "objectives": [...]} — the night_health payload
  // embedded in NightReport JSON.
  void WriteJson(JsonWriter* w) const;

 private:
  struct Objective {
    std::string name;
    SimTime deadline = kNoDeadline;
    uint64_t total_bytes = 0;
    SimTime registered_at = 0;
    uint64_t bytes_done = 0;
    bool done = false;
    bool ok = false;
    SimTime finished_at = 0;
    bool flagged_live = false;
  };

  Objective* Find(const std::string& name);
  SloHealthSample::Entry Evaluate(const Objective& o, SimTime now) const;

  SimEnvironment* env_;
  double default_rate_mb_s_ = 0.0;
  std::vector<Objective> objectives_;  // registration order
  std::vector<SloHealthSample> history_;
};

void WriteHealthSample(JsonWriter* w, const SloHealthSample& sample);

}  // namespace bkup

#endif  // BKUP_OBS_SLO_H_
