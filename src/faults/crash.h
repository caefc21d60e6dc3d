// Process-crash fault plans for restore runs — the crash-taxonomy twin of
// the disk/tape/link `FaultPlan`.
//
// A `CrashPlan` is a seeded list of `KillSpec`s: "kill the restore after 40
// applied records", "kill it somewhere in the file phase with probability
// 0.02 per record", "kill it once the stream cursor passes 3 MB". The
// injector implements the `RestoreKillHook` the restore engine consults
// after every applied record; one spec is armed per process incarnation, so
// a plan with three kills models a restore that dies three times and then
// runs to completion on the fourth attempt. All probabilistic decisions
// draw from per-spec streams split from `seed` — the same plan over the
// same stream kills at the same record on every run.
#ifndef BKUP_FAULTS_CRASH_H_
#define BKUP_FAULTS_CRASH_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "src/dump/logical_restore.h"
#include "src/util/random.h"

namespace bkup {

enum class CrashKind {
  kKillAtEntry,   // die when the run's applied-record count reaches a mark
  kKillAtOffset,  // die once the stream cursor reaches a byte offset
  kKillRandom,    // each applied record dies with probability p
};

struct KillSpec {
  CrashKind kind = CrashKind::kKillAtEntry;
  // Restrict the kill to one restore phase; kAny matches every phase.
  bool any_phase = true;
  RestorePhase phase = RestorePhase::kFiles;
  uint64_t after_entries = 0;  // trigger mark for kKillAtEntry
  uint64_t at_offset = 0;      // trigger mark for kKillAtOffset
  double probability = 0.0;    // per-record chance for kKillRandom
};

struct CrashPlan {
  uint64_t seed = 1;
  // One spec per process incarnation, consumed in order: the first run dies
  // by kills[0], the resumed run by kills[1], ... and once the list is
  // exhausted the restore finally completes.
  std::vector<KillSpec> kills;

  bool empty() const { return kills.empty(); }

  // Fluent builders, mirroring FaultPlan's.
  CrashPlan& KillAtEntry(uint64_t after_entries) {
    kills.push_back({.kind = CrashKind::kKillAtEntry,
                     .after_entries = after_entries});
    return *this;
  }
  CrashPlan& KillAtOffset(uint64_t at_offset) {
    kills.push_back({.kind = CrashKind::kKillAtOffset,
                     .at_offset = at_offset});
    return *this;
  }
  CrashPlan& KillRandom(double probability) {
    kills.push_back({.kind = CrashKind::kKillRandom,
                     .probability = probability});
    return *this;
  }
  CrashPlan& KillRandomIn(RestorePhase phase, double probability) {
    kills.push_back({.kind = CrashKind::kKillRandom,
                     .any_phase = false,
                     .phase = phase,
                     .probability = probability});
    return *this;
  }
};

struct CrashInjectorStats {
  uint64_t consults = 0;     // hook calls across all incarnations
  uint64_t kills_fired = 0;  // processes actually killed

  bool any() const { return kills_fired > 0; }
};

// Arms a CrashPlan against restore runs. Pass as LogicalRestoreOptions::kill;
// a fired kill automatically arms the next spec for the resumed attempt.
class CrashInjector : public RestoreKillHook {
 public:
  explicit CrashInjector(CrashPlan plan);

  bool ShouldKill(RestorePhase phase, uint64_t entries_applied,
                  uint64_t stream_offset) override;

  // Which process incarnation is running (0-based); equals kills consumed.
  uint64_t incarnation() const { return active_; }
  // True once every planned kill has fired: the next run survives.
  bool exhausted() const { return active_ >= plan_.kills.size(); }

  const CrashPlan& plan() const { return plan_; }
  const CrashInjectorStats& stats() const { return stats_; }

 private:
  CrashPlan plan_;
  std::vector<Rng> rng_;  // one independent stream per spec
  size_t active_ = 0;
  CrashInjectorStats stats_;
};

}  // namespace bkup

#endif  // BKUP_FAULTS_CRASH_H_
