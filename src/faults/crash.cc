#include "src/faults/crash.h"

#include <utility>


namespace bkup {

CrashInjector::CrashInjector(CrashPlan plan) : plan_(std::move(plan)) {
  // One independent stream per spec, split from the plan seed, so adding a
  // spec never perturbs the draws of the others.
  uint64_t sm = plan_.seed;
  rng_.reserve(plan_.kills.size());
  for (size_t i = 0; i < plan_.kills.size(); ++i) {
    rng_.emplace_back(SplitMix64(sm));
  }
}

bool CrashInjector::ShouldKill(RestorePhase phase, uint64_t entries_applied,
                               uint64_t stream_offset) {
  stats_.consults++;
  if (active_ >= plan_.kills.size()) {
    return false;  // all planned kills spent: this incarnation survives
  }
  const KillSpec& spec = plan_.kills[active_];
  if (!spec.any_phase && spec.phase != phase) {
    return false;
  }
  bool fire = false;
  switch (spec.kind) {
    case CrashKind::kKillAtEntry:
      fire = entries_applied >= spec.after_entries;
      break;
    case CrashKind::kKillAtOffset:
      fire = stream_offset >= spec.at_offset;
      break;
    case CrashKind::kKillRandom:
      fire = rng_[active_].NextDouble() < spec.probability;
      break;
  }
  if (fire) {
    stats_.kills_fired++;
    ++active_;  // the resumed attempt runs under the next spec
  }
  return fire;
}

}  // namespace bkup
