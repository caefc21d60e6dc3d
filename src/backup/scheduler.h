// The multi-volume nightly backup scheduler: one filer, N volumes, M tape
// drives with M < N, and optionally one shared network link.
//
// Section 5.1 of the paper shows concurrent per-volume dumps do not
// interfere when each has its own drive; a real fleet never has that luxury.
// The scheduler closes the gap: it takes per-volume policies (full or
// incremental, size estimate, priority, deadline, drive affinity), orders
// them deterministically, and executes each as a parallel RunJob
// (src/backup/jobs.h) under per-job supervision (src/backup/supervisor.h):
//
//   * **Ordering** is priority-major, earliest-deadline-minor — the nightly
//     operator's rule: the volumes that must not miss go first, ties broken
//     by who is due soonest, then by name (total and deterministic).
//   * **Drive affinity** keeps a volume's incrementals on the drive that
//     holds its full, so a restore chain mounts one stacker. A volume whose
//     affinity drive is busy *waits* for it — unless waiting provably blows
//     its deadline (or the drive died), in which case it falls back to any
//     drive.
//   * **Backfill** is preemption-free: when the queue head is parked waiting
//     for its affinity drive, a shorter, lower-priority volume may use an
//     otherwise idle drive — but only if its estimated finish precedes every
//     parked volume's latest feasible fallback start, so backfill can never
//     cause a miss that the plan did not already have.
//   * **Supervision**: each dispatched job runs with the fleet's
//     SupervisionPolicy and a remount pool drawn from the shared library. A
//     job that fails anyway marks its drive failed, releases it from the
//     pool, and the volume is re-dispatched (fresh media, surviving drives)
//     once.
//   * **Link budget**: remote volumes reserve their estimate against a
//     shared `LinkBudget` before dispatch and settle to actual bytes after;
//     a volume that cannot fit tonight's remaining allowance waits for
//     running remote jobs to settle before trying again.
//
// `BuildPlan()` computes the static simulated-time plan from size estimates
// only; `Run()` executes the night against reality — faults, contention and
// all. Both call the one dispatch pass (`DispatchPass`) and differ only in
// the drive state and budget rule they hand it. `Run()` fills a
// `NightReport` with per-volume wait/elapsed/deadline outcomes, per-drive
// utilization and fleet counters. Both are byte-for-byte deterministic for a
// fixed fleet description. A volume that needs more drives than the fleet
// has is left out of the plan and fails at night-open with
// kInvalidArgument. See DESIGN.md §12.
#ifndef BKUP_BACKUP_SCHEDULER_H_
#define BKUP_BACKUP_SCHEDULER_H_

#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/backup/jobs.h"
#include "src/backup/supervisor.h"
#include "src/block/tape_library.h"
#include "src/net/link.h"
#include "src/sim/channel.h"

namespace bkup {

enum class BackupMode {
  kLogicalFull,         // whole-tree logical dump (level 0)
  kLogicalIncremental,  // logical dump of changes since `base_time`
  kImage,               // block-order image dump (optionally striped)
  kRemoteImage,         // image dump streamed over the shared link
};

const char* BackupModeName(BackupMode mode);

// One volume's nightly policy. `estimated_bytes` drives planning (assignment
// order, backfill windows, link reservations); the executed job measures
// reality.
struct VolumeSpec {
  std::string name;
  Filesystem* fs = nullptr;
  BackupMode mode = BackupMode::kImage;
  int level = 0;          // logical incremental level (> 0 with base_time)
  int64_t base_time = 0;  // incremental cutoff (dump inodes changed since)
  uint64_t estimated_bytes = 0;
  int priority = 0;  // higher runs earlier
  SimTime deadline = std::numeric_limits<SimTime>::max();
  // Index into FleetConfig::drives; -1 = no affinity. Incrementals set this
  // to the drive that holds their full so the chain stays on one stacker.
  int affinity_drive = -1;
  // Drives this volume may gang when the pool allows it (image striping /
  // parallel quota-tree dump). Shrinks to the idle-drive supply at dispatch.
  uint32_t parallelism = 1;
  // Quota-tree roots for parallel logical dumps; required when mode is
  // logical and parallelism > 1 (a logical stream cannot stripe).
  std::vector<std::string> subtrees;
};

// The shared hardware one night runs against.
struct FleetConfig {
  std::vector<TapeDrive*> drives;
  // Media pool: every dispatch draws fresh blanks (a primary per drive plus
  // one remount spare per local drive) from this library.
  TapeLibrary* library = nullptr;
  const SupervisionPolicy* supervision = nullptr;
  // Remote volumes stream over this link to drives owned by `server` (the
  // drives still live in `drives`, the one pool). `budget` is optional.
  NetLink* link = nullptr;
  TapeServer* server = nullptr;
  LinkBudget* budget = nullptr;
};

// One drive grant in the static plan (BuildPlan) — volume k starts on
// `drive` at `start` and is expected to hold it for `estimated`.
struct PlannedAssignment {
  size_t volume = 0;  // index into the scheduler's volumes
  int drive = 0;      // index into FleetConfig::drives
  SimTime start = 0;
  SimDuration estimated = 0;
  bool backfill = false;
};

struct NightPlan {
  std::vector<PlannedAssignment> assignments;  // in planned start order
  SimDuration projected_makespan = 0;
  // Canonical text form; byte-identical across runs of the same fleet.
  std::string Serialize(const std::vector<VolumeSpec>& volumes) const;
};

// One executed drive occupancy: [start, end] on `drive` for `volume`'s
// attempt `attempt`. The double-booking property test audits these.
struct DriveGrant {
  size_t volume = 0;
  int attempt = 1;
  int drive = 0;
  SimTime start = 0;
  SimTime end = 0;
  bool backfill = false;
};

// Per-volume outcome of the night.
struct VolumeOutcome {
  std::string name;
  BackupMode mode = BackupMode::kImage;
  Status status;
  int attempts = 0;
  bool backfilled = false;   // final attempt started out of queue order
  bool deadline_met = false;
  SimTime enqueued = 0;      // night start
  SimTime started = -1;      // dispatch of the final attempt
  SimTime finished = -1;
  SimDuration wait = 0;      // first dispatch - enqueue (queueing delay)
  std::vector<int> drives_used;                 // final attempt, pool indices
  std::vector<std::vector<std::string>> part_media;  // final media per part
  JobReport report;  // merged report of the final attempt
};

struct DriveNightStats {
  std::string name;
  int jobs = 0;
  bool failed = false;        // pulled from the pool after an unhealed fault
  SimDuration busy = 0;       // unit busy-time integral over the night
  double utilization = 0.0;   // busy / night elapsed
};

struct NightReport {
  std::vector<VolumeOutcome> volumes;
  std::vector<DriveNightStats> drives;
  std::vector<DriveGrant> grants;  // chronological drive occupancies
  uint64_t deadline_hits = 0;
  uint64_t deadline_misses = 0;
  uint64_t backfills = 0;
  uint64_t reassignments = 0;   // volume re-dispatches after a failed attempt
  uint64_t drives_failed = 0;
  uint64_t link_budget_waits = 0;  // dispatches deferred by the link budget
  SimTime night_start = 0;
  SimTime night_end = 0;  // the instant the night's last volume finished
  Status status;  // first hard failure (a volume out of attempts), else OK
  SimDuration makespan() const { return night_end - night_start; }
  // Canonical text form of the executed schedule (grants + outcomes);
  // byte-identical across same-seed runs.
  std::string SerializeExecution() const;
  // The scheduler section of a BENCH_*.json report.
  void WriteJson(JsonWriter* w) const;
};

class NightlyScheduler {
 public:
  NightlyScheduler(Filer* filer, FleetConfig config,
                   std::vector<VolumeSpec> volumes);

  // The static simulated-time plan: the dispatch policy executed against
  // size estimates alone. Pure and deterministic; does not touch devices.
  NightPlan BuildPlan() const;

  // Executes the night. Spawn on the environment and run it to completion;
  // `done` counts down once every volume has finished or exhausted its
  // attempts.
  Task Run(NightReport* report, CountdownLatch* done);

  const std::vector<VolumeSpec>& volumes() const { return volumes_; }
  const FleetConfig& config() const { return config_; }

  // Estimated streaming duration for one volume on `drives` drives, from
  // its size estimate and the planning rate (exposed for tests/benches).
  SimDuration EstimatedDuration(const VolumeSpec& spec,
                                uint32_t drives) const;

 private:
  struct Completion;
  // A drive as a dispatch pass sees it: free now, held by a job, or
  // condemned (a condemned affinity drive releases its volume to the pool).
  enum class DriveState { kIdle, kBusy, kGone };
  // The budget rule's verdict on a volume that has its drives: start it,
  // park it until a later pass, or take it out of the queue for good.
  enum class Admission { kAdmit, kPark, kDrop };
  // What a dispatch pass needs from its caller. The plan reads `free_at` and
  // a static link sum; the night reads busy/healthy drives and reserves
  // against the live LinkBudget.
  struct DispatchSite {
    std::function<DriveState(int drive)> drive;
    std::function<Admission(size_t vol)> admit;
    // Undoes an admission when backfill turns out unsafe.
    std::function<void(size_t vol)> cancel;
    std::function<void(size_t vol, const std::vector<int>& drives,
                       bool backfill, SimDuration estimated)>
        start;
  };

  // Queue order: priority desc, deadline asc, name, index. Total.
  bool QueueBefore(size_t a, size_t b) const;
  // The volumes the fleet has enough drives for, in queue order.
  std::vector<size_t> Queue() const;
  // Latest start for `spec` to make its deadline under the planning model.
  SimTime LatestFeasibleStart(const VolumeSpec& spec) const;
  // The night's one dispatch policy, shared by BuildPlan() and Run(): walks
  // `pending` at `now` and starts (or drops) volumes until nothing more may
  // start. Affinity, gang width, the budget gate and backfill safety live
  // here; `site` supplies only the drive state and the budget rule.
  void DispatchPass(SimTime now, std::vector<size_t>* pending,
                    const DispatchSite& site) const;

  Task RunOne(size_t vol, int attempt, std::vector<int> drive_idx,
              std::vector<Tape*> primaries,
              std::vector<std::vector<Tape*>> spares,
              uint64_t link_reservation, Channel<Completion>* completions);
  // Fires a rescan of the dispatch queue at now + delay (deadline-fallback
  // boundaries are the only dispatch triggers that are not completions).
  Task Waker(SimDuration delay, Channel<Completion>* completions);

  Filer* filer_;
  FleetConfig config_;
  std::vector<VolumeSpec> volumes_;
};

}  // namespace bkup

#endif  // BKUP_BACKUP_SCHEDULER_H_
