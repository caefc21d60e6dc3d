#include "src/backup/charge.h"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "src/obs/trace.h"
#include "src/sim/sync.h"

namespace bkup {

SimDuration RetryPolicy::BackoffBefore(int retry) const {
  double backoff = static_cast<double>(initial_backoff);
  for (int i = 1; i < retry; ++i) {
    backoff *= backoff_multiplier;
    if (backoff >= static_cast<double>(max_backoff)) {
      return max_backoff;
    }
  }
  return std::min<SimDuration>(static_cast<SimDuration>(backoff),
                               max_backoff);
}

namespace {

// Supervised disk recovery: the retry schedule for transient errors and the
// replacement drives on the shelf.
constexpr RetryPolicy kDiskRetry;
constexpr uint64_t kHotSpareDisks = 1;

struct Run {
  Dbn start;
  uint64_t count;
};

// RAID placement of a disk within its volume: the owning group and the
// column index (parity == data_width()).
struct GroupLocation {
  RaidGroup* group = nullptr;
  size_t column = 0;
};

GroupLocation FindGroupLocation(Volume* volume, Disk* disk) {
  for (size_t g = 0; g < volume->num_groups(); ++g) {
    RaidGroup* group = volume->group(g);
    for (size_t c = 0; c < group->num_disks(); ++c) {
      if (group->data_disk(c) == disk) {
        return {group, c};
      }
    }
  }
  return {};
}

// One best-effort timed access used by the recovery paths (survivors of a
// degraded group, rebuild sweeps). Errors on these members are ignored: a
// second failure in the group is unrecoverable anyway and surfaces through
// the primary path.
Task MemberRun(Disk* disk, Run r, CountdownLatch* latch) {
  co_await disk->TimedAccess(r.start, r.count);
  latch->CountDown();
}

// Serves `r` without the dead column: every surviving member of the group
// reads the same stripe range in parallel and the missing data is XOR'd
// back together.
Task DegradedRun(SimEnvironment* env, RaidGroup* group, size_t dead_column,
                 Run r, FaultCounters* counters) {
  std::vector<Disk*> members;
  for (size_t c = 0; c < group->num_disks(); ++c) {
    Disk* d = group->data_disk(c);
    if (c != dead_column && !d->failed()) {
      members.push_back(d);
    }
  }
  if (members.empty()) {
    co_return;
  }
  CountdownLatch latch(env, static_cast<int>(members.size()));
  for (Disk* d : members) {
    env->Spawn(MemberRun(d, r, &latch));
  }
  co_await latch.Wait();
  counters->reconstruction_reads += r.count;
}

// Charges a full rebuild of one column: every member of the group — the
// freshly swapped-in replacement included — streams its whole disk.
Task ChargeRebuildSweep(SimEnvironment* env, RaidGroup* group,
                        FaultCounters* counters) {
  const Run sweep{0, group->blocks_per_disk()};
  std::vector<Disk*> members;
  for (size_t c = 0; c < group->num_disks(); ++c) {
    Disk* d = group->data_disk(c);
    if (!d->failed()) {
      members.push_back(d);
    }
  }
  if (members.empty()) {
    co_return;
  }
  CountdownLatch latch(env, static_cast<int>(members.size()));
  for (Disk* d : members) {
    env->Spawn(MemberRun(d, sweep, &latch));
  }
  co_await latch.Wait();
  counters->reconstruction_reads += sweep.count * (members.size() - 1);
}

// Serves a list of runs on one disk — retrying, rebuilding or degrading when
// `counters` is non-null — then signals the latch. `error` collects the
// first unrecoverable failure.
Task DiskRuns(SimEnvironment* env, Volume* volume, Disk* disk,
              std::vector<Run> runs, FaultCounters* counters, Status* error,
              int priority, CountdownLatch* latch) {
  for (const Run& r : runs) {
    Status st;
    int attempt = 0;
    while (true) {
      ++attempt;
      co_await disk->TimedAccess(r.start, r.count, &st, priority);
      if (st.ok() || counters == nullptr) {
        break;
      }
      ++counters->disk_io_errors;
      TRACE_INSTANT(env, "faults", "disk.error");
      if (disk->failed()) {
        // Permanent: swap in a hot spare and rebuild the column, or — with
        // no spare left — serve this run degraded off the survivors.
        const GroupLocation loc = FindGroupLocation(volume, disk);
        if (loc.group == nullptr || loc.group->failed_count() > 1) {
          break;  // double failure (or foreign disk): *error gets st
        }
        if (counters->spare_disks_used < kHotSpareDisks) {
          ++counters->spare_disks_used;
          TRACE_INSTANT(env, "faults", "disk.spare_swap");
          disk->ReplaceWithBlank();
          co_await ChargeRebuildSweep(env, loc.group, counters);
          Status rebuilt = loc.group->Reconstruct(loc.column);
          if (!rebuilt.ok()) {
            st = rebuilt;
            break;
          }
          // Re-issue on the rebuilt drive with a fresh retry budget (the
          // re-issue may still hit a transient fault and re-enter the
          // backoff ladder below).
          attempt = 0;
          continue;
        }
        TRACE_INSTANT(env, "faults", "disk.degraded_read");
        co_await DegradedRun(env, loc.group, loc.column, r, counters);
        st = Status::Ok();
        break;
      }
      // Transient (the drive still answers): exponential backoff.
      if (attempt >= kDiskRetry.max_attempts) {
        break;
      }
      ++counters->disk_retries;
      TRACE_INSTANT(env, "faults", "disk.retry");
      co_await env->Delay(kDiskRetry.BackoffBefore(attempt));
    }
    if (!st.ok() && error != nullptr && error->ok()) {
      *error = st;
    }
  }
  latch->CountDown();
}

// One disk's share of an access, keyed in the per-disk schedule by its
// (RAID group, column): the schedule — and so the order the disks are
// charged and draw injected faults — follows the volume's layout, never the
// heap addresses of its Disk objects.
using DiskKey = std::pair<size_t, size_t>;
struct DiskSchedule {
  Disk* disk = nullptr;
  std::vector<Run> runs;
};

void AppendAccess(std::map<DiskKey, DiskSchedule>* per_disk, DiskKey key,
                  Disk* disk, Dbn dbn) {
  DiskSchedule& schedule = (*per_disk)[key];
  schedule.disk = disk;
  std::vector<Run>& runs = schedule.runs;
  if (!runs.empty()) {
    Run& last = runs.back();
    if (dbn >= last.start && dbn < last.start + last.count) {
      return;  // already covered (e.g. one parity block per stripe)
    }
    if (last.start + last.count == dbn) {
      last.count++;
      return;
    }
  }
  runs.push_back(Run{dbn, 1});
}

}  // namespace

Task ChargeDiskAccess(SimEnvironment* env, Volume* volume,
                      std::span<const Vbn> vbns, bool parity_writes,
                      FaultCounters* faults, Status* error, int priority) {
  std::map<DiskKey, DiskSchedule> per_disk;
  // Parity: per RAID group, mirror of the data run pattern (one parity
  // touch per distinct stripe, coalesced the same way).
  std::map<DiskKey, DiskSchedule> parity;
  for (Vbn v : vbns) {
    Volume::Placement p = volume->Locate(v);
    AppendAccess(&per_disk, {p.group_index, p.column}, p.disk, p.dbn);
    if (parity_writes) {
      AppendAccess(&parity, {p.group_index, p.group->data_width()},
                   p.parity_disk, p.dbn);
    }
  }
  if (parity_writes) {
    // Parity disks are distinct from data disks, so their schedules just
    // join the per-disk ones (AppendAccess already deduplicated the one
    // parity block shared by a stripe's data writes).
    per_disk.merge(parity);
  }
  if (per_disk.empty()) {
    co_return;
  }
  CountdownLatch latch(env, static_cast<int>(per_disk.size()));
  for (auto& [key, schedule] : per_disk) {
    env->Spawn(DiskRuns(env, volume, schedule.disk, std::move(schedule.runs),
                        faults, error, priority, &latch));
  }
  co_await latch.Wait();
}

Task ChargeSequentialWrites(SimEnvironment* env, Volume* volume,
                            uint64_t blocks, FaultCounters* faults,
                            Status* error, int priority) {
  if (blocks == 0) {
    co_return;
  }
  // Round-robin the burst across every data disk; parity disks absorb the
  // same per-group stripe traffic.
  std::vector<std::pair<Disk*, uint64_t>> shares;
  uint64_t data_disks = 0;
  for (size_t g = 0; g < volume->num_groups(); ++g) {
    data_disks += volume->group(g)->data_width();
  }
  const uint64_t per_disk = (blocks + data_disks - 1) / data_disks;
  for (size_t g = 0; g < volume->num_groups(); ++g) {
    RaidGroup* group = volume->group(g);
    for (size_t c = 0; c < group->data_width(); ++c) {
      shares.emplace_back(group->data_disk(c), per_disk);
    }
    shares.emplace_back(group->parity_disk(), per_disk);
  }
  CountdownLatch latch(env, static_cast<int>(shares.size()));
  for (auto& [disk, count] : shares) {
    std::vector<Run> runs{Run{disk->head_position(), count}};
    env->Spawn(DiskRuns(env, volume, disk, std::move(runs), faults, error,
                        priority, &latch));
  }
  co_await latch.Wait();
}

}  // namespace bkup
