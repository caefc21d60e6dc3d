// Disk-time charging for backup jobs.
//
// The functional engines report which volume blocks they touched; these
// helpers convert block lists into simulated disk-arm time. Accesses are
// grouped per physical disk, coalesced into contiguous runs, served in
// parallel across disks (each arm is its own resource), and — for writes —
// also charged against the RAID group's parity disk. This is where the
// paper's central asymmetry lives: inode-order (scattered) reads pay seeks
// per run, block-order reads coalesce into long sequential transfers.
#ifndef BKUP_BACKUP_CHARGE_H_
#define BKUP_BACKUP_CHARGE_H_

#include <span>

#include "src/backup/report.h"
#include "src/raid/volume.h"
#include "src/sim/environment.h"
#include "src/sim/task.h"

namespace bkup {

// Exponential-backoff schedule for transient device errors. The defaults
// (10 attempts, 100 ms doubling to a 10 s ceiling, ~33 s of cumulative
// backoff) outlast the transient windows the fault plans inject.
struct RetryPolicy {
  int max_attempts = 10;  // total attempts, including the first
  SimDuration initial_backoff = 100 * kMillisecond;
  double backoff_multiplier = 2.0;
  SimDuration max_backoff = 10 * kSecond;

  // Delay before retry number `retry` (1-based):
  // initial * multiplier^(retry-1), capped at max_backoff.
  SimDuration BackoffBefore(int retry) const;
};

// Charges the arms of `volume` for accessing `vbns` in the given order.
// Consecutive vbns that land contiguously on a disk coalesce into one
// transfer. With `parity_writes`, each touched RAID group's parity disk is
// charged a mirror of the heaviest data-disk run set in that group
// (RAID-4 full-stripe write behaviour).
//
// A non-null `faults` enables recovery, each action counted there:
// transient errors retry on the default RetryPolicy schedule; a *failed*
// drive is handled through RAID — swap in the one hot spare and rebuild the
// column (charging a full group sweep), or, with the spare used, serve each
// run degraded by reading the surviving members of the group and
// reconstructing from parity. The first unrecoverable error lands in
// `*error` (which must then be non-null and start Ok). `priority` is the
// disk-arm scheduling class (kPriorityBackground for a QoS-demoted dump);
// fault recovery traffic always runs foreground — a degraded group is
// urgent.
Task ChargeDiskAccess(SimEnvironment* env, Volume* volume,
                      std::span<const Vbn> vbns, bool parity_writes,
                      FaultCounters* faults = nullptr,
                      Status* error = nullptr,
                      int priority = kPriorityForeground);

// Charges a purely sequential write-anywhere burst of `blocks` blocks
// spread round-robin over all data disks (plus parity), each continuing
// from its current head position. Restore-side flushes use this: the write
// allocator lays restored data out sequentially regardless of how the
// stream was ordered.
Task ChargeSequentialWrites(SimEnvironment* env, Volume* volume,
                            uint64_t blocks, FaultCounters* faults = nullptr,
                            Status* error = nullptr,
                            int priority = kPriorityForeground);

}  // namespace bkup

#endif  // BKUP_BACKUP_CHARGE_H_
