// Job supervision: resumable, self-healing backup and restore jobs.
//
// A `SupervisionPolicy` tells the replay pipelines how to survive device
// faults instead of aborting on the first error, modelling what dump(8)'s
// operator and WAFL's RAID layer do for real backups:
//
//   * transient disk/tape errors retry on an exponential-backoff schedule;
//   * a permanently failed disk is swapped for a hot spare and its RAID
//     column rebuilt (or, with no spare left, every affected read is served
//     degraded off the surviving members of the group);
//   * a tape media error abandons the mounted media for a spare and rewrites
//     the stream from the last checkpoint — the byte where the abandoned
//     media began — so the final media set splices back into one stream;
//   * a logical dump may skip files it cannot read and press on, where an
//     image dump must hard-fail (it has no file boundaries to skip at).
//
// A job runs supervised when its entry point is given a policy (the
// `supervision` field of its StreamEndpoint); `spare_tapes` then doubles as
// the spanning set and the remount pool — the operator's stacker feeds both.
// Every recovery action is counted in the job report's FaultCounters; with a
// deterministic fault plan the counters are bit-identical across runs.
#ifndef BKUP_BACKUP_SUPERVISOR_H_
#define BKUP_BACKUP_SUPERVISOR_H_

#include "src/backup/jobs.h"

namespace bkup {

struct SupervisionPolicy {
  RetryPolicy disk_retry;
  // Tape errors get fewer, quicker retries: a media defect never heals, so
  // long backoff only delays the remount decision.
  RetryPolicy tape_retry{.max_attempts = 4,
                         .initial_backoff = 250 * kMillisecond,
                         .max_backoff = 2 * kSecond};
  // Remote jobs: a stream connection that fails (a frame lost beyond its
  // retransmit budget) is reconnected and resumed from the receiver's acked
  // watermark, up to max_attempts fresh connections per stream.
  RetryPolicy link_retry{.max_attempts = 5,
                         .initial_backoff = 500 * kMillisecond,
                         .max_backoff = 5 * kSecond};
  // Crash-resumable restores: a killed restore process is restarted (after
  // reboot-scale backoff) and resumed from the catalog diff, up to
  // max_attempts incarnations.
  RetryPolicy restart_retry{.max_attempts = 8,
                            .initial_backoff = kSecond,
                            .max_backoff = 30 * kSecond};
  int hot_spare_disks = 1;
  bool reconstruct_on_disk_failure = true;
  bool remount_on_media_error = true;
  bool skip_unreadable_files = false;

  // The disk-layer view of this policy, charging recovery to `counters`.
  DiskFaultPolicy MakeDiskPolicy(FaultCounters* counters) const;
};

}  // namespace bkup

#endif  // BKUP_BACKUP_SUPERVISOR_H_
