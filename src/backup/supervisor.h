// Job supervision: resumable, self-healing backup and restore jobs.
//
// A job runs supervised when its entry point is given a `SupervisionPolicy`
// (the `supervision` field of its StreamEndpoint): the replay pipelines then
// survive device faults instead of aborting on the first error, modelling
// what dump(8)'s operator and WAFL's RAID layer do for real backups:
//
//   * transient disk errors retry on the default RetryPolicy schedule (10
//     attempts, 100 ms doubling to 10 s; charge.cc); tape errors on a
//     shorter one (4 attempts, 250 ms to 2 s; replay.cc);
//   * a permanently failed disk is swapped for the one hot spare and its
//     RAID column rebuilt (with the spare used, every affected read is
//     served degraded off the surviving members of the group);
//   * a tape media error abandons the mounted media for a spare and rewrites
//     the stream from the last checkpoint — the byte where the abandoned
//     media began — so the final media set splices back into one stream;
//   * a failed remote stream connection reconnects and resumes from the
//     receiver's acked watermark (5 attempts, 500 ms to 5 s; replay.cc).
//
// The schedules are constants, so the policy carries no values: a non-null
// pointer to one is what means "supervised". `spare_tapes` then doubles as
// the spanning set and the remount pool — the operator's stacker feeds both.
// Every recovery action is counted in the job report's FaultCounters; with a
// deterministic fault plan the counters are bit-identical across runs.
#ifndef BKUP_BACKUP_SUPERVISOR_H_
#define BKUP_BACKUP_SUPERVISOR_H_

#include "src/backup/jobs.h"

namespace bkup {

struct SupervisionPolicy {};

}  // namespace bkup

#endif  // BKUP_BACKUP_SUPERVISOR_H_
