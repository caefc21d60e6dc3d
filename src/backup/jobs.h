// Backup and restore *jobs*: coroutine pipelines that run the functional
// engines and replay their I/O traces through the simulated filer.
//
// A job has the structure of WAFL's real dump path — a producer touching
// disks and CPU, a bounded buffer, and a consumer streaming a tape drive:
//
//     [disk reads + CPU] -> Channel<StreamFrame> -> [tape writes]  (backup)
//     [tape reads] -> Channel<watermark> -> [CPU/NVRAM + disk]     (restore)
//
// Because the stages share the filer's CPU, the NVRAM port, the disk arms
// and each tape's streaming behaviour, the paper's phenomena — tape
// bottleneck at one drive, disk/CPU saturation of parallel logical dumps,
// near-linear physical scaling — emerge from the simulation rather than
// being asserted.
#ifndef BKUP_BACKUP_JOBS_H_
#define BKUP_BACKUP_JOBS_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/backup/charge.h"
#include "src/backup/filer.h"
#include "src/backup/report.h"
#include "src/content/content.h"
#include "src/block/tape.h"
#include "src/dump/logical_dump.h"
#include "src/dump/logical_restore.h"
#include "src/fs/filesystem.h"
#include "src/image/image_dump.h"
#include "src/sim/channel.h"
#include "src/sim/sync.h"
#include "src/sim/throttle.h"

namespace bkup {

class LinkBudget;          // src/net/link.h
class NetLink;             // src/net/link.h
class TapeServer;          // src/net/tape_server.h
struct SupervisionPolicy;  // src/backup/supervisor.h

// Backup QoS (DESIGN.md §15): how much a dump may interfere with live
// foreground traffic. `throttle` caps the dump's stream rate (see
// StreamEndpoint::qos for where the bytes are drawn); `io_priority` demotes
// the dump's CPU, NVRAM and disk-arm acquisitions to the background class,
// so queued foreground requests are always served first. The default is the
// pre-QoS behaviour: unthrottled, equal priority.
struct BackupQos {
  BackupThrottle* throttle = nullptr;
  int io_priority = kPriorityForeground;
};

// Where a job's stream goes (backup) or comes from (restore): one drive
// and its spare media, the fault-recovery policy, QoS and content stages.
// With no `link` the drive is attached to the filer; with one, the drive
// sits on `server` across the link and the stream crosses it as StreamConn
// frames (src/net/stream_conn.h).
//
// `spare_tapes` is both the spanning set — when the mounted tape fills, the
// next media in the list is loaded (paying the stacker's load time) and the
// stream continues, the operator-feeding-tapes model of dump(8) — and the
// remount pool for supervised media errors. A restore must be given the
// same list, in the same order. A backup writes from the start of the
// mounted media: a head past recorded data fails it (kFailedPrecondition).
// A null `supervision` fails the job on the first unrecovered device or
// link error; with a policy, disk accesses retry/reconstruct, tape errors
// retry/remount and connections are re-made, each charged to the report's
// FaultCounters.
struct StreamEndpoint {
  NetLink* link = nullptr;
  TapeServer* server = nullptr;
  TapeDrive* drive = nullptr;
  std::vector<Tape*> spare_tapes = {};
  const SupervisionPolicy* supervision = nullptr;
  // Backup QoS. A local stream is paced where its bytes are produced (raw
  // bytes, or post-stage wire bytes with content stages); a remote one only
  // at its StreamConns, which acquire each frame's bytes before
  // transmitting. Either way every byte is paced once. io_priority demotes
  // the filer-side CPU, NVRAM and disk charges of backups and restores.
  BackupQos qos = {};
  // Content stages (DESIGN.md §16): backups encode on the filer, so tapes
  // and links move wire bytes (the throttle, acked floors and reconnect
  // resends all work in post-stage coordinates); restores decode on the
  // filer. A restore must pass the same config — in particular the same
  // ChunkIndex — the backup ran with.
  ContentConfig content = {};
};

// ------------------------------------------------------------ the jobs ---

// One backup or restore job. The result type handed to RunJob picks the
// engine and the direction, and whether the job splits into parts; the
// fields that engine does not read are ignored. Every field has a default,
// so a designated initializer names only what the caller sets.
struct JobSpec {
  // What a backup reads and a logical restore writes into.
  Filesystem* fs = nullptr;
  // What an image restore writes into.
  Volume* volume = nullptr;
  // One per drive: a single job takes one, a parallel job runs part k over
  // endpoints[k]. An endpoint with a `link` puts its drive across a network.
  std::vector<StreamEndpoint> endpoints = {};
  // A parallel logical job's trees, one per endpoint: the subtree part k
  // dumps (the paper's quota trees), or the directory it restores into
  // (created if missing). Every other job takes none.
  std::vector<std::string> trees = {};
  // Engine options. A logical restore whose options carry `select` and a
  // `catalog` reads only the catalog ranges of the selected paths off the
  // mounted tape — the single-file ("stupidity") recovery, O(file) bytes.
  // One whose options carry `kill` can be killed and is restarted (see
  // RunJob); with a `catalog` each incarnation reads only what it resumes.
  LogicalDumpOptions logical_dump = {};
  ImageDumpOptions image_dump = {};
  LogicalRestoreOptions logical_restore = {};
  // Logical restore without the NVRAM log: the paper's footnote-2 variant
  // ("Modifying WAFL's logical restore to avoid NVRAM is in the works").
  bool bypass_nvram = false;
  // A backup deletes the snapshot it created when it finishes; keep it
  // (false) when it will base a later incremental.
  bool delete_snapshot_after = true;
  // Optional nightly link allowance for a selective restore: the catalog's
  // estimate is reserved before any byte moves and settled to the bytes
  // moved; a refused reservation fails the job with kExhausted.
  LinkBudget* budget = nullptr;
};

struct LogicalBackupJobResult {
  LogicalDumpOutput dump;
  JobReport report;
};

struct LogicalRestoreJobResult {
  LogicalRestoreOutput restore;  // the last incarnation's
  JobReport report;
  uint32_t attempts = 0;  // process incarnations run
  // Set once a killed restore restarts: spec.fs's volume remounted, the
  // file system every later incarnation writes into and the one to read the
  // restored tree from. spec.fs keeps the state the kill left.
  std::unique_ptr<Filesystem> remounted;
};

struct ImageBackupJobResult {
  ImageDumpOutput dump;
  JobReport report;
};

struct ImageRestoreJobResult {
  ImageRestoreOutput restore;
  JobReport report;
};

// A job split over several drives (§5.2 of the paper), one `Part` result
// per endpoint:
//
//   * a parallel *logical* dump cannot stripe one dump over several drives
//     ("we cannot use multiple tape devices in parallel for a single dump
//     due to the strictly linear format"), so the volume is split into quota
//     trees and each tree is dumped to its own drive;
//   * a parallel *physical* dump stripes the block set across the drives in
//     deterministic chunks (part k of N per drive).
//
// A backup's parts share one snapshot, which the control job creates and
// deletes. All parts contend for the one filer's CPU, NVRAM and disks —
// which is exactly what makes logical dumps stop scaling while physical
// dumps keep going (Tables 4 and 5) — and remote parts for one link, which
// makes the link the bottleneck. Endpoints sharing a QoS throttle share
// its bucket, so the cap bounds the aggregate rate; endpoints sharing a
// ChunkIndex dedup across parts.
template <typename Part>
struct ParallelJobResult {
  std::vector<std::unique_ptr<Part>> parts;
  JobReport control;  // a backup's snapshot create/delete phases
  JobReport merged;
};

// Runs the job `spec` describes; `result` names the engine and direction:
//
//   * a backup: snapshot create -> dump -> replay to tape [-> snapshot
//     delete] (the stage sequence of Table 3's rows). A logical dump creates
//     its own snapshot; an image dump reuses one that already exists, and
//     only a job that created its snapshot deletes it;
//   * a restore: the endpoint's media -> functional restore -> replay
//     through the file system (logical) or straight into the RAID layer
//     (image). A multi-media stream restores as the concatenation of the
//     mounted tape and `spare_tapes`;
//   * a logical restore whose options carry `kill` survives process kills:
//     a killed incarnation is restarted on a fixed schedule (8
//     incarnations, 1 s backoff doubling to 30 s), supervised or not, into
//     spec.fs's volume remounted at its last consistency point (crash-
//     reboot), and resumes from the options' `catalog` diff of the partial
//     tree. Their `checkpoint_every` sets the consistency-point cadence;
//     the report's `resume` counts the work resumed and skipped.
//
// Spawn the returned task; `done` counts down when the job ends. A spec of
// the wrong shape (no endpoint, several for a single job, a tree count
// other than one per part of a parallel logical job, or a kill hook on a
// parallel job, whose parts share one file system) ends it at once with
// kInvalidArgument in the report.
Task RunJob(Filer* filer, const JobSpec& spec, LogicalBackupJobResult* result,
            CountdownLatch* done);
Task RunJob(Filer* filer, const JobSpec& spec, LogicalRestoreJobResult* result,
            CountdownLatch* done);
Task RunJob(Filer* filer, const JobSpec& spec, ImageBackupJobResult* result,
            CountdownLatch* done);
Task RunJob(Filer* filer, const JobSpec& spec, ImageRestoreJobResult* result,
            CountdownLatch* done);
template <typename Part>
Task RunJob(Filer* filer, const JobSpec& spec, ParallelJobResult<Part>* result,
            CountdownLatch* done);

}  // namespace bkup

#endif  // BKUP_BACKUP_JOBS_H_
