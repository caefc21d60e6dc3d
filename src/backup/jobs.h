// Backup and restore *jobs*: coroutine pipelines that run the functional
// engines and replay their I/O traces through the simulated filer.
//
// A job has the structure of WAFL's real dump path — a producer touching
// disks and CPU, a bounded buffer, and a consumer streaming a tape drive:
//
//     [disk reads + CPU] -> Channel<chunk> -> [tape writes]      (backup)
//     [tape reads] -> Channel<watermark> -> [CPU/NVRAM + disk]   (restore)
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
// frames (remote.h).
//
// `spare_tapes` is both the spanning set — when the mounted tape fills, the
// next media in the list is loaded (paying the stacker's load time) and the
// stream continues, the operator-feeding-tapes model of dump(8) — and the
// remount pool for supervised media errors. A restore must be given the
// same list, in the same order. A null `supervision` fails the job on the
// first unrecovered device or link error; with a policy, disk accesses
// retry/reconstruct, tape errors retry/remount and connections are re-made,
// each charged to the report's FaultCounters.
struct StreamEndpoint {
  NetLink* link = nullptr;
  TapeServer* server = nullptr;
  TapeDrive* drive = nullptr;
  std::vector<Tape*> spare_tapes;
  const SupervisionPolicy* supervision = nullptr;
  // Backup QoS. A local stream is paced where its bytes are produced (raw
  // bytes, or post-stage wire bytes with content stages); a remote one only
  // at its StreamConns, which acquire each frame's bytes before
  // transmitting. Either way every byte is paced once. io_priority demotes
  // the filer-side CPU, NVRAM and disk charges of backups and restores.
  BackupQos qos;
  // Content stages (DESIGN.md §16): backups encode on the filer, so tapes
  // and links move wire bytes (the throttle, acked floors and reconnect
  // resends all work in post-stage coordinates); restores decode on the
  // filer. A restore must pass the same config — in particular the same
  // ChunkIndex — the backup ran with.
  ContentConfig content;
};

// ------------------------------------------------------- complete jobs ---
// The local jobs below take their drive, `spare_tapes`, `supervision`, `qos`
// and `content` as the fields of a local StreamEndpoint; remote.h has the
// same jobs over a link.

struct LogicalBackupJobResult {
  LogicalDumpOutput dump;
  JobReport report;
};

// Snapshot create -> 4-phase dump to tape -> snapshot delete (the exact
// stage sequence of Table 3's "Logical Dump" rows). `qos` caps/demotes the
// dump when foreground traffic must stay responsive.
Task LogicalBackupJob(Filer* filer, Filesystem* fs, TapeDrive* tape,
                      LogicalDumpOptions options,
                      LogicalBackupJobResult* result, CountdownLatch* done,
                      std::vector<Tape*> spare_tapes = {},
                      const SupervisionPolicy* supervision = nullptr,
                      BackupQos qos = {}, ContentConfig content = {});

struct LogicalRestoreJobResult {
  LogicalRestoreOutput restore;
  JobReport report;
};

// Restores the stream recorded on `tape` through the file system. With
// `bypass_nvram`, models the paper's footnote-2 variant ("Modifying WAFL's
// logical restore to avoid NVRAM is in the works").
Task LogicalRestoreJob(Filer* filer, Filesystem* fs, TapeDrive* tape,
                       LogicalRestoreOptions options, bool bypass_nvram,
                       LogicalRestoreJobResult* result, CountdownLatch* done,
                       std::vector<Tape*> spare_tapes = {},
                       const SupervisionPolicy* supervision = nullptr,
                       ContentConfig content = {});

// Crash-resumable restore: how the supervised job recovers a killed restore
// process.
struct ResumableRestoreConfig {
  // The dump's offset index — the recovery authority. Required.
  const TapeCatalog* catalog = nullptr;
  // Crash injection (normally a CrashInjector from src/faults); null means
  // the first attempt simply completes.
  RestoreKillHook* kill = nullptr;
  // Mid-run consistency-point cadence passed to the engine.
  uint32_t checkpoint_every = 32;
  // Content stages the backup ran: the tape holds a wire image, which each
  // incarnation decodes before resuming; catalog offsets stay raw, replay
  // ranges are translated to post-stage wire coordinates through the
  // FrameMap.
  ContentConfig content;
};

struct ResumableRestoreJobResult {
  LogicalRestoreOutput restore;  // the last attempt (the one that finished)
  JobReport report;
  uint32_t attempts = 0;  // process incarnations run
};

// Runs a logical restore that survives process kills: each attempt resumes
// from the catalog diff of the partially-restored tree, replaying only the
// missing suffix through a ranged tape replay. Between attempts the file
// system is remounted (crash-reboot: the in-memory file system is dropped
// and the volume's last consistency point mounted) and a fixed restart
// schedule (8 incarnations, 1 s backoff doubling to 30 s) paces the
// restarts, supervised or not. `fs` is taken by pointer-to-owner because a
// remount replaces the Filesystem object.
Task ResumableLogicalRestoreJob(Filer* filer, std::unique_ptr<Filesystem>* fs,
                                Volume* volume, TapeDrive* tape,
                                LogicalRestoreOptions options,
                                bool bypass_nvram,
                                const SupervisionPolicy* supervision,
                                ResumableRestoreConfig resume,
                                ResumableRestoreJobResult* result,
                                CountdownLatch* done);

struct ImageBackupJobResult {
  ImageDumpOutput dump;
  JobReport report;
};

// Snapshot create -> block-order image dump to tape [-> snapshot delete].
// Keep the snapshot (delete_snapshot_after = false) when it will base a
// later incremental.
Task ImageBackupJob(Filer* filer, Filesystem* fs, TapeDrive* tape,
                    ImageDumpOptions options, bool delete_snapshot_after,
                    ImageBackupJobResult* result, CountdownLatch* done,
                    std::vector<Tape*> spare_tapes = {},
                    const SupervisionPolicy* supervision = nullptr,
                    BackupQos qos = {}, ContentConfig content = {});

struct ImageRestoreJobResult {
  ImageRestoreOutput restore;
  JobReport report;
};

// Restores an image stream from `tape` straight through the RAID layer.
// A multi-media image (after a supervised backup's remounts) restores as
// the concatenation of `tape`'s media and `spare_tapes`.
Task ImageRestoreJob(Filer* filer, Volume* volume, TapeDrive* tape,
                     ImageRestoreJobResult* result, CountdownLatch* done,
                     std::vector<Tape*> spare_tapes = {},
                     const SupervisionPolicy* supervision = nullptr,
                     ContentConfig content = {});

}  // namespace bkup

#endif  // BKUP_BACKUP_JOBS_H_
