// The job entry points that perfbench still calls, as forwards to RunJob
// (jobs.h). Nothing else may include this header: a benchmark change moves
// perfbench onto RunJob and deletes it, with parallel.h.
#ifndef BKUP_BACKUP_REMOTE_H_
#define BKUP_BACKUP_REMOTE_H_

#ifndef PERFBENCH_BUILD_TYPE
#error "src/backup/remote.h is perfbench's alone; use RunJob (src/backup/jobs.h)"
#endif

#include <string>
#include <vector>

#include "src/backup/jobs.h"
#include "src/backup/supervisor.h"
#include "src/net/link.h"
#include "src/net/stream_conn.h"
#include "src/net/tape_server.h"

namespace bkup {

using RemoteTarget = StreamEndpoint;
using ParallelLogicalBackupResult = ParallelJobResult<LogicalBackupJobResult>;
using ParallelImageBackupResult = ParallelJobResult<ImageBackupJobResult>;

inline std::vector<StreamEndpoint> DriveEndpoints(
    const std::vector<TapeDrive*>& drives) {
  std::vector<StreamEndpoint> out;
  for (TapeDrive* drive : drives) {
    out.push_back({.drive = drive});
  }
  return out;
}

inline Task LogicalBackupJob(Filer* filer, Filesystem* fs, TapeDrive* tape,
                             LogicalDumpOptions options,
                             LogicalBackupJobResult* result,
                             CountdownLatch* done) {
  return RunJob(filer, {.fs = fs, .endpoints = {{.drive = tape}},
                        .logical_dump = options},
                result, done);
}

inline Task LogicalRestoreJob(Filer* filer, Filesystem* fs, TapeDrive* tape,
                              LogicalRestoreOptions options, bool bypass_nvram,
                              LogicalRestoreJobResult* result,
                              CountdownLatch* done) {
  return RunJob(filer, {.fs = fs, .endpoints = {{.drive = tape}},
                        .logical_restore = options,
                        .bypass_nvram = bypass_nvram},
                result, done);
}

inline Task ImageBackupJob(Filer* filer, Filesystem* fs, TapeDrive* tape,
                           ImageDumpOptions options, bool delete_snapshot_after,
                           ImageBackupJobResult* result, CountdownLatch* done) {
  return RunJob(filer, {.fs = fs, .endpoints = {{.drive = tape}},
                        .image_dump = options,
                        .delete_snapshot_after = delete_snapshot_after},
                result, done);
}

inline Task ImageRestoreJob(Filer* filer, Volume* volume, TapeDrive* tape,
                            ImageRestoreJobResult* result,
                            CountdownLatch* done) {
  return RunJob(filer, {.volume = volume, .endpoints = {{.drive = tape}}},
                result, done);
}

inline Task ParallelLogicalBackupJob(Filer* filer, Filesystem* fs,
                                     std::vector<TapeDrive*> drives,
                                     std::vector<std::string> subtrees,
                                     LogicalDumpOptions options,
                                     ParallelLogicalBackupResult* result,
                                     CountdownLatch* done) {
  return RunJob(filer, {.fs = fs, .endpoints = DriveEndpoints(drives),
                        .trees = subtrees, .logical_dump = options},
                result, done);
}

inline Task ParallelImageBackupJob(Filer* filer, Filesystem* fs,
                                   std::vector<TapeDrive*> drives,
                                   ImageDumpOptions options,
                                   bool delete_snapshot_after,
                                   ParallelImageBackupResult* result,
                                   CountdownLatch* done) {
  return RunJob(filer, {.fs = fs, .endpoints = DriveEndpoints(drives),
                        .image_dump = options,
                        .delete_snapshot_after = delete_snapshot_after},
                result, done);
}

inline Task RemoteLogicalBackupJob(Filer* filer, Filesystem* fs,
                                   RemoteTarget target,
                                   LogicalDumpOptions options,
                                   LogicalBackupJobResult* result,
                                   CountdownLatch* done) {
  return RunJob(filer, {.fs = fs, .endpoints = {target},
                        .logical_dump = options},
                result, done);
}

inline Task RemoteLogicalRestoreJob(Filer* filer, Filesystem* fs,
                                    RemoteTarget target,
                                    LogicalRestoreOptions options,
                                    bool bypass_nvram,
                                    LogicalRestoreJobResult* result,
                                    CountdownLatch* done) {
  return RunJob(filer, {.fs = fs, .endpoints = {target},
                        .logical_restore = options,
                        .bypass_nvram = bypass_nvram},
                result, done);
}

inline Task RemoteImageBackupJob(Filer* filer, Filesystem* fs,
                                 RemoteTarget target, ImageDumpOptions options,
                                 bool delete_snapshot_after,
                                 ImageBackupJobResult* result,
                                 CountdownLatch* done) {
  return RunJob(filer, {.fs = fs, .endpoints = {target},
                        .image_dump = options,
                        .delete_snapshot_after = delete_snapshot_after},
                result, done);
}

inline Task RemoteImageRestoreJob(Filer* filer, Volume* volume,
                                  RemoteTarget target,
                                  ImageRestoreJobResult* result,
                                  CountdownLatch* done) {
  return RunJob(filer, {.volume = volume, .endpoints = {target}}, result,
                done);
}

}  // namespace bkup

#endif  // BKUP_BACKUP_REMOTE_H_
