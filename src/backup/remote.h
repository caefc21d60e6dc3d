// Remote backup and restore: the jobs of jobs.h over an endpoint whose
// drive sits across a simulated network.
//
// The paper's dump-stream portability claim (§2: the stream "can be written
// to tape, to a file, or sent over a network"; §6's three-way restore
// matrix) is exercised literally here — the same job bodies, engines and
// replay run, but the producer lives on the filer and the tape writer on a
// `TapeServer` across a `NetLink`:
//
//     [disk reads + CPU] -> Channel<chunk> -> StreamConn -> [tape writes]
//         (filer)                              (NetLink)    (tape server)
//
// A stream that outlives its connection (a frame lost beyond its retransmit
// budget) is reconnected by the supervisor and resumed from the receiver's
// acked watermark — the network analogue of the tape remount ladder. See
// DESIGN.md §10 for the transport model.
#ifndef BKUP_BACKUP_REMOTE_H_
#define BKUP_BACKUP_REMOTE_H_

#include <memory>
#include <vector>

#include "src/backup/jobs.h"
#include "src/backup/parallel.h"
#include "src/backup/supervisor.h"
#include "src/net/link.h"
#include "src/net/stream_conn.h"
#include "src/net/tape_server.h"

namespace bkup {

// A remote job's endpoint: `link` and `server` are set, and `drive` (with
// `spare_tapes`) sits on the server. Its QoS throttle paces the wire, so
// every connection the supervisor re-makes stays under the cap.
using RemoteTarget = StreamEndpoint;

// Snapshot create -> 4-phase dump, streamed over the link to the server's
// drive -> snapshot delete. The report's net columns show the link payload.
Task RemoteLogicalBackupJob(Filer* filer, Filesystem* fs, RemoteTarget target,
                            LogicalDumpOptions options,
                            LogicalBackupJobResult* result,
                            CountdownLatch* done);

// Restores a logical stream read off the server's drive, shipped to the
// filer over the link, and replayed through the file system.
Task RemoteLogicalRestoreJob(Filer* filer, Filesystem* fs, RemoteTarget target,
                             LogicalRestoreOptions options, bool bypass_nvram,
                             LogicalRestoreJobResult* result,
                             CountdownLatch* done);

struct RemoteSingleFileRestoreResult {
  LogicalRestoreOutput restore;
  JobReport report;
  uint64_t link_bytes = 0;         // stream bytes actually shipped
  uint64_t full_stream_bytes = 0;  // what a naive full-stream pull would move
  bool budget_rejected = false;    // the LinkBudget refused the reservation
};

// Restores one file (or subtree) from the server's media using the dump's
// catalog: the catalog turns the path into exact byte ranges, the server
// reads only those ranges (seek/read ladders via TapeServer::ReadRange), and
// only O(file) bytes cross the link instead of the whole stream — the
// paper's "stupidity recovery" at WAN cost. `budget` (optional) gates the
// transfer on the nightly link allowance, reserving the catalog's estimate
// up front. Single-media only: ranges address the drive's mounted tape.
Task RemoteSingleFileRestoreJob(Filer* filer, Filesystem* fs,
                                RemoteTarget target,
                                const TapeCatalog* catalog, std::string path,
                                LogicalRestoreOptions options,
                                bool bypass_nvram, LinkBudget* budget,
                                RemoteSingleFileRestoreResult* result,
                                CountdownLatch* done);

// Block-order image dump streamed over the link to the server's drive.
Task RemoteImageBackupJob(Filer* filer, Filesystem* fs, RemoteTarget target,
                          ImageDumpOptions options, bool delete_snapshot_after,
                          ImageBackupJobResult* result, CountdownLatch* done);

// Image restore of the server-side media straight into the RAID layer.
Task RemoteImageRestoreJob(Filer* filer, Volume* volume, RemoteTarget target,
                           ImageRestoreJobResult* result, CountdownLatch* done);

using ParallelRemoteImageBackupResult = ParallelImageBackupResult;

// Stripes one image dump over N server drives (part k of N per drive) from
// one shared snapshot, each part on its own stream session — all of them
// contending for the same link, which is what makes the link the bottleneck
// where local parallel physical dump scales with drives.
// `qos` applies to every part; the parts' sessions share one throttle
// bucket, so the cap bounds the aggregate link rate of the striped dump.
Task ParallelRemoteImageBackupJob(Filer* filer, Filesystem* fs, NetLink* link,
                                  TapeServer* server,
                                  std::vector<TapeDrive*> drives,
                                  ImageDumpOptions base_options,
                                  bool delete_snapshot_after,
                                  const SupervisionPolicy* supervision,
                                  ParallelRemoteImageBackupResult* result,
                                  CountdownLatch* done, BackupQos qos = {},
                                  ContentConfig content = {});

}  // namespace bkup

#endif  // BKUP_BACKUP_REMOTE_H_
