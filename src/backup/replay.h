// Timed replay of a job's I/O trace over a stream endpoint (internal to
// src/backup; the public entry points are RunJob and the resumable restore
// in jobs.h).
//
// One backup replay and one restore replay serve every job. The endpoint
// decides where the stream goes: with no link, the drive hangs off the
// filer and the tape writer (or reader) runs beside the engine's replay;
// with a link, a StreamSession carries the stream to (or from) the drive on
// a tape server:
//
//     [disk reads + CPU] -> Channel<chunk> -> [tape writes]           (local)
//     [disk reads + CPU] -> Channel<chunk> -> StreamConn -> [tape writes]
//         (filer)                              (NetLink)   (tape server)
//
// Restores run the same pipelines backwards, publishing arrived-bytes
// watermarks to a consumer that charges CPU, NVRAM and disk writes. One
// media reader serves every restore — whole or ranged, local or at the
// server end of a link — and retries failed tape reads per chunk.
#ifndef BKUP_BACKUP_REPLAY_H_
#define BKUP_BACKUP_REPLAY_H_

#include <span>
#include <vector>

#include "src/backup/jobs.h"

namespace bkup {

// Pipeline shape: chunks in flight between producer and consumer, the size
// of one chunk, and the outstanding disk operations — dump-side read-ahead
// (the kernel dump "generates its own read-ahead policy") and restore-side
// write-behind (consistency points flush asynchronously).
inline constexpr size_t kPipelineDepth = 8;
inline constexpr uint64_t kChunkBytes = 256 * kKiB;
inline constexpr size_t kDiskWindow = 8;

struct ReplayConfig {
  Filer* filer = nullptr;
  Volume* volume = nullptr;
  // Drive, spares, supervision, QoS and content stages; must outlive the
  // replay.
  const StreamEndpoint* endpoint = nullptr;
  // Logical restore pays the NVRAM log; image restore bypasses it.
  bool charge_nvram = false;
  // Extra meta-data blocks written per data block at consistency points
  // (measured from the functional run's CP reports).
  double write_meta_multiplier = 0.0;
  // Restore side: the wire image's coordinate map when the endpoint has
  // content stages. The readers then move wire bytes, watermarks are
  // translated back to raw, and per-phase tape/net bytes are wire deltas.
  const FrameMap* content_map = nullptr;
};

// Replays a dump-side trace: charges disk reads and CPU per event and
// streams the produced bytes to the endpoint's drive, encoding them first
// when content stages are on. Accumulates phase stats into `report` (does
// not set the report's envelope fields).
Task ReplayBackup(ReplayConfig cfg, const IoTrace* trace,
                  std::span<const uint8_t> stream, JobReport* report,
                  CountdownLatch* done);

// Replays a restore-side trace: reads `media` (what the endpoint's tapes
// hold — the wire image with content stages) back and charges CPU, NVRAM
// and disk writes as each event's bytes arrive. `ranges` (raw offsets,
// ascending) restricts the read to the bytes a catalog-driven restore
// needs; empty means the whole stream, spare media included. Ranged reads
// seek on the mounted tape only, never a spanned set; a range that runs
// past that tape's end is Corruption.
Task ReplayRestore(ReplayConfig cfg, const IoTrace* trace,
                   std::span<const uint8_t> media,
                   std::vector<StreamRange> ranges, JobReport* report,
                   CountdownLatch* done);

// Charges a snapshot create/delete window (~30 s at ~50% CPU) and records
// it as `phase` in the report. The duty-cycled CPU slices run at
// `priority`.
Task SnapshotPhase(Filer* filer, JobReport* report, JobPhase phase,
                   SimDuration duration, int priority);

// Records `st` as the job's status unless an earlier error already is.
void KeepFirstError(JobReport* report, const Status& st);

}  // namespace bkup

#endif  // BKUP_BACKUP_REPLAY_H_
