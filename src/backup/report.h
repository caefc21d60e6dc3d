// Job reports: the measurement side of the reproduction. Each backup or
// restore job fills one of these; the bench binaries print them in the shape
// of the paper's Tables 2-5.
#ifndef BKUP_BACKUP_REPORT_H_
#define BKUP_BACKUP_REPORT_H_

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "src/block/io_trace.h"
#include "src/content/content.h"
#include "src/sim/resource.h"
#include "src/util/status.h"
#include "src/util/units.h"

namespace bkup {

class JsonWriter;  // src/obs/json.h

// Accumulated activity of one job phase (one row of Table 3).
struct PhaseStats {
  SimTime start = -1;
  SimTime end = -1;
  int64_t cpu_busy_start = 0;
  int64_t cpu_busy_end = 0;
  uint64_t disk_bytes = 0;
  uint64_t tape_bytes = 0;
  uint64_t net_bytes = 0;  // stream payload sent/received over a NetLink

  bool active() const { return start >= 0; }
  SimDuration elapsed() const { return active() ? end - start : 0; }
  // Clamped to [0, 1]: a phase's busy-integral window is sampled at touch
  // points, so concurrent jobs' activity can bleed a few percent past the
  // phase's own share; the clamp keeps displayed utilizations sane.
  double CpuUtilization() const {
    const SimDuration e = elapsed();
    if (e <= 0) {
      return 0.0;
    }
    const double u = static_cast<double>(cpu_busy_end - cpu_busy_start) /
                     static_cast<double>(e);
    return u < 0.0 ? 0.0 : (u > 1.0 ? 1.0 : u);
  }
  // Device throughput over the phase window.
  double DiskMBps() const;
  double TapeMBps() const;
  double NetMBps() const;
};

// Recovery work a job performed in response to injected (or organic) device
// faults. All zero on a clean run; with the same fault plan, seed and
// workload, identical across runs — which is what makes fault scenarios
// regression-testable.
struct FaultCounters {
  uint64_t disk_io_errors = 0;         // failed timed disk accesses observed
  uint64_t disk_retries = 0;           // accesses re-issued after backoff
  uint64_t reconstruction_reads = 0;   // blocks served via RAID degraded path
  uint64_t spare_disks_used = 0;       // hot-spare swaps + rebuilds
  uint64_t tape_errors = 0;            // failed tape transfers observed
  uint64_t tape_retries = 0;           // transfers re-issued after backoff
  uint64_t tape_remounts = 0;          // media abandoned for a spare
  uint64_t bytes_rewritten = 0;        // stream bytes re-sent after remounts
  uint64_t files_skipped = 0;          // unreadable files dropped from a dump
  uint64_t link_errors = 0;            // stream connections that failed
  uint64_t link_retransmits = 0;       // frames re-sent inside a connection
  uint64_t link_reconnects = 0;        // fresh connections the supervisor made
  uint64_t link_bytes_resent = 0;      // stream bytes re-sent past the ack

  bool any() const {
    return disk_io_errors + disk_retries + reconstruction_reads +
               spare_disks_used + tape_errors + tape_retries + tape_remounts +
               bytes_rewritten + files_skipped + link_errors +
               link_retransmits + link_reconnects + link_bytes_resent >
           0;
  }
  void Add(const FaultCounters& o);
  bool operator==(const FaultCounters&) const = default;
};

// Crash-resume accounting of a restore job. All zero when the restore ran
// uninterrupted; deterministic per seed, like FaultCounters.
struct ResumeStats {
  uint64_t resumes = 0;          // process incarnations beyond the first
  uint64_t bytes_replayed = 0;   // stream bytes resumed attempts re-consumed
  uint64_t bytes_skipped = 0;    // stream bytes fast-forwarded via catalog
  uint64_t entries_skipped = 0;  // catalog entries proven already applied
  uint64_t checkpoints = 0;      // mid-run consistency points taken

  bool any() const {
    return resumes + bytes_replayed + bytes_skipped + entries_skipped +
               checkpoints >
           0;
  }
  void Add(const ResumeStats& o);
  bool operator==(const ResumeStats&) const = default;
};

struct JobReport {
  std::string name;
  SimTime start_time = 0;
  SimTime end_time = 0;
  uint64_t stream_bytes = 0;  // backup/restore payload moved
  uint64_t data_bytes = 0;    // user data represented by the stream
  std::vector<std::string> tapes_used;  // media labels, in mount order
  // Media that actually hold the stream at job end: like tapes_used but with
  // media abandoned after an error dropped. Restores of a supervised backup
  // must read this set, in this order.
  std::vector<std::string> final_media;
  FaultCounters faults;
  ResumeStats resume;
  // Content-stage accounting (all zero when no stage is enabled). For jobs
  // with stages on, stream_bytes stays in raw coordinates while
  // content.wire_bytes is what tapes/links actually moved.
  ContentStats content;
  Status status;
  std::array<PhaseStats, static_cast<int>(JobPhase::kCount)> phases{};

  PhaseStats& phase(JobPhase p) { return phases[static_cast<int>(p)]; }
  const PhaseStats& phase(JobPhase p) const {
    return phases[static_cast<int>(p)];
  }

  SimDuration elapsed() const { return end_time - start_time; }

  // Fixed snapshot bookkeeping time; independent of data volume, so rates
  // exclude it (at the paper's 188 GB it is negligible; at bench scale it
  // would swamp the signal).
  SimDuration SnapshotOverhead() const {
    return phase(JobPhase::kCreateSnapshot).elapsed() +
           phase(JobPhase::kDeleteSnapshot).elapsed();
  }
  SimDuration StreamElapsed() const { return elapsed() - SnapshotOverhead(); }

  double BytesPerSecond() const {
    const SimDuration e = StreamElapsed();
    return e > 0 ? static_cast<double>(data_bytes) / SimToSeconds(e) : 0.0;
  }
  double MBps() const { return BytesPerSecToMBps(BytesPerSecond()); }
  double GBph() const { return BytesPerSecToGBph(BytesPerSecond()); }

  // Whole-job CPU utilization.
  double CpuUtilization() const;
  // CPU utilization over the streaming window, excluding the fixed
  // snapshot-bookkeeping phases.
  double StreamCpuUtilization() const;
  int64_t cpu_busy_start = 0;
  int64_t cpu_busy_end = 0;

  // Aggregate device throughput over the job window (the Disk MB/s and
  // Tape MB/s columns of Tables 4-5).
  uint64_t total_disk_bytes() const;
  uint64_t total_tape_bytes() const;
  uint64_t total_net_bytes() const;
  // Device throughput over the streaming window.
  double DiskMBps() const;
  double TapeMBps() const;
  // Link payload throughput over the streaming window (remote jobs only;
  // zero for local jobs, which never touch a NetLink).
  double NetMBps() const;

  // Prints the per-stage breakdown (Table 3 rows) with per-phase device
  // throughput.
  void PrintPhaseRows(FILE* out) const;

  // Serializes the whole report — summary, fault counters, per-phase stats —
  // as one JSON object (the per-job section of a BENCH_*.json file).
  void WriteJson(JsonWriter* w) const;

  // Marks activity of `p` at the current time with the CPU busy integral.
  void TouchPhase(JobPhase p, SimTime now, int64_t cpu_busy);
};

// Merges parallel per-tape reports into one operation-level report (the
// Table 4/5 view of N concurrent jobs).
JobReport MergeReports(const std::string& name,
                       std::span<const JobReport> parts);

}  // namespace bkup

#endif  // BKUP_BACKUP_REPORT_H_
