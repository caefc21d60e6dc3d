#include "src/backup/report.h"

#include <algorithm>

#include "src/obs/json.h"

namespace bkup {

namespace {
double Clamp01(double u) { return u < 0.0 ? 0.0 : (u > 1.0 ? 1.0 : u); }
}  // namespace

double PhaseStats::DiskMBps() const {
  const SimDuration e = elapsed();
  if (e <= 0) {
    return 0.0;
  }
  return BytesPerSecToMBps(static_cast<double>(disk_bytes) / SimToSeconds(e));
}

double PhaseStats::TapeMBps() const {
  const SimDuration e = elapsed();
  if (e <= 0) {
    return 0.0;
  }
  return BytesPerSecToMBps(static_cast<double>(tape_bytes) / SimToSeconds(e));
}

double PhaseStats::NetMBps() const {
  const SimDuration e = elapsed();
  if (e <= 0) {
    return 0.0;
  }
  return BytesPerSecToMBps(static_cast<double>(net_bytes) / SimToSeconds(e));
}

void FaultCounters::Add(const FaultCounters& o) {
  disk_io_errors += o.disk_io_errors;
  disk_retries += o.disk_retries;
  reconstruction_reads += o.reconstruction_reads;
  spare_disks_used += o.spare_disks_used;
  tape_errors += o.tape_errors;
  tape_retries += o.tape_retries;
  tape_remounts += o.tape_remounts;
  bytes_rewritten += o.bytes_rewritten;
  files_skipped += o.files_skipped;
  link_errors += o.link_errors;
  link_retransmits += o.link_retransmits;
  link_reconnects += o.link_reconnects;
  link_bytes_resent += o.link_bytes_resent;
}

void ResumeStats::Add(const ResumeStats& o) {
  resumes += o.resumes;
  bytes_replayed += o.bytes_replayed;
  bytes_skipped += o.bytes_skipped;
  entries_skipped += o.entries_skipped;
  checkpoints += o.checkpoints;
}

void JobReport::TouchPhase(JobPhase p, SimTime now, int64_t cpu_busy) {
  PhaseStats& stats = phase(p);
  if (!stats.active()) {
    stats.start = now;
    stats.cpu_busy_start = cpu_busy;
  }
  stats.end = std::max(stats.end, now);
  stats.cpu_busy_end = cpu_busy;
}

double JobReport::CpuUtilization() const {
  const SimDuration e = elapsed();
  if (e <= 0) {
    return 0.0;
  }
  return Clamp01(static_cast<double>(cpu_busy_end - cpu_busy_start) /
                 static_cast<double>(e));
}

uint64_t JobReport::total_disk_bytes() const {
  uint64_t n = 0;
  for (const PhaseStats& p : phases) {
    n += p.disk_bytes;
  }
  return n;
}

uint64_t JobReport::total_tape_bytes() const {
  uint64_t n = 0;
  for (const PhaseStats& p : phases) {
    n += p.tape_bytes;
  }
  return n;
}

uint64_t JobReport::total_net_bytes() const {
  uint64_t n = 0;
  for (const PhaseStats& p : phases) {
    n += p.net_bytes;
  }
  return n;
}

double JobReport::StreamCpuUtilization() const {
  const SimDuration e = StreamElapsed();
  if (e <= 0) {
    return 0.0;
  }
  int64_t busy = cpu_busy_end - cpu_busy_start;
  for (const JobPhase p :
       {JobPhase::kCreateSnapshot, JobPhase::kDeleteSnapshot}) {
    const PhaseStats& s = phase(p);
    if (s.active()) {
      busy -= s.cpu_busy_end - s.cpu_busy_start;
    }
  }
  return Clamp01(static_cast<double>(busy) / static_cast<double>(e));
}

double JobReport::DiskMBps() const {
  const SimDuration e = StreamElapsed();
  if (e <= 0) {
    return 0.0;
  }
  return BytesPerSecToMBps(static_cast<double>(total_disk_bytes()) /
                           SimToSeconds(e));
}

double JobReport::TapeMBps() const {
  const SimDuration e = StreamElapsed();
  if (e <= 0) {
    return 0.0;
  }
  return BytesPerSecToMBps(static_cast<double>(total_tape_bytes()) /
                           SimToSeconds(e));
}

double JobReport::NetMBps() const {
  const SimDuration e = StreamElapsed();
  if (e <= 0) {
    return 0.0;
  }
  return BytesPerSecToMBps(static_cast<double>(total_net_bytes()) /
                           SimToSeconds(e));
}

void JobReport::PrintPhaseRows(FILE* out) const {
  for (int i = 0; i < static_cast<int>(JobPhase::kCount); ++i) {
    const PhaseStats& p = phases[i];
    if (!p.active() || p.elapsed() <= 0) {
      continue;
    }
    std::fprintf(out, "  %-32s %14s %8s  disk %7.2f MB/s  tape %7.2f MB/s",
                 JobPhaseName(static_cast<JobPhase>(i)),
                 FormatDuration(p.elapsed()).c_str(),
                 FormatPercent(p.CpuUtilization()).c_str(), p.DiskMBps(),
                 p.TapeMBps());
    if (p.net_bytes > 0) {
      std::fprintf(out, "  net %7.2f MB/s", p.NetMBps());
    }
    std::fprintf(out, "\n");
  }
}

void JobReport::WriteJson(JsonWriter* w) const {
  w->BeginObject();
  w->Field("name", name);
  w->Field("status", status.ok() ? "OK" : status.ToString());
  w->Field("start_s", SimToSeconds(start_time));
  w->Field("elapsed_s", SimToSeconds(elapsed()));
  w->Field("stream_elapsed_s", SimToSeconds(StreamElapsed()));
  w->Field("mb_per_s", MBps());
  w->Field("gb_per_h", GBph());
  w->Field("cpu_utilization", CpuUtilization());
  w->Field("stream_cpu_utilization", StreamCpuUtilization());
  w->Field("disk_mb_per_s", DiskMBps());
  w->Field("tape_mb_per_s", TapeMBps());
  w->Field("net_mb_per_s", NetMBps());
  w->Field("stream_bytes", stream_bytes);
  w->Field("data_bytes", data_bytes);
  w->Key("tapes_used").BeginArray();
  for (const std::string& t : tapes_used) {
    w->String(t);
  }
  w->EndArray();
  w->Key("final_media").BeginArray();
  for (const std::string& t : final_media) {
    w->String(t);
  }
  w->EndArray();
  w->Key("faults")
      .BeginObject()
      .Field("disk_io_errors", faults.disk_io_errors)
      .Field("disk_retries", faults.disk_retries)
      .Field("reconstruction_reads", faults.reconstruction_reads)
      .Field("spare_disks_used", faults.spare_disks_used)
      .Field("tape_errors", faults.tape_errors)
      .Field("tape_retries", faults.tape_retries)
      .Field("tape_remounts", faults.tape_remounts)
      .Field("bytes_rewritten", faults.bytes_rewritten)
      .Field("files_skipped", faults.files_skipped)
      .Field("link_errors", faults.link_errors)
      .Field("link_retransmits", faults.link_retransmits)
      .Field("link_reconnects", faults.link_reconnects)
      .Field("link_bytes_resent", faults.link_bytes_resent)
      .EndObject();
  if (content.any()) {
    w->Key("content")
        .BeginObject()
        .Field("raw_bytes", content.raw_bytes)
        .Field("wire_bytes", content.wire_bytes)
        .Field("unique_bytes", content.unique_bytes)
        .Field("chunks", content.chunks)
        .Field("dedup_hits", content.dedup_hits)
        .Field("crc_checks", content.crc_checks)
        .Field("encode_cpu_us", content.encode_cpu_us)
        .Field("decode_cpu_us", content.decode_cpu_us)
        .EndObject();
  }
  w->Key("resume")
      .BeginObject()
      .Field("resumes", resume.resumes)
      .Field("bytes_replayed", resume.bytes_replayed)
      .Field("bytes_skipped", resume.bytes_skipped)
      .Field("entries_skipped", resume.entries_skipped)
      .Field("checkpoints", resume.checkpoints)
      .EndObject();
  w->Key("phases").BeginArray();
  for (int i = 0; i < static_cast<int>(JobPhase::kCount); ++i) {
    const PhaseStats& p = phases[i];
    if (!p.active()) {
      continue;
    }
    w->BeginObject()
        .Field("name", JobPhaseName(static_cast<JobPhase>(i)))
        .Field("start_s", SimToSeconds(p.start))
        .Field("elapsed_s", SimToSeconds(p.elapsed()))
        .Field("cpu_utilization", p.CpuUtilization())
        .Field("disk_bytes", p.disk_bytes)
        .Field("tape_bytes", p.tape_bytes)
        .Field("net_bytes", p.net_bytes)
        .Field("disk_mb_per_s", p.DiskMBps())
        .Field("tape_mb_per_s", p.TapeMBps())
        .Field("net_mb_per_s", p.NetMBps())
        .EndObject();
  }
  w->EndArray();
  w->EndObject();
}

JobReport MergeReports(const std::string& name,
                       std::span<const JobReport> parts) {
  JobReport merged;
  merged.name = name;
  if (parts.empty()) {
    return merged;
  }
  merged.start_time = parts[0].start_time;
  merged.end_time = parts[0].end_time;
  merged.cpu_busy_start = parts[0].cpu_busy_start;
  merged.cpu_busy_end = parts[0].cpu_busy_end;
  for (const JobReport& r : parts) {
    merged.start_time = std::min(merged.start_time, r.start_time);
    merged.end_time = std::max(merged.end_time, r.end_time);
    merged.stream_bytes += r.stream_bytes;
    merged.data_bytes += r.data_bytes;
    // The CPU is shared: take the widest busy-integral window.
    merged.cpu_busy_start = std::min(merged.cpu_busy_start, r.cpu_busy_start);
    merged.cpu_busy_end = std::max(merged.cpu_busy_end, r.cpu_busy_end);
    if (!r.status.ok() && merged.status.ok()) {
      merged.status = r.status;
    }
    merged.faults.Add(r.faults);
    merged.resume.Add(r.resume);
    merged.content.Add(r.content);
    merged.tapes_used.insert(merged.tapes_used.end(), r.tapes_used.begin(),
                             r.tapes_used.end());
    merged.final_media.insert(merged.final_media.end(), r.final_media.begin(),
                              r.final_media.end());
    for (int i = 0; i < static_cast<int>(JobPhase::kCount); ++i) {
      const PhaseStats& p = r.phases[i];
      if (!p.active()) {
        continue;
      }
      PhaseStats& m = merged.phases[i];
      if (!m.active()) {
        m = p;
        continue;
      }
      m.start = std::min(m.start, p.start);
      m.end = std::max(m.end, p.end);
      m.cpu_busy_start = std::min(m.cpu_busy_start, p.cpu_busy_start);
      m.cpu_busy_end = std::max(m.cpu_busy_end, p.cpu_busy_end);
      m.disk_bytes += p.disk_bytes;
      m.tape_bytes += p.tape_bytes;
      m.net_bytes += p.net_bytes;
    }
  }
  return merged;
}

}  // namespace bkup
