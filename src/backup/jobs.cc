// Every job entry point of jobs.h, parallel.h and remote.h: one body per
// engine and direction, run over a StreamEndpoint by the local job, the
// remote job and the parts of a parallel job alike.
#include "src/backup/jobs.h"

#include <cassert>
#include <cctype>

#include "src/backup/parallel.h"
#include "src/backup/remote.h"
#include "src/backup/replay.h"
#include "src/obs/trace.h"

namespace bkup {

namespace {

// Crash-resumable restores: a killed restore process is restarted (after
// reboot-scale backoff) and resumed from the catalog diff, up to
// max_attempts incarnations.
constexpr RetryPolicy kRestartRetry{.max_attempts = 8,
                                    .initial_backoff = kSecond,
                                    .max_backoff = 30 * kSecond};

void OpenReport(JobReport* report, Filer* filer, std::string name) {
  report->name = std::move(name);
  report->start_time = filer->env()->now();
  report->cpu_busy_start = filer->cpu().BusyIntegral();
}

void CloseReport(JobReport* report, Filer* filer) {
  report->end_time = filer->env()->now();
  report->cpu_busy_end = filer->cpu().BusyIntegral();
}

// A job over a link reports as "Remote <local name>".
std::string JobName(const StreamEndpoint& ep, std::string local) {
  if (ep.link == nullptr) {
    return local;
  }
  local[0] = static_cast<char>(std::tolower(static_cast<unsigned char>(local[0])));
  return "Remote " + local;
}

// The snapshot a job creates when its options name none.
std::string DefaultSnapshot(const StreamEndpoint& ep, const char* engine) {
  return std::string(engine) + (ep.link == nullptr ? ".auto" : ".remote");
}

// Meta-data write amplification measured from the real consistency points
// the functional restore performed since the file system's last mark.
double MetaMultiplier(Filesystem* fs) {
  const uint64_t data_writes = fs->cp_data_writes_since_mark();
  const uint64_t meta_writes = fs->cp_meta_writes_since_mark();
  return data_writes > 0 ? static_cast<double>(meta_writes) /
                               static_cast<double>(data_writes)
                         : 0.5;
}

// What an endpoint's media hold, read back for a restore: the mounted tape
// spliced with its spares (resent and rewritten bytes never reach the media
// twice, so the set splices back into one stream) and, with content
// stages, the raw stream decoded from that wire image, every store-backed
// frame verified. Not copyable: the spans point into the owned buffers.
struct MediaImage {
  MediaImage() = default;
  MediaImage(const MediaImage&) = delete;
  MediaImage& operator=(const MediaImage&) = delete;

  std::span<const uint8_t> media;  // what the tapes hold; the replay moves it
  std::span<const uint8_t> raw;    // what the engines restore from
  const FrameMap* content_map = nullptr;  // set when `media` is a wire image

  std::vector<uint8_t> spliced;
  std::vector<uint8_t> decoded;
  FrameMap map;
};

Status ReadMedia(const StreamEndpoint& ep, MediaImage* out,
                 ContentStats* stats) {
  if (!ep.drive->loaded()) {
    return FailedPrecondition("no tape loaded for restore");
  }
  out->media = ep.drive->tape()->contents();
  if (!ep.spare_tapes.empty()) {
    out->spliced.assign(out->media.begin(), out->media.end());
    for (Tape* t : ep.spare_tapes) {
      out->spliced.insert(out->spliced.end(), t->contents().begin(),
                          t->contents().end());
    }
    out->media = out->spliced;
  }
  out->raw = out->media;
  if (!ep.content.enabled()) {
    return Status::Ok();
  }
  BKUP_ASSIGN_OR_RETURN(out->map, FrameMap::FromWire(out->media));
  BKUP_ASSIGN_OR_RETURN(out->decoded,
                        StagePipeline(ep.content).Decode(out->media, stats));
  out->raw = out->decoded;
  out->content_map = &out->map;
  return Status::Ok();
}

template <typename Part>
JobReport MergeParts(const std::string& name, const JobReport* control,
                     const std::vector<std::unique_ptr<Part>>& parts) {
  std::vector<JobReport> reports;
  if (control != nullptr) {
    reports.push_back(*control);
  }
  for (const auto& p : parts) {
    reports.push_back(p->report);
  }
  return MergeReports(name, reports);
}

// Snapshot create -> logical dump -> replay over `ep` -> snapshot delete
// (the stage sequence of Table 3's "Logical Dump" rows). The parts of a
// parallel dump run with `own_snapshot` false: they dump from the control
// job's snapshot and leave it alone.
Task LogicalBackupBody(Filer* filer, Filesystem* fs, StreamEndpoint ep,
                       LogicalDumpOptions options, std::string name,
                       bool own_snapshot, LogicalBackupJobResult* result,
                       CountdownLatch* done) {
  SimEnvironment* env = filer->env();
  JobReport& report = result->report;
  OpenReport(&report, filer, JobName(ep, std::move(name)));
  if (own_snapshot) {
    if (options.snapshot_name.empty()) {
      options.snapshot_name = DefaultSnapshot(ep, "dump");
    }
    report.status = fs->CreateSnapshot(options.snapshot_name);
    if (!report.status.ok()) {
      done->CountDown();
      co_return;
    }
    co_await SnapshotPhase(filer, &report, JobPhase::kCreateSnapshot,
                           filer->model().snapshot_create_time,
                           ep.qos.io_priority);
  }

  options.dump_time = env->now();
  Result<FsReader> reader = fs->SnapshotReader(options.snapshot_name);
  if (!reader.ok()) {
    report.status = reader.status();
    done->CountDown();
    co_return;
  }
  Result<LogicalDumpOutput> dump = RunLogicalDump(*reader, options);
  if (!dump.ok()) {
    report.status = dump.status();
    done->CountDown();
    co_return;
  }
  result->dump = std::move(*dump);
  report.faults.files_skipped += result->dump.stats.files_skipped;

  ReplayConfig cfg{.filer = filer, .volume = fs->volume(), .endpoint = &ep};
  CountdownLatch replay_done(env, 1);
  env->Spawn(ReplayBackup(cfg, &result->dump.trace, result->dump.stream,
                          &report, &replay_done));
  co_await replay_done.Wait();

  if (own_snapshot) {
    KeepFirstError(&report, fs->DeleteSnapshot(options.snapshot_name));
    co_await SnapshotPhase(filer, &report, JobPhase::kDeleteSnapshot,
                           filer->model().snapshot_delete_time,
                           ep.qos.io_priority);
  }
  CloseReport(&report, filer);
  report.data_bytes = result->dump.stats.data_blocks * kBlockSize;
  done->CountDown();
}

// Snapshot create -> block-order image dump -> replay over `ep` [->
// snapshot delete]. The snapshot may already exist when several parallel
// parts share one quiesce point; only a job that created it deletes it.
Task ImageBackupBody(Filer* filer, Filesystem* fs, StreamEndpoint ep,
                     ImageDumpOptions options, bool delete_snapshot_after,
                     std::string name, ImageBackupJobResult* result,
                     CountdownLatch* done) {
  SimEnvironment* env = filer->env();
  JobReport& report = result->report;
  OpenReport(&report, filer, JobName(ep, std::move(name)));
  if (options.snapshot_name.empty()) {
    options.snapshot_name = DefaultSnapshot(ep, "image");
  }
  const bool created_here = !fs->FindSnapshot(options.snapshot_name).ok();
  if (created_here) {
    report.status = fs->CreateSnapshot(options.snapshot_name);
    if (!report.status.ok()) {
      done->CountDown();
      co_return;
    }
    co_await SnapshotPhase(filer, &report, JobPhase::kCreateSnapshot,
                           filer->model().snapshot_create_time,
                           ep.qos.io_priority);
  }

  options.dump_time = env->now();
  Result<ImageDumpOutput> dump = RunImageDump(fs->volume(), options);
  if (!dump.ok()) {
    report.status = dump.status();
    done->CountDown();
    co_return;
  }
  result->dump = std::move(*dump);

  ReplayConfig cfg{.filer = filer, .volume = fs->volume(), .endpoint = &ep};
  CountdownLatch replay_done(env, 1);
  env->Spawn(ReplayBackup(cfg, &result->dump.trace, result->dump.stream,
                          &report, &replay_done));
  co_await replay_done.Wait();

  if (delete_snapshot_after && created_here) {
    KeepFirstError(&report, fs->DeleteSnapshot(options.snapshot_name));
    co_await SnapshotPhase(filer, &report, JobPhase::kDeleteSnapshot,
                           filer->model().snapshot_delete_time,
                           ep.qos.io_priority);
  }
  CloseReport(&report, filer);
  report.data_bytes = result->dump.stats.blocks_dumped * kBlockSize;
  done->CountDown();
}

// The endpoint's media -> functional logical restore -> replay through the
// file system. With `bypass_nvram`, models the paper's footnote-2 variant.
Task LogicalRestoreBody(Filer* filer, Filesystem* fs, StreamEndpoint ep,
                        LogicalRestoreOptions options, bool bypass_nvram,
                        LogicalRestoreJobResult* result,
                        CountdownLatch* done) {
  SimEnvironment* env = filer->env();
  JobReport& report = result->report;
  OpenReport(&report, filer,
             JobName(ep, bypass_nvram ? "Logical restore (NVRAM bypass)"
                                      : "Logical restore"));
  MediaImage media;
  if (Status st = ReadMedia(ep, &media, &report.content); !st.ok()) {
    report.status = st;
    done->CountDown();
    co_return;
  }
  fs->MarkCpCounters();
  Result<LogicalRestoreOutput> restored =
      RunLogicalRestore(fs, media.raw, options);
  if (!restored.ok()) {
    report.status = restored.status();
    done->CountDown();
    co_return;
  }
  result->restore = std::move(*restored);

  ReplayConfig cfg{.filer = filer,
                   .volume = fs->volume(),
                   .endpoint = &ep,
                   .charge_nvram = !bypass_nvram,
                   .write_meta_multiplier = MetaMultiplier(fs),
                   .content_map = media.content_map};
  CountdownLatch replay_done(env, 1);
  env->Spawn(ReplayRestore(cfg, &result->restore.trace, media.media, {},
                           &report, &replay_done));
  co_await replay_done.Wait();

  CloseReport(&report, filer);
  report.data_bytes = result->restore.stats.bytes_restored;
  done->CountDown();
}

// The endpoint's media -> image restore straight through the RAID layer.
Task ImageRestoreBody(Filer* filer, Volume* volume, StreamEndpoint ep,
                      ImageRestoreJobResult* result, CountdownLatch* done) {
  SimEnvironment* env = filer->env();
  JobReport& report = result->report;
  OpenReport(&report, filer, JobName(ep, "Physical restore"));
  MediaImage media;
  if (Status st = ReadMedia(ep, &media, &report.content); !st.ok()) {
    report.status = st;
    done->CountDown();
    co_return;
  }
  Result<ImageRestoreOutput> restored = RunImageRestore(volume, media.raw);
  if (!restored.ok()) {
    report.status = restored.status();
    done->CountDown();
    co_return;
  }
  result->restore = std::move(*restored);

  // "bypass the NVRAM ... further enhancing performance"
  ReplayConfig cfg{.filer = filer,
                   .volume = volume,
                   .endpoint = &ep,
                   .content_map = media.content_map};
  CountdownLatch replay_done(env, 1);
  env->Spawn(ReplayRestore(cfg, &result->restore.trace, media.media, {},
                           &report, &replay_done));
  co_await replay_done.Wait();

  CloseReport(&report, filer);
  report.data_bytes = result->restore.stats.blocks_restored * kBlockSize;
  done->CountDown();
}

// The control job of a striped image dump: one shared snapshot, part k of
// N streamed to parts[k]. Remote parts share one link, which is what makes
// the link the bottleneck where local parallel physical dump scales with
// drives.
Task ParallelImageBackupBody(Filer* filer, Filesystem* fs,
                             std::vector<StreamEndpoint> parts,
                             ImageDumpOptions base_options,
                             bool delete_snapshot_after,
                             ParallelImageBackupResult* result,
                             CountdownLatch* done) {
  assert(!parts.empty());
  SimEnvironment* env = filer->env();
  const bool remote = parts.front().link != nullptr;
  const int priority = parts.front().qos.io_priority;
  const std::string title =
      remote ? "Parallel remote physical backup" : "Parallel physical backup";
  JobReport& control = result->control;
  OpenReport(&control, filer, title + " (control)");

  const std::string snap =
      !base_options.snapshot_name.empty() ? base_options.snapshot_name
      : remote                            ? "image.remote.parallel"
                                          : "image.parallel";
  const bool created_here = !fs->FindSnapshot(snap).ok();
  if (created_here) {
    control.status = fs->CreateSnapshot(snap);
    if (!control.status.ok()) {
      done->CountDown();
      co_return;
    }
    co_await SnapshotPhase(filer, &control, JobPhase::kCreateSnapshot,
                           filer->model().snapshot_create_time, priority);
  }

  const auto n = static_cast<uint32_t>(parts.size());
  CountdownLatch parts_done(env, static_cast<int>(n));
  for (uint32_t k = 0; k < n; ++k) {
    ImageDumpOptions options = base_options;
    options.snapshot_name = snap;
    options.part_index = k;
    options.part_count = n;
    result->parts.push_back(std::make_unique<ImageBackupJobResult>());
    env->Spawn(ImageBackupBody(
        filer, fs, std::move(parts[k]), options,
        /*delete_snapshot_after=*/false,
        "Physical backup [part " + std::to_string(k) + "/" +
            std::to_string(n) + "]",
        result->parts.back().get(), &parts_done));
  }
  co_await parts_done.Wait();

  if (delete_snapshot_after && created_here) {
    KeepFirstError(&control, fs->DeleteSnapshot(snap));
    co_await SnapshotPhase(filer, &control, JobPhase::kDeleteSnapshot,
                           filer->model().snapshot_delete_time, priority);
  }
  CloseReport(&control, filer);
  result->merged = MergeParts(title, &control, result->parts);
  done->CountDown();
}

}  // namespace

// ----------------------------------------------------------- local jobs ---

Task LogicalBackupJob(Filer* filer, Filesystem* fs, TapeDrive* tape,
                      LogicalDumpOptions options,
                      LogicalBackupJobResult* result, CountdownLatch* done,
                      std::vector<Tape*> spare_tapes,
                      const SupervisionPolicy* supervision, BackupQos qos,
                      ContentConfig content) {
  return LogicalBackupBody(filer, fs,
                           {.drive = tape,
                            .spare_tapes = std::move(spare_tapes),
                            .supervision = supervision,
                            .qos = qos,
                            .content = std::move(content)},
                           std::move(options), "Logical backup",
                           /*own_snapshot=*/true, result, done);
}

Task LogicalRestoreJob(Filer* filer, Filesystem* fs, TapeDrive* tape,
                       LogicalRestoreOptions options, bool bypass_nvram,
                       LogicalRestoreJobResult* result, CountdownLatch* done,
                       std::vector<Tape*> spare_tapes,
                       const SupervisionPolicy* supervision,
                       ContentConfig content) {
  return LogicalRestoreBody(filer, fs,
                            {.drive = tape,
                             .spare_tapes = std::move(spare_tapes),
                             .supervision = supervision,
                             .qos = {},
                             .content = std::move(content)},
                            std::move(options), bypass_nvram, result, done);
}

Task ImageBackupJob(Filer* filer, Filesystem* fs, TapeDrive* tape,
                    ImageDumpOptions options, bool delete_snapshot_after,
                    ImageBackupJobResult* result, CountdownLatch* done,
                    std::vector<Tape*> spare_tapes,
                    const SupervisionPolicy* supervision, BackupQos qos,
                    ContentConfig content) {
  return ImageBackupBody(filer, fs,
                         {.drive = tape,
                          .spare_tapes = std::move(spare_tapes),
                          .supervision = supervision,
                          .qos = qos,
                          .content = std::move(content)},
                         std::move(options), delete_snapshot_after,
                         "Physical backup", result, done);
}

Task ImageRestoreJob(Filer* filer, Volume* volume, TapeDrive* tape,
                     ImageRestoreJobResult* result, CountdownLatch* done,
                     std::vector<Tape*> spare_tapes,
                     const SupervisionPolicy* supervision,
                     ContentConfig content) {
  return ImageRestoreBody(filer, volume,
                          {.drive = tape,
                           .spare_tapes = std::move(spare_tapes),
                           .supervision = supervision,
                           .qos = {},
                           .content = std::move(content)},
                          result, done);
}

Task ResumableLogicalRestoreJob(Filer* filer, std::unique_ptr<Filesystem>* fs,
                                Volume* volume, TapeDrive* tape,
                                LogicalRestoreOptions options,
                                bool bypass_nvram,
                                const SupervisionPolicy* supervision,
                                ResumableRestoreConfig resume,
                                ResumableRestoreJobResult* result,
                                CountdownLatch* done) {
  SimEnvironment* env = filer->env();
  JobReport& report = result->report;
  OpenReport(&report, filer, "Resumable logical restore");
  if (resume.catalog == nullptr) {
    report.status = InvalidArgument("resumable restore needs a catalog");
    done->CountDown();
    co_return;
  }
  // Single-media: the ranged reads address the mounted tape directly. The
  // wire image is decoded once (it is a pure function of the media); each
  // incarnation's ranged replay still pays tape and decode CPU only for the
  // wire frames its resume actually needs.
  const StreamEndpoint ep{.drive = tape,
                          .spare_tapes = {},
                          .supervision = supervision,
                          .qos = {},
                          .content = resume.content};
  MediaImage media;
  if (Status st = ReadMedia(ep, &media, &report.content); !st.ok()) {
    report.status = st;
    done->CountDown();
    co_return;
  }

  options.catalog = resume.catalog;
  options.kill = resume.kill;
  options.checkpoint_every = resume.checkpoint_every;

  // One trace spans every incarnation: each supervised restart continues
  // the same trace id with a bumped incarnation label.
  TraceContext ctx;
  if (Tracer* tracer = env->tracer()) {
    ctx = tracer->StartTrace();
  }
  int attempt = 0;
  while (true) {
    ScopedTraceSpan incarnation_span(
        env->tracer(), ("job:" + report.name).c_str(),
        "incarnation#" + std::to_string(attempt), ctx);
    ++result->attempts;
    options.resume = attempt > 0;
    (*fs)->MarkCpCounters();
    Result<LogicalRestoreOutput> restored =
        RunLogicalRestore(fs->get(), media.raw, options);
    if (!restored.ok()) {
      report.status = restored.status();
      break;
    }
    report.resume.bytes_skipped += restored->stats.bytes_skipped;
    report.resume.entries_skipped += restored->stats.entries_skipped;
    report.resume.checkpoints += restored->stats.checkpoints;
    if (attempt > 0) {
      report.resume.bytes_replayed += restored->stats.bytes_replayed;
    }
    report.data_bytes += restored->stats.bytes_restored;

    ReplayConfig cfg{.filer = filer,
                     .volume = volume,
                     .endpoint = &ep,
                     .charge_nvram = !bypass_nvram,
                     .write_meta_multiplier = MetaMultiplier(fs->get()),
                     .content_map = media.content_map};
    CountdownLatch replay_done(env, 1);
    env->Spawn(ReplayRestore(cfg, &restored->trace, media.media,
                             restored->consumed_ranges, &report,
                             &replay_done));
    co_await replay_done.Wait();

    const bool interrupted = restored->interrupted;
    result->restore = std::move(*restored);
    if (!interrupted) {
      break;  // this incarnation finished the restore
    }
    // The process died mid-stream: reboot, remount the last consistency
    // point, back off on the restart schedule, and resume from the catalog.
    report.resume.resumes++;
    if (Tracer* tracer = env->tracer()) {
      tracer->Instant(tracer->Track("faults"), "restore.kill", ctx);
    }
    ctx = ctx.NextIncarnation();
    ++attempt;
    if (attempt >= kRestartRetry.max_attempts) {
      report.status = Exhausted("restore restart budget exhausted");
      break;
    }
    co_await env->Delay(kRestartRetry.BackoffBefore(attempt));
    fs->reset();
    Result<std::unique_ptr<Filesystem>> mounted =
        Filesystem::Mount(volume, env);
    if (!mounted.ok()) {
      report.status = mounted.status();
      break;
    }
    *fs = std::move(*mounted);
  }

  CloseReport(&report, filer);
  done->CountDown();
}

// -------------------------------------------------------- parallel jobs ---

Task ParallelLogicalBackupJob(Filer* filer, Filesystem* fs,
                              std::vector<TapeDrive*> drives,
                              std::vector<std::string> subtrees,
                              LogicalDumpOptions base_options,
                              ParallelLogicalBackupResult* result,
                              CountdownLatch* done,
                              const SupervisionPolicy* supervision,
                              std::vector<std::vector<Tape*>> spare_tapes,
                              BackupQos qos, ContentConfig content) {
  assert(drives.size() == subtrees.size() && !drives.empty());
  SimEnvironment* env = filer->env();
  JobReport& control = result->control;
  OpenReport(&control, filer, "Parallel logical backup (control)");

  const std::string snap = base_options.snapshot_name.empty()
                               ? "dump.parallel"
                               : base_options.snapshot_name;
  control.status = fs->CreateSnapshot(snap);
  if (!control.status.ok()) {
    done->CountDown();
    co_return;
  }
  co_await SnapshotPhase(filer, &control, JobPhase::kCreateSnapshot,
                         filer->model().snapshot_create_time,
                         qos.io_priority);

  CountdownLatch parts_done(env, static_cast<int>(drives.size()));
  for (size_t k = 0; k < drives.size(); ++k) {
    LogicalDumpOptions options = base_options;
    options.snapshot_name = snap;
    options.subtree = subtrees[k];
    result->parts.push_back(std::make_unique<LogicalBackupJobResult>());
    // Each part draws remount media from its own slice of the stacker.
    env->Spawn(LogicalBackupBody(
        filer, fs,
        {.drive = drives[k],
         .spare_tapes = k < spare_tapes.size() ? spare_tapes[k]
                                               : std::vector<Tape*>{},
         .supervision = supervision,
         .qos = qos,
         .content = content},
        options, "Logical backup [" + subtrees[k] + "]",
        /*own_snapshot=*/false, result->parts.back().get(), &parts_done));
  }
  co_await parts_done.Wait();

  KeepFirstError(&control, fs->DeleteSnapshot(snap));
  co_await SnapshotPhase(filer, &control, JobPhase::kDeleteSnapshot,
                         filer->model().snapshot_delete_time,
                         qos.io_priority);
  CloseReport(&control, filer);
  result->merged =
      MergeParts("Parallel logical backup", &control, result->parts);
  done->CountDown();
}

Task ParallelLogicalRestoreJob(Filer* filer, Filesystem* fs,
                               std::vector<TapeDrive*> drives,
                               std::vector<std::string> target_dirs,
                               bool bypass_nvram,
                               ParallelLogicalRestoreResult* result,
                               CountdownLatch* done, ContentConfig content) {
  assert(drives.size() == target_dirs.size() && !drives.empty());
  SimEnvironment* env = filer->env();
  CountdownLatch parts_done(env, static_cast<int>(drives.size()));
  for (size_t k = 0; k < drives.size(); ++k) {
    if (target_dirs[k] != "/" && !fs->LookupPath(target_dirs[k]).ok()) {
      Result<Inum> made = fs->Mkdir(target_dirs[k], 0755);
      if (!made.ok()) {
        result->merged.status = made.status();
        done->CountDown();
        co_return;
      }
    }
    LogicalRestoreOptions options;
    options.target_dir = target_dirs[k];
    result->parts.push_back(std::make_unique<LogicalRestoreJobResult>());
    env->Spawn(LogicalRestoreJob(filer, fs, drives[k], options, bypass_nvram,
                                 result->parts.back().get(), &parts_done, {},
                                 nullptr, content));
  }
  co_await parts_done.Wait();
  result->merged =
      MergeParts("Parallel logical restore", nullptr, result->parts);
  done->CountDown();
}

Task ParallelImageBackupJob(Filer* filer, Filesystem* fs,
                            std::vector<TapeDrive*> drives,
                            ImageDumpOptions base_options,
                            bool delete_snapshot_after,
                            ParallelImageBackupResult* result,
                            CountdownLatch* done,
                            const SupervisionPolicy* supervision,
                            std::vector<std::vector<Tape*>> spare_tapes,
                            BackupQos qos, ContentConfig content) {
  std::vector<StreamEndpoint> parts;
  for (size_t k = 0; k < drives.size(); ++k) {
    parts.push_back({.drive = drives[k],
                     .spare_tapes = k < spare_tapes.size()
                                        ? spare_tapes[k]
                                        : std::vector<Tape*>{},
                     .supervision = supervision,
                     .qos = qos,
                     .content = content});
  }
  return ParallelImageBackupBody(filer, fs, std::move(parts),
                                 std::move(base_options),
                                 delete_snapshot_after, result, done);
}

Task ParallelImageRestoreJob(Filer* filer, Volume* volume,
                             std::vector<TapeDrive*> drives,
                             ParallelImageRestoreResult* result,
                             CountdownLatch* done, ContentConfig content) {
  assert(!drives.empty());
  SimEnvironment* env = filer->env();
  CountdownLatch parts_done(env, static_cast<int>(drives.size()));
  for (TapeDrive* drive : drives) {
    result->parts.push_back(std::make_unique<ImageRestoreJobResult>());
    env->Spawn(ImageRestoreJob(filer, volume, drive,
                               result->parts.back().get(), &parts_done, {},
                               nullptr, content));
  }
  co_await parts_done.Wait();
  result->merged =
      MergeParts("Parallel physical restore", nullptr, result->parts);
  done->CountDown();
}

// ---------------------------------------------------------- remote jobs ---

Task RemoteLogicalBackupJob(Filer* filer, Filesystem* fs, RemoteTarget target,
                            LogicalDumpOptions options,
                            LogicalBackupJobResult* result,
                            CountdownLatch* done) {
  return LogicalBackupBody(filer, fs, std::move(target), std::move(options),
                           "Logical backup", /*own_snapshot=*/true, result,
                           done);
}

Task RemoteLogicalRestoreJob(Filer* filer, Filesystem* fs, RemoteTarget target,
                             LogicalRestoreOptions options, bool bypass_nvram,
                             LogicalRestoreJobResult* result,
                             CountdownLatch* done) {
  return LogicalRestoreBody(filer, fs, std::move(target), std::move(options),
                            bypass_nvram, result, done);
}

Task RemoteImageBackupJob(Filer* filer, Filesystem* fs, RemoteTarget target,
                          ImageDumpOptions options, bool delete_snapshot_after,
                          ImageBackupJobResult* result, CountdownLatch* done) {
  return ImageBackupBody(filer, fs, std::move(target), std::move(options),
                         delete_snapshot_after, "Physical backup", result,
                         done);
}

Task RemoteImageRestoreJob(Filer* filer, Volume* volume, RemoteTarget target,
                           ImageRestoreJobResult* result,
                           CountdownLatch* done) {
  return ImageRestoreBody(filer, volume, std::move(target), result, done);
}

Task RemoteSingleFileRestoreJob(Filer* filer, Filesystem* fs,
                                RemoteTarget target,
                                const TapeCatalog* catalog,
                                std::string path,  // by value: outlives spawn
                                LogicalRestoreOptions options,
                                bool bypass_nvram, LinkBudget* budget,
                                RemoteSingleFileRestoreResult* result,
                                CountdownLatch* done) {
  SimEnvironment* env = filer->env();
  JobReport& report = result->report;
  OpenReport(&report, filer, "Remote single-file restore");
  if (catalog == nullptr) {
    report.status = InvalidArgument("single-file restore needs a catalog");
    done->CountDown();
    co_return;
  }
  // Single-media only: the ranged reads address the mounted tape directly.
  // With content stages, the tape holds the wire image: it is decoded for
  // the name table and the engine, while budget and link accounting below
  // move to post-stage wire coordinates.
  target.spare_tapes.clear();
  MediaImage media;
  const Status read = ReadMedia(target, &media, &report.content);
  result->full_stream_bytes = media.media.size();
  if (!read.ok()) {
    report.status = read;
    done->CountDown();
    co_return;
  }
  // Catalog ranges are raw; what the link will move is their frame-aligned
  // wire cover.
  auto LinkSizeOf = [&](const std::vector<StreamRange>& raw_ranges) {
    uint64_t total = 0;
    for (const StreamRange& r :
         media.content_map != nullptr
             ? media.content_map->WireRangesOf(raw_ranges)
             : raw_ranges) {
      total += r.size();
    }
    return total;
  };

  // Reserve the link allowance up front from the catalog's estimate — the
  // ranges the restore will pull, known before any byte moves.
  uint64_t estimate = 0;
  {
    Result<RestoreCatalog> names = BuildRestoreCatalog(media.raw);
    if (!names.ok()) {
      report.status = names.status();
      done->CountDown();
      co_return;
    }
    Result<Inum> selected = names->Namei(path);
    if (!selected.ok()) {
      report.status = selected.status();
      done->CountDown();
      co_return;
    }
    const std::vector<Inum> wanted = names->Descendants(*selected);
    estimate = LinkSizeOf(catalog->RestoreRanges(wanted));
  }
  if (budget != nullptr && !budget->TryReserve(estimate)) {
    result->budget_rejected = true;
    report.status = Exhausted("link budget rejected single-file restore");
    done->CountDown();
    co_return;
  }

  options.select = {path};
  options.catalog = catalog;
  fs->MarkCpCounters();
  Result<LogicalRestoreOutput> restored =
      RunLogicalRestore(fs, media.raw, options);
  if (!restored.ok()) {
    if (budget != nullptr) {
      budget->Cancel(estimate);
    }
    report.status = restored.status();
    done->CountDown();
    co_return;
  }
  result->restore = std::move(*restored);

  ReplayConfig cfg{.filer = filer,
                   .volume = fs->volume(),
                   .endpoint = &target,
                   .charge_nvram = !bypass_nvram,
                   .write_meta_multiplier = MetaMultiplier(fs),
                   .content_map = media.content_map};
  CountdownLatch replay_done(env, 1);
  env->Spawn(ReplayRestore(cfg, &result->restore.trace, media.media,
                           result->restore.consumed_ranges, &report,
                           &replay_done));
  co_await replay_done.Wait();

  result->link_bytes = LinkSizeOf(result->restore.consumed_ranges);
  if (budget != nullptr) {
    budget->Commit(estimate, result->link_bytes);
  }

  CloseReport(&report, filer);
  report.data_bytes = result->restore.stats.bytes_restored;
  done->CountDown();
}

Task ParallelRemoteImageBackupJob(Filer* filer, Filesystem* fs, NetLink* link,
                                  TapeServer* server,
                                  std::vector<TapeDrive*> drives,
                                  ImageDumpOptions base_options,
                                  bool delete_snapshot_after,
                                  const SupervisionPolicy* supervision,
                                  ParallelRemoteImageBackupResult* result,
                                  CountdownLatch* done, BackupQos qos,
                                  ContentConfig content) {
  std::vector<StreamEndpoint> parts;
  for (TapeDrive* drive : drives) {
    parts.push_back({.link = link,
                     .server = server,
                     .drive = drive,
                     .spare_tapes = {},
                     .supervision = supervision,
                     .qos = qos,
                     .content = content});
  }
  return ParallelImageBackupBody(filer, fs, std::move(parts),
                                 std::move(base_options),
                                 delete_snapshot_after, result, done);
}

}  // namespace bkup
