// RunJob: one body per engine and direction, run over one StreamEndpoint by
// a single job and by each part of a parallel job alike, local or remote.
#include "src/backup/jobs.h"

#include <cctype>
#include <optional>
#include <set>
#include <type_traits>

#include "src/backup/replay.h"
#include "src/net/link.h"
#include "src/obs/trace.h"
#include "src/util/stream_buffer.h"

namespace bkup {

namespace {

// A killed logical restore process is restarted (after reboot-scale
// backoff) and resumed from the catalog diff, up to max_attempts
// incarnations.
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
    size_t total = out->media.size();
    for (const Tape* t : ep.spare_tapes) {
      total += t->contents().size();
    }
    ReserveBytes(&out->spliced, total);
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

// Ends a job that cannot start, with `st` in its report.
Task EndWith(JobReport* report, Status st, CountdownLatch* done) {
  report->status = std::move(st);
  done->CountDown();
  co_return;
}

// A spec's shape: one endpoint per part, and one tree per part of a
// parallel logical job. Checked in every build type: NDEBUG compiles
// `assert` out, and a bad spec would index past its vectors.
Status CheckShape(const JobSpec& spec, bool parallel, bool per_part_trees) {
  if (spec.endpoints.empty()) {
    return InvalidArgument("job has no endpoint");
  }
  if (!parallel && spec.endpoints.size() != 1) {
    return InvalidArgument("a single job takes one endpoint");
  }
  if (spec.trees.size() != (per_part_trees ? spec.endpoints.size() : 0)) {
    return InvalidArgument(per_part_trees
                               ? "a parallel logical job takes one tree per "
                                 "endpoint"
                               : "only a parallel logical job takes trees");
  }
  if (parallel && spec.logical_restore.kill != nullptr) {
    return InvalidArgument(
        "a parallel restore's parts share one file system: no kill hook");
  }
  return Status::Ok();
}

// Creates a backup's snapshot and charges the phase; `*created` says whether
// this job made it. A logical dump always creates its own, so a name in use
// fails the job; an image dump reuses one that exists, so several jobs can
// share one quiesce point.
Task OpenSnapshot(Filer* filer, Filesystem* fs, const std::string& name,
                  bool reuse, int priority, JobReport* report, bool* created) {
  *created = !reuse || !fs->FindSnapshot(name).ok();
  if (!*created) {
    co_return;
  }
  report->status = fs->CreateSnapshot(name);
  if (report->status.ok()) {
    co_await SnapshotPhase(filer, report, JobPhase::kCreateSnapshot,
                           filer->model().snapshot_create_time, priority);
  }
}

// Deletes the snapshot a backup created and charges the phase.
Task CloseSnapshot(Filer* filer, Filesystem* fs, const std::string& name,
                   int priority, JobReport* report) {
  KeepFirstError(report, fs->DeleteSnapshot(name));
  co_await SnapshotPhase(filer, report, JobPhase::kDeleteSnapshot,
                         filer->model().snapshot_delete_time, priority);
}

// The dump engines, picked by the options type. The logical engine reads
// the snapshot through `*reader`, which the job keeps until it ends: freed
// right after the dump, it lets malloc trim the heap the dump grew, and the
// replay then faults those pages back in.
Result<LogicalDumpOutput> Dump(Filesystem* fs,
                               const LogicalDumpOptions& options,
                               std::optional<FsReader>* reader) {
  BKUP_ASSIGN_OR_RETURN(FsReader opened,
                        fs->SnapshotReader(options.snapshot_name));
  return RunLogicalDump(reader->emplace(std::move(opened)), options);
}

Result<ImageDumpOutput> Dump(Filesystem* fs, const ImageDumpOptions& options,
                             std::optional<FsReader>* /*reader*/) {
  return RunImageDump(fs->volume(), options);
}

LogicalDumpOptions& DumpOptions(JobSpec* spec, LogicalBackupJobResult*) {
  return spec->logical_dump;
}

ImageDumpOptions& DumpOptions(JobSpec* spec, ImageBackupJobResult*) {
  return spec->image_dump;
}

uint64_t DataBytes(const LogicalDumpOutput& dump) {
  return dump.stats.data_blocks * kBlockSize;
}

uint64_t DataBytes(const ImageDumpOutput& dump) {
  return dump.stats.blocks_dumped * kBlockSize;
}

// Snapshot create -> dump -> replay over the spec's endpoint [-> snapshot
// delete]. A part of a parallel backup dumps from its control job's
// snapshot and leaves it alone.
template <typename R>
Task BackupBody(Filer* filer, JobSpec spec, std::string name, bool part,
                R* result, CountdownLatch* done) {
  constexpr bool kLogical = std::is_same_v<R, LogicalBackupJobResult>;
  SimEnvironment* env = filer->env();
  Filesystem* fs = spec.fs;
  const StreamEndpoint& ep = spec.endpoints.front();
  auto& options = DumpOptions(&spec, result);
  JobReport& report = result->report;
  OpenReport(&report, filer, JobName(ep, std::move(name)));
  bool created = false;
  if (!part) {
    if (options.snapshot_name.empty()) {
      options.snapshot_name = std::string(kLogical ? "dump" : "image") +
                              (ep.link == nullptr ? ".auto" : ".remote");
    }
    co_await OpenSnapshot(filer, fs, options.snapshot_name,
                          /*reuse=*/!kLogical, ep.qos.io_priority, &report,
                          &created);
    if (!report.status.ok()) {
      done->CountDown();
      co_return;
    }
  }

  options.dump_time = env->now();
  std::optional<FsReader> reader;
  auto dump = Dump(fs, options, &reader);
  if (!dump.ok()) {
    report.status = dump.status();
    done->CountDown();
    co_return;
  }
  result->dump = std::move(*dump);
  if constexpr (kLogical) {
    report.faults.files_skipped += result->dump.stats.files_skipped;
  }

  ReplayConfig cfg{.filer = filer, .volume = fs->volume(), .endpoint = &ep};
  CountdownLatch replay_done(env, 1);
  env->Spawn(ReplayBackup(cfg, &result->dump.trace, result->dump.stream,
                          &report, &replay_done));
  co_await replay_done.Wait();

  if (created && spec.delete_snapshot_after) {
    co_await CloseSnapshot(filer, fs, options.snapshot_name,
                           ep.qos.io_priority, &report);
  }
  CloseReport(&report, filer);
  report.data_bytes = DataBytes(result->dump);
  done->CountDown();
}

// Reserves on `budget` the link bytes a selective restore will move, known
// before any byte moves: the frame-aligned wire cover of the catalog's plan
// for the selection, the same plan the engine reads by. kExhausted when the
// budget refuses them.
Status ReserveSelection(LinkBudget* budget, const MediaImage& media,
                        const LogicalRestoreOptions& options,
                        uint64_t* reserved) {
  BKUP_ASSIGN_OR_RETURN(RestoreCatalog names, BuildRestoreCatalog(media.raw));
  BKUP_ASSIGN_OR_RETURN(std::set<Inum> wanted, names.Select(options.select));
  std::vector<StreamRange> ranges = options.catalog->RestoreRanges(
      [&wanted](const TapeCatalog::Entry& file, size_t /*records*/) {
        return wanted.count(file.inum) != 0;
      });
  if (media.content_map != nullptr) {
    ranges = media.content_map->WireRangesOf(ranges);
  }
  uint64_t total = 0;
  for (const StreamRange& r : ranges) {
    total += r.size();
  }
  if (!budget->TryReserve(total)) {
    return Exhausted("link budget rejected the restore");
  }
  *reserved = total;
  return Status::Ok();
}

// Adds one incarnation's engine accounting to a killable restore's report;
// only a resumed incarnation's consumed bytes count as replayed.
void AddResume(const LogicalRestoreStats& stats, bool resumed,
               ResumeStats* resume) {
  resume->bytes_skipped += stats.bytes_skipped;
  resume->entries_skipped += stats.entries_skipped;
  resume->checkpoints += stats.checkpoints;
  if (resumed) {
    resume->bytes_replayed += stats.bytes_replayed;
  }
}

// Crash-reboot of a killed restore: mounts `volume`'s last consistency
// point as the file system the restore's later incarnations write into.
Status Remount(Volume* volume, SimEnvironment* env,
               LogicalRestoreJobResult* result) {
  BKUP_ASSIGN_OR_RETURN(result->remounted, Filesystem::Mount(volume, env));
  return Status::Ok();
}

// The endpoint's media -> functional logical restore -> replay through the
// file system. A restore with a catalog and a selection or a kill hook
// replays only the ranges the engine consumed, read off the mounted tape
// alone (ranged reads never address a spanned set); a selective one
// settles the spec's budget to what the replay moved. A killed run is
// restarted on kRestartRetry: the file system is remounted from its volume
// and the engine resumes from the catalog diff, each incarnation a span of
// one trace.
Task LogicalRestoreBody(Filer* filer, JobSpec spec, std::string name,
                        LogicalRestoreJobResult* result,
                        CountdownLatch* done) {
  SimEnvironment* env = filer->env();
  StreamEndpoint& ep = spec.endpoints.front();
  LogicalRestoreOptions& options = spec.logical_restore;
  JobReport& report = result->report;
  OpenReport(&report, filer,
             JobName(ep, spec.bypass_nvram ? name + " (NVRAM bypass)" : name));
  const bool killable = options.kill != nullptr;
  const bool selective = options.catalog != nullptr && !options.select.empty();
  const bool ranged = selective || (options.catalog != nullptr && killable);
  LinkBudget* budget = selective ? spec.budget : nullptr;
  if (ranged) {
    ep.spare_tapes.clear();
  }
  MediaImage media;
  if (Status st = ReadMedia(ep, &media, &report.content); !st.ok()) {
    report.status = st;
    done->CountDown();
    co_return;
  }
  uint64_t reserved = 0;
  if (budget != nullptr) {
    report.status = ReserveSelection(budget, media, options, &reserved);
    if (!report.status.ok()) {
      done->CountDown();
      co_return;
    }
  }
  // Only a killable restore traces its incarnations: ctx stays invalid
  // otherwise.
  TraceContext ctx;
  if (killable && env->tracer() != nullptr) {
    ctx = env->tracer()->StartTrace();
  }
  while (true) {
    std::optional<ScopedTraceSpan> incarnation;
    if (ctx.valid()) {
      incarnation.emplace(env->tracer(), ("job:" + report.name).c_str(),
                          "incarnation#" + std::to_string(result->attempts),
                          ctx);
    }
    options.resume = options.resume || result->attempts > 0;
    ++result->attempts;
    spec.fs->MarkCpCounters();
    Result<LogicalRestoreOutput> restored =
        RunLogicalRestore(spec.fs, media.raw, options);
    if (!restored.ok()) {
      report.status = restored.status();
      break;
    }
    result->restore = std::move(*restored);
    report.data_bytes += result->restore.stats.bytes_restored;
    if (killable) {
      AddResume(result->restore.stats, result->attempts > 1, &report.resume);
    }

    ReplayConfig cfg{.filer = filer,
                     .volume = spec.fs->volume(),
                     .endpoint = &ep,
                     .charge_nvram = !spec.bypass_nvram,
                     .write_meta_multiplier = MetaMultiplier(spec.fs),
                     .content_map = media.content_map};
    CountdownLatch replay_done(env, 1);
    env->Spawn(ReplayRestore(
        cfg, &result->restore.trace, media.media,
        ranged ? result->restore.consumed_ranges : std::vector<StreamRange>{},
        &report, &replay_done));
    co_await replay_done.Wait();
    if (!result->restore.interrupted) {
      break;
    }
    // The process died mid-stream: reboot, back off on the restart
    // schedule, remount the last consistency point and resume.
    report.resume.resumes++;
    if (ctx.valid()) {
      env->tracer()->Instant(env->tracer()->Track("faults"), "restore.kill",
                             ctx);
    }
    ctx = ctx.NextIncarnation();
    if (result->attempts >= kRestartRetry.max_attempts) {
      report.status = Exhausted("restore restart budget exhausted");
      break;
    }
    co_await env->Delay(kRestartRetry.BackoffBefore(result->attempts));
    report.status = Remount(spec.fs->volume(), env, result);
    if (!report.status.ok()) {
      break;
    }
    spec.fs = result->remounted.get();
  }
  if (budget != nullptr) {
    budget->Commit(reserved, report.stream_bytes);
  }

  CloseReport(&report, filer);
  done->CountDown();
}

// The endpoint's media -> image restore straight through the RAID layer.
Task ImageRestoreBody(Filer* filer, JobSpec spec, std::string name,
                      ImageRestoreJobResult* result, CountdownLatch* done) {
  SimEnvironment* env = filer->env();
  const StreamEndpoint& ep = spec.endpoints.front();
  JobReport& report = result->report;
  OpenReport(&report, filer, JobName(ep, std::move(name)));
  MediaImage media;
  if (Status st = ReadMedia(ep, &media, &report.content); !st.ok()) {
    report.status = st;
    done->CountDown();
    co_return;
  }
  Result<ImageRestoreOutput> restored = RunImageRestore(spec.volume, media.raw);
  if (!restored.ok()) {
    report.status = restored.status();
    done->CountDown();
    co_return;
  }
  result->restore = std::move(*restored);

  // "bypass the NVRAM ... further enhancing performance"
  ReplayConfig cfg{.filer = filer,
                   .volume = spec.volume,
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

template <typename Part>
constexpr bool kLogicalPart = std::is_same_v<Part, LogicalBackupJobResult> ||
                              std::is_same_v<Part, LogicalRestoreJobResult>;
template <typename Part>
constexpr bool kBackupPart = std::is_same_v<Part, LogicalBackupJobResult> ||
                             std::is_same_v<Part, ImageBackupJobResult>;

// A parallel job: a backup's control job takes one shared snapshot (a
// logical restore makes its parts' target directories), part k runs over
// endpoints[k], and the part reports are merged.
template <typename Part>
Task ParallelBody(Filer* filer, JobSpec spec, ParallelJobResult<Part>* result,
                  CountdownLatch* done) {
  constexpr bool kLogical = kLogicalPart<Part>;
  constexpr bool kBackup = kBackupPart<Part>;
  SimEnvironment* env = filer->env();
  const size_t n = spec.endpoints.size();
  const bool remote = spec.endpoints.front().link != nullptr;
  const int priority = spec.endpoints.front().qos.io_priority;
  const std::string title = std::string("Parallel ") +
                            (remote ? "remote " : "") +
                            (kLogical ? "logical" : "physical") +
                            (kBackup ? " backup" : " restore");
  JobReport& control = result->control;
  std::string snap;
  bool created = false;
  if constexpr (kBackup) {
    OpenReport(&control, filer, title + " (control)");
    snap = DumpOptions(&spec, static_cast<Part*>(nullptr)).snapshot_name;
    if (snap.empty()) {
      snap = std::string(kLogical ? "dump" : "image") +
             (remote ? ".remote" : "") + ".parallel";
    }
    co_await OpenSnapshot(filer, spec.fs, snap, /*reuse=*/!kLogical,
                          priority, &control, &created);
    if (!control.status.ok()) {
      result->merged.status = control.status;
      done->CountDown();
      co_return;
    }
  } else if constexpr (kLogical) {
    for (const std::string& dir : spec.trees) {
      if (dir != "/" && !spec.fs->LookupPath(dir).ok()) {
        if (Result<Inum> made = spec.fs->Mkdir(dir, 0755); !made.ok()) {
          result->merged.status = made.status();
          done->CountDown();
          co_return;
        }
      }
    }
  }

  CountdownLatch parts_done(env, static_cast<int>(n));
  for (size_t k = 0; k < n; ++k) {
    JobSpec part = spec;
    part.endpoints = {spec.endpoints[k]};
    part.trees.clear();
    const std::string tree = kLogical ? " [" + spec.trees[k] + "]" : "";
    const std::string stripe =
        " [part " + std::to_string(k) + "/" + std::to_string(n) + "]";
    result->parts.push_back(std::make_unique<Part>());
    Part* out = result->parts.back().get();
    if constexpr (std::is_same_v<Part, LogicalBackupJobResult>) {
      part.logical_dump.snapshot_name = snap;
      part.logical_dump.subtree = spec.trees[k];
      env->Spawn(BackupBody(filer, std::move(part), "Logical backup" + tree,
                            /*part=*/true, out, &parts_done));
    } else if constexpr (std::is_same_v<Part, ImageBackupJobResult>) {
      part.image_dump.snapshot_name = snap;
      part.image_dump.part_index = static_cast<uint32_t>(k);
      part.image_dump.part_count = static_cast<uint32_t>(n);
      env->Spawn(BackupBody(filer, std::move(part), "Physical backup" + stripe,
                            /*part=*/true, out, &parts_done));
    } else if constexpr (std::is_same_v<Part, LogicalRestoreJobResult>) {
      part.logical_restore.target_dir = spec.trees[k];
      env->Spawn(LogicalRestoreBody(filer, std::move(part),
                                    "Logical restore" + tree, out,
                                    &parts_done));
    } else {
      env->Spawn(ImageRestoreBody(filer, std::move(part),
                                  "Physical restore" + stripe, out,
                                  &parts_done));
    }
  }
  co_await parts_done.Wait();

  if (created && spec.delete_snapshot_after) {
    co_await CloseSnapshot(filer, spec.fs, snap, priority, &control);
  }
  std::vector<JobReport> reports;
  if constexpr (kBackup) {
    CloseReport(&control, filer);
    reports.push_back(control);
  }
  for (const auto& p : result->parts) {
    reports.push_back(p->report);
  }
  result->merged = MergeReports(title, reports);
  done->CountDown();
}

}  // namespace

Task RunJob(Filer* filer, const JobSpec& spec, LogicalBackupJobResult* result,
            CountdownLatch* done) {
  if (Status st = CheckShape(spec, false, false); !st.ok()) {
    return EndWith(&result->report, st, done);
  }
  return BackupBody(filer, spec, "Logical backup", /*part=*/false, result,
                    done);
}

Task RunJob(Filer* filer, const JobSpec& spec, LogicalRestoreJobResult* result,
            CountdownLatch* done) {
  if (Status st = CheckShape(spec, false, false); !st.ok()) {
    return EndWith(&result->report, st, done);
  }
  return LogicalRestoreBody(filer, spec, "Logical restore", result, done);
}

Task RunJob(Filer* filer, const JobSpec& spec, ImageBackupJobResult* result,
            CountdownLatch* done) {
  if (Status st = CheckShape(spec, false, false); !st.ok()) {
    return EndWith(&result->report, st, done);
  }
  return BackupBody(filer, spec, "Physical backup", /*part=*/false, result,
                    done);
}

Task RunJob(Filer* filer, const JobSpec& spec, ImageRestoreJobResult* result,
            CountdownLatch* done) {
  if (Status st = CheckShape(spec, false, false); !st.ok()) {
    return EndWith(&result->report, st, done);
  }
  return ImageRestoreBody(filer, spec, "Physical restore", result, done);
}

template <typename Part>
Task RunJob(Filer* filer, const JobSpec& spec, ParallelJobResult<Part>* result,
            CountdownLatch* done) {
  if (Status st = CheckShape(spec, true, kLogicalPart<Part>); !st.ok()) {
    return EndWith(&result->merged, st, done);
  }
  return ParallelBody(filer, spec, result, done);
}

template Task RunJob(Filer*, const JobSpec&,
                     ParallelJobResult<LogicalBackupJobResult>*,
                     CountdownLatch*);
template Task RunJob(Filer*, const JobSpec&,
                     ParallelJobResult<LogicalRestoreJobResult>*,
                     CountdownLatch*);
template Task RunJob(Filer*, const JobSpec&,
                     ParallelJobResult<ImageBackupJobResult>*,
                     CountdownLatch*);
template Task RunJob(Filer*, const JobSpec&,
                     ParallelJobResult<ImageRestoreJobResult>*,
                     CountdownLatch*);

}  // namespace bkup
