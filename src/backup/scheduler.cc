#include "src/backup/scheduler.h"

#include <algorithm>
#include <cassert>
#include <cstdarg>
#include <cstdio>
#include <optional>

#include "src/obs/json.h"

namespace bkup {

namespace {

bool IsLogical(BackupMode mode) {
  return mode == BackupMode::kLogicalFull ||
         mode == BackupMode::kLogicalIncremental;
}

bool IsRemote(BackupMode mode) { return mode == BackupMode::kRemoteImage; }

// A logical dump's quota trees partition the volume, so the part count is
// fixed: either exactly subtrees.size() drives or a single whole-tree dump.
// Image dumps stripe, so they flex between one drive and the configured
// parallelism.
uint32_t MinDrivesFor(const VolumeSpec& spec) {
  if (IsLogical(spec.mode) && !spec.subtrees.empty()) {
    return static_cast<uint32_t>(spec.subtrees.size());
  }
  return 1;
}

uint32_t MaxDrivesFor(const VolumeSpec& spec) {
  if (IsLogical(spec.mode)) {
    return MinDrivesFor(spec);
  }
  return spec.parallelism > 0 ? spec.parallelism : 1;
}

constexpr SimTime kNoDeadline = std::numeric_limits<SimTime>::max();

// Planning model: assumed per-drive stream rate and fixed per-job cost
// (media load + snapshot bookkeeping) behind every estimate.
constexpr double kPlanningMBps = 9.0;
constexpr SimDuration kPlanningFixedCost = 80 * kSecond;
// Remount spares drawn from the library per local drive per dispatch.
constexpr uint32_t kSpareMediaPerJob = 1;
// A volume whose first attempt fails is re-dispatched once.
constexpr int kMaxAttemptsPerVolume = 2;

void AppendLine(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out->append(buf);
}

}  // namespace

const char* BackupModeName(BackupMode mode) {
  switch (mode) {
    case BackupMode::kLogicalFull:
      return "logical-full";
    case BackupMode::kLogicalIncremental:
      return "logical-incremental";
    case BackupMode::kImage:
      return "image";
    case BackupMode::kRemoteImage:
      return "remote-image";
  }
  return "unknown";
}

NightlyScheduler::NightlyScheduler(Filer* filer, FleetConfig config,
                                   std::vector<VolumeSpec> volumes)
    : filer_(filer),
      config_(std::move(config)),
      volumes_(std::move(volumes)) {
  assert(filer_ != nullptr);
  assert(!config_.drives.empty());
  assert(config_.library != nullptr);
  for (const VolumeSpec& v : volumes_) {
    assert(v.fs != nullptr);
    if (IsRemote(v.mode)) {
      assert(config_.link != nullptr && config_.server != nullptr &&
             "remote volume in a fleet without a link/tape server");
    }
    (void)v;
  }
}

SimDuration NightlyScheduler::EstimatedDuration(const VolumeSpec& spec,
                                                uint32_t drives) const {
  if (drives == 0) {
    drives = 1;
  }
  const double bytes_per_s =
      kPlanningMBps * 1e6 * static_cast<double>(drives);
  return SecondsToSim(static_cast<double>(spec.estimated_bytes) /
                      bytes_per_s) +
         kPlanningFixedCost;
}

SimTime NightlyScheduler::LatestFeasibleStart(const VolumeSpec& spec) const {
  if (spec.deadline == kNoDeadline) {
    return kNoDeadline;
  }
  return spec.deadline - EstimatedDuration(spec, MinDrivesFor(spec));
}

bool NightlyScheduler::QueueBefore(size_t a, size_t b) const {
  const VolumeSpec& va = volumes_[a];
  const VolumeSpec& vb = volumes_[b];
  if (va.priority != vb.priority) {
    return va.priority > vb.priority;
  }
  if (va.deadline != vb.deadline) {
    return va.deadline < vb.deadline;
  }
  if (va.name != vb.name) {
    return va.name < vb.name;
  }
  return a < b;
}

std::vector<size_t> NightlyScheduler::Queue() const {
  std::vector<size_t> queue;
  for (size_t v = 0; v < volumes_.size(); ++v) {
    if (MinDrivesFor(volumes_[v]) <= config_.drives.size()) {
      queue.push_back(v);
    }
  }
  std::sort(queue.begin(), queue.end(),
            [this](size_t a, size_t b) { return QueueBefore(a, b); });
  return queue;
}

// ------------------------------------------------------------- dispatch ---

void NightlyScheduler::DispatchPass(SimTime now, std::vector<size_t>* pending,
                                    const DispatchSite& site) const {
  const int ndrv = static_cast<int>(config_.drives.size());
  bool progress = true;
  while (progress) {
    progress = false;
    std::vector<int> idle;
    for (int d = 0; d < ndrv; ++d) {
      if (site.drive(d) == DriveState::kIdle) {
        idle.push_back(d);
      }
    }
    if (idle.empty()) {
      break;
    }
    std::vector<size_t> parked;
    for (auto it = pending->begin(); it != pending->end(); ++it) {
      const size_t v = *it;
      const VolumeSpec& spec = volumes_[v];
      const uint32_t max_d = MaxDrivesFor(spec);

      // Affinity: take the volume's drive when it is free; while it is busy,
      // wait until the latest feasible start, then fall back to any drive.
      int aff = spec.affinity_drive;
      if (aff >= ndrv || (aff >= 0 && site.drive(aff) == DriveState::kGone)) {
        aff = -1;  // a dead affinity drive releases the volume to the pool
      }
      std::vector<int> take;
      if (aff >= 0 && site.drive(aff) == DriveState::kIdle) {
        take.push_back(aff);
      } else if (aff >= 0 && now < LatestFeasibleStart(spec)) {
        parked.push_back(v);
        continue;
      }
      for (int d : idle) {
        if (d != aff && take.size() < max_d) {
          take.push_back(d);
        }
      }
      if (take.size() < MinDrivesFor(spec)) {
        parked.push_back(v);
        continue;
      }

      const Admission admission = site.admit(v);
      if (admission == Admission::kDrop) {
        pending->erase(it);
        progress = true;
        break;
      }
      if (admission == Admission::kPark) {
        parked.push_back(v);
        continue;
      }

      // Backfill past a parked volume only if this one's estimated finish
      // precedes every parked volume's latest feasible start.
      const SimDuration est =
          EstimatedDuration(spec, static_cast<uint32_t>(take.size()));
      const bool backfill = !parked.empty();
      if (backfill &&
          std::any_of(parked.begin(), parked.end(), [&](size_t u) {
            return now + est > LatestFeasibleStart(volumes_[u]);
          })) {
        site.cancel(v);
        parked.push_back(v);
        continue;
      }
      pending->erase(it);
      site.start(v, take, backfill, est);
      progress = true;
      break;
    }
  }
}

// ----------------------------------------------------------------- plan ---

NightPlan NightlyScheduler::BuildPlan() const {
  NightPlan plan;
  std::vector<SimTime> free_at(config_.drives.size(), 0);
  std::vector<size_t> pending = Queue();

  // Plan-time link accounting: dispatched remote estimates never come back,
  // so a rejection is permanent and the volume is left out of the plan.
  uint64_t planned_link_bytes = 0;

  SimTime t = 0;
  const DispatchSite site{
      .drive =
          [&](int d) {
            return free_at[d] <= t ? DriveState::kIdle : DriveState::kBusy;
          },
      .admit =
          [&](size_t v) {
            const VolumeSpec& spec = volumes_[v];
            const bool over_budget =
                IsRemote(spec.mode) && config_.budget != nullptr &&
                !config_.budget->unlimited() &&
                planned_link_bytes + spec.estimated_bytes >
                    config_.budget->nightly_bytes();
            return over_budget ? Admission::kDrop : Admission::kAdmit;
          },
      .cancel = [](size_t) {},
      .start =
          [&](size_t v, const std::vector<int>& take, bool backfill,
              SimDuration est) {
            for (int d : take) {
              free_at[d] = t + est;
              plan.assignments.push_back(
                  PlannedAssignment{v, d, t, est, backfill});
            }
            if (IsRemote(volumes_[v].mode)) {
              planned_link_bytes += volumes_[v].estimated_bytes;
            }
          },
  };

  DispatchPass(t, &pending, site);
  while (!pending.empty()) {
    // Advance to the next decision point: a drive freeing, or a parked
    // affinity-waiter crossing its latest feasible fallback start.
    SimTime next = kNoDeadline;
    for (SimTime f : free_at) {
      if (f > t) {
        next = std::min(next, f);
      }
    }
    for (size_t v : pending) {
      const VolumeSpec& spec = volumes_[v];
      if (spec.affinity_drive >= 0 && spec.deadline != kNoDeadline) {
        const SimTime lfs = LatestFeasibleStart(spec);
        if (lfs > t) {
          next = std::min(next, lfs);
        }
      }
    }
    assert(next != kNoDeadline && "plan stuck with idle drives");
    t = next;
    DispatchPass(t, &pending, site);
  }
  for (SimTime f : free_at) {
    plan.projected_makespan = std::max(plan.projected_makespan, f);
  }
  return plan;
}

std::string NightPlan::Serialize(
    const std::vector<VolumeSpec>& volumes) const {
  std::string out = "nightplan v1\n";
  for (const PlannedAssignment& a : assignments) {
    AppendLine(&out, "assign %s drive=%d start=%lld est=%lld backfill=%d\n",
               volumes[a.volume].name.c_str(), a.drive,
               static_cast<long long>(a.start),
               static_cast<long long>(a.estimated), a.backfill ? 1 : 0);
  }
  AppendLine(&out, "makespan %lld\n",
             static_cast<long long>(projected_makespan));
  return out;
}

// ------------------------------------------------------------ execution ---

struct NightlyScheduler::Completion {
  bool timer = false;
  size_t vol = 0;
  int attempt = 0;
  std::vector<int> drive_idx;
  std::vector<Status> part_status;  // parallel to drive_idx
  std::vector<std::vector<std::string>> part_media;
  JobReport merged;
  bool ok = false;
  SimTime started = 0;
  uint64_t link_reservation = 0;
};

Task NightlyScheduler::Waker(SimDuration delay,
                             Channel<Completion>* completions) {
  co_await filer_->env()->Delay(delay);
  Completion tick;
  tick.timer = true;
  co_await completions->Send(std::move(tick));
}

namespace {

// Joins a timed media load into a latch (TimedLoadMedia is a bare Task).
Task LoadOne(TapeDrive* drive, Tape* tape, CountdownLatch* latch) {
  co_await drive->TimedLoadMedia(tape);
  latch->CountDown();
}

// Runs one attempt's job, spawned as its own process, and keeps the merged
// report and each part's status and final media in `c`. `Part` picks the
// engine.
template <typename Part, typename Completion>
Task RunVolumeJob(Filer* filer, JobSpec job, Completion* c) {
  ParallelJobResult<Part> result;
  CountdownLatch done(filer->env(), 1);
  filer->env()->Spawn(RunJob(filer, job, &result, &done));
  co_await done.Wait();
  c->merged = result.merged;
  for (const auto& p : result.parts) {
    c->part_status.push_back(p->report.status);
    c->part_media.push_back(p->report.final_media);
  }
}

}  // namespace

Task NightlyScheduler::RunOne(size_t vol, int attempt,
                              std::vector<int> drive_idx,
                              std::vector<Tape*> primaries,
                              std::vector<std::vector<Tape*>> spares,
                              uint64_t link_reservation,
                              Channel<Completion>* completions) {
  SimEnvironment* env = filer_->env();
  const VolumeSpec& spec = volumes_[vol];

  Completion c;
  c.vol = vol;
  c.attempt = attempt;
  c.drive_idx = drive_idx;
  c.started = env->now();
  c.link_reservation = link_reservation;

  std::vector<TapeDrive*> drives;
  for (int d : drive_idx) {
    drives.push_back(config_.drives[d]);
  }

  // Every attempt mounts fresh media, all drives loading concurrently (the
  // stackers work in parallel; the job starts when the last one is ready).
  CountdownLatch loads(env, static_cast<int>(drives.size()));
  for (size_t k = 0; k < drives.size(); ++k) {
    env->Spawn(LoadOne(drives[k], primaries[k], &loads));
  }
  co_await loads.Wait();

  const std::string snap =
      "nightly." + spec.name + ".a" + std::to_string(attempt);
  JobSpec job{.fs = spec.fs};
  const bool remote = IsRemote(spec.mode);
  for (size_t k = 0; k < drives.size(); ++k) {
    job.endpoints.push_back({.link = remote ? config_.link : nullptr,
                             .server = remote ? config_.server : nullptr,
                             .drive = drives[k],
                             .spare_tapes = std::move(spares[k]),
                             .supervision = config_.supervision});
  }
  if (IsLogical(spec.mode)) {
    job.logical_dump.level = spec.level;
    job.logical_dump.base_time =
        spec.mode == BackupMode::kLogicalIncremental ? spec.base_time : 0;
    job.logical_dump.volume_name = spec.name;
    job.logical_dump.snapshot_name = snap;
    job.trees = spec.subtrees;
    if (job.trees.empty()) {
      job.trees.push_back("/");
    }
    co_await RunVolumeJob<LogicalBackupJobResult>(filer_, std::move(job), &c);
  } else {
    job.image_dump.snapshot_name = snap;
    co_await RunVolumeJob<ImageBackupJobResult>(filer_, std::move(job), &c);
  }

  c.ok = c.merged.status.ok();
  for (const Status& st : c.part_status) {
    c.ok = c.ok && st.ok();
  }
  co_await completions->Send(std::move(c));
}

Task NightlyScheduler::Run(NightReport* report, CountdownLatch* done) {
  SimEnvironment* env = filer_->env();
  const size_t nvol = volumes_.size();
  const size_t ndrv = config_.drives.size();

  report->night_start = env->now();
  report->volumes.resize(nvol);
  report->drives.resize(ndrv);
  std::vector<int64_t> busy0(ndrv);
  for (size_t d = 0; d < ndrv; ++d) {
    report->drives[d].name = config_.drives[d]->name();
    busy0[d] = config_.drives[d]->unit().BusyIntegral();
  }
  for (size_t v = 0; v < nvol; ++v) {
    VolumeOutcome& out = report->volumes[v];
    out.name = volumes_[v].name;
    out.mode = volumes_[v].mode;
    out.enqueued = report->night_start;
  }

  struct VState {
    int attempts = 0;
    bool dispatched_once = false;
    bool budget_wait_counted = false;
  };
  std::vector<VState> vs(nvol);
  std::vector<bool> busy(ndrv, false);
  std::vector<bool> healthy(ndrv, true);
  std::vector<std::vector<size_t>> open_grants(nvol);

  std::vector<size_t> pending = Queue();

  Channel<Completion> completions(env, nvol + 8);
  size_t running = 0;
  size_t wakers = 0;

  // Deadline-fallback boundaries are the one dispatch trigger that is not a
  // completion: an affinity-waiter becomes willing to take any drive when
  // its latest feasible start passes. Arm one rescan tick per such volume.
  for (size_t v = 0; v < nvol; ++v) {
    const VolumeSpec& spec = volumes_[v];
    if (spec.affinity_drive >= 0 && spec.deadline != kNoDeadline) {
      const SimTime lfs = LatestFeasibleStart(spec);
      if (lfs > env->now()) {
        env->Spawn(Waker(lfs - env->now(), &completions));
        ++wakers;
      }
    }
  }

  auto healthy_count = [&]() {
    return static_cast<size_t>(
        std::count(healthy.begin(), healthy.end(), true));
  };

  // Finishes `v` without a successful job: terminal failure bookkeeping.
  auto fail_volume = [&](size_t v, Status st) {
    VolumeOutcome& out = report->volumes[v];
    out.status = std::move(st);
    out.finished = env->now();
    out.deadline_met = false;
    ++report->deadline_misses;
    if (report->status.ok()) {
      report->status = out.status;
    }
  };

  // A volume wider than the fleet can never start: Queue() left it out, so
  // it fails here instead of blocking the volumes behind it all night.
  for (size_t v = 0; v < nvol; ++v) {
    if (MinDrivesFor(volumes_[v]) > ndrv) {
      fail_volume(v, InvalidArgument("volume '" + volumes_[v].name +
                                     "' needs more drives than the fleet has"));
    }
  }

  // The night's side of the dispatch pass: live drives, and reservations
  // against the shared LinkBudget that settle when remote jobs finish.
  const DispatchSite site{
      .drive =
          [&](int d) {
            return !healthy[d] ? DriveState::kGone
                   : busy[d]   ? DriveState::kBusy
                               : DriveState::kIdle;
          },
      .admit =
          [&](size_t v) {
            const VolumeSpec& spec = volumes_[v];
            if (!IsRemote(spec.mode) || config_.budget == nullptr ||
                config_.budget->TryReserve(spec.estimated_bytes)) {
              return Admission::kAdmit;
            }
            if (!vs[v].budget_wait_counted) {
              vs[v].budget_wait_counted = true;
              ++report->link_budget_waits;
            }
            if (config_.budget->reserved() == 0) {
              // Nothing in flight to settle and consumed only grows: this
              // volume can never fit tonight's allowance.
              fail_volume(v, Exhausted("link budget exhausted for volume '" +
                                       spec.name + "'"));
              return Admission::kDrop;
            }
            return Admission::kPark;
          },
      .cancel =
          [&](size_t v) {
            if (IsRemote(volumes_[v].mode) && config_.budget != nullptr) {
              config_.budget->Cancel(volumes_[v].estimated_bytes);
            }
          },
      .start =
          [&](size_t v, const std::vector<int>& take, bool backfill,
              SimDuration /*estimated*/) {
            const VolumeSpec& spec = volumes_[v];
            const bool remote = IsRemote(spec.mode);
            const bool reserved = remote && config_.budget != nullptr;
            ++vs[v].attempts;
            VolumeOutcome& out = report->volumes[v];
            out.attempts = vs[v].attempts;
            out.started = env->now();
            if (!vs[v].dispatched_once) {
              vs[v].dispatched_once = true;
              out.wait = env->now() - out.enqueued;
            }
            out.backfilled = backfill;
            if (backfill) {
              ++report->backfills;
            }

            std::vector<Tape*> primaries;
            std::vector<std::vector<Tape*>> spares;
            for (size_t k = 0; k < take.size(); ++k) {
              const std::string base = spec.name + ".a" +
                                       std::to_string(vs[v].attempts) + ".p" +
                                       std::to_string(k);
              primaries.push_back(config_.library->TapeInSlot(
                  config_.library->AddBlankTape(base)));
              std::vector<Tape*> sp;
              if (!remote) {
                for (uint32_t j = 0; j < kSpareMediaPerJob; ++j) {
                  sp.push_back(config_.library->TapeInSlot(
                      config_.library->AddBlankTape(base + ".s" +
                                                    std::to_string(j))));
                }
              }
              spares.push_back(std::move(sp));
            }
            for (int d : take) {
              busy[d] = true;
              ++report->drives[d].jobs;
              open_grants[v].push_back(report->grants.size());
              report->grants.push_back(DriveGrant{v, vs[v].attempts, d,
                                                  env->now(), 0, backfill});
            }
            env->Spawn(RunOne(v, vs[v].attempts, take, std::move(primaries),
                              std::move(spares),
                              reserved ? spec.estimated_bytes : 0,
                              &completions));
            ++running;
          },
  };
  auto try_dispatch = [&]() { DispatchPass(env->now(), &pending, site); };

  try_dispatch();
  while (running > 0) {
    std::optional<Completion> recvd = co_await completions.Recv();
    assert(recvd.has_value());
    Completion c = std::move(*recvd);
    if (c.timer) {
      --wakers;
      try_dispatch();
      continue;
    }
    --running;
    const size_t v = c.vol;
    const VolumeSpec& spec = volumes_[v];
    VolumeOutcome& out = report->volumes[v];

    for (int d : c.drive_idx) {
      busy[d] = false;
    }
    for (size_t g : open_grants[v]) {
      report->grants[g].end = env->now();
    }
    open_grants[v].clear();

    if (c.link_reservation > 0 && config_.budget != nullptr) {
      config_.budget->Commit(c.link_reservation, c.merged.stream_bytes);
    }

    // A part that died of an I/O error despite supervision condemns its
    // drive: pull it from the pool for the rest of the night.
    for (size_t k = 0; k < c.part_status.size(); ++k) {
      const Status& st = c.part_status[k];
      if (!st.ok() && st.code() == ErrorCode::kIoError) {
        const int d = c.drive_idx[k];
        if (healthy[d]) {
          healthy[d] = false;
          report->drives[d].failed = true;
          ++report->drives_failed;
        }
      }
    }

    if (c.ok) {
      out.status = Status::Ok();
      out.finished = env->now();
      out.drives_used = c.drive_idx;
      out.part_media = c.part_media;
      out.report = c.merged;
      out.deadline_met = env->now() <= spec.deadline;
      if (out.deadline_met) {
        ++report->deadline_hits;
      } else {
        ++report->deadline_misses;
      }
    } else {
      Status failure = c.merged.status;
      for (const Status& st : c.part_status) {
        if (!st.ok()) {
          failure = st;
          break;
        }
      }
      const bool can_retry = vs[v].attempts < kMaxAttemptsPerVolume &&
                             healthy_count() >= MinDrivesFor(spec);
      if (can_retry) {
        ++report->reassignments;
        pending.insert(
            std::lower_bound(pending.begin(), pending.end(), v,
                             [this](size_t a, size_t b) {
                               return QueueBefore(a, b);
                             }),
            v);
      } else {
        out.drives_used = c.drive_idx;
        out.part_media = c.part_media;
        out.report = c.merged;
        fail_volume(v, std::move(failure));
      }
    }
    try_dispatch();
  }

  // Anything still pending can never start: every reason a volume parks with
  // no job running (too few healthy drives, a drained link budget) only gets
  // worse with time.
  for (size_t v : pending) {
    fail_volume(v, IoError("no healthy drives left for volume '" +
                           volumes_[v].name + "'"));
  }
  pending.clear();

  report->night_end = env->now();
  const SimDuration span = report->makespan();
  for (size_t d = 0; d < ndrv; ++d) {
    DriveNightStats& stats = report->drives[d];
    stats.busy = config_.drives[d]->unit().BusyIntegral() - busy0[d];
    stats.utilization =
        span > 0 ? static_cast<double>(stats.busy) /
                       static_cast<double>(
                           config_.drives[d]->unit().capacity() * span)
                 : 0.0;
  }

  // Drain outstanding deadline ticks so their channel pointer stays valid.
  while (wakers > 0) {
    std::optional<Completion> tick = co_await completions.Recv();
    assert(tick.has_value() && tick->timer);
    --wakers;
  }
  done->CountDown();
}

// ------------------------------------------------------------- reporting ---

std::string NightReport::SerializeExecution() const {
  std::string out = "nightexec v1\n";
  for (const DriveGrant& g : grants) {
    AppendLine(&out,
               "grant %s attempt=%d drive=%d start=%lld end=%lld "
               "backfill=%d\n",
               volumes[g.volume].name.c_str(), g.attempt, g.drive,
               static_cast<long long>(g.start),
               static_cast<long long>(g.end), g.backfill ? 1 : 0);
  }
  for (const VolumeOutcome& v : volumes) {
    AppendLine(&out,
               "outcome %s status=%s attempts=%d started=%lld "
               "finished=%lld deadline=%s bytes=%llu\n",
               v.name.c_str(),
               v.status.ok() ? "OK" : ErrorCodeName(v.status.code()),
               v.attempts, static_cast<long long>(v.started),
               static_cast<long long>(v.finished),
               v.deadline_met ? "hit" : "miss",
               static_cast<unsigned long long>(v.report.stream_bytes));
  }
  AppendLine(&out,
             "counters hits=%llu misses=%llu backfills=%llu "
             "reassignments=%llu drives_failed=%llu budget_waits=%llu\n",
             static_cast<unsigned long long>(deadline_hits),
             static_cast<unsigned long long>(deadline_misses),
             static_cast<unsigned long long>(backfills),
             static_cast<unsigned long long>(reassignments),
             static_cast<unsigned long long>(drives_failed),
             static_cast<unsigned long long>(link_budget_waits));
  return out;
}

void NightReport::WriteJson(JsonWriter* w) const {
  w->BeginObject();
  w->Key("night").BeginObject();
  w->Field("start_s", SimToSeconds(night_start));
  w->Field("end_s", SimToSeconds(night_end));
  w->Field("makespan_s", SimToSeconds(makespan()));
  w->Field("status", status.ok() ? "OK" : ErrorCodeName(status.code()));
  w->EndObject();

  w->Key("counters").BeginObject();
  w->Field("deadline_hits", deadline_hits);
  w->Field("deadline_misses", deadline_misses);
  w->Field("backfills", backfills);
  w->Field("reassignments", reassignments);
  w->Field("drives_failed", drives_failed);
  w->Field("link_budget_waits", link_budget_waits);
  w->EndObject();

  w->Key("volumes").BeginArray();
  for (const VolumeOutcome& v : volumes) {
    w->BeginObject();
    w->Field("name", v.name);
    w->Field("mode", BackupModeName(v.mode));
    w->Field("status", v.status.ok() ? "OK" : ErrorCodeName(v.status.code()));
    w->Field("attempts", static_cast<int64_t>(v.attempts));
    w->Field("backfilled", v.backfilled);
    w->Field("deadline_met", v.deadline_met);
    w->Field("wait_s", SimToSeconds(v.wait));
    w->Field("started_s", SimToSeconds(v.started));
    w->Field("finished_s", SimToSeconds(v.finished));
    w->Key("drives").BeginArray();
    for (int d : v.drives_used) {
      w->Int(d);
    }
    w->EndArray();
    w->Key("media").BeginArray();
    for (const auto& part : v.part_media) {
      for (const std::string& label : part) {
        w->String(label);
      }
    }
    w->EndArray();
    w->EndObject();
  }
  w->EndArray();

  w->Key("drives").BeginArray();
  for (const DriveNightStats& d : drives) {
    w->BeginObject();
    w->Field("name", d.name);
    w->Field("jobs", static_cast<int64_t>(d.jobs));
    w->Field("failed", d.failed);
    w->Field("busy_s", SimToSeconds(d.busy));
    w->Field("utilization", d.utilization);
    w->EndObject();
  }
  w->EndArray();

  w->Key("grants").BeginArray();
  for (const DriveGrant& g : grants) {
    w->BeginObject();
    w->Field("volume", volumes[g.volume].name);
    w->Field("attempt", static_cast<int64_t>(g.attempt));
    w->Field("drive", static_cast<int64_t>(g.drive));
    w->Field("start_s", SimToSeconds(g.start));
    w->Field("end_s", SimToSeconds(g.end));
    w->Field("backfill", g.backfill);
    w->EndObject();
  }
  w->EndArray();
  w->EndObject();
}

}  // namespace bkup
