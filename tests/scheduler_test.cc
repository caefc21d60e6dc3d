// Property-test harness for the nightly fleet scheduler, exercising the
// whole job stack (scheduler -> parallel jobs -> replay -> devices) across
// seeded random fleet configurations:
//
//   (a) the same seed produces a byte-identical plan and execution record;
//   (b) no drive is double-booked at any simulated instant;
//   (c) every volume is backed up exactly once per night;
//   (d) with at least as many drives as volumes and feasible deadlines, the
//       scheduler never reports a deadline miss;
//   (e) the plan's night-open assignments are the night's first grants.
//
// `BKUP_SCHED_SEED_OFFSET` shifts the seed block so tools/seed_sweep.py can
// rerun the suite over fresh configurations without a recompile.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <random>
#include <tuple>

#include "src/backup/scheduler.h"
#include "src/net/tape_server.h"
#include "src/workload/population.h"

namespace bkup {
namespace {

constexpr int kConfigsPerSuite = 64;

uint64_t SeedOffset() {
  const char* env = std::getenv("BKUP_SCHED_SEED_OFFSET");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 0;
}

VolumeGeometry SmallGeometry() {
  VolumeGeometry geom;
  geom.num_raid_groups = 1;
  geom.disks_per_group = 4;
  geom.blocks_per_disk = 2048;  // 3 data disks * 8 MiB
  return geom;
}

// A randomly drawn fleet description, fully determined by its seed. Drawing
// uses raw engine output (not std::uniform_int_distribution, whose mapping
// is implementation-defined) so configurations are stable across toolchains.
struct FleetDraw {
  struct Vol {
    std::string name;
    BackupMode mode = BackupMode::kImage;
    uint64_t bytes = 0;
    uint64_t pop_seed = 0;
    int priority = 0;
    SimTime deadline = std::numeric_limits<SimTime>::max();
    int affinity = -1;
    uint32_t parallelism = 1;
  };
  uint64_t seed = 0;
  int num_drives = 1;
  std::vector<Vol> vols;
};

FleetDraw DrawFleet(uint64_t seed) {
  std::mt19937_64 rng(seed);
  FleetDraw draw;
  draw.seed = seed;
  draw.num_drives = 1 + static_cast<int>(rng() % 4);
  const int nvol = 3 + static_cast<int>(rng() % 4);
  for (int i = 0; i < nvol; ++i) {
    FleetDraw::Vol v;
    v.name = "vol" + std::to_string(i);
    v.bytes = (1 + rng() % 3) * kMiB;
    v.pop_seed = seed * 1000 + static_cast<uint64_t>(i);
    switch (rng() % 4) {
      case 0:
        v.mode = BackupMode::kLogicalFull;
        break;
      case 1:
        v.mode = BackupMode::kLogicalIncremental;
        break;
      default:
        v.mode = BackupMode::kImage;
        v.parallelism = 1 + static_cast<uint32_t>(rng() % 2);
        break;
    }
    v.priority = static_cast<int>(rng() % 3);
    switch (rng() % 3) {
      case 0:
        break;  // no deadline
      case 1:
        v.deadline = 2 * kHour + static_cast<SimTime>(rng() % 120) * kMinute;
        break;
      default:
        v.deadline = 20 * kMinute + static_cast<SimTime>(rng() % 20) * kMinute;
        break;
    }
    if (rng() % 3 == 0) {
      v.affinity = static_cast<int>(rng() % draw.num_drives);
    }
    draw.vols.push_back(std::move(v));
  }
  return draw;
}

struct FleetResult {
  NightPlan night_plan;
  std::string plan;
  std::string exec;
  NightReport report;
};

// Builds and runs one night from a draw. Everything — population, device
// names, media labels — derives from the draw, so two calls with the same
// draw must produce byte-identical plan and execution records.
void ExecuteFleet(const FleetDraw& draw, FleetResult* out) {
  SimEnvironment env;
  Filer filer(&env, FilerModel::F630());
  TapeLibrary library("fleet", 64 * kMiB, 0);
  SupervisionPolicy policy;

  std::vector<std::unique_ptr<Volume>> volumes;
  std::vector<std::unique_ptr<Filesystem>> filesystems;
  std::vector<VolumeSpec> specs;
  for (const FleetDraw::Vol& v : draw.vols) {
    volumes.push_back(Volume::Create(&env, v.name, SmallGeometry()));
    auto fs = std::move(Filesystem::Format(volumes.back().get(), &env)).value();
    WorkloadParams params;
    params.seed = v.pop_seed;
    params.target_bytes = v.bytes;
    ASSERT_TRUE(PopulateFilesystem(fs.get(), params).ok());
    filesystems.push_back(std::move(fs));

    VolumeSpec spec;
    spec.name = v.name;
    spec.fs = filesystems.back().get();
    spec.mode = v.mode;
    spec.estimated_bytes = v.bytes;
    spec.priority = v.priority;
    spec.deadline = v.deadline;
    spec.affinity_drive = v.affinity;
    spec.parallelism = v.parallelism;
    specs.push_back(std::move(spec));
  }

  std::vector<std::unique_ptr<TapeDrive>> drives;
  FleetConfig config;
  for (int d = 0; d < draw.num_drives; ++d) {
    drives.push_back(
        std::make_unique<TapeDrive>(&env, "d" + std::to_string(d)));
    config.drives.push_back(drives.back().get());
  }
  config.library = &library;
  config.supervision = &policy;

  NightlyScheduler scheduler(&filer, config, std::move(specs));
  out->night_plan = scheduler.BuildPlan();
  out->plan = out->night_plan.Serialize(scheduler.volumes());
  CountdownLatch done(&env, 1);
  env.Spawn(scheduler.Run(&out->report, &done));
  env.Run();
  ASSERT_TRUE(done.done());
  out->exec = out->report.SerializeExecution();
}

// (b) Every drive's grants must be non-overlapping intervals.
void CheckNoDoubleBooking(const NightReport& report) {
  std::map<int, std::vector<std::pair<SimTime, SimTime>>> by_drive;
  for (const DriveGrant& g : report.grants) {
    EXPECT_GE(g.end, g.start) << "grant with negative span";
    by_drive[g.drive].emplace_back(g.start, g.end);
  }
  for (auto& [drive, spans] : by_drive) {
    std::sort(spans.begin(), spans.end());
    for (size_t i = 1; i < spans.size(); ++i) {
      EXPECT_GE(spans[i].first, spans[i - 1].second)
          << "drive " << drive << " double-booked at " << spans[i].first;
    }
  }
}

// BuildPlan() and Run() share one dispatch pass, so at night-open, before
// any estimate meets reality, the plan's t = 0 assignments and the night's
// first grants are the same (volume, drive, backfill) triples.
void CheckPlanMatchesNightOpen(const FleetResult& result) {
  using Triple = std::tuple<size_t, int, bool>;
  std::vector<Triple> planned;
  for (const PlannedAssignment& a : result.night_plan.assignments) {
    if (a.start == 0) {
      planned.emplace_back(a.volume, a.drive, a.backfill);
    }
  }
  std::vector<Triple> granted;
  for (const DriveGrant& g : result.report.grants) {
    if (g.start == result.report.night_start) {
      granted.emplace_back(g.volume, g.drive, g.backfill);
    }
  }
  std::sort(planned.begin(), planned.end());
  std::sort(granted.begin(), granted.end());
  EXPECT_FALSE(planned.empty());
  EXPECT_EQ(planned, granted);
}

// (c) Every volume completed successfully, exactly once, on one attempt.
void CheckEachVolumeOnce(const NightReport& report) {
  for (const VolumeOutcome& v : report.volumes) {
    EXPECT_TRUE(v.status.ok()) << v.name << ": " << v.status.ToString();
    EXPECT_EQ(v.attempts, 1) << v.name;
    EXPECT_GT(v.report.stream_bytes, 0u) << v.name;
    EXPECT_GE(v.finished, v.started) << v.name;
  }
  std::map<size_t, int> attempts_seen;
  for (const DriveGrant& g : report.grants) {
    attempts_seen[g.volume] = std::max(attempts_seen[g.volume], g.attempt);
  }
  for (const auto& [vol, max_attempt] : attempts_seen) {
    EXPECT_EQ(max_attempt, 1) << "volume " << vol << " was re-dispatched";
  }
}

TEST(SchedulerPropertyTest, RandomFleetsAreDeterministicAndWellFormed) {
  const uint64_t offset = SeedOffset();
  for (int i = 0; i < kConfigsPerSuite; ++i) {
    const uint64_t seed = 0xF1EE7 + offset * 1000 + static_cast<uint64_t>(i);
    const FleetDraw draw = DrawFleet(seed);
    SCOPED_TRACE("seed " + std::to_string(seed));

    FleetResult first;
    ExecuteFleet(draw, &first);
    CheckNoDoubleBooking(first.report);
    CheckEachVolumeOnce(first.report);
    CheckPlanMatchesNightOpen(first);
    EXPECT_EQ(first.report.deadline_hits + first.report.deadline_misses,
              draw.vols.size());
    EXPECT_EQ(first.report.reassignments, 0u);
    EXPECT_EQ(first.report.drives_failed, 0u);

    // (a) Re-run the identical draw in a fresh environment: plan and
    // executed schedule must match byte for byte.
    FleetResult second;
    ExecuteFleet(draw, &second);
    EXPECT_EQ(first.plan, second.plan);
    EXPECT_EQ(first.exec, second.exec);
  }
}

// (d) With drives >= volumes and generous deadlines, every volume starts at
// night-open (affinity collisions at worst serialize two volumes, which the
// slack still covers) and no miss may be reported.
TEST(SchedulerPropertyTest, FeasiblePlansNeverMissWithEnoughDrives) {
  const uint64_t offset = SeedOffset();
  for (int i = 0; i < 8; ++i) {
    const uint64_t seed = 0xD00D + offset * 1000 + static_cast<uint64_t>(i);
    FleetDraw draw = DrawFleet(seed);
    draw.num_drives = static_cast<int>(draw.vols.size());
    for (auto& v : draw.vols) {
      v.deadline = 6 * kHour;  // minutes of real work against hours of slack
      if (v.affinity >= draw.num_drives) {
        v.affinity = -1;
      }
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    FleetResult result;
    ExecuteFleet(draw, &result);
    CheckNoDoubleBooking(result.report);
    CheckEachVolumeOnce(result.report);
    EXPECT_EQ(result.report.deadline_misses, 0u);
    EXPECT_EQ(result.report.deadline_hits, draw.vols.size());
    for (const VolumeOutcome& v : result.report.volumes) {
      EXPECT_TRUE(v.deadline_met) << v.name;
    }
  }
}

// --------------------------------------------------- directed scenarios ---

struct DirectedFixture {
  DirectedFixture() : filer(&env, FilerModel::F630()), library("fleet", 64 * kMiB, 0) {}

  Filesystem* AddVolume(const std::string& name, uint64_t bytes,
                        uint64_t seed) {
    volumes.push_back(Volume::Create(&env, name, SmallGeometry()));
    auto fs = std::move(Filesystem::Format(volumes.back().get(), &env)).value();
    WorkloadParams params;
    params.seed = seed;
    params.target_bytes = bytes;
    EXPECT_TRUE(PopulateFilesystem(fs.get(), params).ok());
    filesystems.push_back(std::move(fs));
    return filesystems.back().get();
  }

  void AddDrives(int n) {
    for (int d = 0; d < n; ++d) {
      drives.push_back(
          std::make_unique<TapeDrive>(&env, "d" + std::to_string(d)));
      config.drives.push_back(drives.back().get());
    }
    config.library = &library;
    config.supervision = &policy;
  }

  NightReport RunNight(std::vector<VolumeSpec> specs) {
    NightlyScheduler scheduler(&filer, config, std::move(specs));
    NightReport report;
    CountdownLatch done(&env, 1);
    env.Spawn(scheduler.Run(&report, &done));
    env.Run();
    EXPECT_TRUE(done.done());
    return report;
  }

  SimEnvironment env;
  Filer filer;
  TapeLibrary library;
  SupervisionPolicy policy;
  std::vector<std::unique_ptr<Volume>> volumes;
  std::vector<std::unique_ptr<Filesystem>> filesystems;
  std::vector<std::unique_ptr<TapeDrive>> drives;
  FleetConfig config;
};

VolumeSpec Spec(const std::string& name, Filesystem* fs, BackupMode mode,
                uint64_t bytes) {
  VolumeSpec spec;
  spec.name = name;
  spec.fs = fs;
  spec.mode = mode;
  spec.estimated_bytes = bytes;
  return spec;
}

// A volume with affinity and no deadline waits for its drive even while
// another drive idles; a lower-priority volume backfills the idle drive.
TEST(SchedulerTest, AffinityWaitsAndBackfillUsesIdleDrive) {
  DirectedFixture f;
  Filesystem* a = f.AddVolume("alpha", 4 * kMiB, 11);
  Filesystem* b = f.AddVolume("beta", 2 * kMiB, 12);
  Filesystem* c = f.AddVolume("gamma", 2 * kMiB, 13);
  f.AddDrives(2);

  VolumeSpec sa = Spec("alpha", a, BackupMode::kImage, 4 * kMiB);
  sa.priority = 2;
  sa.affinity_drive = 0;
  VolumeSpec sb = Spec("beta", b, BackupMode::kImage, 2 * kMiB);
  sb.priority = 2;
  sb.affinity_drive = 0;  // incrementals follow the full's drive
  sb.name = "beta";
  VolumeSpec sc = Spec("gamma", c, BackupMode::kImage, 2 * kMiB);
  sc.priority = 0;

  NightReport report = f.RunNight({sa, sb, sc});
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();

  SimTime alpha_end = 0;
  for (const DriveGrant& g : report.grants) {
    const VolumeOutcome& vol = report.volumes[g.volume];
    if (vol.name == "alpha") {
      EXPECT_EQ(g.drive, 0);
      alpha_end = g.end;
    }
    if (vol.name == "beta") {
      EXPECT_EQ(g.drive, 0) << "beta must stay on its affinity drive";
    }
    if (vol.name == "gamma") {
      EXPECT_EQ(g.drive, 1) << "gamma should backfill the idle drive";
    }
  }
  const VolumeOutcome* beta = nullptr;
  const VolumeOutcome* gamma = nullptr;
  for (const VolumeOutcome& v : report.volumes) {
    if (v.name == "beta") beta = &v;
    if (v.name == "gamma") gamma = &v;
  }
  ASSERT_NE(beta, nullptr);
  ASSERT_NE(gamma, nullptr);
  EXPECT_GE(beta->started, alpha_end) << "beta waited for its drive";
  EXPECT_LT(gamma->started, alpha_end) << "gamma ran while alpha held d0";
  EXPECT_TRUE(gamma->backfilled);
  EXPECT_GE(report.backfills, 1u);
}

// When waiting for the affinity drive would provably blow the deadline, the
// volume falls back to any idle drive at its latest feasible start.
TEST(SchedulerTest, DeadlineForcesAffinityFallback) {
  DirectedFixture f;
  Filesystem* a = f.AddVolume("alpha", 6 * kMiB, 21);
  Filesystem* b = f.AddVolume("beta", 2 * kMiB, 22);
  f.AddDrives(2);

  VolumeSpec sa = Spec("alpha", a, BackupMode::kImage, 6 * kMiB);
  sa.priority = 2;
  sa.affinity_drive = 0;
  VolumeSpec sb = Spec("beta", b, BackupMode::kImage, 2 * kMiB);
  sb.priority = 1;
  sb.affinity_drive = 0;
  // Alpha holds drive 0 for ~107 s (load + snapshots + stream); beta's
  // latest feasible start (deadline - estimate) lands before that, so
  // waiting provably misses and beta must take drive 1.
  sb.deadline = 150 * kSecond;

  NightReport report = f.RunNight({sa, sb});
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  for (const DriveGrant& g : report.grants) {
    if (report.volumes[g.volume].name == "beta") {
      EXPECT_EQ(g.drive, 1) << "beta should abandon the busy affinity drive";
    }
  }
}

// One drive, two volumes and a deadline far tighter than the work: the night
// reports its misses per volume, every volume lands in exactly one of the
// hit/miss counters, and the night ends when its last volume does (no timer
// outlives it).
TEST(SchedulerTest, TightDeadlinesAreReportedAsMisses) {
  DirectedFixture f;
  std::vector<VolumeSpec> specs;
  for (int i = 0; i < 2; ++i) {
    const std::string name = "vol" + std::to_string(i);
    VolumeSpec spec = Spec(name, f.AddVolume(name, 4 * kMiB, 42),
                           BackupMode::kImage, 4 * kMiB);
    spec.deadline = 2 * kMinute;
    specs.push_back(std::move(spec));
  }
  f.AddDrives(1);

  NightReport report = f.RunNight(std::move(specs));
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_GT(report.deadline_misses, 0u);
  EXPECT_EQ(report.deadline_hits + report.deadline_misses,
            report.volumes.size());
  for (const VolumeOutcome& v : report.volumes) {
    if (!v.deadline_met) {
      EXPECT_GT(v.finished, 2 * kMinute) << v.name;
    }
  }
  EXPECT_EQ(f.env.now(), report.night_end);
}

// A volume that needs more drives than the fleet has can never start: the
// night fails it at night-open with kInvalidArgument, the plan leaves it
// out, and neither hangs nor holds back the volume queued behind it (whose
// backfill past a parked 100 s deadline would otherwise be unsafe).
TEST(SchedulerTest, OverWideVolumeFailsFastAndPlanTerminates) {
  DirectedFixture f;
  Filesystem* a = f.AddVolume("wide", 2 * kMiB, 71);
  Filesystem* b = f.AddVolume("narrow", 2 * kMiB, 72);
  f.AddDrives(1);

  VolumeSpec wide = Spec("wide", a, BackupMode::kLogicalFull, 2 * kMiB);
  wide.subtrees = {"/a", "/b"};
  wide.priority = 2;
  wide.deadline = 100 * kSecond;
  VolumeSpec narrow = Spec("narrow", b, BackupMode::kImage, 2 * kMiB);

  NightReport report = f.RunNight({wide, narrow});
  ASSERT_EQ(report.volumes[0].status.code(), ErrorCode::kInvalidArgument)
      << report.volumes[0].status.ToString();
  EXPECT_EQ(report.volumes[0].attempts, 0);
  EXPECT_EQ(report.status.code(), ErrorCode::kInvalidArgument);
  ASSERT_TRUE(report.volumes[1].status.ok())
      << report.volumes[1].status.ToString();
  for (const DriveGrant& g : report.grants) {
    EXPECT_EQ(g.volume, 1u);
  }

  NightlyScheduler scheduler(&f.filer, f.config, {wide, narrow});
  const NightPlan plan = scheduler.BuildPlan();
  ASSERT_EQ(plan.assignments.size(), 1u);
  EXPECT_EQ(scheduler.volumes()[plan.assignments[0].volume].name, "narrow");
  EXPECT_EQ(plan.assignments[0].start, 0);
  EXPECT_FALSE(plan.assignments[0].backfill);
}

// BuildPlan is pure: repeated calls serialize identically, and the plan
// respects priority order on a single drive.
TEST(SchedulerTest, PlanIsPureAndPriorityOrdered) {
  DirectedFixture f;
  Filesystem* a = f.AddVolume("low", 2 * kMiB, 41);
  Filesystem* b = f.AddVolume("high", 2 * kMiB, 42);
  f.AddDrives(1);

  VolumeSpec sa = Spec("low", a, BackupMode::kImage, 2 * kMiB);
  sa.priority = 0;
  VolumeSpec sb = Spec("high", b, BackupMode::kImage, 2 * kMiB);
  sb.priority = 5;

  NightlyScheduler scheduler(&f.filer, f.config, {sa, sb});
  const NightPlan plan = scheduler.BuildPlan();
  EXPECT_EQ(plan.Serialize(scheduler.volumes()),
            scheduler.BuildPlan().Serialize(scheduler.volumes()));
  ASSERT_EQ(plan.assignments.size(), 2u);
  EXPECT_EQ(scheduler.volumes()[plan.assignments[0].volume].name, "high");
  EXPECT_EQ(scheduler.volumes()[plan.assignments[1].volume].name, "low");
  EXPECT_LE(plan.assignments[0].start, plan.assignments[1].start);
  EXPECT_GT(plan.projected_makespan, 0);
}

// A parallel logical volume (one drive per quota tree) schedules as one
// unit and a scheduled night restores byte-identically.
TEST(SchedulerTest, ParallelLogicalVolumeRestoresByteIdentical) {
  DirectedFixture f;
  f.AddDrives(2);
  f.volumes.push_back(Volume::Create(&f.env, "qtvol", SmallGeometry()));
  auto fs =
      std::move(Filesystem::Format(f.volumes.back().get(), &f.env)).value();
  WorkloadParams params;
  params.seed = 51;
  params.target_bytes = 4 * kMiB;
  params.quota_trees = 2;
  ASSERT_TRUE(PopulateFilesystem(fs.get(), params).ok());
  f.filesystems.push_back(std::move(fs));
  Filesystem* qt = f.filesystems.back().get();
  auto src_sums = ChecksumTree(qt->LiveReader()).value();

  VolumeSpec spec = Spec("qtvol", qt, BackupMode::kLogicalFull, 4 * kMiB);
  spec.subtrees = {QuotaTreePath(0), QuotaTreePath(1)};
  NightReport report = f.RunNight({spec});
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  const VolumeOutcome& out = report.volumes[0];
  ASSERT_EQ(out.drives_used.size(), 2u);
  ASSERT_EQ(out.part_media.size(), 2u);

  // Restore each part's media through the same drives.
  auto restore_volume = Volume::Create(&f.env, "r", SmallGeometry());
  auto restore_fs =
      std::move(Filesystem::Format(restore_volume.get(), &f.env)).value();
  JobSpec job{.fs = restore_fs.get()};
  for (size_t k = 0; k < out.part_media.size(); ++k) {
    ASSERT_EQ(out.part_media[k].size(), 1u);
    TapeDrive* drive = f.config.drives[out.drives_used[k]];
    const size_t slot =
        f.library.SlotOfLabel(out.part_media[k][0]).value();
    ASSERT_TRUE(f.library.LoadSlot(drive, slot).ok());
    job.endpoints.push_back({.drive = drive});
    job.trees.push_back(spec.subtrees[k]);
  }
  ParallelJobResult<LogicalRestoreJobResult> restore;
  CountdownLatch rdone(&f.env, 1);
  f.env.Spawn(RunJob(&f.filer, job, &restore, &rdone));
  f.env.Run();
  ASSERT_TRUE(restore.merged.status.ok()) << restore.merged.status.ToString();
  auto dst_sums = ChecksumTree(restore_fs->LiveReader()).value();
  EXPECT_EQ(src_sums, dst_sums);
}

// Remote volumes reserve against the shared link budget; a volume that can
// never fit tonight's allowance fails fast instead of parking forever.
TEST(SchedulerTest, LinkBudgetGatesRemoteVolumes) {
  DirectedFixture f;
  Filesystem* a = f.AddVolume("near", 2 * kMiB, 61);
  Filesystem* b = f.AddVolume("far", 2 * kMiB, 62);

  NetLink link(&f.env, "wan");
  TapeServer server(&f.env, "ts", &f.library);
  f.config.drives.push_back(server.AddDrive("sd0"));
  f.config.drives.push_back(server.AddDrive("sd1"));
  f.config.library = &f.library;
  f.config.supervision = &f.policy;
  f.config.link = &link;
  f.config.server = &server;
  // Room for one estimated stream, not two: the higher-priority volume runs
  // and the other exhausts the budget.
  LinkBudget budget(&link, 5 * kMiB);
  f.config.budget = &budget;

  VolumeSpec sa = Spec("near", a, BackupMode::kRemoteImage, 4 * kMiB);
  sa.priority = 2;
  VolumeSpec sb = Spec("far", b, BackupMode::kRemoteImage, 4 * kMiB);
  sb.priority = 1;

  NightReport report = f.RunNight({sa, sb});
  const VolumeOutcome* near = nullptr;
  const VolumeOutcome* far = nullptr;
  for (const VolumeOutcome& v : report.volumes) {
    if (v.name == "near") near = &v;
    if (v.name == "far") far = &v;
  }
  ASSERT_NE(near, nullptr);
  ASSERT_NE(far, nullptr);
  EXPECT_TRUE(near->status.ok()) << near->status.ToString();
  EXPECT_FALSE(far->status.ok());
  EXPECT_EQ(far->status.code(), ErrorCode::kExhausted);
  EXPECT_GE(report.link_budget_waits, 1u);
  EXPECT_GT(budget.consumed(), 0u);
  EXPECT_EQ(budget.reserved(), 0u);
}

}  // namespace
}  // namespace bkup
