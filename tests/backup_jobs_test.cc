// Tests for the simulated backup jobs: correctness of the data they move,
// sanity of the timing model (tape-limited backups, CPU asymmetry between
// logical and physical, NVRAM effect on logical restore), and parallel
// scaling behaviour.
#include <gtest/gtest.h>

#include <memory>

#include "src/backup/jobs.h"
#include "src/workload/population.h"

namespace bkup {
namespace {

VolumeGeometry JobGeometry() {
  VolumeGeometry geom;
  geom.num_raid_groups = 2;
  geom.disks_per_group = 4;
  geom.blocks_per_disk = 4096;  // 96 MiB data space
  return geom;
}

struct JobFixture {
  JobFixture() : filer(&env, FilerModel::F630()) {
    src_volume = Volume::Create(&env, "home", JobGeometry());
    dst_volume = Volume::Create(&env, "spare", JobGeometry());
    src = std::move(Filesystem::Format(src_volume.get(), &env)).value();
    for (int i = 0; i < 4; ++i) {
      tapes.push_back(std::make_unique<Tape>("t" + std::to_string(i),
                                             4ull * kGiB));
      drives.push_back(
          std::make_unique<TapeDrive>(&env, "dlt" + std::to_string(i)));
      drives.back()->LoadMedia(tapes.back().get());
    }
  }

  void Populate(uint64_t bytes, uint32_t quota_trees = 1) {
    WorkloadParams params;
    params.target_bytes = bytes;
    params.quota_trees = quota_trees;
    auto stats = PopulateFilesystem(src.get(), params);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  }

  SimEnvironment env;
  Filer filer;
  std::unique_ptr<Volume> src_volume, dst_volume;
  std::unique_ptr<Filesystem> src;
  std::vector<std::unique_ptr<Tape>> tapes;
  std::vector<std::unique_ptr<TapeDrive>> drives;
};

TEST(BackupJobsTest, LogicalBackupJobWritesRestorableTape) {
  JobFixture f;
  f.Populate(8 * kMiB);
  auto src_sums = ChecksumTree(f.src->LiveReader());
  ASSERT_TRUE(src_sums.ok());

  LogicalBackupJobResult backup;
  CountdownLatch done(&f.env, 1);
  LogicalDumpOptions opt;
  opt.volume_name = "home";
  f.env.Spawn(RunJob(&f.filer,
                     {.fs = f.src.get(),
                      .endpoints = {{.drive = f.drives[0].get()}},
                      .logical_dump = opt},
                     &backup, &done));
  f.env.Run();
  ASSERT_TRUE(backup.report.status.ok())
      << backup.report.status.ToString();
  EXPECT_GT(backup.report.elapsed(), 0);
  EXPECT_GT(f.tapes[0]->size(), 8 * kMiB);
  // The dump snapshot was cleaned up.
  EXPECT_TRUE(f.src->ListSnapshots().empty());

  // Restore the tape on a second filesystem and verify every checksum.
  auto dst = std::move(Filesystem::Format(f.dst_volume.get(), &f.env)).value();
  f.drives[0]->Rewind();
  LogicalRestoreJobResult restore;
  CountdownLatch rdone(&f.env, 1);
  f.env.Spawn(RunJob(&f.filer,
                     {.fs = dst.get(),
                      .endpoints = {{.drive = f.drives[0].get()}}},
                     &restore, &rdone));
  f.env.Run();
  ASSERT_TRUE(restore.report.status.ok())
      << restore.report.status.ToString();
  auto dst_sums = ChecksumTree(dst->LiveReader());
  ASSERT_TRUE(dst_sums.ok());
  EXPECT_EQ(*src_sums, *dst_sums);
}

TEST(BackupJobsTest, PhysicalBackupJobWritesRestorableTape) {
  JobFixture f;
  f.Populate(8 * kMiB);
  auto src_sums = ChecksumTree(f.src->LiveReader());
  ASSERT_TRUE(src_sums.ok());

  ImageBackupJobResult backup;
  CountdownLatch done(&f.env, 1);
  f.env.Spawn(RunJob(&f.filer,
                     {.fs = f.src.get(),
                      .endpoints = {{.drive = f.drives[0].get()}},
                      .delete_snapshot_after = false},
                     &backup, &done));
  f.env.Run();
  ASSERT_TRUE(backup.report.status.ok()) << backup.report.status.ToString();

  f.drives[0]->Rewind();
  ImageRestoreJobResult restore;
  CountdownLatch rdone(&f.env, 1);
  f.env.Spawn(RunJob(&f.filer,
                     {.volume = f.dst_volume.get(),
                      .endpoints = {{.drive = f.drives[0].get()}}},
                     &restore, &rdone));
  f.env.Run();
  ASSERT_TRUE(restore.report.status.ok())
      << restore.report.status.ToString();

  auto dst = Filesystem::Mount(f.dst_volume.get(), &f.env);
  ASSERT_TRUE(dst.ok()) << dst.status().ToString();
  auto dst_sums = ChecksumTree((*dst)->LiveReader());
  ASSERT_TRUE(dst_sums.ok());
  EXPECT_EQ(*src_sums, *dst_sums);
}

TEST(BackupJobsTest, SingleTapeBackupIsTapeLimited) {
  // Table 2's regime: with one DLT drive, both strategies run near tape
  // speed, physical somewhat faster.
  JobFixture f;
  f.Populate(16 * kMiB);

  LogicalBackupJobResult logical;
  CountdownLatch ldone(&f.env, 1);
  f.env.Spawn(RunJob(&f.filer,
                     {.fs = f.src.get(),
                      .endpoints = {{.drive = f.drives[0].get()}}},
                     &logical, &ldone));
  f.env.Run();
  ASSERT_TRUE(logical.report.status.ok());

  ImageBackupJobResult physical;
  CountdownLatch pdone(&f.env, 1);
  f.env.Spawn(RunJob(&f.filer,
                     {.fs = f.src.get(),
                      .endpoints = {{.drive = f.drives[1].get()}}},
                     &physical, &pdone));
  f.env.Run();
  ASSERT_TRUE(physical.report.status.ok());

  // Compare streaming phases (excluding fixed snapshot overheads).
  const PhaseStats& lfiles = logical.report.phase(JobPhase::kDumpFiles);
  const PhaseStats& pblocks = physical.report.phase(JobPhase::kDumpBlocks);
  const double tape_rate = f.drives[0]->timing().stream_mb_per_s * 1e6;
  const double logical_rate =
      static_cast<double>(lfiles.tape_bytes) / SimToSeconds(lfiles.elapsed());
  const double physical_rate = static_cast<double>(pblocks.tape_bytes) /
                               SimToSeconds(pblocks.elapsed());
  EXPECT_GT(physical_rate, 0.85 * tape_rate)
      << "physical dump must stream the tape";
  EXPECT_GT(logical_rate, 0.6 * tape_rate);
  EXPECT_GT(physical_rate, logical_rate)
      << "physical holds a modest single-tape edge (Table 2)";
}

TEST(BackupJobsTest, CpuAsymmetryMatchesTable3) {
  JobFixture f;
  f.Populate(16 * kMiB);

  LogicalBackupJobResult logical;
  CountdownLatch ldone(&f.env, 1);
  f.env.Spawn(RunJob(&f.filer,
                     {.fs = f.src.get(),
                      .endpoints = {{.drive = f.drives[0].get()}}},
                     &logical, &ldone));
  f.env.Run();
  ImageBackupJobResult physical;
  CountdownLatch pdone(&f.env, 1);
  f.env.Spawn(RunJob(&f.filer,
                     {.fs = f.src.get(),
                      .endpoints = {{.drive = f.drives[1].get()}}},
                     &physical, &pdone));
  f.env.Run();

  const double logical_cpu =
      logical.report.phase(JobPhase::kDumpFiles).CpuUtilization();
  const double physical_cpu =
      physical.report.phase(JobPhase::kDumpBlocks).CpuUtilization();
  EXPECT_GT(logical_cpu, 3.0 * physical_cpu)
      << "logical dump consumes ~5x the CPU of physical (Table 3)";
  EXPECT_LT(physical_cpu, 0.12);
  EXPECT_GT(logical_cpu, 0.10);
}

TEST(BackupJobsTest, NvramBypassSpeedsLogicalRestore) {
  JobFixture f;
  f.Populate(8 * kMiB);
  LogicalBackupJobResult backup;
  CountdownLatch done(&f.env, 1);
  f.env.Spawn(RunJob(&f.filer,
                     {.fs = f.src.get(),
                      .endpoints = {{.drive = f.drives[0].get()}}},
                     &backup, &done));
  f.env.Run();
  ASSERT_TRUE(backup.report.status.ok());

  auto restore_once = [&f](bool bypass) {
    auto volume = Volume::Create(&f.env, "r", JobGeometry());
    auto dst = std::move(Filesystem::Format(volume.get(), &f.env)).value();
    f.drives[0]->Rewind();
    LogicalRestoreJobResult restore;
    CountdownLatch rdone(&f.env, 1);
    f.env.Spawn(RunJob(&f.filer,
                       {.fs = dst.get(),
                        .endpoints = {{.drive = f.drives[0].get()}},
                        .bypass_nvram = bypass},
                       &restore, &rdone));
    f.env.Run();
    EXPECT_TRUE(restore.report.status.ok());
    return restore.report.elapsed();
  };
  const SimDuration with_nvram = restore_once(false);
  const SimDuration without_nvram = restore_once(true);
  EXPECT_LT(without_nvram, with_nvram)
      << "bypassing NVRAM must speed up logical restore (footnote 2)";
}

TEST(BackupJobsTest, PhysicalRestoreFasterThanLogical) {
  JobFixture f;
  f.Populate(12 * kMiB);

  // Logical chain.
  LogicalBackupJobResult lback;
  CountdownLatch l1(&f.env, 1);
  f.env.Spawn(RunJob(&f.filer,
                     {.fs = f.src.get(),
                      .endpoints = {{.drive = f.drives[0].get()}}},
                     &lback, &l1));
  f.env.Run();
  auto lvol = Volume::Create(&f.env, "lr", JobGeometry());
  auto lfs = std::move(Filesystem::Format(lvol.get(), &f.env)).value();
  f.drives[0]->Rewind();
  LogicalRestoreJobResult lrest;
  CountdownLatch l2(&f.env, 1);
  f.env.Spawn(RunJob(&f.filer,
                     {.fs = lfs.get(),
                      .endpoints = {{.drive = f.drives[0].get()}}},
                     &lrest, &l2));
  f.env.Run();
  ASSERT_TRUE(lrest.report.status.ok());

  // Physical chain.
  ImageBackupJobResult pback;
  CountdownLatch p1(&f.env, 1);
  f.env.Spawn(RunJob(&f.filer,
                     {.fs = f.src.get(),
                      .endpoints = {{.drive = f.drives[1].get()}},
                      .delete_snapshot_after = false},
                     &pback, &p1));
  f.env.Run();
  f.drives[1]->Rewind();
  ImageRestoreJobResult prest;
  CountdownLatch p2(&f.env, 1);
  f.env.Spawn(RunJob(&f.filer,
                     {.volume = f.dst_volume.get(),
                      .endpoints = {{.drive = f.drives[1].get()}}},
                     &prest, &p2));
  f.env.Run();
  ASSERT_TRUE(prest.report.status.ok());

  // Normalize to per-byte cost (streams differ slightly in size).
  const double logical_s_per_mb =
      SimToSeconds(lrest.report.elapsed()) /
      (static_cast<double>(lrest.report.stream_bytes) / 1e6);
  const double physical_s_per_mb =
      SimToSeconds(prest.report.elapsed()) /
      (static_cast<double>(prest.report.stream_bytes) / 1e6);
  EXPECT_LT(physical_s_per_mb, logical_s_per_mb)
      << "physical restore must outrun logical restore (Table 2)";
}

TEST(BackupJobsTest, ParallelPhysicalDumpScales) {
  JobFixture f;
  f.Populate(32 * kMiB);

  auto run_parallel = [&f](uint32_t ntapes) {
    JobSpec spec{.fs = f.src.get()};
    for (uint32_t k = 0; k < ntapes; ++k) {
      f.tapes[k]->Erase();
      f.drives[k]->LoadMedia(f.tapes[k].get());
      spec.endpoints.push_back({.drive = f.drives[k].get()});
    }
    spec.image_dump.snapshot_name = "par" + std::to_string(ntapes);
    ParallelJobResult<ImageBackupJobResult> result;
    CountdownLatch done(&f.env, 1);
    f.env.Spawn(RunJob(&f.filer, spec, &result, &done));
    f.env.Run();
    EXPECT_TRUE(result.merged.status.ok())
        << result.merged.status.ToString();
    uint64_t blocks = 0;
    for (auto& r : result.parts) {
      blocks += r->dump.stats.blocks_dumped;
    }
    return std::pair(result.merged, blocks);
  };

  auto [one, blocks1] = run_parallel(1);
  auto [four, blocks4] = run_parallel(4);
  // All data covered in both runs (modulo snapshot meta churn).
  EXPECT_NEAR(static_cast<double>(blocks4), static_cast<double>(blocks1),
              static_cast<double>(blocks1) * 0.05);
  // The streaming phase must speed up substantially with 4 drives.
  // This fixture has only 6 data disks, so 4-way scaling is disk-limited
  // around 2x (the bench geometry with ~27 data disks scales further).
  const SimDuration t1 = one.phase(JobPhase::kDumpBlocks).elapsed();
  const SimDuration t4 = four.phase(JobPhase::kDumpBlocks).elapsed();
  EXPECT_LT(t4, t1 * 5 / 8) << "physical dump scales to 4 tapes (Table 5)";
}

TEST(BackupJobsTest, ReportPhasesAreOrderedAndComplete) {
  JobFixture f;
  f.Populate(4 * kMiB);
  LogicalBackupJobResult backup;
  CountdownLatch done(&f.env, 1);
  f.env.Spawn(RunJob(&f.filer,
                     {.fs = f.src.get(),
                      .endpoints = {{.drive = f.drives[0].get()}}},
                     &backup, &done));
  f.env.Run();
  const JobReport& r = backup.report;
  ASSERT_TRUE(r.status.ok());
  // All of Table 3's logical-dump stages appear, in order.
  const PhaseStats& snap = r.phase(JobPhase::kCreateSnapshot);
  const PhaseStats& map = r.phase(JobPhase::kMap);
  const PhaseStats& dirs = r.phase(JobPhase::kDumpDirs);
  const PhaseStats& files = r.phase(JobPhase::kDumpFiles);
  const PhaseStats& del = r.phase(JobPhase::kDeleteSnapshot);
  for (const PhaseStats* p : {&snap, &map, &dirs, &files, &del}) {
    EXPECT_TRUE(p->active());
  }
  EXPECT_EQ(snap.elapsed(), f.filer.model().snapshot_create_time);
  EXPECT_NEAR(snap.CpuUtilization(), 0.5, 0.05);
  EXPECT_LE(snap.end, map.start);
  EXPECT_LE(map.end, dirs.start + kSecond);
  EXPECT_LE(dirs.start, files.start);
  EXPECT_LE(files.end, del.start);
  // The files phase moved the bulk of the stream.
  EXPECT_GT(files.tape_bytes, r.stream_bytes / 2);
  // Envelope covers all phases.
  EXPECT_EQ(r.start_time, snap.start);
  EXPECT_EQ(r.end_time, del.end);
}

}  // namespace
}  // namespace bkup
