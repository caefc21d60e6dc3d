// End-to-end tests for the composed multi-tape jobs: data correctness of
// parallel logical (quota-tree) and parallel physical (striped) backup and
// restore, plus the structural properties of the striping.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/backup/jobs.h"
#include "src/obs/trace.h"
#include "src/workload/population.h"

namespace bkup {
namespace {

VolumeGeometry Geometry() {
  VolumeGeometry geom;
  geom.num_raid_groups = 2;
  geom.disks_per_group = 4;
  geom.blocks_per_disk = 4096;
  return geom;
}

struct ParallelFixture {
  ParallelFixture() : filer(&env, FilerModel::F630()) {
    volume = Volume::Create(&env, "home", Geometry());
    fs = std::move(Filesystem::Format(volume.get(), &env)).value();
    WorkloadParams params;
    params.target_bytes = 16 * kMiB;
    params.quota_trees = 4;
    EXPECT_TRUE(PopulateFilesystem(fs.get(), params).ok());
    for (int i = 0; i < 4; ++i) {
      tapes.push_back(
          std::make_unique<Tape>("t" + std::to_string(i), 4ull * kGiB));
      drives.push_back(
          std::make_unique<TapeDrive>(&env, "d" + std::to_string(i)));
      drives.back()->LoadMedia(tapes.back().get());
    }
  }

  std::vector<StreamEndpoint> Endpoints() {
    std::vector<StreamEndpoint> out;
    for (auto& d : drives) {
      out.push_back({.drive = d.get()});
    }
    return out;
  }

  SimEnvironment env;
  Filer filer;
  std::unique_ptr<Volume> volume;
  std::unique_ptr<Filesystem> fs;
  std::vector<std::unique_ptr<Tape>> tapes;
  std::vector<std::unique_ptr<TapeDrive>> drives;
};

TEST(ParallelJobsTest, LogicalQuotaTreeRoundTrip) {
  ParallelFixture f;
  auto src_sums = ChecksumTree(f.fs->LiveReader()).value();
  ASSERT_GT(src_sums.size(), 50u);

  std::vector<std::string> subtrees;
  for (uint32_t k = 0; k < 4; ++k) {
    subtrees.push_back(QuotaTreePath(k));
  }
  ParallelJobResult<LogicalBackupJobResult> backup;
  CountdownLatch done(&f.env, 1);
  f.env.Spawn(RunJob(&f.filer,
                     {.fs = f.fs.get(),
                      .endpoints = f.Endpoints(),
                      .trees = subtrees},
                     &backup, &done));
  f.env.Run();
  ASSERT_TRUE(backup.merged.status.ok()) << backup.merged.status.ToString();
  ASSERT_EQ(backup.parts.size(), 4u);
  // Each quota tree produced an independent tape.
  for (int k = 0; k < 4; ++k) {
    EXPECT_GT(f.tapes[k]->size(), kMiB) << "tape " << k;
  }
  // The dump snapshot was shared and cleaned up.
  EXPECT_TRUE(f.fs->ListSnapshots().empty());

  // Restore all four tapes concurrently into a fresh filesystem.
  auto restore_volume = Volume::Create(&f.env, "r", Geometry());
  auto restore_fs =
      std::move(Filesystem::Format(restore_volume.get(), &f.env)).value();
  for (auto& d : f.drives) {
    d->Rewind();
  }
  ParallelJobResult<LogicalRestoreJobResult> restore;
  CountdownLatch rdone(&f.env, 1);
  f.env.Spawn(RunJob(&f.filer,
                     {.fs = restore_fs.get(),
                      .endpoints = f.Endpoints(),
                      .trees = subtrees},
                     &restore, &rdone));
  f.env.Run();
  ASSERT_TRUE(restore.merged.status.ok())
      << restore.merged.status.ToString();

  auto dst_sums = ChecksumTree(restore_fs->LiveReader()).value();
  EXPECT_EQ(src_sums, dst_sums);
}

TEST(ParallelJobsTest, StripedImagePartsPartitionTheBlockSet) {
  ParallelFixture f;
  ParallelJobResult<ImageBackupJobResult> backup;
  CountdownLatch done(&f.env, 1);
  f.env.Spawn(RunJob(&f.filer,
                     {.fs = f.fs.get(),
                      .endpoints = f.Endpoints(),
                      .delete_snapshot_after = false},
                     &backup, &done));
  f.env.Run();
  ASSERT_TRUE(backup.merged.status.ok());
  ASSERT_EQ(backup.parts.size(), 4u);

  // The four parts are pairwise disjoint and cover the full set.
  Bitmap unions(f.volume->num_blocks());
  uint64_t total = 0;
  for (size_t i = 0; i < 4; ++i) {
    const Bitmap& part = backup.parts[i]->dump.block_set;
    for (size_t j = i + 1; j < 4; ++j) {
      EXPECT_TRUE(part.DisjointWith(backup.parts[j]->dump.block_set))
          << "parts " << i << " and " << j << " overlap";
    }
    unions.OrWith(part);
    total += part.CountOnes();
  }
  EXPECT_EQ(unions.CountOnes(), total);
  // Every referenced block is covered.
  const uint64_t used =
      f.fs->blockmap().CountUsed();
  EXPECT_EQ(total, used);
}

TEST(ParallelJobsTest, StripedImageRoundTripBootsWithSnapshots) {
  ParallelFixture f;
  ASSERT_TRUE(f.fs->CreateSnapshot("history").ok());
  auto src_sums = ChecksumTree(f.fs->LiveReader()).value();

  ParallelJobResult<ImageBackupJobResult> backup;
  CountdownLatch done(&f.env, 1);
  f.env.Spawn(RunJob(&f.filer,
                     {.fs = f.fs.get(),
                      .endpoints = f.Endpoints(),
                      .delete_snapshot_after = false},
                     &backup, &done));
  f.env.Run();
  ASSERT_TRUE(backup.merged.status.ok());

  auto restore_volume = Volume::Create(&f.env, "r", Geometry());
  for (auto& d : f.drives) {
    d->Rewind();
  }
  ParallelJobResult<ImageRestoreJobResult> restore;
  CountdownLatch rdone(&f.env, 1);
  f.env.Spawn(RunJob(&f.filer,
                     {.volume = restore_volume.get(),
                      .endpoints = f.Endpoints()},
                     &restore, &rdone));
  f.env.Run();
  ASSERT_TRUE(restore.merged.status.ok())
      << restore.merged.status.ToString();

  auto mounted = Filesystem::Mount(restore_volume.get(), &f.env);
  ASSERT_TRUE(mounted.ok()) << mounted.status().ToString();
  auto dst_sums = ChecksumTree((*mounted)->LiveReader()).value();
  EXPECT_EQ(src_sums, dst_sums);
  // Snapshots travelled with the image parts.
  EXPECT_TRUE((*mounted)->SnapshotReader("history").ok());
}

TEST(ParallelJobsTest, PartsRunConcurrently) {
  ParallelFixture f;
  ParallelJobResult<ImageBackupJobResult> backup;
  CountdownLatch done(&f.env, 1);
  f.env.Spawn(RunJob(&f.filer, {.fs = f.fs.get(), .endpoints = f.Endpoints()},
                     &backup, &done));
  f.env.Run();
  ASSERT_TRUE(backup.merged.status.ok());
  // All four parts' streaming windows overlap substantially.
  SimTime latest_start = 0;
  SimTime earliest_end = std::numeric_limits<SimTime>::max();
  for (const auto& part : backup.parts) {
    const PhaseStats& p = part->report.phase(JobPhase::kDumpBlocks);
    latest_start = std::max(latest_start, p.start);
    earliest_end = std::min(earliest_end, p.end);
  }
  EXPECT_GT(earliest_end, latest_start)
      << "part windows must overlap (true concurrency)";
}

// Runs one job to completion and checks that it ended.
template <typename R>
void RunToEnd(ParallelFixture* f, const JobSpec& spec, R* result) {
  CountdownLatch done(&f->env, 1);
  f->env.Spawn(RunJob(&f->filer, spec, result, &done));
  f->env.Run();
  EXPECT_TRUE(done.done());
}

// Each part of a traced parallel restore gets its own job track. Parts that
// shared one name would share one track (tracks are keyed by name), and one
// part's End would close another part's phase span.
TEST(ParallelJobsTest, TracedParallelRestorePartsGetOneTrackEach) {
  for (const bool logical : {true, false}) {
    SCOPED_TRACE(logical ? "logical" : "physical");
    ParallelFixture f;
    std::vector<StreamEndpoint> two = f.Endpoints();
    two.resize(2);
    const std::vector<std::string> trees = {QuotaTreePath(0),
                                            QuotaTreePath(1)};
    auto restore_volume = Volume::Create(&f.env, "r", Geometry());
    auto restore_fs =
        std::move(Filesystem::Format(restore_volume.get(), &f.env)).value();
    std::set<std::string> job_tracks;
    auto collect_tracks = [&](const Tracer& tracer) {
      for (uint32_t t = 0; t < tracer.track_count(); ++t) {
        if (tracer.track_name(t).rfind("job:", 0) == 0) {
          job_tracks.insert(tracer.track_name(t));
        }
      }
    };
    if (logical) {
      ParallelJobResult<LogicalBackupJobResult> backup;
      RunToEnd(&f, {.fs = f.fs.get(), .endpoints = two, .trees = trees},
               &backup);
      ASSERT_TRUE(backup.merged.status.ok());
      f.drives[0]->Rewind();
      f.drives[1]->Rewind();
      Tracer tracer(&f.env);
      ParallelJobResult<LogicalRestoreJobResult> restore;
      RunToEnd(&f, {.fs = restore_fs.get(), .endpoints = two, .trees = trees},
               &restore);
      ASSERT_TRUE(restore.merged.status.ok())
          << restore.merged.status.ToString();
      collect_tracks(tracer);
      EXPECT_EQ(job_tracks, (std::set<std::string>{
                                "job:Logical restore [" + trees[0] + "]",
                                "job:Logical restore [" + trees[1] + "]"}));
    } else {
      ParallelJobResult<ImageBackupJobResult> backup;
      RunToEnd(&f, {.fs = f.fs.get(), .endpoints = two}, &backup);
      ASSERT_TRUE(backup.merged.status.ok());
      f.drives[0]->Rewind();
      f.drives[1]->Rewind();
      Tracer tracer(&f.env);
      ParallelJobResult<ImageRestoreJobResult> restore;
      RunToEnd(&f, {.volume = restore_volume.get(), .endpoints = two},
               &restore);
      ASSERT_TRUE(restore.merged.status.ok())
          << restore.merged.status.ToString();
      collect_tracks(tracer);
      EXPECT_EQ(job_tracks,
                (std::set<std::string>{"job:Physical restore [part 0/2]",
                                       "job:Physical restore [part 1/2]"}));
    }
  }
}

// A spec of the wrong shape ends the job at once with kInvalidArgument in
// every build type (an assert would compile out under NDEBUG and leave an
// out-of-bounds index): nothing is snapshotted, dumped or written.
TEST(ParallelJobsTest, MalformedSpecsFailWithInvalidArgument) {
  ParallelFixture f;
  const std::vector<StreamEndpoint> four = f.Endpoints();
  const std::vector<std::string> three = {QuotaTreePath(0), QuotaTreePath(1),
                                          QuotaTreePath(2)};
  auto expect_invalid = [](const Status& st) {
    EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument) << st.ToString();
  };

  // Parallel jobs: no endpoint, or a tree count other than one per part of
  // a logical job (and none for an image job).
  ParallelJobResult<LogicalBackupJobResult> no_drives;
  RunToEnd(&f, {.fs = f.fs.get(), .trees = three}, &no_drives);
  expect_invalid(no_drives.merged.status);
  EXPECT_TRUE(no_drives.parts.empty());
  ParallelJobResult<LogicalBackupJobResult> short_trees;
  RunToEnd(&f, {.fs = f.fs.get(), .endpoints = four, .trees = three},
           &short_trees);
  expect_invalid(short_trees.merged.status);
  EXPECT_TRUE(short_trees.parts.empty());
  ParallelJobResult<LogicalRestoreJobResult> restore_trees;
  RunToEnd(&f, {.fs = f.fs.get(), .endpoints = four, .trees = three},
           &restore_trees);
  expect_invalid(restore_trees.merged.status);
  ParallelJobResult<ImageRestoreJobResult> image_none;
  RunToEnd(&f, {.volume = f.volume.get()}, &image_none);
  expect_invalid(image_none.merged.status);
  ParallelJobResult<ImageBackupJobResult> image_trees;
  RunToEnd(&f, {.fs = f.fs.get(), .endpoints = four, .trees = three},
           &image_trees);
  expect_invalid(image_trees.merged.status);

  // Single jobs take exactly one endpoint and no trees.
  LogicalBackupJobResult single_none;
  RunToEnd(&f, {.fs = f.fs.get()}, &single_none);
  expect_invalid(single_none.report.status);
  ImageBackupJobResult single_four;
  RunToEnd(&f, {.fs = f.fs.get(), .endpoints = four}, &single_four);
  expect_invalid(single_four.report.status);
  LogicalRestoreJobResult single_tree;
  RunToEnd(&f,
           {.fs = f.fs.get(),
            .endpoints = {four[0]},
            .trees = {QuotaTreePath(0)}},
           &single_tree);
  expect_invalid(single_tree.report.status);

  EXPECT_TRUE(f.fs->ListSnapshots().empty());
  for (const auto& tape : f.tapes) {
    EXPECT_EQ(tape->size(), 0u);
  }
}

// A parallel backup whose shared snapshot cannot be created fails as a
// whole: the merged report carries the error, so a caller that reads only
// `merged` (the nightly scheduler) cannot count the volume as backed up.
TEST(ParallelJobsTest, ControlSnapshotFailureFailsTheMergedReport) {
  ParallelFixture f;
  ASSERT_TRUE(f.fs->CreateSnapshot("taken").ok());
  ParallelJobResult<LogicalBackupJobResult> backup;
  JobSpec spec{.fs = f.fs.get(),
               .endpoints = f.Endpoints(),
               .trees = {QuotaTreePath(0), QuotaTreePath(1), QuotaTreePath(2),
                         QuotaTreePath(3)}};
  spec.logical_dump.snapshot_name = "taken";  // a logical dump makes its own
  RunToEnd(&f, spec, &backup);
  EXPECT_EQ(backup.merged.status.code(), ErrorCode::kAlreadyExists)
      << backup.merged.status.ToString();
  EXPECT_TRUE(backup.parts.empty());
}

}  // namespace
}  // namespace bkup
