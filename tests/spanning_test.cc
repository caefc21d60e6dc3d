// Tests for multi-volume dumps (tape spanning) and the logical format's
// cross-geometry portability — physical restore's mirror-image limitation.
#include <gtest/gtest.h>

#include <memory>

#include "src/backup/jobs.h"
#include "src/image/image_dump.h"
#include "src/net/link.h"
#include "src/net/tape_server.h"
#include "src/workload/population.h"

namespace bkup {
namespace {

VolumeGeometry Geometry() {
  VolumeGeometry geom;
  geom.num_raid_groups = 2;
  geom.disks_per_group = 4;
  geom.blocks_per_disk = 2048;
  return geom;
}

struct SpanFixture {
  SpanFixture() : filer(&env, FilerModel::F630()) {
    volume = Volume::Create(&env, "home", Geometry());
    fs = std::move(Filesystem::Format(volume.get(), &env)).value();
    WorkloadParams params;
    params.target_bytes = 10 * kMiB;
    EXPECT_TRUE(PopulateFilesystem(fs.get(), params).ok());
  }
  SimEnvironment env;
  Filer filer;
  std::unique_ptr<Volume> volume;
  std::unique_ptr<Filesystem> fs;
};

TEST(SpanningTest, DumpSpansMultipleSmallTapes) {
  SpanFixture f;
  auto src_sums = ChecksumTree(f.fs->LiveReader()).value();

  // ~11 MiB of stream onto 4 MiB tapes: needs three volumes.
  Tape t0("vol.0", 4 * kMiB), t1("vol.1", 4 * kMiB), t2("vol.2", 4 * kMiB),
      t3("vol.3", 4 * kMiB);
  TapeDrive drive(&f.env, "dlt0");
  drive.LoadMedia(&t0);

  LogicalBackupJobResult backup;
  CountdownLatch done(&f.env, 1);
  f.env.Spawn(RunJob(&f.filer,
                     {.fs = f.fs.get(),
                      .endpoints = {{.drive = &drive,
                                     .spare_tapes = {&t1, &t2, &t3}}}},
                     &backup, &done));
  f.env.Run();
  ASSERT_TRUE(backup.report.status.ok())
      << backup.report.status.ToString();
  ASSERT_GE(backup.report.tapes_used.size(), 3u);
  EXPECT_EQ(backup.report.tapes_used[0], "vol.0");
  EXPECT_EQ(backup.report.tapes_used[1], "vol.1");
  // Every used tape except the last is essentially full.
  EXPECT_GT(t0.size(), 3 * kMiB);
  EXPECT_GT(t1.size(), 3 * kMiB);
  const uint64_t on_media = t0.size() + t1.size() + t2.size() + t3.size();
  EXPECT_EQ(on_media, backup.report.stream_bytes);

  // Restore from the ordered set.
  auto restore_volume = Volume::Create(&f.env, "r", Geometry());
  auto restore_fs =
      std::move(Filesystem::Format(restore_volume.get(), &f.env)).value();
  TapeDrive rdrive(&f.env, "dlt1");
  rdrive.LoadMedia(&t0);
  LogicalRestoreJobResult restore;
  CountdownLatch rdone(&f.env, 1);
  f.env.Spawn(RunJob(&f.filer,
                     {.fs = restore_fs.get(),
                      .endpoints = {{.drive = &rdrive,
                                     .spare_tapes = {&t1, &t2, &t3}}}},
                     &restore, &rdone));
  f.env.Run();
  ASSERT_TRUE(restore.report.status.ok())
      << restore.report.status.ToString();
  EXPECT_EQ(ChecksumTree(restore_fs->LiveReader()).value(), src_sums);
  EXPECT_GE(restore.report.tapes_used.size(), 3u);
}

TEST(SpanningTest, RunningOutOfSparesFailsCleanly) {
  SpanFixture f;
  Tape t0("only.0", 2 * kMiB), t1("only.1", 2 * kMiB);
  TapeDrive drive(&f.env, "dlt0");
  drive.LoadMedia(&t0);
  LogicalBackupJobResult backup;
  CountdownLatch done(&f.env, 1);
  f.env.Spawn(RunJob(&f.filer,
                     {.fs = f.fs.get(),
                      .endpoints = {{.drive = &drive, .spare_tapes = {&t1}}}},
                     &backup, &done));
  f.env.Run();
  EXPECT_EQ(backup.report.status.code(), ErrorCode::kNoSpace)
      << "an 11 MiB dump cannot fit on two 2 MiB tapes";
}

TEST(SpanningTest, MediaLoadTimeIsCharged) {
  SpanFixture f;
  // Single big tape vs a spanned set of the same total capacity: the
  // spanned run must be slower by roughly the media load times.
  auto run = [&f](std::vector<Tape*> spares, Tape* first) {
    TapeDrive drive(&f.env, "d");
    drive.LoadMedia(first);
    LogicalBackupJobResult backup;
    CountdownLatch done(&f.env, 1);
    f.env.Spawn(RunJob(&f.filer,
                       {.fs = f.fs.get(),
                        .endpoints = {{.drive = &drive,
                                       .spare_tapes = std::move(spares)}}},
                       &backup, &done));
    f.env.Run();
    EXPECT_TRUE(backup.report.status.ok());
    return backup.report.StreamElapsed();
  };
  Tape big("big", 1ull * kGiB);
  const SimDuration single = run({}, &big);
  Tape s0("s0", 4 * kMiB), s1("s1", 4 * kMiB), s2("s2", 4 * kMiB),
      s3("s3", 4 * kMiB);
  const SimDuration spanned = run({&s1, &s2, &s3}, &s0);
  const TapeTiming timing;
  EXPECT_GT(spanned, single + 2 * timing.load_time - kSecond)
      << "each media change should cost about one load time";
}

// The same spanning over a link: the tape server's writer loads the
// endpoint's spares as its drive fills, and a remote restore over the same
// endpoint splices the set back into one stream.
TEST(SpanningTest, RemoteDumpsSpanServerMedia) {
  SpanFixture f;
  const auto src_sums = ChecksumTree(f.fs->LiveReader()).value();
  NetLink link(&f.env, "wan", LinkParams{});
  TapeServer server(&f.env, "vault");
  TapeDrive* drive = server.AddDrive("dlt0");
  const std::vector<std::string> three_media = {"m.0", "m.1", "m.2"};

  // ~11 MiB of logical stream onto 5 MiB media: the mounted tape plus both
  // spares.
  Tape l0("m.0", 5 * kMiB), l1("m.1", 5 * kMiB), l2("m.2", 5 * kMiB);
  StreamEndpoint target{.link = &link,
                        .server = &server,
                        .drive = drive,
                        .spare_tapes = {&l1, &l2}};
  drive->LoadMedia(&l0);
  LogicalBackupJobResult backup;
  CountdownLatch done(&f.env, 1);
  f.env.Spawn(RunJob(&f.filer, {.fs = f.fs.get(), .endpoints = {target}},
                     &backup, &done));
  f.env.Run();
  ASSERT_TRUE(backup.report.status.ok()) << backup.report.status.ToString();
  EXPECT_EQ(backup.report.tapes_used, three_media);
  EXPECT_EQ(l0.size() + l1.size() + l2.size(), backup.report.stream_bytes);

  drive->LoadMedia(&l0);
  auto rvolume = Volume::Create(&f.env, "r", Geometry());
  auto rfs = std::move(Filesystem::Format(rvolume.get(), &f.env)).value();
  LogicalRestoreJobResult restore;
  CountdownLatch rdone(&f.env, 1);
  f.env.Spawn(RunJob(&f.filer, {.fs = rfs.get(), .endpoints = {target}},
                     &restore, &rdone));
  f.env.Run();
  ASSERT_TRUE(restore.report.status.ok()) << restore.report.status.ToString();
  EXPECT_EQ(restore.report.tapes_used, three_media);
  EXPECT_EQ(ChecksumTree(rfs->LiveReader()).value(), src_sums);

  // The image of the same volume, onto a fresh set of three.
  Tape i0("m.0", 5 * kMiB), i1("m.1", 5 * kMiB), i2("m.2", 5 * kMiB);
  target.spare_tapes = {&i1, &i2};
  drive->LoadMedia(&i0);
  ImageBackupJobResult ibackup;
  CountdownLatch idone(&f.env, 1);
  f.env.Spawn(RunJob(&f.filer, {.fs = f.fs.get(), .endpoints = {target}},
                     &ibackup, &idone));
  f.env.Run();
  ASSERT_TRUE(ibackup.report.status.ok())
      << ibackup.report.status.ToString();
  EXPECT_EQ(ibackup.report.tapes_used, three_media);

  drive->LoadMedia(&i0);
  auto ivolume = Volume::Create(&f.env, "i", Geometry());
  ImageRestoreJobResult irestore;
  CountdownLatch irdone(&f.env, 1);
  f.env.Spawn(RunJob(&f.filer, {.volume = ivolume.get(), .endpoints = {target}},
                     &irestore, &irdone));
  f.env.Run();
  ASSERT_TRUE(irestore.report.status.ok())
      << irestore.report.status.ToString();
  EXPECT_EQ(irestore.report.tapes_used, three_media);
  auto mounted = Filesystem::Mount(ivolume.get(), &f.env);
  ASSERT_TRUE(mounted.ok()) << mounted.status().ToString();
  EXPECT_EQ(ChecksumTree((*mounted)->LiveReader()).value(), src_sums);
}

// ---------------------------------------------------------- portability ---

TEST(PortabilityTest, LogicalTapeRestoresOntoAnyGeometry) {
  // "The benefit of any well-known format is that the data on a tape can
  // usually be easily restored on a different platform than that on which
  // it was dumped."
  SpanFixture f;
  auto src_sums = ChecksumTree(f.fs->LiveReader()).value();
  ASSERT_TRUE(f.fs->CreateSnapshot("s").ok());
  auto reader = f.fs->SnapshotReader("s").value();
  LogicalDumpOptions opt;
  opt.dump_time = f.env.now();
  auto dump = RunLogicalDump(reader, opt);
  ASSERT_TRUE(dump.ok());

  // A very different "machine": one big RAID group, different disk count
  // and sizes.
  VolumeGeometry other;
  other.num_raid_groups = 1;
  other.disks_per_group = 7;
  other.blocks_per_disk = 3000;
  auto volume = Volume::Create(&f.env, "other", other);
  auto fs = std::move(Filesystem::Format(volume.get(), &f.env)).value();
  ASSERT_TRUE(
      RunLogicalRestore(fs.get(), dump->stream, LogicalRestoreOptions{})
          .ok());
  EXPECT_EQ(ChecksumTree(fs->LiveReader()).value(), src_sums);

  // The physical image of the same data refuses the foreign geometry.
  auto image = RunImageDump(f.volume.get(), ImageDumpOptions{});
  ASSERT_TRUE(image.ok());
  auto volume2 = Volume::Create(&f.env, "other2", other);
  EXPECT_EQ(RunImageRestore(volume2.get(), image->stream).status().code(),
            ErrorCode::kUnsupported)
      << "physical restore is tied to the source geometry (Section 4)";
}

}  // namespace
}  // namespace bkup
