// Tests for multi-volume dumps (tape spanning), the pinned bytes of dump,
// image and tape streams, and the logical format's cross-geometry
// portability — physical restore's mirror-image limitation.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "src/backup/jobs.h"
#include "src/image/image_dump.h"
#include "src/net/link.h"
#include "src/net/tape_server.h"
#include "src/util/checksum.h"
#include "src/util/serdes.h"
#include "src/workload/aging.h"
#include "src/workload/population.h"
#include "tests/media_invariants.h"

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
  // Spans fall at the offsets they always have, and the set concatenated
  // is the stream.
  ExpectTapesSliceStream({&t0, &t1, &t2, &t3}, backup.dump.stream);
  ExpectReportMatchesMedia(backup.report, {&t0, &t1, &t2, &t3},
                           backup.dump.stream);
  EXPECT_EQ((std::vector<uint64_t>{t0.size(), t1.size(), t2.size(), t3.size()}),
            (std::vector<uint64_t>{4185856, 4113408, 2675712, 0}));

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
  // The first tape spans where it always has. The second holds exactly the
  // stream up to the write that found it full: no later frame is written
  // after that failure, so the set is a prefix of the stream with no gap,
  // and the failed job bills only those bytes.
  ExpectReportMatchesMedia(backup.report, {&t0, &t1}, backup.dump.stream);
  EXPECT_EQ(backup.report.final_media,
            (std::vector<std::string>{"only.0", "only.1"}));
  for (Tape* t : {&t0, &t1}) {
    EXPECT_LE(t->mutable_bytes().capacity(), t->capacity()) << t->label();
  }
  EXPECT_EQ(Crc32c(t0.contents()), 0x48d820b9u);
  EXPECT_EQ(t0.size(), 2076416u);
  EXPECT_EQ(Crc32c(t1.contents()), 0xbefdf65au);
  EXPECT_EQ(t1.size(), 1847296u);
  EXPECT_TRUE(std::ranges::equal(
      t1.contents(),
      std::span(backup.dump.stream).subspan(t0.size(), 1847296)));
  // The replay stops once the media are full: it reads from disk only the
  // trace events that begin within what the tapes hold plus what was in
  // flight, the producer's channel of 8 chunks of 256 KiB, the chunk the
  // writer holds and the one the producer was sending.
  const uint64_t in_flight = 10 * 256 * kKiB;
  uint64_t bound = 0, full = 0, begin = 0;
  for (const IoEvent& e : backup.dump.trace.events) {
    const uint64_t bytes = e.disk_reads.size() * kBlockSize;
    full += bytes;
    bound += begin <= t0.size() + t1.size() + in_flight ? bytes : 0;
    begin = e.stream_end;
  }
  EXPECT_LE(backup.report.total_disk_bytes(), bound);
  EXPECT_LT(bound, full);
}

// A backup starts at the head of its first media: one whose drive sits past
// data already recorded is refused, and the tape keeps exactly what it held.
TEST(SpanningTest, BackupPastRecordedDataIsRefused) {
  SpanFixture f;
  Tape t0("used.0", 32 * kMiB);
  TapeDrive drive(&f.env, "dlt0");
  drive.LoadMedia(&t0);
  const std::vector<uint8_t> recorded(64 * kKiB, 0xAB);
  ASSERT_TRUE(drive.WriteData(recorded).ok());
  LogicalBackupJobResult backup;
  CountdownLatch done(&f.env, 1);
  f.env.Spawn(RunJob(&f.filer,
                     {.fs = f.fs.get(), .endpoints = {{.drive = &drive}}},
                     &backup, &done));
  f.env.Run();
  ASSERT_TRUE(done.done());
  EXPECT_EQ(backup.report.status.code(), ErrorCode::kFailedPrecondition)
      << backup.report.status.ToString();
  EXPECT_TRUE(std::ranges::equal(t0.contents(), recorded));
  EXPECT_EQ(backup.report.total_tape_bytes(), 0u);
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
    f.env.Spawn(RunJob(
        &f.filer,
        {.fs = f.fs.get(),
         .endpoints = {{.drive = &drive, .spare_tapes = spares}}},
        &backup, &done));
    f.env.Run();
    EXPECT_TRUE(backup.report.status.ok());
    spares.push_back(first);
    ExpectReportMatchesMedia(backup.report, spares, backup.dump.stream);
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
  ExpectReportMatchesMedia(backup.report, {&l0, &l1, &l2}, backup.dump.stream);

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
  ExpectReportMatchesMedia(ibackup.report, {&i0, &i1, &i2},
                           ibackup.dump.stream);

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

// ------------------------------------------------------- stream bytes ---

// A seeded, aged volume with a level-0 snapshot `l0` and, after churn, a
// level-1 snapshot `l1`.
struct AgedFixture : SpanFixture {
  AgedFixture() {
    AgingParams aging;
    aging.seed = 2424;
    aging.rounds = 2;
    EXPECT_TRUE(AgeFilesystem(fs.get(), aging).ok());
    Advance(5 * kSecond);
    EXPECT_TRUE(fs->CreateSnapshot("l0").ok());
    l0_time = env.now();
    Advance(10 * kSecond);
    aging.seed = 4242;
    aging.rounds = 1;
    aging.churn_fraction = 0.1;
    EXPECT_TRUE(AgeFilesystem(fs.get(), aging).ok());
    EXPECT_TRUE(fs->CreateSnapshot("l1").ok());
  }
  void Advance(SimDuration d) {
    env.Spawn([](SimEnvironment* e, SimDuration dur) -> Task {
      co_await e->Delay(dur);
    }(&env, d));
    env.Run();
  }
  LogicalDumpOutput Dump(const std::string& snap, int level,
                         int64_t base_time) {
    auto reader = fs->SnapshotReader(snap);
    EXPECT_TRUE(reader.ok());
    LogicalDumpOptions opt;
    opt.level = level;
    opt.base_time = base_time;
    opt.snapshot_name = snap;
    opt.dump_time = env.now();
    auto out = RunLogicalDump(*reader, opt);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return std::move(out).value();
  }
  ImageDumpOutput Image(ImageDumpOptions opt) {
    opt.dump_time = env.now();
    auto out = RunImageDump(volume.get(), opt);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return std::move(out).value();
  }
  int64_t l0_time = 0;
};

struct Pin {
  uint32_t crc;
  uint64_t bytes;
  bool operator==(const Pin&) const = default;
};
std::ostream& operator<<(std::ostream& os, const Pin& p) {
  return os << "{0x" << std::hex << p.crc << std::dec << ", " << p.bytes
            << "}";
}
Pin PinOf(std::span<const uint8_t> bytes) {
  return {Crc32c(bytes), bytes.size()};
}

// The dump and image streams are tape formats: how the engines size and fill
// their buffers must not move a byte. These values were captured before the
// streams were sized up front. Each stream is also allocated exactly once, at
// its final size.
TEST(StreamBytesTest, DumpAndImageStreamsArePinned) {
  AgedFixture f;
  const LogicalDumpOutput level0 = f.Dump("l0", 0, 0);
  const LogicalDumpOutput level1 = f.Dump("l1", 1, f.l0_time);
  ImageDumpOptions opt;
  opt.snapshot_name = "l1";
  const ImageDumpOutput full = f.Image(opt);
  opt.part_index = 1;
  opt.part_count = 3;
  const ImageDumpOutput part = f.Image(opt);
  opt.part_index = 0;
  opt.part_count = 1;
  opt.base_snapshot = "l0";
  const ImageDumpOutput incr = f.Image(opt);
  const std::vector<const std::vector<uint8_t>*> streams = {
      &level0.stream, &level1.stream, &full.stream, &part.stream,
      &incr.stream};
  const Pin kWant[] = {
      {0x37fcb35b, 10824448},  // logical level 0
      {0x08ca83d0, 1796864},   // logical level 1
      {0xb3779db8, 12156960},  // image, full
      {0x0e8cde03, 3724640},   // image, part 2 of 3
      {0x653a1c36, 1155360},   // image, incremental
  };
  for (size_t i = 0; i < streams.size(); ++i) {
    EXPECT_EQ(PinOf(*streams[i]), kWant[i]) << "stream " << i;
    EXPECT_EQ(streams[i]->capacity(), streams[i]->size()) << "stream " << i;
  }
}

// A spanning logical and image backup of the aged volume over small tapes:
// every tape holds the same bytes it always has.
TEST(StreamBytesTest, SpannedTapesArePinned) {
  AgedFixture f;
  std::vector<std::unique_ptr<Tape>> media;
  for (int i = 0; i < 8; ++i) {
    media.push_back(
        std::make_unique<Tape>("t." + std::to_string(i), 3 * kMiB));
  }
  TapeDrive drive(&f.env, "dlt0");

  drive.LoadMedia(media[0].get());
  LogicalBackupJobResult logical;
  CountdownLatch done(&f.env, 1);
  f.env.Spawn(RunJob(
      &f.filer,
      {.fs = f.fs.get(),
       .endpoints = {{.drive = &drive,
                      .spare_tapes = {media[1].get(), media[2].get(),
                                      media[3].get()}}}},
      &logical, &done));
  f.env.Run();
  ASSERT_TRUE(logical.report.status.ok()) << logical.report.status.ToString();

  drive.LoadMedia(media[4].get());
  ImageBackupJobResult image;
  CountdownLatch idone(&f.env, 1);
  f.env.Spawn(RunJob(
      &f.filer,
      {.fs = f.fs.get(),
       .endpoints = {{.drive = &drive,
                      .spare_tapes = {media[5].get(), media[6].get(),
                                      media[7].get()}}}},
      &image, &idone));
  f.env.Run();
  ASSERT_TRUE(image.report.status.ok()) << image.report.status.ToString();

  ExpectTapesSliceStream({media[0].get(), media[1].get(), media[2].get(),
                          media[3].get()},
                         logical.dump.stream);
  ExpectTapesSliceStream({media[4].get(), media[5].get(), media[6].get(),
                          media[7].get()},
                         image.dump.stream);
  std::vector<Tape*> tapes;
  for (const auto& t : media) {
    tapes.push_back(t.get());
  }
  ExpectReportMatchesMedia(logical.report, tapes, logical.dump.stream);
  ExpectReportMatchesMedia(image.report, tapes, image.dump.stream);
  const Pin kWant[] = {
      {0x0827e6a8, 3059456}, {0xbaae5c91, 3116032},  // logical
      {0x9ab64bf4, 3136512}, {0x92dbf5a9, 1504256},
      {0x774c369b, 3142656}, {0xfeef1994, 3126624},  // image
      {0xaf106fd2, 3085344}, {0x1bdedc14, 2851520},
  };
  for (size_t i = 0; i < media.size(); ++i) {
    EXPECT_EQ(PinOf(media[i]->contents()), kWant[i]) << media[i]->label();
  }
}

// An inode's `size` never sizes a dump buffer. A sparse file whose size
// runs gigabytes past its one block dumps as that block, and a file whose
// on-disk size was overwritten with 2^62 fails the dump with a Status, or
// is skipped under skip_unreadable; either way the stream stays within the
// volume.
TEST(StreamBytesTest, InodeSizeNeverSizesTheStream) {
  SpanFixture f;
  const std::vector<uint8_t> bytes(100, 0x5a);
  auto sparse = f.fs->Create("/sparse", 0644);
  ASSERT_TRUE(sparse.ok());
  ASSERT_TRUE(f.fs->Write(*sparse, 3 * kGiB, bytes).ok());
  auto huge = f.fs->Create("/huge", 0644);
  ASSERT_TRUE(huge.ok());
  ASSERT_TRUE(f.fs->Write(*huge, 0, bytes).ok());
  ASSERT_TRUE(f.fs->CreateSnapshot("s").ok());
  const FsReader reader = f.fs->SnapshotReader("s").value();
  const uint64_t volume_bytes = f.volume->num_blocks() * kBlockSize;

  LogicalDumpOptions opt;
  auto dump = RunLogicalDump(reader, opt);
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  EXPECT_LT(dump->stream.size(), volume_bytes);

  // Overwrite /huge's size field in its inode-file block, in place.
  const Vbn ivbn = reader.InodeFileVbn(*huge);
  ASSERT_NE(ivbn, 0u);
  Block block;
  ASSERT_TRUE(f.volume->ReadBlock(ivbn, &block).ok());
  const size_t at = (*huge % kInodesPerBlock) * kInodeSize;
  ByteReader in(std::span(block.data).subspan(at, kInodeSize));
  InodeData inode = InodeData::Deserialize(&in).value();
  inode.size = uint64_t{1} << 62;
  std::vector<uint8_t> raw;
  ByteWriter out(&raw);
  inode.SerializeTo(&out);
  std::ranges::copy(raw, block.data.begin() + static_cast<long>(at));
  ASSERT_TRUE(f.volume->WriteBlock(ivbn, block).ok());

  EXPECT_EQ(RunLogicalDump(reader, opt).status().code(),
            ErrorCode::kCorruption);
  opt.skip_unreadable = true;
  auto skipped = RunLogicalDump(reader, opt);
  ASSERT_TRUE(skipped.ok()) << skipped.status().ToString();
  EXPECT_EQ(skipped->stats.files_skipped, 1u);
  EXPECT_LT(skipped->stream.size(), dump->stream.size());
  for (const LogicalDumpOutput* d : {&*dump, &*skipped}) {
    EXPECT_EQ(d->stream.capacity(), d->stream.size());
  }
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
