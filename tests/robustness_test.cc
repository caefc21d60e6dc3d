// Robustness scenarios from the paper: verify-after-write of tapes,
// dumping from a degraded RAID volume, restarting an interrupted restore,
// media defects while spanning multiple tapes, and a dump-record fuzzing
// sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>

#include "src/backup/supervisor.h"
#include "src/dump/catalog.h"
#include "src/dump/logical_dump.h"
#include "src/dump/logical_restore.h"
#include "src/dump/verify.h"
#include "src/faults/crash.h"
#include "src/faults/fault_injector.h"
#include "src/fs/filesystem.h"
#include "src/image/image_dump.h"
#include "src/util/random.h"
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

struct RobustFixture {
  RobustFixture() {
    volume = Volume::Create(&env, "home", Geometry());
    fs = std::move(Filesystem::Format(volume.get(), &env)).value();
    WorkloadParams params;
    params.target_bytes = 6 * kMiB;
    EXPECT_TRUE(PopulateFilesystem(fs.get(), params).ok());
  }

  LogicalDumpOutput Dump(int level = 0, int64_t base_time = 0) {
    EXPECT_TRUE(fs->CreateSnapshot("snap").ok());
    auto reader = fs->SnapshotReader("snap").value();
    LogicalDumpOptions opt;
    opt.volume_name = "home";
    opt.level = level;
    opt.base_time = base_time;
    opt.dump_time = env.now();
    auto out = RunLogicalDump(reader, opt);
    EXPECT_TRUE(out.ok());
    EXPECT_TRUE(fs->DeleteSnapshot("snap").ok());
    return std::move(out).value();
  }

  void AdvanceTime(SimDuration d) {
    env.Spawn([](SimEnvironment* e, SimDuration dur) -> Task {
      co_await e->Delay(dur);
    }(&env, d));
    env.Run();
  }

  SimEnvironment env;
  std::unique_ptr<Volume> volume;
  std::unique_ptr<Filesystem> fs;
};

// ------------------------------------------------------------- verify ---

TEST(VerifyTest, CleanTapeIsReadable) {
  RobustFixture f;
  LogicalDumpOutput dump = f.Dump();
  auto report = VerifyDumpStream(dump.stream);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->readable) << report->Summary();
  EXPECT_EQ(report->files + report->directories, report->inodes_seen);
  EXPECT_EQ(report->inodes_seen, report->inodes_expected);
  EXPECT_EQ(report->corrupt_records, 0u);
  EXPECT_EQ(report->out_of_order_records, 0u);
  EXPECT_EQ(report->data_blocks, dump.stats.data_blocks);
}

TEST(VerifyTest, DetectsHeaderCorruption) {
  RobustFixture f;
  LogicalDumpOutput dump = f.Dump();
  std::vector<uint8_t> bad = dump.stream;
  bad[bad.size() / 2] ^= 0xFF;
  auto report = VerifyDumpStream(bad);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->readable) << report->Summary();
}

TEST(VerifyTest, DetectsSilentDataCorruption) {
  RobustFixture f;
  LogicalDumpOutput dump = f.Dump();
  std::vector<uint8_t> bad = dump.stream;
  // Flip one bit far from any 1 KB header boundary: header CRCs all stay
  // valid, only a data CRC can catch it.
  for (size_t pos = bad.size() / 2; pos < bad.size(); ++pos) {
    if (pos % kDumpRecordSize == 512) {
      bad[pos] ^= 0x01;
      break;
    }
  }
  auto report = VerifyDumpStream(bad);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->readable);
  EXPECT_GT(report->data_crc_errors, 0u);
}

TEST(VerifyTest, DetectsTruncation) {
  RobustFixture f;
  LogicalDumpOutput dump = f.Dump();
  const std::span<const uint8_t> half(dump.stream.data(),
                                      dump.stream.size() / 2);
  auto report = VerifyDumpStream(half);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->readable) << "no end marker must fail verification";
}

// -------------------------------------------------- degraded-mode dumps ---

TEST(DegradedTest, BackupsRunFromDegradedRaid) {
  RobustFixture f;
  auto sums = ChecksumTree(f.fs->LiveReader()).value();
  // Lose one drive in each RAID group; reads reconstruct from parity.
  f.volume->disk(0)->Fail();
  f.volume->disk(5)->Fail();

  // Logical dump still produces a fully verifiable tape.
  LogicalDumpOutput logical = f.Dump();
  auto verify = VerifyDumpStream(logical.stream);
  ASSERT_TRUE(verify.ok());
  EXPECT_TRUE(verify->readable) << verify->Summary();

  // Image dump still produces a restorable image.
  ASSERT_TRUE(f.fs->CreateSnapshot("xfer").ok());
  auto image = RunImageDump(f.volume.get(), ImageDumpOptions{});
  ASSERT_TRUE(image.ok()) << image.status().ToString();

  // Both restore correctly on healthy hardware.
  SimEnvironment env2;
  auto lvol = Volume::Create(&env2, "l", Geometry());
  auto lfs = std::move(Filesystem::Format(lvol.get(), &env2)).value();
  ASSERT_TRUE(
      RunLogicalRestore(lfs.get(), logical.stream, LogicalRestoreOptions{})
          .ok());
  EXPECT_EQ(ChecksumTree(lfs->LiveReader()).value(), sums);

  auto pvol = Volume::Create(&env2, "p", Geometry());
  ASSERT_TRUE(RunImageRestore(pvol.get(), image->stream).ok());
  auto mounted = Filesystem::Mount(pvol.get(), &env2);
  ASSERT_TRUE(mounted.ok());
  EXPECT_EQ(ChecksumTree((*mounted)->LiveReader()).value(), sums);
}

// ------------------------------------------------- interrupted restores ---

TEST(RestartTest, InterruptedRestoreConvergesOnRerun) {
  // Footnote 2's premise: "it is simple to restart a restore which is
  // interrupted by a crash." A partial restore followed by a full re-run
  // of the same tape must converge to the correct tree.
  RobustFixture f;
  auto sums = ChecksumTree(f.fs->LiveReader()).value();
  LogicalDumpOutput dump = f.Dump();

  SimEnvironment env2;
  auto volume = Volume::Create(&env2, "r", Geometry());
  auto fs = std::move(Filesystem::Format(volume.get(), &env2)).value();

  // "Crash" partway: feed only 60% of the stream (salvage path), then the
  // filer reboots from its last consistency point.
  const std::span<const uint8_t> partial(dump.stream.data(),
                                         dump.stream.size() * 6 / 10);
  ASSERT_TRUE(
      RunLogicalRestore(fs.get(), partial, LogicalRestoreOptions{}).ok());
  fs.reset();
  auto rebooted = Filesystem::Mount(volume.get(), &env2);
  ASSERT_TRUE(rebooted.ok());

  // Operator reruns the whole restore.
  ASSERT_TRUE(RunLogicalRestore(rebooted->get(), dump.stream,
                                LogicalRestoreOptions{})
                  .ok());
  EXPECT_EQ(ChecksumTree((*rebooted)->LiveReader()).value(), sums);
}

TEST(RestartTest, SupervisedRestoreResumesAfterFilerRestart) {
  // A filer restart mid-restore: the partially restored tree survives on
  // disk via the last consistency point, and a supervised re-run of the
  // same media converges on the correct tree.
  RobustFixture f;
  auto sums = ChecksumTree(f.fs->LiveReader()).value();
  Filer filer(&f.env, FilerModel::F630());

  Tape t0("night.0", 32 * kMiB);
  TapeDrive drive(&f.env, "dlt0");
  drive.LoadMedia(&t0);
  SupervisionPolicy policy;
  LogicalBackupJobResult backup;
  CountdownLatch done(&f.env, 1);
  f.env.Spawn(RunJob(&filer,
                     {.fs = f.fs.get(),
                      .endpoints = {{.drive = &drive, .supervision = &policy}}},
                     &backup, &done));
  f.env.Run();
  ASSERT_TRUE(backup.report.status.ok());
  EXPECT_FALSE(backup.report.faults.any())
      << "a fault-free run must report all-zero fault counters";

  // "Crash" partway through the restore: only 60% of the stream lands
  // before the filer reboots from its last consistency point.
  auto volume = Volume::Create(&f.env, "r", Geometry());
  auto fs = std::move(Filesystem::Format(volume.get(), &f.env)).value();
  const std::span<const uint8_t> partial(t0.contents().data(),
                                         t0.size() * 6 / 10);
  ASSERT_TRUE(
      RunLogicalRestore(fs.get(), partial, LogicalRestoreOptions{}).ok());
  fs.reset();
  auto rebooted = Filesystem::Mount(volume.get(), &f.env);
  ASSERT_TRUE(rebooted.ok());

  // The operator reruns the restore, supervised, from the same media.
  TapeDrive rdrive(&f.env, "dlt1");
  rdrive.LoadMedia(&t0);
  LogicalRestoreJobResult restore;
  CountdownLatch rdone(&f.env, 1);
  f.env.Spawn(RunJob(&filer,
                     {.fs = rebooted->get(),
                      .endpoints = {{.drive = &rdrive,
                                     .supervision = &policy}}},
                     &restore, &rdone));
  f.env.Run();
  ASSERT_TRUE(restore.report.status.ok())
      << restore.report.status.ToString();
  EXPECT_EQ(ChecksumTree((*rebooted)->LiveReader()).value(), sums);
}

TEST(RestartTest, KilledIncrementalRestoreResumesWithoutReapplying) {
  // A restore of a level-1 incremental is killed mid-file-section, the
  // target reboots from its last consistency point, and the resumed run
  // must (a) skip every file the killed run already applied and (b) still
  // converge on the source tree — deletions included.
  RobustFixture f;
  ASSERT_TRUE(f.fs->Mkdir("/inc", 0755).ok());
  Rng rng(17);
  std::vector<uint8_t> doomed(2 * kBlockSize);
  rng.Fill(doomed);
  auto doomed_inum = f.fs->Create("/inc/doomed.dat", 0644);
  ASSERT_TRUE(doomed_inum.ok());
  ASSERT_TRUE(f.fs->Write(*doomed_inum, 0, doomed).ok());

  f.AdvanceTime(5 * kSecond);
  LogicalDumpOutput level0 = f.Dump(0);
  const int64_t level0_time = f.env.now();

  // Restore level 0 to a fresh target, carrying a symtable.
  auto volume = Volume::Create(&f.env, "r", Geometry());
  auto target = std::move(Filesystem::Format(volume.get(), &f.env)).value();
  RestoreSymtable symtable;
  {
    LogicalRestoreOptions opt;
    opt.symtable = &symtable;
    ASSERT_TRUE(RunLogicalRestore(target.get(), level0.stream, opt).ok());
  }

  // Mutate the source: one deletion plus a batch of new files, so the
  // incremental has a file section worth killing in the middle of.
  f.AdvanceTime(10 * kSecond);
  ASSERT_TRUE(f.fs->Unlink("/inc/doomed.dat").ok());
  for (int i = 0; i < 10; ++i) {
    const std::string path = "/inc/f" + std::to_string(i) + ".dat";
    auto inum = f.fs->Create(path, 0644);
    ASSERT_TRUE(inum.ok());
    std::vector<uint8_t> data(3 * kBlockSize);
    rng.Fill(data);
    ASSERT_TRUE(f.fs->Write(*inum, 0, data).ok());
  }
  f.AdvanceTime(5 * kSecond);
  LogicalDumpOutput level1 = f.Dump(1, level0_time);
  auto source_sums = ChecksumTree(f.fs->LiveReader()).value();
  auto catalog = TapeCatalog::Load(level1.catalog_image);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();

  // Kill the incremental restore halfway through its file section.
  CrashPlan plan;
  plan.seed = 23;
  plan.KillAtOffset((catalog->directory_end() + catalog->stream_end()) / 2);
  CrashInjector injector(plan);

  LogicalRestoreOptions opt;
  opt.symtable = &symtable;
  opt.apply_moves_and_deletes = true;
  opt.catalog = &*catalog;
  opt.checkpoint_every = 2;
  opt.kill = &injector;
  auto killed = RunLogicalRestore(target.get(), level1.stream, opt);
  ASSERT_TRUE(killed.ok()) << killed.status().ToString();
  ASSERT_TRUE(killed->interrupted);
  EXPECT_GT(killed->stats.files_restored, 0u) << "kill must land mid-files";
  EXPECT_GT(killed->stats.checkpoints, 0u);

  // Crash-reboot: drop the in-memory file system, remount the last CP.
  target.reset();
  auto rebooted = Filesystem::Mount(volume.get(), &f.env);
  ASSERT_TRUE(rebooted.ok());

  // Resume. The catalog diff must keep the killed run's durable files.
  opt.resume = true;
  auto resumed = RunLogicalRestore(rebooted->get(), level1.stream, opt);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_FALSE(resumed->interrupted);
  EXPECT_GT(resumed->stats.files_already_complete, 0u)
      << "already-applied entries must not be re-restored";
  EXPECT_GT(resumed->stats.entries_skipped, 0u);
  EXPECT_GT(resumed->stats.bytes_skipped, 0u);
  EXPECT_LT(resumed->stats.bytes_replayed, level1.stream.size())
      << "the resumed run must replay strictly less than the whole stream";
  // Nothing the killed run made durable is re-applied: the incremental has
  // exactly 10 files, and the resume run recreates only those lost past the
  // last consistency point.
  EXPECT_EQ(
      resumed->stats.files_restored + resumed->stats.files_already_complete,
      10u);
  EXPECT_LT(resumed->stats.files_restored, 10u)
      << "resume restored every file again";

  EXPECT_FALSE((*rebooted)->LookupPath("/inc/doomed.dat").ok())
      << "deletion must propagate through the resumed incremental";
  auto got_sums = ChecksumTree((*rebooted)->LiveReader()).value();
  for (const auto& [path, crc] : source_sums) {
    auto it = got_sums.find(path);
    if (it == got_sums.end()) {
      ADD_FAILURE() << "missing after resume: " << path;
    } else if (it->second != crc) {
      ADD_FAILURE() << "content differs after resume: " << path;
    }
  }
  for (const auto& [path, crc] : got_sums) {
    if (source_sums.count(path) == 0) {
      ADD_FAILURE() << "extra after resume: " << path;
    }
  }
}

// ------------------------------------------------- spanning with faults ---

TEST(SpanningFaultTest, DefectOnSecondTapeRemountsAndRestores) {
  // A multi-volume dump hits a media defect on its *second* tape: only that
  // media is abandoned — the first tape's checkpoint survives — and the
  // restorable set splices tape 1 with the rewritten spare.
  RobustFixture f;
  auto sums = ChecksumTree(f.fs->LiveReader()).value();
  Filer filer(&f.env, FilerModel::F630());

  // ~6.6 MiB of stream over 4 MiB tapes: spans onto a second volume.
  Tape t0("span.0", 4 * kMiB), t1("span.1", 4 * kMiB),
      t2("span.2", 4 * kMiB), t3("span.3", 4 * kMiB);
  TapeDrive drive(&f.env, "dlt0");
  drive.LoadMedia(&t0);

  FaultPlan plan;
  plan.seed = 9;
  // Offsets are tape-local: byte 1 MiB into span.1, not into the stream.
  plan.TapeMediaDefect("span.1", 1 * kMiB, 64 * kKiB);
  FaultInjector injector(&f.env, plan);
  injector.Arm(&drive);

  SupervisionPolicy policy;
  LogicalBackupJobResult backup;
  CountdownLatch done(&f.env, 1);
  f.env.Spawn(RunJob(&filer,
                     {.fs = f.fs.get(),
                      .endpoints = {{.drive = &drive,
                                     .spare_tapes = {&t1, &t2, &t3},
                                     .supervision = &policy}}},
                     &backup, &done));
  f.env.Run();
  ASSERT_TRUE(backup.report.status.ok())
      << backup.report.status.ToString();
  EXPECT_EQ(backup.report.faults.tape_remounts, 1u);
  EXPECT_GT(backup.report.faults.bytes_rewritten, 0u);
  ASSERT_EQ(backup.report.tapes_used.size(), 3u)
      << "span.0, the abandoned span.1, and the spare";
  ASSERT_EQ(backup.report.final_media.size(), 2u);
  EXPECT_EQ(backup.report.final_media[0], "span.0");
  EXPECT_EQ(backup.report.final_media[1], "span.2");

  // Restore reads the final media set, in order.
  auto rvolume = Volume::Create(&f.env, "r", Geometry());
  auto rfs = std::move(Filesystem::Format(rvolume.get(), &f.env)).value();
  TapeDrive rdrive(&f.env, "dlt1");
  rdrive.LoadMedia(&t0);
  LogicalRestoreJobResult restore;
  CountdownLatch rdone(&f.env, 1);
  f.env.Spawn(RunJob(&filer,
                     {.fs = rfs.get(),
                      .endpoints = {{.drive = &rdrive,
                                     .spare_tapes = {&t2},
                                     .supervision = &policy}}},
                     &restore, &rdone));
  f.env.Run();
  ASSERT_TRUE(restore.report.status.ok())
      << restore.report.status.ToString();
  EXPECT_EQ(ChecksumTree(rfs->LiveReader()).value(), sums);
}

// ------------------------------------------------------------- fuzzing ---

class RecordFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RecordFuzzTest, ParseNeverCrashesOnGarbage) {
  Rng rng(GetParam());
  std::vector<uint8_t> garbage(kDumpRecordSize);
  for (int i = 0; i < 500; ++i) {
    rng.Fill(garbage);
    // Random bytes virtually never checksum correctly; Parse must reject
    // them gracefully (and certainly never crash or read out of bounds).
    auto rec = DumpRecord::Parse(garbage);
    EXPECT_FALSE(rec.ok());
  }
}

TEST_P(RecordFuzzTest, BitflippedRealRecordsParseOrRejectCleanly) {
  Rng rng(GetParam() + 1000);
  DumpRecord rec;
  rec.type = DumpRecordType::kInode;
  rec.inum = 77;
  rec.attrs = {InodeType::kFile, 0644, 1, 0, 0, 4096, 1, 2, 3, 4};
  rec.total_blocks = 1;
  rec.map_count = 1;
  rec.present_count = 1;
  rec.block_map = {1};
  const auto clean = rec.Serialize().value();
  for (int i = 0; i < 500; ++i) {
    std::vector<uint8_t> mutated = clean;
    const size_t byte = rng.Below(mutated.size());
    mutated[byte] ^= static_cast<uint8_t>(1u << rng.Below(8));
    auto parsed = DumpRecord::Parse(mutated);
    // A single bit flip must be caught by the header CRC.
    EXPECT_FALSE(parsed.ok()) << "flip at byte " << byte;
  }
}

// Every reader of the logical stream survives the same damage and agrees
// with the others: a restore that succeeds implies a name catalog that
// builds, a record the restore skipped makes verify fail the tape, and the
// scanned offset index holds only records the clean stream holds.
void ExpectStreamReadersAgree(std::span<const uint8_t> stream,
                              const std::vector<TapeCatalog::Entry>& clean,
                              bool restore_must_succeed) {
  SimEnvironment env;
  auto volume = Volume::Create(&env, "r", Geometry());
  auto fs = std::move(Filesystem::Format(volume.get(), &env)).value();
  // Must not crash; damaged files are skipped, everything else restores.
  auto restored = RunLogicalRestore(fs.get(), stream, LogicalRestoreOptions{});
  if (restore_must_succeed) {
    EXPECT_TRUE(restored.ok()) << restored.status().ToString();
  }
  auto names = BuildRestoreCatalog(stream);
  auto verify = VerifyDumpStream(stream);
  if (restored.ok()) {
    EXPECT_TRUE(names.ok()) << names.status().ToString();
    if (restored->stats.corrupt_records_skipped > 0) {
      ASSERT_TRUE(verify.ok()) << verify.status().ToString();
      EXPECT_FALSE(verify->readable) << verify->Summary();
    }
  }
  auto scanned = TapeCatalog::FromStream(stream);
  if (scanned.ok()) {
    for (const TapeCatalog::Entry& e : scanned->entries()) {
      EXPECT_NE(std::ranges::find(clean, e), clean.end())
          << "entry at " << e.offset << " is not in the clean stream";
    }
  }
}

TEST_P(RecordFuzzTest, RestoreSurvivesRandomStreamMutations) {
  RobustFixture f;
  LogicalDumpOutput dump = f.Dump();
  Rng rng(GetParam() + 2000);
  std::vector<uint8_t> mutated = dump.stream;
  for (int i = 0; i < 20; ++i) {
    mutated[rng.Below(mutated.size())] ^= 0x40;
  }
  const std::vector<TapeCatalog::Entry>& clean = dump.catalog.entries();
  {
    SCOPED_TRACE("mutated");
    ExpectStreamReadersAgree(mutated, clean, /*restore_must_succeed=*/true);
  }
  SCOPED_TRACE("mutated and truncated");
  ExpectStreamReadersAgree(std::span(mutated).first(rng.Below(mutated.size())),
                           clean, /*restore_must_succeed=*/false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecordFuzzTest, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace bkup
