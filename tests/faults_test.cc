// Tests for the deterministic fault-injection engine (src/faults) and the
// self-healing supervised jobs (src/backup/supervisor.h): transient-window
// gating, byte-odometer disk death, media defects, retry/backoff schedules,
// hot-spare reconstruction, tape remount checkpointing, graceful logical
// degradation — and that every one of them replays bit-identically from the
// same FaultPlan seed.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/backup/supervisor.h"
#include "src/dump/logical_restore.h"
#include "src/faults/fault_injector.h"
#include "src/image/image_dump.h"
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

// ------------------------------------------------------- retry schedule ---

TEST(RetryPolicyTest, BackoffIsExponentialAndCapped) {
  RetryPolicy policy;  // 100 ms, x2, cap 10 s
  EXPECT_EQ(policy.BackoffBefore(1), 100 * kMillisecond);
  EXPECT_EQ(policy.BackoffBefore(2), 200 * kMillisecond);
  EXPECT_EQ(policy.BackoffBefore(3), 400 * kMillisecond);
  EXPECT_EQ(policy.BackoffBefore(7), 6400 * kMillisecond);
  EXPECT_EQ(policy.BackoffBefore(8), 10 * kSecond) << "12.8 s caps at 10 s";
  EXPECT_EQ(policy.BackoffBefore(20), 10 * kSecond);
}

// -------------------------------------------------------- injector units ---

Task AccessAt(SimEnvironment* env, Disk* disk, SimTime at, Dbn dbn,
              Status* st) {
  if (at > env->now()) {
    co_await env->Delay(at - env->now());
  }
  co_await disk->TimedAccess(dbn, 1, st);
}

TEST(FaultInjectorTest, TransientWindowGatesInjection) {
  SimEnvironment env;
  Disk d0(&env, "d0", 4096), d1(&env, "d1", 4096);
  FaultPlan plan;
  plan.DiskTransient("d0", 10 * kSecond, 20 * kSecond);
  FaultInjector injector(&env, plan);
  injector.Arm(&d0);
  injector.Arm(&d1);

  Status before, during, other, after;
  env.Spawn(AccessAt(&env, &d0, 0, 0, &before));
  env.Spawn(AccessAt(&env, &d0, 12 * kSecond, 1, &during));
  env.Spawn(AccessAt(&env, &d1, 12 * kSecond, 1, &other));
  env.Spawn(AccessAt(&env, &d0, 25 * kSecond, 2, &after));
  env.Run();

  EXPECT_TRUE(before.ok());
  EXPECT_EQ(during.code(), ErrorCode::kIoError);
  EXPECT_TRUE(other.ok()) << "untargeted disk must be unaffected";
  EXPECT_TRUE(after.ok());
  EXPECT_EQ(injector.stats().disk_faults_injected, 1u);
  EXPECT_FALSE(d0.failed()) << "a transient fault must not kill the drive";
}

Task ThreeAccesses(Disk* disk, Status* s1, Status* s2, Status* s3) {
  co_await disk->TimedAccess(0, 2, s1);
  co_await disk->TimedAccess(2, 2, s2);
  co_await disk->TimedAccess(4, 2, s3);
}

TEST(FaultInjectorTest, DiskDiesAtByteOdometer) {
  SimEnvironment env;
  Disk disk(&env, "d0", 4096);
  FaultPlan plan;
  plan.DiskFailsAfter("d0", 4 * kBlockSize);
  FaultInjector injector(&env, plan);
  injector.Arm(&disk);

  Status s1, s2, s3;
  env.Spawn(ThreeAccesses(&disk, &s1, &s2, &s3));
  env.Run();

  EXPECT_TRUE(s1.ok()) << "only 2 of the 4 fatal blocks moved";
  EXPECT_EQ(s2.code(), ErrorCode::kIoError);
  EXPECT_EQ(s3.code(), ErrorCode::kIoError) << "a dead drive stays dead";
  EXPECT_TRUE(disk.failed());
  EXPECT_EQ(injector.stats().disks_killed, 1u);
}

TEST(FaultInjectorTest, MediaDefectCorruptsRecordedBytes) {
  SimEnvironment env;
  Tape tape("m0", 1 * kMiB);
  TapeDrive drive(&env, "dlt0");
  drive.LoadMedia(&tape);
  std::vector<uint8_t> data(32 * kKiB, 0xAB);
  ASSERT_TRUE(drive.WriteData(data).ok());  // recorded before the defect

  FaultPlan plan;
  plan.TapeMediaDefect("m0", 16 * kKiB, 4 * kKiB);
  FaultInjector injector(&env, plan);
  injector.Arm(&drive);

  ASSERT_TRUE(drive.SeekTo(0).ok());
  std::vector<uint8_t> out(32 * kKiB);
  Status st;
  env.Spawn(drive.TimedRead(out, &st));
  env.Run();

  // Reads "succeed" — the damage is latent, for record CRCs to catch.
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(out[0], 0xAB);
  EXPECT_NE(out[16 * kKiB], 0xAB);
  EXPECT_NE(out[20 * kKiB - 1], 0xAB);
  EXPECT_EQ(out[20 * kKiB], 0xAB);
  EXPECT_EQ(injector.stats().media_defects_applied, 1u);
}

Task TwoWrites(TapeDrive* drive, std::span<const uint8_t> first,
               std::span<const uint8_t> second, Status* s1, Status* s2,
               Status* s2_again) {
  co_await drive->TimedWrite(first, s1);
  co_await drive->TimedWrite(second, s2);
  co_await drive->TimedWrite(second, s2_again);
}

TEST(FaultInjectorTest, MediaDefectRejectsOverlappingWritesForever) {
  SimEnvironment env;
  Tape tape("m1", 1 * kMiB);
  TapeDrive drive(&env, "dlt0");
  drive.LoadMedia(&tape);
  FaultPlan plan;
  plan.TapeMediaDefect("m1", 16 * kKiB, 4 * kKiB);
  FaultInjector injector(&env, plan);
  injector.Arm(&drive);

  std::vector<uint8_t> first(16 * kKiB, 0x11), second(8 * kKiB, 0x22);
  Status s1, s2, s2_again;
  env.Spawn(TwoWrites(&drive, first, second, &s1, &s2, &s2_again));
  env.Run();

  EXPECT_TRUE(s1.ok()) << "writes short of the defect stream normally";
  EXPECT_EQ(s2.code(), ErrorCode::kIoError);
  EXPECT_EQ(s2_again.code(), ErrorCode::kIoError) << "defects do not heal";
  EXPECT_EQ(drive.position(), 16 * kKiB) << "rejected writes move no bytes";
}

Task ManyAccesses(Disk* disk, std::vector<Status>* statuses) {
  for (Status& st : *statuses) {
    co_await disk->TimedAccess(0, 1, &st);
  }
}

std::vector<bool> FlakySequence(uint64_t seed, uint64_t* injected) {
  SimEnvironment env;
  Disk disk(&env, "d0", 4096);
  FaultPlan plan;
  plan.seed = seed;
  plan.DiskFlaky("d0", 0.5);
  FaultInjector injector(&env, plan);
  injector.Arm(&disk);
  std::vector<Status> statuses(64);
  env.Spawn(ManyAccesses(&disk, &statuses));
  env.Run();
  std::vector<bool> failed;
  failed.reserve(statuses.size());
  for (const Status& st : statuses) {
    failed.push_back(!st.ok());
  }
  *injected = injector.stats().disk_faults_injected;
  return failed;
}

TEST(FaultInjectorTest, SeedDeterminesFlakySequenceExactly) {
  uint64_t a_count = 0, b_count = 0, c_count = 0;
  const std::vector<bool> a = FlakySequence(7, &a_count);
  const std::vector<bool> b = FlakySequence(7, &b_count);
  const std::vector<bool> c = FlakySequence(8, &c_count);
  EXPECT_EQ(a, b) << "same seed, same workload: identical fault sequence";
  EXPECT_EQ(a_count, b_count);
  EXPECT_NE(a, c) << "a different seed draws a different stream";
  EXPECT_GT(a_count, 0u);
  EXPECT_LT(a_count, 64u);
}

// --------------------------------------------- supervised job scenarios ---

// The ISSUE acceptance scenario: one supervised logical backup survives
//   1. a transient error window across every disk (retry + backoff),
//   2. a permanent disk failure mid-dump (hot spare + RAID rebuild),
//   3. a media defect on the mounted tape (remount + checkpoint rewrite),
// and the restore of its final media set is bit-identical to the source.
struct ScenarioRun {
  bool backup_ok = false;
  bool restore_ok = false;
  bool checksums_match = false;
  FaultCounters counters;
  FaultInjectorStats istats;
  std::vector<std::string> tapes_used;
  std::vector<std::string> final_media;
  uint64_t stream_bytes = 0;
};

ScenarioRun RunTripleFaultScenario() {
  ScenarioRun out;
  SimEnvironment env;
  Filer filer(&env, FilerModel::F630());
  auto volume = Volume::Create(&env, "home", Geometry());
  auto fs = std::move(Filesystem::Format(volume.get(), &env)).value();
  WorkloadParams params;
  params.target_bytes = 6 * kMiB;
  EXPECT_TRUE(PopulateFilesystem(fs.get(), params).ok());
  auto src_sums = ChecksumTree(fs->LiveReader()).value();

  Tape t0("nightly.0", 32 * kMiB), t1("nightly.1", 32 * kMiB),
      t2("nightly.2", 32 * kMiB);
  TapeDrive drive(&env, "dlt0");
  drive.LoadMedia(&t0);

  // Replay begins once the snapshot exists, snapshot_create_time in.
  const SimTime snap = FilerModel::F630().snapshot_create_time;
  FaultPlan plan;
  plan.seed = 42;
  plan.DiskTransient("", snap + kSecond, snap + 5 * kSecond)
      .DiskFailsAfter("home.rg0.d1", 256 * kKiB)
      .TapeMediaDefect("nightly.0", 2 * kMiB, 64 * kKiB);
  FaultInjector injector(&env, plan);
  injector.Arm(volume.get());
  injector.Arm(&drive);

  SupervisionPolicy policy;
  LogicalBackupJobResult backup;
  CountdownLatch done(&env, 1);
  env.Spawn(RunJob(&filer,
                   {.fs = fs.get(),
                    .endpoints = {{.drive = &drive,
                                   .spare_tapes = {&t1, &t2},
                                   .supervision = &policy}}},
                   &backup, &done));
  env.Run();
  out.backup_ok = backup.report.status.ok();
  EXPECT_TRUE(out.backup_ok) << backup.report.status.ToString();
  out.counters = backup.report.faults;
  out.istats = injector.stats();
  out.tapes_used = backup.report.tapes_used;
  out.final_media = backup.report.final_media;
  out.stream_bytes = backup.report.stream_bytes;
  ExpectReportMatchesMedia(backup.report, {&t0, &t1, &t2},
                           backup.dump.stream);
  if (!out.backup_ok || out.final_media.empty()) {
    return out;
  }

  // Restore reads final_media, not tapes_used: the defective media was
  // abandoned and its contents rewritten onto the spare.
  auto find_tape = [&](const std::string& label) -> Tape* {
    for (Tape* t : {&t0, &t1, &t2}) {
      if (t->label() == label) {
        return t;
      }
    }
    return nullptr;
  };
  auto rvolume = Volume::Create(&env, "r", Geometry());
  auto rfs = std::move(Filesystem::Format(rvolume.get(), &env)).value();
  TapeDrive rdrive(&env, "dlt1");
  Tape* first = find_tape(out.final_media[0]);
  if (first == nullptr) {
    return out;
  }
  rdrive.LoadMedia(first);
  std::vector<Tape*> rspares;
  for (size_t i = 1; i < out.final_media.size(); ++i) {
    rspares.push_back(find_tape(out.final_media[i]));
  }
  LogicalRestoreJobResult restore;
  CountdownLatch rdone(&env, 1);
  env.Spawn(RunJob(&filer,
                   {.fs = rfs.get(),
                    .endpoints = {{.drive = &rdrive,
                                   .spare_tapes = rspares,
                                   .supervision = &policy}}},
                   &restore, &rdone));
  env.Run();
  out.restore_ok = restore.report.status.ok();
  EXPECT_TRUE(out.restore_ok) << restore.report.status.ToString();
  out.checksums_match =
      out.restore_ok && ChecksumTree(rfs->LiveReader()).value() == src_sums;
  return out;
}

TEST(FaultSupervisionTest, BackupSurvivesTransientPermanentAndMediaFaults) {
  const ScenarioRun run = RunTripleFaultScenario();
  ASSERT_TRUE(run.backup_ok);

  // 1. Transient window: errors were retried, not fatal.
  EXPECT_GT(run.counters.disk_io_errors, 0u);
  EXPECT_GT(run.counters.disk_retries, 0u);
  EXPECT_GT(run.istats.disk_faults_injected, 0u);

  // 2. Permanent disk failure: one hot spare swapped in and rebuilt.
  EXPECT_EQ(run.istats.disks_killed, 1u);
  EXPECT_EQ(run.counters.spare_disks_used, 1u);
  EXPECT_GT(run.counters.reconstruction_reads, 0u);

  // 3. Media defect: the mounted tape was abandoned for a spare and the
  // stream rewritten from the checkpoint.
  EXPECT_EQ(run.istats.media_defects_applied, 1u);
  EXPECT_GE(run.counters.tape_errors, 1u);
  EXPECT_GT(run.counters.tape_retries, 0u);
  EXPECT_EQ(run.counters.tape_remounts, 1u);
  EXPECT_GT(run.counters.bytes_rewritten, 1 * kMiB);
  ASSERT_EQ(run.tapes_used.size(), 2u);
  EXPECT_EQ(run.tapes_used[0], "nightly.0");
  EXPECT_EQ(run.tapes_used[1], "nightly.1");
  ASSERT_EQ(run.final_media.size(), 1u);
  EXPECT_EQ(run.final_media[0], "nightly.1");

  // Bit-identical round trip despite all three faults.
  ASSERT_TRUE(run.restore_ok);
  EXPECT_TRUE(run.checksums_match);
}

TEST(FaultSupervisionTest, SameSeedReproducesIdenticalCounters) {
  const ScenarioRun a = RunTripleFaultScenario();
  const ScenarioRun b = RunTripleFaultScenario();
  EXPECT_TRUE(a.counters == b.counters);
  EXPECT_EQ(a.istats.disk_faults_injected, b.istats.disk_faults_injected);
  EXPECT_EQ(a.istats.disks_killed, b.istats.disks_killed);
  EXPECT_EQ(a.istats.tape_faults_injected, b.istats.tape_faults_injected);
  EXPECT_EQ(a.istats.media_defects_applied, b.istats.media_defects_applied);
  EXPECT_EQ(a.istats.drives_killed, b.istats.drives_killed);
  EXPECT_EQ(a.tapes_used, b.tapes_used);
  EXPECT_EQ(a.final_media, b.final_media);
  EXPECT_EQ(a.stream_bytes, b.stream_bytes);
}

TEST(FaultSupervisionTest, FlakyTapeReadsAreRetriedDuringRestore) {
  SimEnvironment env;
  Filer filer(&env, FilerModel::F630());
  auto volume = Volume::Create(&env, "home", Geometry());
  auto fs = std::move(Filesystem::Format(volume.get(), &env)).value();
  WorkloadParams params;
  params.target_bytes = 6 * kMiB;
  ASSERT_TRUE(PopulateFilesystem(fs.get(), params).ok());
  auto src_sums = ChecksumTree(fs->LiveReader()).value();

  Tape t0("t.0", 32 * kMiB);
  TapeDrive drive(&env, "dlt0");
  drive.LoadMedia(&t0);
  LogicalBackupJobResult backup;
  CountdownLatch done(&env, 1);
  env.Spawn(RunJob(&filer, {.fs = fs.get(), .endpoints = {{.drive = &drive}}},
                   &backup, &done));
  env.Run();
  ASSERT_TRUE(backup.report.status.ok());
  ExpectReportMatchesMedia(backup.report, {&t0}, backup.dump.stream);

  // A clean tape in a flaky restore drive: every read has a 20% chance of
  // failing and must be retried in place (a failed read moves no bytes).
  FaultPlan plan;
  plan.seed = 7;
  plan.TapeFlaky("rdlt", 0.2);
  TapeDrive rdrive(&env, "rdlt");
  FaultInjector injector(&env, plan);
  injector.Arm(&rdrive);
  rdrive.LoadMedia(&t0);

  auto rvolume = Volume::Create(&env, "r", Geometry());
  auto rfs = std::move(Filesystem::Format(rvolume.get(), &env)).value();
  SupervisionPolicy policy;
  LogicalRestoreJobResult restore;
  CountdownLatch rdone(&env, 1);
  env.Spawn(RunJob(&filer,
                   {.fs = rfs.get(),
                    .endpoints = {{.drive = &rdrive, .supervision = &policy}}},
                   &restore, &rdone));
  env.Run();
  ASSERT_TRUE(restore.report.status.ok())
      << restore.report.status.ToString();
  EXPECT_GT(restore.report.faults.tape_errors, 0u);
  EXPECT_GT(restore.report.faults.tape_retries, 0u);
  EXPECT_EQ(ChecksumTree(rfs->LiveReader()).value(), src_sums);
}

// A media defect on the mounted tape, and another on the only spare, nearer
// its start: the remount's rewrite stops short of where the first tape had
// reached, and with no spare left the job fails. Its report bills what the
// spare holds — less than the stream once reached — and nothing of the
// abandoned tape.
TEST(FaultSupervisionTest, FailedRewriteBillsOnlyWhatTheSpareHolds) {
  SimEnvironment env;
  Filer filer(&env, FilerModel::F630());
  auto volume = Volume::Create(&env, "home", Geometry());
  auto fs = std::move(Filesystem::Format(volume.get(), &env)).value();
  WorkloadParams params;
  params.target_bytes = 6 * kMiB;
  ASSERT_TRUE(PopulateFilesystem(fs.get(), params).ok());

  Tape t0("night.0", 32 * kMiB), t1("night.1", 32 * kMiB);
  TapeDrive drive(&env, "dlt0");
  drive.LoadMedia(&t0);
  FaultPlan plan;
  plan.TapeMediaDefect("night.0", 3 * kMiB, 64 * kKiB)
      .TapeMediaDefect("night.1", 1 * kMiB, 64 * kKiB);
  FaultInjector injector(&env, plan);
  injector.Arm(&drive);

  SupervisionPolicy policy;
  LogicalBackupJobResult backup;
  CountdownLatch done(&env, 1);
  env.Spawn(RunJob(&filer,
                   {.fs = fs.get(),
                    .endpoints = {{.drive = &drive,
                                   .spare_tapes = {&t1},
                                   .supervision = &policy}}},
                   &backup, &done));
  env.Run();
  EXPECT_EQ(backup.report.status.code(), ErrorCode::kIoError)
      << backup.report.status.ToString();
  EXPECT_EQ(backup.report.faults.tape_remounts, 1u);
  EXPECT_EQ(backup.report.final_media, std::vector<std::string>{"night.1"});
  EXPECT_EQ(t1.size(), 1 * kMiB) << "the rewrite stops at the spare's defect";
  EXPECT_GT(t0.size(), t1.size()) << "the first tape had reached further";
  ExpectReportMatchesMedia(backup.report, {&t0, &t1}, backup.dump.stream);
}

// ----------------------------------------------- graceful degradation ---

TEST(FaultSupervisionTest, LogicalDumpSkipsUnreadableFilesImageMustFail) {
  SimEnvironment env;
  VolumeGeometry geom;
  geom.num_raid_groups = 2;
  geom.disks_per_group = 4;
  geom.blocks_per_disk = 512;  // group 0 data = 6 MiB: force spill into rg1
  auto volume = Volume::Create(&env, "home", geom);
  auto fs = std::move(Filesystem::Format(volume.get(), &env)).value();

  constexpr int kFiles = 36;  // 9 MiB of 256 KiB files
  std::vector<uint8_t> payload(256 * kKiB);
  for (int i = 0; i < kFiles; ++i) {
    for (size_t j = 0; j < payload.size(); ++j) {
      payload[j] = static_cast<uint8_t>(i * 131 + j);
    }
    auto inum = fs->Create("/f" + std::to_string(i), 0644);
    ASSERT_TRUE(inum.ok());
    ASSERT_TRUE(fs->Write(*inum, 0, payload).ok());
  }
  ASSERT_TRUE(fs->CreateSnapshot("s").ok());
  auto reader = fs->SnapshotReader("s").value();
  auto src_sums = ChecksumTree(reader).value();

  // The dump's mapping phase must still read the inode file and the root
  // directory; find the disks holding them so the double failure we are
  // about to stage only takes out file payload.
  std::set<Disk*> metadata_disks;
  for (Inum i = 0; i < reader.max_inodes(); ++i) {
    if (Vbn v = reader.InodeFileVbn(i); v != 0) {
      metadata_disks.insert(volume->Locate(v).disk);
    }
  }
  auto root_inode = reader.ReadInode(kRootDirInum).value();
  const std::vector<uint32_t> root_ptrs =
      reader.PointerMap(root_inode).value();
  for (uint32_t v : root_ptrs) {
    if (v != 0) {
      metadata_disks.insert(volume->Locate(v).disk);
    }
  }

  // Kill one data disk of RAID group 1 holding a file block — chosen to
  // hold no metadata — plus the group's parity disk, so exactly that
  // disk's blocks are beyond reconstruction while every other member
  // stays directly readable.
  Disk* victim1 = nullptr;
  RaidGroup* dead_group = nullptr;
  for (int i = 0; i < kFiles && victim1 == nullptr; ++i) {
    auto inum = reader.LookupPath("/f" + std::to_string(i)).value();
    auto inode = reader.ReadInode(inum).value();
    const std::vector<uint32_t> ptrs = reader.PointerMap(inode).value();
    for (uint32_t v : ptrs) {
      if (v == 0) {
        continue;
      }
      Volume::Placement p = volume->Locate(v);
      if (p.group_index == 1 && metadata_disks.count(p.disk) == 0) {
        victim1 = p.disk;
        dead_group = p.group;
        break;
      }
    }
  }
  ASSERT_NE(victim1, nullptr) << "fill never spilled into RAID group 1";
  victim1->Fail();
  dead_group->parity_disk()->Fail();

  LogicalDumpOptions opts;
  opts.dump_time = env.now();
  EXPECT_FALSE(RunLogicalDump(reader, opts).ok())
      << "without skip_unreadable a double failure aborts the dump";

  opts.skip_unreadable = true;
  auto dump = RunLogicalDump(reader, opts);
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  EXPECT_GT(dump->stats.files_skipped, 0u);
  EXPECT_LT(dump->stats.files_skipped, static_cast<uint32_t>(kFiles))
      << "only files touching the dead disks should be dropped";

  // The degraded stream is still a valid dump: it restores cleanly and
  // every file it carries is intact.
  auto rvolume = Volume::Create(&env, "r", geom);
  auto rfs = std::move(Filesystem::Format(rvolume.get(), &env)).value();
  ASSERT_TRUE(
      RunLogicalRestore(rfs.get(), dump->stream, LogicalRestoreOptions{})
          .ok());
  auto restored = ChecksumTree(rfs->LiveReader()).value();
  EXPECT_EQ(restored.size() + dump->stats.files_skipped, src_sums.size());
  for (const auto& [path, crc] : restored) {
    EXPECT_EQ(crc, src_sums.at(path)) << path;
  }

  // An image dump has no file boundaries to skip at: same damage, hard fail.
  EXPECT_FALSE(RunImageDump(volume.get(), ImageDumpOptions{}).ok());
}

}  // namespace
}  // namespace bkup
