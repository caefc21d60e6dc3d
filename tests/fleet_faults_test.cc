// Fault-injection tests for the nightly fleet scheduler and the remote
// parallel image path:
//
//   * a tape drive dies mid-plan: the scheduler condemns it, re-dispatches
//     the failed volume onto the surviving drives, the rest of the queue
//     drains, and every volume still restores byte-identically;
//   * the failure night itself is deterministic — same plan, same seed,
//     byte-identical execution record;
//   * a two-way remote image backup survives a flaky link and a flaky server
//     drive at the same time (supervised retransmit + tape-retry ladders),
//     and the striped media restores byte-identically over the link.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/backup/scheduler.h"
#include "src/faults/fault_injector.h"
#include "src/net/tape_server.h"
#include "src/workload/population.h"

namespace bkup {
namespace {

VolumeGeometry SmallGeometry() {
  VolumeGeometry geom;
  geom.num_raid_groups = 1;
  geom.disks_per_group = 4;
  geom.blocks_per_disk = 2048;
  return geom;
}

VolumeGeometry WideGeometry() {
  VolumeGeometry geom;
  geom.num_raid_groups = 2;
  geom.disks_per_group = 4;
  geom.blocks_per_disk = 2048;
  return geom;
}

// One night where drive d0 dies under the first dispatched volume, plus the
// post-night restore audit. Everything observable is captured so the
// determinism test can compare two runs wholesale.
struct FailureNightRun {
  NightReport report;
  std::string exec;
  uint64_t drives_killed = 0;
  std::vector<std::string> restore_errors;  // empty = all byte-identical
};

FailureNightRun RunDriveFailureNight() {
  FailureNightRun run;
  SimEnvironment env;
  Filer filer(&env, FilerModel::F630());
  TapeLibrary library("fleet", 64 * kMiB, 0);
  SupervisionPolicy policy;

  const struct {
    const char* name;
    uint64_t bytes;
    uint64_t seed;
  } kVols[] = {{"va", 4 * kMiB, 101}, {"vb", 3 * kMiB, 102},
               {"vc", 2 * kMiB, 103}};

  std::vector<std::unique_ptr<Volume>> volumes;
  std::vector<std::unique_ptr<Filesystem>> filesystems;
  std::vector<std::map<std::string, uint32_t>> source_sums;
  std::vector<VolumeSpec> specs;
  for (const auto& v : kVols) {
    volumes.push_back(Volume::Create(&env, v.name, SmallGeometry()));
    auto fs = std::move(Filesystem::Format(volumes.back().get(), &env)).value();
    WorkloadParams params;
    params.seed = v.seed;
    params.target_bytes = v.bytes;
    EXPECT_TRUE(PopulateFilesystem(fs.get(), params).ok());
    source_sums.push_back(ChecksumTree(fs->LiveReader()).value());
    filesystems.push_back(std::move(fs));

    VolumeSpec spec;
    spec.name = v.name;
    spec.fs = filesystems.back().get();
    spec.mode = BackupMode::kImage;
    spec.estimated_bytes = v.bytes;
    specs.push_back(std::move(spec));
  }

  TapeDrive d0(&env, "d0");
  TapeDrive d1(&env, "d1");
  FleetConfig config;
  config.drives = {&d0, &d1};
  config.library = &library;
  config.supervision = &policy;

  // d0 dies after its first megabyte of the night: mid-stream under the
  // queue head. The supervised job's remount ladder cannot heal a dead
  // drive (the spare mounts on the same corpse), so the attempt fails with
  // kIoError and the scheduler must pull d0 and re-dispatch on d1.
  FaultPlan plan;
  plan.seed = 5;
  plan.TapeDriveFailsAfter("d0", 1 * kMiB);
  FaultInjector injector(&env, plan);
  injector.Arm(&d0);
  injector.Arm(&d1);

  NightlyScheduler scheduler(&filer, config, std::move(specs));
  CountdownLatch done(&env, 1);
  env.Spawn(scheduler.Run(&run.report, &done));
  env.Run();
  EXPECT_TRUE(done.done());
  run.exec = run.report.SerializeExecution();
  run.drives_killed = injector.stats().drives_killed;

  // Restore every volume from its final media on a fresh, unarmed drive
  // and compare checksums against the pre-night population.
  TapeDrive restore_drive(&env, "rd");
  for (size_t i = 0; i < run.report.volumes.size(); ++i) {
    const VolumeOutcome& out = run.report.volumes[i];
    if (!out.status.ok() || out.part_media.size() != 1 ||
        out.part_media[0].empty()) {
      run.restore_errors.push_back(out.name + ": no restorable media");
      continue;
    }
    const std::vector<std::string>& media = out.part_media[0];
    const size_t slot = library.SlotOfLabel(media[0]).value();
    if (!library.LoadSlot(&restore_drive, slot).ok()) {
      run.restore_errors.push_back(out.name + ": load failed");
      continue;
    }
    std::vector<Tape*> spares;
    for (size_t m = 1; m < media.size(); ++m) {
      spares.push_back(
          library.TapeInSlot(library.SlotOfLabel(media[m]).value()));
    }
    auto rvolume = Volume::Create(&env, "r." + out.name, SmallGeometry());
    ImageRestoreJobResult restore;
    CountdownLatch rdone(&env, 1);
    env.Spawn(RunJob(&filer,
                     {.volume = rvolume.get(),
                      .endpoints = {{.drive = &restore_drive,
                                     .spare_tapes = spares,
                                     .supervision = &policy}}},
                     &restore, &rdone));
    env.Run();
    if (!restore.report.status.ok()) {
      run.restore_errors.push_back(out.name + ": " +
                                   restore.report.status.ToString());
      continue;
    }
    auto mounted = Filesystem::Mount(rvolume.get(), &env);
    if (!mounted.ok()) {
      run.restore_errors.push_back(out.name + ": " +
                                   mounted.status().ToString());
      continue;
    }
    if (ChecksumTree((*mounted)->LiveReader()).value() != source_sums[i]) {
      run.restore_errors.push_back(out.name + ": checksum mismatch");
    }
  }
  return run;
}

// Satellite: drive failure mid-plan. The scheduler reassigns the remaining
// queue, the failed volume completes on a surviving drive, and every volume
// restores byte-identically.
TEST(FleetFaultsTest, DriveFailureMidPlanReassignsAndRestores) {
  const FailureNightRun run = RunDriveFailureNight();
  const NightReport& report = run.report;
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_EQ(run.drives_killed, 1u);
  EXPECT_EQ(report.drives_failed, 1u);
  EXPECT_GE(report.reassignments, 1u);

  ASSERT_EQ(report.drives.size(), 2u);
  EXPECT_TRUE(report.drives[0].failed) << "d0 must be pulled from the pool";
  EXPECT_FALSE(report.drives[1].failed);

  std::map<std::string, const VolumeOutcome*> by_name;
  for (const VolumeOutcome& v : report.volumes) {
    EXPECT_TRUE(v.status.ok()) << v.name << ": " << v.status.ToString();
    by_name[v.name] = &v;
  }
  ASSERT_EQ(by_name.size(), 3u);
  // The queue head drew the doomed drive, failed there, and was re-run on
  // the survivor; the other two volumes never touched the corpse again.
  EXPECT_EQ(by_name["va"]->attempts, 2);
  ASSERT_EQ(by_name["va"]->drives_used.size(), 1u);
  EXPECT_EQ(by_name["va"]->drives_used[0], 1);
  EXPECT_EQ(by_name["vb"]->attempts, 1);
  EXPECT_EQ(by_name["vc"]->attempts, 1);
  for (const DriveGrant& g : report.grants) {
    if (g.attempt > 1 || report.volumes[g.volume].name != "va") {
      EXPECT_EQ(g.drive, 1)
          << "only va's first attempt may have used the dead drive";
    }
  }
  EXPECT_TRUE(run.restore_errors.empty())
      << "restore audit: " << run.restore_errors.front();
}

// The failure night replays byte-identically: same fault plan, same
// scheduler decisions, same execution record.
TEST(FleetFaultsTest, DriveFailureNightIsDeterministic) {
  const FailureNightRun a = RunDriveFailureNight();
  const FailureNightRun b = RunDriveFailureNight();
  EXPECT_EQ(a.exec, b.exec);
  EXPECT_EQ(a.drives_killed, b.drives_killed);
}

// Satellite: the remote parallel image path under simultaneous link and
// tape-drive faults. The supervised stream absorbs dropped frames
// (retransmit / reconnect ladder) while the server-side replay absorbs
// flaky tape transfers (retry ladder); the job must finish clean and the
// striped media must restore byte-identically over the same link.
TEST(FleetFaultsTest, RemoteParallelImageSurvivesLinkFlakyPlusTapeFault) {
  SimEnvironment env;
  Filer filer(&env, FilerModel::F630());
  NetLink link(&env, "wan");
  TapeServer server(&env, "vault");
  TapeDrive* sd0 = server.AddDrive("dlt0");  // named "vault.dlt0"
  TapeDrive* sd1 = server.AddDrive("dlt1");
  Tape m0("night.0", 32 * kMiB);
  Tape m1("night.1", 32 * kMiB);
  sd0->LoadMedia(&m0);
  sd1->LoadMedia(&m1);

  auto volume = Volume::Create(&env, "home", WideGeometry());
  auto fs = std::move(Filesystem::Format(volume.get(), &env)).value();
  WorkloadParams params;
  params.seed = 77;
  params.target_bytes = 6 * kMiB;
  ASSERT_TRUE(PopulateFilesystem(fs.get(), params).ok());
  const auto source_sums = ChecksumTree(fs->LiveReader()).value();

  // Both failure domains at once: the wire eats frames while one of the two
  // server drives throws transient transfer errors.
  FaultPlan plan;
  plan.seed = 9;
  plan.LinkFlaky("wan", 0.08).TapeFlaky("vault.dlt0", 0.05);
  FaultInjector injector(&env, plan);
  injector.Arm(&link);
  injector.Arm(sd0);

  SupervisionPolicy policy;
  const StreamEndpoint t0{
      .link = &link, .server = &server, .drive = sd0, .supervision = &policy};
  StreamEndpoint t1 = t0;
  t1.drive = sd1;
  ParallelJobResult<ImageBackupJobResult> backup;
  CountdownLatch done(&env, 1);
  env.Spawn(
      RunJob(&filer, {.fs = fs.get(), .endpoints = {t0, t1}}, &backup, &done));
  env.Run();
  ASSERT_TRUE(done.done());
  ASSERT_TRUE(backup.merged.status.ok()) << backup.merged.status.ToString();
  EXPECT_GE(injector.stats().link_faults_injected, 1u)
      << "the flaky link must actually drop frames";
  EXPECT_GE(injector.stats().tape_faults_injected, 1u)
      << "the flaky drive must actually fail transfers";
  EXPECT_GE(backup.merged.faults.link_retransmits, 1u);
  EXPECT_GE(backup.merged.faults.tape_retries, 1u);

  // Restore both stripes concurrently over the (now clean) link into one
  // fresh volume and verify the tree byte for byte.
  injector.Disarm(&link);
  injector.Disarm(sd0);
  ASSERT_TRUE(sd0->SeekTo(0).ok());
  ASSERT_TRUE(sd1->SeekTo(0).ok());
  auto rvolume = Volume::Create(&env, "r", WideGeometry());
  ImageRestoreJobResult r0;
  ImageRestoreJobResult r1;
  CountdownLatch rdone(&env, 2);
  env.Spawn(RunJob(&filer, {.volume = rvolume.get(), .endpoints = {t0}},
                   &r0, &rdone));
  env.Spawn(RunJob(&filer, {.volume = rvolume.get(), .endpoints = {t1}},
                   &r1, &rdone));
  env.Run();
  ASSERT_TRUE(r0.report.status.ok()) << r0.report.status.ToString();
  ASSERT_TRUE(r1.report.status.ok()) << r1.report.status.ToString();
  auto mounted = Filesystem::Mount(rvolume.get(), &env);
  ASSERT_TRUE(mounted.ok()) << mounted.status().ToString();
  EXPECT_EQ(ChecksumTree((*mounted)->LiveReader()).value(), source_sums);
}

}  // namespace
}  // namespace bkup
