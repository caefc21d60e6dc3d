// Disaster recovery with physical (image) backup — the paper's §4 scenario:
// "A disaster recovery solution involves a complete restore of data onto
// new, or newly initialized media."
//
// A filer with live data and historical snapshots is image-dumped to tape;
// every disk in the volume is then destroyed; a replacement shelf of blank
// drives is restored from tape through the RAID layer, and the filer boots
// with the live file system AND all its snapshots intact.
//
//   ./build/examples/disaster_recovery
#include <cstdio>

#include "src/backup/jobs.h"
#include "src/workload/population.h"

using namespace bkup;  // NOLINT: example brevity

namespace {
void Must(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}
}  // namespace

int main() {
  SimEnvironment env;
  Filer filer(&env, FilerModel::F630());
  VolumeGeometry geometry;
  geometry.num_raid_groups = 2;
  geometry.disks_per_group = 5;
  geometry.blocks_per_disk = 4096;
  auto volume = Volume::Create(&env, "home", geometry);
  auto fs = std::move(Filesystem::Format(volume.get(), &env)).value();

  // Build history: data, a snapshot, more data, another snapshot.
  WorkloadParams workload;
  workload.target_bytes = 10 * kMiB;
  workload.seed = 1;
  Must(PopulateFilesystem(fs.get(), workload).status(), "populate v1");
  Must(fs->CreateSnapshot("monday"), "snapshot monday");
  Inum report = fs->Create("/quarterly-report.txt", 0644).value();
  const char* line = "Q1 numbers look great.\n";
  Must(fs->Write(report, 0,
                 std::span(reinterpret_cast<const uint8_t*>(line),
                           strlen(line))),
       "write report");
  Must(fs->CreateSnapshot("tuesday"), "snapshot tuesday");
  const auto before = ChecksumTree(fs->LiveReader()).value();
  std::printf("source filer: %zu files, snapshots:", before.size());
  for (const auto& s : fs->ListSnapshots()) {
    std::printf(" %s", s.name.c_str());
  }
  std::printf("\n");

  // Full image dump to tape (block-order, file system bypassed).
  Tape media("dr-tape", 8ull * kGiB);
  TapeDrive drive(&env, "dlt0");
  drive.LoadMedia(&media);
  ImageBackupJobResult backup;
  CountdownLatch done(&env, 1);
  env.Spawn(RunJob(&filer, {.fs = fs.get(), .endpoints = {{.drive = &drive}}},
                   &backup, &done));
  env.Run();
  Must(backup.report.status, "image backup");
  std::printf("image dump: %llu blocks (%s) in %s simulated at %.2f MB/s, "
              "CPU %.1f%%\n",
              (unsigned long long)backup.dump.stats.blocks_dumped,
              FormatSize(backup.report.stream_bytes).c_str(),
              FormatDuration(backup.report.StreamElapsed()).c_str(),
              backup.report.MBps(),
              backup.report.phase(JobPhase::kDumpBlocks).CpuUtilization() *
                  100);

  // DISASTER: every drive in the volume dies.
  fs.reset();  // the filer goes down with its disks
  for (const auto& disk : volume->disks()) {
    disk->Fail();
  }
  std::printf("\n*** disaster: all %zu drives failed ***\n",
              volume->num_disks());
  // Field service installs blank replacement drives.
  for (const auto& disk : volume->disks()) {
    disk->ReplaceWithBlank();
  }
  if (Filesystem::Mount(volume.get(), &env).ok()) {
    std::fprintf(stderr, "blank shelf should not mount!\n");
    return 1;
  }
  std::printf("replacement shelf installed (blank, unmountable)\n");

  // Restore straight through RAID and boot.
  drive.Rewind();
  ImageRestoreJobResult restore;
  CountdownLatch rdone(&env, 1);
  env.Spawn(RunJob(&filer,
                   {.volume = volume.get(), .endpoints = {{.drive = &drive}}},
                   &restore, &rdone));
  env.Run();
  Must(restore.report.status, "image restore");
  std::printf("image restore: %llu blocks in %s simulated at %.2f MB/s\n",
              (unsigned long long)restore.restore.stats.blocks_restored,
              FormatDuration(restore.report.elapsed()).c_str(),
              restore.report.MBps());

  auto recovered = Filesystem::Mount(volume.get(), &env);
  Must(recovered.status(), "mount after restore");
  const auto after = ChecksumTree((*recovered)->LiveReader()).value();
  if (after != before) {
    std::fprintf(stderr, "VERIFY FAILED: recovered tree differs\n");
    return 1;
  }
  std::printf("verified: %zu files identical after disaster recovery\n",
              after.size());

  // "The system you restore looks just like the system you dumped,
  // snapshots and all."
  auto monday = (*recovered)->SnapshotReader("monday");
  Must(monday.status(), "monday snapshot on recovered filer");
  if (monday->LookupPath("/quarterly-report.txt").ok()) {
    std::fprintf(stderr, "monday snapshot should predate the report!\n");
    return 1;
  }
  auto tuesday = (*recovered)->SnapshotReader("tuesday");
  Must(tuesday.status(), "tuesday snapshot on recovered filer");
  Must(tuesday->LookupPath("/quarterly-report.txt").status(),
       "report in tuesday snapshot");
  std::printf("snapshots survived the disaster: monday (pre-report) and "
              "tuesday (with report)\n");
  return 0;
}
