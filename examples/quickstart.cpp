// Quickstart: the whole public API in one sitting.
//
// Builds a simulated filer (RAID volume + WAFL-like file system + DLT
// drive), writes some files, takes a snapshot, runs a logical backup job to
// tape, restores it onto a second filer, and verifies every byte — printing
// the simulated performance report along the way.
//
//   ./build/examples/quickstart
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
  // 1. A simulated environment and filer (CPU + NVRAM model of an F630).
  SimEnvironment env;
  Filer filer(&env, FilerModel::F630());

  // 2. A RAID-4 volume: 2 groups of 4 drives (3 data + parity each).
  VolumeGeometry geometry;
  geometry.num_raid_groups = 2;
  geometry.disks_per_group = 4;
  geometry.blocks_per_disk = 4096;  // 16 MiB per drive, scaled down
  auto volume = Volume::Create(&env, "home", geometry);
  std::printf("volume '%s': %llu blocks (%s) on %zu disks\n",
              volume->name().c_str(),
              (unsigned long long)volume->num_blocks(),
              FormatSize(volume->SizeBytes()).c_str(), volume->num_disks());

  // 3. Format and use the write-anywhere file system.
  auto fs = std::move(Filesystem::Format(volume.get(), &env)).value();
  Must(fs->Mkdir("/users", 0755).status(), "mkdir /users");
  Must(fs->Mkdir("/users/norman", 0700).status(), "mkdir /users/norman");
  Inum paper = fs->Create("/users/norman/osdi99.tex", 0644).value();
  const std::string text =
      "Logical vs. Physical File System Backup\n"
      "As file systems grow in size, ensuring that data is safely stored\n"
      "becomes more and more difficult.\n";
  Must(fs->Write(paper, 0,
                 std::span(reinterpret_cast<const uint8_t*>(text.data()),
                           text.size())),
       "write");

  // A few MB of generated engineering-home-directory data.
  WorkloadParams workload;
  workload.target_bytes = 8 * kMiB;
  auto stats = PopulateFilesystem(fs.get(), workload);
  Must(stats.status(), "populate");
  std::printf("populated %u files / %u directories (%s)\n", stats->files,
              stats->directories, FormatSize(stats->bytes).c_str());

  // 4. Snapshots: instant, copy-on-write, readable while the live file
  // system keeps changing.
  Must(fs->CreateSnapshot("before-edit"), "snapshot");
  Must(fs->Write(paper, 0, std::span(reinterpret_cast<const uint8_t*>("X"),
                                     1)),
       "overwrite");
  auto snap_reader = fs->SnapshotReader("before-edit").value();
  std::vector<uint8_t> old_bytes;
  Must(snap_reader.ReadFile(
           *snap_reader.ReadInode(*snap_reader.LookupPath(
               "/users/norman/osdi99.tex")),
           0, 1, &old_bytes),
       "snapshot read");
  std::printf("live file starts with 'X'; snapshot still starts with '%c'\n",
              old_bytes[0]);
  Must(fs->DeleteSnapshot("before-edit"), "snapshot delete");

  // 5. Back the whole file system up to a simulated DLT-7000.
  Tape media("backup-tape-0", 8ull * kGiB);
  TapeDrive drive(&env, "dlt0");
  drive.LoadMedia(&media);
  LogicalBackupJobResult backup;
  CountdownLatch backup_done(&env, 1);
  LogicalDumpOptions dump_options;
  dump_options.volume_name = "home";
  env.Spawn(RunJob(&filer,
                   {.fs = fs.get(),
                    .endpoints = {{.drive = &drive}},
                    .logical_dump = dump_options},
                   &backup, &backup_done));
  env.Run();  // run the discrete-event simulation to completion
  Must(backup.report.status, "backup job");
  std::printf("\nbackup wrote %s to tape in %s simulated (%.2f MB/s)\n",
              FormatSize(backup.report.stream_bytes).c_str(),
              FormatDuration(backup.report.elapsed()).c_str(),
              backup.report.MBps());
  backup.report.PrintPhaseRows(stdout);

  // 6. Restore onto a brand-new filer and verify everything.
  auto spare = Volume::Create(&env, "spare", geometry);
  auto restored_fs =
      std::move(Filesystem::Format(spare.get(), &env)).value();
  drive.Rewind();
  LogicalRestoreJobResult restore;
  CountdownLatch restore_done(&env, 1);
  env.Spawn(RunJob(&filer,
                   {.fs = restored_fs.get(), .endpoints = {{.drive = &drive}}},
                   &restore, &restore_done));
  env.Run();
  Must(restore.report.status, "restore job");
  std::printf("\nrestore recreated %u files in %s simulated (%.2f MB/s)\n",
              restore.restore.stats.files_restored,
              FormatDuration(restore.report.elapsed()).c_str(),
              restore.report.MBps());

  const auto want = ChecksumTree(fs->LiveReader()).value();
  const auto got = ChecksumTree(restored_fs->LiveReader()).value();
  if (want != got) {
    std::fprintf(stderr, "VERIFY FAILED: restored tree differs\n");
    return 1;
  }
  std::printf("verified: all %zu files identical after restore\n",
              want.size());
  return 0;
}
