// "Stupidity recovery" — the paper's name for the everyday case: "requests
// to recover a small set of files that have been accidentally deleted or
// overwritten, usually by user error."
//
// Shows the two tools WAFL gives an administrator, in order of preference:
//   1. snapshots — the user copies the file straight out of an hourly
//      snapshot, no tape involved;
//   2. single-file restore from a logical dump tape — restore's catalog
//      resolves the path with its own namei and extracts just that file,
//      which physical backup fundamentally cannot do.
//
//   ./build/examples/stupidity_recovery
#include <cstdio>

#include "src/backup/jobs.h"
#include "src/dump/logical_restore.h"
#include "src/util/random.h"
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
  geometry.disks_per_group = 4;
  geometry.blocks_per_disk = 4096;
  auto volume = Volume::Create(&env, "home", geometry);
  auto fs = std::move(Filesystem::Format(volume.get(), &env)).value();

  // Alice's thesis, plus enough other data that a full restore would be
  // an unreasonable way to get one file back.
  Must(fs->Mkdir("/users", 0755).status(), "mkdir");
  Must(fs->Mkdir("/users/alice", 0700).status(), "mkdir");
  Inum thesis = fs->Create("/users/alice/thesis.tex", 0600).value();
  std::vector<uint8_t> thesis_bytes(300 * 1024);
  Rng(2026).Fill(thesis_bytes);
  Must(fs->Write(thesis, 0, thesis_bytes), "write thesis");
  WorkloadParams workload;
  workload.target_bytes = 12 * kMiB;
  Must(PopulateFilesystem(fs.get(), workload).status(), "populate");

  // The administrator's schedule: hourly snapshot + nightly level-0 dump.
  Must(fs->CreateSnapshot("hourly.0"), "hourly snapshot");
  Tape media("nightly.0", 8ull * kGiB);
  TapeDrive drive(&env, "dlt0");
  drive.LoadMedia(&media);
  LogicalBackupJobResult backup;
  CountdownLatch done(&env, 1);
  LogicalDumpOptions dump_options;
  dump_options.snapshot_name = "nightly-dump";
  env.Spawn(RunJob(&filer,
                   {.fs = fs.get(),
                    .endpoints = {{.drive = &drive}},
                    .logical_dump = dump_options},
                   &backup, &done));
  env.Run();
  Must(backup.report.status, "nightly dump");
  std::printf("nightly level-0 dump on tape: %s\n",
              FormatSize(media.size()).c_str());

  // Oops.
  Must(fs->Unlink("/users/alice/thesis.tex"), "rm thesis");
  std::printf("\n$ rm /users/alice/thesis.tex   (oops)\n");

  // --- Recovery path 1: the snapshot ("snapshots can be used as an
  // on-line backup capability allowing users to recover their own files").
  {
    auto snap = fs->SnapshotReader("hourly.0").value();
    auto inum = snap.LookupPath("/users/alice/thesis.tex");
    Must(inum.status(), "thesis in hourly.0");
    std::vector<uint8_t> bytes;
    Must(snap.ReadFile(*snap.ReadInode(*inum), 0, thesis_bytes.size(),
                       &bytes),
         "read from snapshot");
    Inum copy = fs->Create("/users/alice/thesis.tex", 0600).value();
    Must(fs->Write(copy, 0, bytes), "copy back");
    std::printf("recovered from snapshot hourly.0: %s, %s\n",
                bytes == thesis_bytes ? "bytes identical" : "MISMATCH",
                "no tape touched");
    if (bytes != thesis_bytes) {
      return 1;
    }
  }

  // Oops again — this time the snapshot has been recycled too.
  Must(fs->Unlink("/users/alice/thesis.tex"), "rm thesis again");
  Must(fs->DeleteSnapshot("hourly.0"), "snapshot rotated away");
  std::printf("\n$ rm thesis.tex; snapshots rotated   (worse oops)\n");

  // --- Recovery path 2: single-file restore from the nightly tape.
  {
    LogicalRestoreOptions options;
    options.select = {"/users/alice/thesis.tex"};
    auto restored =
        RunLogicalRestore(fs.get(), media.contents(), options);
    Must(restored.status(), "single-file restore");
    std::printf("single-file restore from tape: %u file extracted "
                "(of the whole volume on tape)\n",
                restored->stats.files_restored);
    auto inum = fs->LookupPath("/users/alice/thesis.tex");
    Must(inum.status(), "thesis back");
    std::vector<uint8_t> bytes;
    Must(fs->Read(*inum, 0, thesis_bytes.size(), &bytes), "read");
    if (bytes != thesis_bytes) {
      std::fprintf(stderr, "VERIFY FAILED\n");
      return 1;
    }
    std::printf("verified: thesis bytes identical\n");
  }

  // And the punchline from §4: a physical dump cannot do this — "restoring
  // a subset of the file system ... is not very practical. The entire file
  // system must be recreated before the individual disk blocks that make up
  // the file being requested can be identified."
  std::printf("\n(physical image tapes have no per-file structure: "
              "recovering one file would mean restoring the entire %s "
              "volume first)\n",
              FormatSize(volume->SizeBytes()).c_str());
  return 0;
}
