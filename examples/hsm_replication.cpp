// Makeshift HSM via dump/restore — from the paper's introduction: "some
// companies are using dump/restore to implement a kind of makeshift
// Hierarchical Storage Management (HSM) system where high performance RAID
// systems nightly replicate data on lower cost backup file servers, which
// eventually backup data to tape."
//
// Tier 1: the production filer. Tier 2: a cheap file server refreshed every
// night by logical dump/restore (level 0, then incrementals applied with
// the restore symtable). Tier 3: a weekly tape cut *from tier 2*, verified
// with the dump-stream checker, so the production filer never carries the
// tape load.
//
//   ./build/examples/hsm_replication
#include <cstdio>

#include "src/backup/jobs.h"
#include "src/dump/dumpdates.h"
#include "src/dump/verify.h"
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

// One nightly cycle: dump the production tier (level `level`, incremental
// against dumpdates), apply it to the archive tier.
void Nightly(SimEnvironment* env, Filesystem* production,
             Filesystem* archive, DumpDates* dumpdates,
             RestoreSymtable* symtable, int level) {
  Must(production->CreateSnapshot("nightly"), "snapshot");
  auto reader = production->SnapshotReader("nightly").value();
  LogicalDumpOptions opt;
  opt.level = level;
  opt.volume_name = "prod";
  opt.snapshot_name = "nightly";
  opt.dump_time = env->now();
  if (level > 0) {
    auto base = dumpdates->BaseFor("prod", "/", level);
    Must(base.status(), "dumpdates base");
    opt.base_time = base->dump_time;
  }
  auto dump = RunLogicalDump(reader, opt);
  Must(dump.status(), "nightly dump");
  Must(production->DeleteSnapshot("nightly"), "snapshot delete");
  dumpdates->Record(
      {"prod", "/", level, opt.dump_time, production->generation(),
       "nightly"});

  LogicalRestoreOptions ropt;
  ropt.symtable = symtable;
  ropt.apply_moves_and_deletes = level > 0;
  auto restored = RunLogicalRestore(archive, dump->stream, ropt);
  Must(restored.status(), "apply to archive tier");
  std::printf("  night (level %d): %8s dumped, archive now has the "
              "changes (%u new/changed files, %u deleted)\n",
              level, FormatSize(dump->stats.stream_bytes).c_str(),
              restored->stats.files_restored, restored->stats.files_deleted);
}

}  // namespace

int main() {
  SimEnvironment env;
  Filer filer(&env, FilerModel::F630());
  VolumeGeometry geometry;
  geometry.num_raid_groups = 2;
  geometry.disks_per_group = 4;
  geometry.blocks_per_disk = 4096;

  // Tier 1: production. Tier 2: the cheap archive filer.
  auto prod_volume = Volume::Create(&env, "prod", geometry);
  auto archive_volume = Volume::Create(&env, "archive", geometry);
  auto prod = std::move(Filesystem::Format(prod_volume.get(), &env)).value();
  auto archive =
      std::move(Filesystem::Format(archive_volume.get(), &env)).value();

  WorkloadParams workload;
  workload.target_bytes = 12 * kMiB;
  Must(PopulateFilesystem(prod.get(), workload).status(), "populate");
  std::printf("production filer ready (%s)\n",
              FormatSize(workload.target_bytes).c_str());

  DumpDates dumpdates;
  RestoreSymtable symtable;
  struct Sleeper {
    static Task Sleep(SimEnvironment* e, SimDuration d) {
      co_await e->Delay(d);
    }
  };
  // Let simulated time pass before the first dump so its timestamp is
  // meaningfully later than the initial data's.
  env.Spawn(Sleeper::Sleep(&env, 1 * kHour));
  env.Run();

  // Sunday: full replication.
  std::printf("\nweek of replication:\n");
  Nightly(&env, prod.get(), archive.get(), &dumpdates, &symtable, 0);

  // Monday..Thursday: small daily changes + level-1 incrementals.
  Rng rng(12);
  for (int day = 1; day <= 4; ++day) {
    // Simulate a day passing so change times sort after the base dump.
    env.Spawn(Sleeper::Sleep(&env, 24 * kHour));
    env.Run();

    for (int i = 0; i < 4; ++i) {
      const std::string path =
          "/day" + std::to_string(day) + "_doc" + std::to_string(i);
      Inum inum = prod->Create(path, 0644).value();
      std::vector<uint8_t> data((rng.Below(48) + 1) * 1024);
      rng.Fill(data);
      Must(prod->Write(inum, 0, data), "daily write");
    }
    if (day == 3) {
      Must(prod->Unlink("/day1_doc0"), "user deletes a file");
      Must(prod->Rename("/day2_doc1", "/renamed_doc"), "user renames");
    }
    Nightly(&env, prod.get(), archive.get(), &dumpdates, &symtable, 1);
  }

  // The archive tier mirrors production exactly.
  const auto prod_state = ChecksumTree(prod->LiveReader()).value();
  const auto archive_state = ChecksumTree(archive->LiveReader()).value();
  if (prod_state != archive_state) {
    std::fprintf(stderr, "VERIFY FAILED: archive tier diverged\n");
    return 1;
  }
  std::printf("\narchive tier verified: %zu files identical to production\n",
              archive_state.size());

  // Friday: tier 3 — cut the weekly tape FROM THE ARCHIVE tier and verify
  // it before trusting it ("the robustness of backup is critical").
  Tape weekly("weekly.0", 8ull * kGiB);
  TapeDrive drive(&env, "dlt0");
  drive.LoadMedia(&weekly);
  LogicalBackupJobResult tape_job;
  CountdownLatch done(&env, 1);
  LogicalDumpOptions weekly_opt;
  weekly_opt.volume_name = "archive";
  env.Spawn(RunJob(&filer,
                   {.fs = archive.get(),
                    .endpoints = {{.drive = &drive}},
                    .logical_dump = weekly_opt},
                   &tape_job, &done));
  env.Run();
  Must(tape_job.report.status, "weekly tape");
  auto verify = VerifyDumpStream(weekly.contents());
  Must(verify.status(), "tape verification");
  std::printf("weekly tape cut from the archive tier (production undisturbed)"
              "\n  %s\n", verify->Summary().c_str());
  return verify->readable ? 0 : 1;
}
