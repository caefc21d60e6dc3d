// Crash-resumable recovery economics: what does a mid-restore kill cost,
// and what does one file over the WAN cost, once the dump catalog is the
// recovery authority?
//
// Three measurements on the same mature volume:
//   1. Full logical restore (baseline): replay the whole stream.
//   2. Killed + resumed restore: a crash injector kills the restore halfway
//      through the file section; the resumable job remounts, diffs the
//      catalog against the partial tree, and replays only the missing
//      suffix. The bench reports replayed vs. skipped bytes against the
//      full-replay baseline.
//   3. Remote single-file restore: the catalog turns one path into exact
//      stream ranges, the tape server reads only those, and O(file) bytes
//      cross the link instead of the whole stream.
//
// Exits non-zero unless the resumed restore replays strictly fewer bytes
// than the full stream, both restored trees match the source byte-for-byte,
// and the single file costs under a tenth of the full stream on the link —
// so `ctest -L recovery` enforces the recovery model's contracts end to end.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/backup/supervisor.h"
#include "src/dump/catalog.h"
#include "src/faults/crash.h"
#include "src/net/link.h"
#include "src/net/tape_server.h"
#include "src/util/random.h"

namespace bkup {
namespace {

int Run(int argc, char** argv) {
  bench::PrintBanner(
      "Crash-resumable restore: resume cost vs full replay, single-file "
      "remote restore cost",
      "recovery model (DESIGN.md §13); paper §6 restore matrix");

  bench::SetupOptions opts;
  opts.data_bytes = 48 * kMiB;  // enough files for a mid-stream kill to bite
  bench::Bench b(opts);

  // A known needle for the single-file pull, planted before any snapshot.
  bench::CheckStatus(b.fs->Mkdir("/known", 0755).status(), "mkdir /known");
  auto needle = b.fs->Create("/known/needle.dat", 0644);
  bench::CheckStatus(needle.status(), "create needle");
  Rng rng(3);
  std::vector<uint8_t> needle_data(5 * kBlockSize);
  rng.Fill(needle_data);
  bench::CheckStatus(b.fs->Write(*needle, 0, needle_data), "write needle");

  // The remote half: a vault server with its own drive across a WAN link.
  NetLink link(&b.env, "wan", LinkParams{});
  TapeServer server(&b.env, "vault");
  TapeDrive* vault_drive = server.AddDrive("dlt0");
  Tape vault_media("vault.0", 8ull * kGiB);
  vault_drive->LoadMedia(&vault_media);

  // Local logical backup; its catalog is the recovery authority for the
  // resume measurements.
  LogicalBackupJobResult backup;
  {
    CountdownLatch done(&b.env, 1);
    LogicalDumpOptions opt;
    opt.volume_name = "home";
    b.env.Spawn(RunJob(b.filer.get(),
                       {.fs = b.fs.get(),
                        .endpoints = {{.drive = b.drives[0].get()}},
                        .logical_dump = opt},
                       &backup, &done));
    b.env.Run();
    bench::CheckStatus(backup.report.status, "logical backup");
    backup.report.name = "Logical Backup";
  }
  auto catalog = TapeCatalog::Load(backup.dump.catalog_image);
  bench::CheckStatus(catalog.status(), "catalog load");
  const uint64_t full_bytes = backup.dump.stream.size();
  // The snapshot's consistency point made the whole tree durable, so the
  // live reader now sees everything the dump saw.
  auto source_sums = ChecksumTree(b.fs->LiveReader());
  bench::CheckStatus(source_sums.status(), "source checksums");

  // 1. Baseline: full restore of the stream onto a fresh file system.
  LogicalRestoreJobResult baseline;
  {
    auto volume = b.FreshVolume("full");
    auto fs = std::move(Filesystem::Format(volume.get(), &b.env)).value();
    b.drives[0]->Rewind();
    CountdownLatch done(&b.env, 1);
    b.env.Spawn(RunJob(b.filer.get(),
                       {.fs = fs.get(),
                        .endpoints = {{.drive = b.drives[0].get()}}},
                       &baseline, &done));
    b.env.Run();
    bench::CheckStatus(baseline.report.status, "full restore");
    baseline.report.name = "Full Restore (baseline)";
    auto sums = ChecksumTree(fs->LiveReader());
    bench::CheckStatus(sums.status(), "baseline checksums");
    if (*sums != *source_sums) {
      std::fprintf(stderr, "FATAL: baseline restore tree != source tree\n");
      return 1;
    }
  }

  // 2. Killed + resumed: one kill halfway through the file section, then
  // the supervised resumable job remounts and replays only the suffix.
  const uint64_t dir_end = catalog->directory_end();
  const uint64_t stream_end = catalog->stream_end();
  CrashPlan plan;
  plan.seed = 7;
  plan.KillAtOffset(dir_end + (stream_end - dir_end) / 2);
  CrashInjector injector(plan);
  SupervisionPolicy policy;
  ResumableRestoreJobResult resumed;
  auto rvolume = b.FreshVolume("resumed");
  auto rfs = std::move(Filesystem::Format(rvolume.get(), &b.env)).value();
  {
    b.drives[0]->Rewind();
    JobSpec spec{
        .volume = rvolume.get(),
        .endpoints = {{.drive = b.drives[0].get(), .supervision = &policy}}};
    spec.logical_restore.catalog = &*catalog;
    spec.logical_restore.kill = &injector;
    spec.logical_restore.checkpoint_every = 16;
    CountdownLatch done(&b.env, 1);
    b.env.Spawn(ResumableLogicalRestoreJob(b.filer.get(), &rfs, spec,
                                           &resumed, &done));
    b.env.Run();
    bench::CheckStatus(resumed.report.status, "resumed restore");
    resumed.report.name = "Killed+Resumed Restore";
    auto sums = ChecksumTree(rfs->LiveReader());
    bench::CheckStatus(sums.status(), "resumed checksums");
    if (*sums != *source_sums) {
      std::fprintf(stderr, "FATAL: resumed restore tree != source tree\n");
      return 1;
    }
  }

  // 3. Remote: back the volume up to the vault, then pull one file back
  // through the catalog's ranges.
  const StreamEndpoint target{
      .link = &link, .server = &server, .drive = vault_drive};
  LogicalBackupJobResult remote_backup;
  {
    CountdownLatch done(&b.env, 1);
    LogicalDumpOptions opt;
    opt.volume_name = "home";
    b.env.Spawn(RunJob(b.filer.get(),
                       {.fs = b.fs.get(),
                        .endpoints = {target},
                        .logical_dump = opt},
                       &remote_backup, &done));
    b.env.Run();
    bench::CheckStatus(remote_backup.report.status, "remote backup");
    remote_backup.report.name = "Remote Logical Backup";
  }
  auto vault_catalog = TapeCatalog::Load(remote_backup.dump.catalog_image);
  bench::CheckStatus(vault_catalog.status(), "vault catalog load");
  LogicalRestoreJobResult single;
  {
    auto volume = b.FreshVolume("single");
    auto fs = std::move(Filesystem::Format(volume.get(), &b.env)).value();
    LinkBudget budget(&link, 64 * kMiB);
    JobSpec spec{.fs = fs.get(), .endpoints = {target}, .budget = &budget};
    spec.logical_restore.select = {"/known/needle.dat"};
    spec.logical_restore.catalog = &*vault_catalog;
    CountdownLatch done(&b.env, 1);
    b.env.Spawn(RunJob(b.filer.get(), spec, &single, &done));
    b.env.Run();
    bench::CheckStatus(single.report.status, "single-file restore");
    single.report.name = "Remote Single-File Restore";
  }

  bench::PrintSummaryHeader();
  bench::PrintSummaryRow(backup.report);
  bench::PrintSummaryRow(baseline.report);
  bench::PrintSummaryRow(resumed.report);
  bench::PrintSummaryRow(remote_backup.report);

  const auto& rs = resumed.restore.stats;
  std::printf("\nResume cost (1 kill at mid-file-section, catalog diff):\n");
  std::printf("  %-34s %14llu\n", "full stream bytes",
              (unsigned long long)full_bytes);
  std::printf("  %-34s %14llu  (%.1f%% of full)\n", "bytes replayed on resume",
              (unsigned long long)rs.bytes_replayed,
              100.0 * rs.bytes_replayed / full_bytes);
  std::printf("  %-34s %14llu\n", "bytes skipped (already durable)",
              (unsigned long long)rs.bytes_skipped);
  std::printf("  %-34s %14u\n", "process incarnations", resumed.attempts);
  std::printf("  %-34s %14llu\n", "files already complete",
              (unsigned long long)rs.files_already_complete);

  // The vault tape holds the remote backup's whole stream; the restore's
  // stream bytes are what its ranged read moved over the link.
  const uint64_t vault_bytes = vault_media.size();
  const uint64_t link_bytes = single.report.stream_bytes;
  std::printf("\nSingle-file remote restore (catalog ranges over the link):\n");
  std::printf("  %-34s %14llu\n", "full stream bytes",
              (unsigned long long)vault_bytes);
  std::printf("  %-34s %14llu  (%.2f%% of full)\n", "link bytes for one file",
              (unsigned long long)link_bytes,
              100.0 * link_bytes / vault_bytes);

  bool ok = true;
  ok &= resumed.attempts == 2;
  ok &= resumed.report.resume.resumes == 1;
  ok &= rs.bytes_replayed < full_bytes;
  ok &= rs.bytes_skipped > 0;
  ok &= single.restore.stats.files_restored == 1;
  ok &= link_bytes > 0 && link_bytes < vault_bytes / 10;

  const std::string json_path = bench::JsonPathFromArgs(
      argc, argv, "BENCH_restore_resume.json");
  if (!json_path.empty()) {
    std::vector<const JobReport*> reports = {
        &backup.report, &baseline.report, &resumed.report,
        &remote_backup.report, &single.report};
    bench::CheckStatus(bench::WriteBenchJson(json_path, "restore_resume", opts,
                                             b.env.now(), reports),
                       "bench json");
  }

  std::printf("\nRESULT: %s\n",
              ok ? "resume replays only the missing suffix; one file costs "
                   "O(file) link bytes"
                 : "RECOVERY CONTRACT VIOLATION");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bkup

int main(int argc, char** argv) { return bkup::Run(argc, argv); }
