// §3/§4 robustness claim — "A logical backup is extremely resilient to
// minor corruption of the tape ... a minor tape corruption will usually
// affect only that single file", while a physical stream has no per-file
// containment.
//
// Writes one logical and one physical tape of the same data, damages both
// at the same offsets, and counts what each restore can still deliver.
#include <cstdio>

#include "bench/common.h"
#include "src/dump/logical_restore.h"
#include "src/image/image_dump.h"

namespace bkup {
namespace {

int Run() {
  bench::SetupOptions opts;
  opts.data_bytes = 48 * kMiB;
  opts.aged = false;
  bench::Bench b(opts);
  auto src_sums = ChecksumTree(b.fs->LiveReader()).value();

  LogicalBackupJobResult lback;
  CountdownLatch l1(&b.env, 1);
  b.env.Spawn(RunJob(b.filer.get(),
                     {.fs = b.fs.get(),
                      .endpoints = {{.drive = b.drives[0].get()}}},
                     &lback, &l1));
  b.env.Run();
  bench::CheckStatus(lback.report.status, "logical backup");
  ImageBackupJobResult pback;
  CountdownLatch p1(&b.env, 1);
  b.env.Spawn(RunJob(b.filer.get(),
                     {.fs = b.fs.get(),
                      .endpoints = {{.drive = b.drives[1].get()}}},
                     &pback, &p1));
  b.env.Run();
  bench::CheckStatus(pback.report.status, "physical backup");

  // Inject the same three 2 KB media defects into both tapes.
  for (Tape* tape : {b.tapes[0].get(), b.tapes[1].get()}) {
    const uint64_t size = tape->size();
    bench::CheckStatus(tape->CorruptRange(size / 4, 2048), "corrupt");
    bench::CheckStatus(tape->CorruptRange(size / 2, 2048), "corrupt");
    bench::CheckStatus(tape->CorruptRange(3 * size / 4, 2048), "corrupt");
  }

  // Logical restore: skips damaged records and salvages the rest.
  auto lvolume = b.FreshVolume("lrestore");
  auto lfs = std::move(Filesystem::Format(lvolume.get(), &b.env)).value();
  auto lrest = RunLogicalRestore(lfs.get(), b.tapes[0]->contents(),
                                 LogicalRestoreOptions{});
  bench::CheckStatus(lrest.status(), "logical restore of damaged tape");
  auto restored_sums = ChecksumTree(lfs->LiveReader()).value();
  uint64_t intact = 0;
  for (const auto& [path, crc] : src_sums) {
    auto it = restored_sums.find(path);
    intact += (it != restored_sums.end() && it->second == crc) ? 1 : 0;
  }

  // Physical restore: any damage dooms the stream.
  auto pvolume = b.FreshVolume("prestore");
  auto prest = RunImageRestore(pvolume.get(), b.tapes[1]->contents());

  bench::PrintBanner(
      "Corruption resilience: damaged tapes, logical vs physical",
      "OSDI'99 paper, Sections 3-4 (robustness discussion)");
  std::printf("source files                   : %zu\n", src_sums.size());
  std::printf("logical: files intact          : %llu (%.1f%%)\n",
              (unsigned long long)intact,
              100.0 * static_cast<double>(intact) /
                  static_cast<double>(src_sums.size()));
  std::printf("logical: records skipped       : %u (files lost: %u)\n",
              lrest->stats.corrupt_records_skipped,
              lrest->stats.files_lost_to_corruption);
  std::printf("physical: restore outcome      : %s\n",
              prest.ok() ? "unexpectedly succeeded"
                         : prest.status().ToString().c_str());

  const bool ok = !prest.ok() &&
                  intact >= src_sums.size() * 9 / 10 &&
                  intact < src_sums.size();
  std::printf("RESULT: %s\n",
              ok ? "logical loses only nearby files; physical restore is "
                   "all-or-nothing (matches the paper)"
                 : "SHAPE MISMATCH");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bkup

int main() { return bkup::Run(); }
