// §4.1 — incremental dumps: logical (dumpdates + changed-since-base files)
// versus physical (snapshot bit-plane difference, Table 1's B − A).
//
// Sweeps the daily change rate and reports what each strategy moves for a
// level-1 incremental on top of a level-0 full dump. The paper's point:
// WAFL's copy-on-write bookkeeping makes incremental *image* dumps possible
// and cheap — they move only changed blocks, while logical incrementals
// re-dump every byte of every changed file. `--json[=path]` writes
// BENCH_incremental.json with each row's level-1 logical and physical job.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/dump/dumpdates.h"
#include "src/util/random.h"

namespace bkup {
namespace {

// One change rate: its level-1 logical and physical jobs.
struct Row {
  double churn;
  JobReport logical;
  JobReport physical;
  SimTime sim_end;
};

bench::SetupOptions Setup() {
  bench::SetupOptions opts;
  opts.data_bytes = 64 * kMiB;
  opts.quota_trees = 1;
  opts.aged = false;
  return opts;
}

// Overwrites a fraction of files in place (partial rewrites).
void Churn(Filesystem* fs, double fraction, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<std::string, uint64_t>> files;
  Status st = WalkTree(fs->LiveReader(), "/",
                       [&files](const std::string& path, Inum,
                                const InodeData& inode) {
                         if (inode.type == InodeType::kFile) {
                           files.emplace_back(path, inode.size);
                         }
                       });
  bench::CheckStatus(st, "walk");
  std::vector<uint8_t> patch(kBlockSize);
  for (const auto& [path, size] : files) {
    if (!rng.Chance(fraction)) {
      continue;
    }
    auto inum = fs->LookupPath(path);
    if (!inum.ok()) {
      continue;
    }
    // Rewrite ~one block of the file: a small change to a large file is
    // exactly where block-level incrementals shine.
    rng.Fill(patch);
    const uint64_t offset =
        size > kBlockSize ? rng.Below(size / kBlockSize) * kBlockSize : 0;
    bench::CheckStatus(fs->Write(*inum, offset, patch), "churn write");
  }
  bench::CheckStatus(fs->ConsistencyPoint().status(), "cp");
}

Row RunOne(double churn_fraction) {
  bench::Bench b(Setup());
  DumpDates dumpdates;

  // Level 0 of both strategies.
  LogicalBackupJobResult l0;
  {
    CountdownLatch done(&b.env, 1);
    LogicalDumpOptions opt;
    opt.level = 0;
    opt.volume_name = "home";
    b.env.Spawn(RunJob(b.filer.get(),
                       {.fs = b.fs.get(),
                        .endpoints = {{.drive = b.drives[0].get()}},
                        .logical_dump = opt},
                       &l0, &done));
    b.env.Run();
    bench::CheckStatus(l0.report.status, "logical level 0");
    dumpdates.Record({"home", "/", 0, b.env.now(), b.fs->generation(), ""});
  }
  ImageBackupJobResult p0;
  {
    CountdownLatch done(&b.env, 1);
    ImageDumpOptions opt;
    opt.snapshot_name = "level0";
    b.env.Spawn(RunJob(b.filer.get(),
                       {.fs = b.fs.get(),
                        .endpoints = {{.drive = b.drives[1].get()}},
                        .image_dump = opt,
                        .delete_snapshot_after = false},
                       &p0, &done));
    b.env.Run();
    bench::CheckStatus(p0.report.status, "physical level 0");
  }

  Churn(b.fs.get(), churn_fraction, 42);

  // Level 1 incrementals.
  Row row{};
  row.churn = churn_fraction;
  {
    CountdownLatch done(&b.env, 1);
    LogicalDumpOptions opt;
    opt.level = 1;
    opt.volume_name = "home";
    auto base = dumpdates.BaseFor("home", "/", 1);
    bench::CheckStatus(base.status(), "dumpdates base");
    opt.base_time = base->dump_time;
    b.tapes[2]->Erase();
    b.drives[2]->LoadMedia(b.tapes[2].get());
    LogicalBackupJobResult l1;
    b.env.Spawn(RunJob(b.filer.get(),
                       {.fs = b.fs.get(),
                        .endpoints = {{.drive = b.drives[2].get()}},
                        .logical_dump = opt},
                       &l1, &done));
    b.env.Run();
    bench::CheckStatus(l1.report.status, "logical level 1");
    row.logical = l1.report;
  }
  {
    CountdownLatch done(&b.env, 1);
    ImageDumpOptions opt;
    opt.snapshot_name = "level1";
    opt.base_snapshot = "level0";
    b.tapes[3]->Erase();
    b.drives[3]->LoadMedia(b.tapes[3].get());
    ImageBackupJobResult p1;
    b.env.Spawn(RunJob(b.filer.get(),
                       {.fs = b.fs.get(),
                        .endpoints = {{.drive = b.drives[3].get()}},
                        .image_dump = opt,
                        .delete_snapshot_after = false},
                       &p1, &done));
    b.env.Run();
    bench::CheckStatus(p1.report.status, "physical level 1");
    row.physical = p1.report;
  }
  row.sim_end = b.env.now();
  return row;
}

int Run(const std::string& json_path) {
  bench::PrintBanner(
      "Incremental dumps: logical (changed files) vs physical (B - A "
      "blocks)",
      "OSDI'99 paper, Section 4.1 and Table 1");
  std::printf("%10s %16s %14s %16s %14s %8s\n", "churn", "logical bytes",
              "logical time", "physical bytes", "physical time",
              "ratio");
  bool ok = true;
  std::vector<Row> rows;
  for (const double churn : {0.01, 0.05, 0.20}) {
    const Row& r = rows.emplace_back(RunOne(churn));
    const double ratio = static_cast<double>(r.logical.stream_bytes) /
                         static_cast<double>(r.physical.stream_bytes);
    std::printf("%9.0f%% %16llu %14s %16llu %14s %7.2fx\n", churn * 100,
                (unsigned long long)r.logical.stream_bytes,
                FormatDuration(r.logical.StreamElapsed()).c_str(),
                (unsigned long long)r.physical.stream_bytes,
                FormatDuration(r.physical.StreamElapsed()).c_str(), ratio);
    // Logical incrementals re-dump whole changed files; physical moves only
    // changed blocks (plus meta-data churn), so logical moves more data at
    // every churn level here (one-block changes to multi-block files).
    ok &= r.logical.stream_bytes > r.physical.stream_bytes;
  }
  std::printf("\nRESULT: %s\n",
              ok ? "block-level incrementals move less data than file-level "
                   "(Section 4.1)"
                 : "SHAPE MISMATCH");

  if (!json_path.empty()) {
    // sim_elapsed_s is the highest-churn row's; each row has its own testbed.
    std::vector<const JobReport*> reports;
    for (Row& r : rows) {
      const std::string churn =
          " @ " + std::to_string(static_cast<int>(r.churn * 100 + 0.5)) +
          "% churn";
      r.logical.name = "Logical Level 1" + churn;
      r.physical.name = "Physical Level 1" + churn;
      reports.push_back(&r.logical);
      reports.push_back(&r.physical);
    }
    bench::CheckStatus(
        bench::WriteBenchJson(json_path, "incremental", Setup(),
                              rows.back().sim_end, reports),
        "writing JSON report");
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bkup

int main(int argc, char** argv) {
  return bkup::Run(
      bkup::bench::JsonPathFromArgs(argc, argv, "BENCH_incremental.json"));
}
