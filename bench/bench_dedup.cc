// Cross-night dedup — does a deduplicated full dump cost like an
// incremental?
//
// The paper's nightly schedule (§4.1) alternates cheap incrementals with
// expensive full dumps because a level-0 re-ships every byte. The content
// pipeline's ChunkIndex (DESIGN.md §16) changes that arithmetic: when two
// nights' dumps share one chunk store, night 2's full dump emits 24-byte
// ref frames for every chunk the store already holds and ships literal
// bytes only where the tree actually changed. Content-defined chunking is
// what makes this work across nights — record headers shift by a few bytes
// when an inode's mtime changes, and the rolling-hash boundaries resync
// within a chunk or two instead of cascading misses to the end of stream.
//
// The gate: after one night of churn, a dedup'd level-0 full must move no
// more than 1.5x the wire bytes of a plain level-1 incremental over the
// same churn — a full dump's restore simplicity at an incremental's wire
// price. Two sanity shapes ride along: night 1 (cold store) must ship
// essentially everything, and night 2 must ref >= 90% of its chunks.
#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "src/content/content.h"
#include "src/dump/dumpdates.h"
#include "src/util/random.h"

namespace bkup {
namespace {

// Overwrites ~one block of a fraction of files in place: the nightly edit
// traffic a home volume sees (same model as bench_incremental).
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
    rng.Fill(patch);
    const uint64_t offset =
        size > kBlockSize ? rng.Below(size / kBlockSize) * kBlockSize : 0;
    bench::CheckStatus(fs->Write(*inum, offset, patch), "churn write");
  }
  bench::CheckStatus(fs->ConsistencyPoint().status(), "cp");
}

int Run(const std::string& json_path) {
  bench::SetupOptions opts;
  opts.data_bytes = 64 * kMiB;
  opts.quota_trees = 1;
  opts.aged = false;
  bench::Bench b(opts);
  std::printf("workload: %u files, %u dirs, %s of data\n", b.workload.files,
              b.workload.directories, FormatSize(b.workload.bytes).c_str());

  // One chunk store shared by both nights' full dumps.
  ChunkIndex index;
  ContentConfig content;
  content.chunk = content.dedup = content.crc = true;
  content.index = &index;
  bench::CheckStatus(content.Validate(), "content config");

  DumpDates dumpdates;
  const double kChurn = 0.05;

  // Night 1: level-0 full through the content pipeline (cold store).
  LogicalBackupJobResult night1;
  {
    CountdownLatch done(&b.env, 1);
    LogicalDumpOptions opt;
    opt.level = 0;
    opt.volume_name = "home";
    b.env.Spawn(RunJob(
        b.filer.get(),
        {.fs = b.fs.get(),
         .endpoints = {{.drive = b.drives[0].get(), .content = content}},
         .logical_dump = opt},
        &night1, &done));
    b.env.Run();
    bench::CheckStatus(night1.report.status, "night-1 full");
    night1.report.name = "Night 1 full (dedup, cold store)";
    dumpdates.Record({"home", "/", 0, b.env.now(), b.fs->generation(), ""});
  }

  Churn(b.fs.get(), kChurn, 1999);

  // Night 2, strategy A: the paper's plain level-1 incremental (no content
  // stages) — the wire-byte bar the dedup'd full has to meet.
  LogicalBackupJobResult incr;
  {
    CountdownLatch done(&b.env, 1);
    LogicalDumpOptions opt;
    opt.level = 1;
    opt.volume_name = "home";
    auto base = dumpdates.BaseFor("home", "/", 1);
    bench::CheckStatus(base.status(), "dumpdates base");
    opt.base_time = base->dump_time;
    b.env.Spawn(RunJob(b.filer.get(),
                       {.fs = b.fs.get(),
                        .endpoints = {{.drive = b.drives[1].get()}},
                        .logical_dump = opt},
                       &incr, &done));
    b.env.Run();
    bench::CheckStatus(incr.report.status, "night-2 incremental");
    incr.report.name = "Night 2 incremental (plain)";
  }

  // Night 2, strategy B: another level-0 full against the warm store.
  LogicalBackupJobResult night2;
  {
    CountdownLatch done(&b.env, 1);
    LogicalDumpOptions opt;
    opt.level = 0;
    opt.volume_name = "home";
    b.env.Spawn(RunJob(
        b.filer.get(),
        {.fs = b.fs.get(),
         .endpoints = {{.drive = b.drives[2].get(), .content = content}},
         .logical_dump = opt},
        &night2, &done));
    b.env.Run();
    bench::CheckStatus(night2.report.status, "night-2 full");
    night2.report.name = "Night 2 full (dedup, warm store)";
  }

  bench::PrintBanner(
      "Cross-night dedup: level-0 full at incremental wire cost",
      "OSDI'99 paper, Section 4.1 nightly schedule + DESIGN.md section 16");
  std::printf("%-36s %12s %12s %10s %10s\n", "Job", "Raw bytes", "Wire bytes",
              "Chunks", "Ref hits");
  for (const LogicalBackupJobResult* r : {&night1, &night2}) {
    std::printf("%-36s %12llu %12llu %10llu %10llu\n", r->report.name.c_str(),
                (unsigned long long)r->report.content.raw_bytes,
                (unsigned long long)r->report.content.wire_bytes,
                (unsigned long long)r->report.content.chunks,
                (unsigned long long)r->report.content.dedup_hits);
  }
  std::printf("%-36s %12llu %12llu %10s %10s\n", incr.report.name.c_str(),
              (unsigned long long)incr.dump.stats.stream_bytes,
              (unsigned long long)incr.report.stream_bytes, "-", "-");

  const uint64_t night2_wire = night2.report.content.wire_bytes;
  const uint64_t incr_wire = incr.report.stream_bytes;
  const double vs_incr =
      static_cast<double>(night2_wire) / static_cast<double>(incr_wire);
  const double night1_ship =
      static_cast<double>(night1.report.content.wire_bytes) /
      static_cast<double>(night1.report.content.raw_bytes);
  const double night2_ref_rate =
      static_cast<double>(night2.report.content.dedup_hits) /
      static_cast<double>(night2.report.content.chunks);

  std::printf("\nShape checks (%.0f%% nightly churn):\n", kChurn * 100);
  std::printf("  night-1 wire/raw (cold store)     : %.2f (must be >= 0.95)\n",
              night1_ship);
  std::printf("  night-2 ref'd chunks              : %.1f%% (must be >= 90%%)\n",
              night2_ref_rate * 100.0);
  std::printf("  night-2 full wire vs. incremental : %.2fx (must be <= 1.5x)\n",
              vs_incr);
  const bool cold_ships = night1_ship >= 0.95;
  const bool warm_refs = night2_ref_rate >= 0.90;
  const bool full_cheap = vs_incr <= 1.5;
  const bool ok = cold_ships && warm_refs && full_cheap;
  std::printf("RESULT: %s\n",
              ok ? "a dedup'd full dump costs like an incremental on the wire"
                 : "SHAPE MISMATCH");

  if (!json_path.empty()) {
    std::vector<const JobReport*> reports = {&night1.report, &incr.report,
                                             &night2.report};
    bench::CheckStatus(bench::WriteBenchJson(json_path, "dedup", opts,
                                             b.env.now(), reports),
                       "writing JSON report");
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bkup

int main(int argc, char** argv) {
  return bkup::Run(
      bkup::bench::JsonPathFromArgs(argc, argv, "BENCH_dedup.json"));
}
