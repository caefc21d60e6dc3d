// Footnote 1 ablation — "A mature data set is typically slower to backup
// than a newly created one because of fragmentation."
//
// Sweeps aging intensity and measures logical vs physical dump throughput
// together with the layout fragmentation metric. Physical dump reads in
// block order and should be insensitive; logical dump reads in inode order
// and should degrade as files scatter.
#include <cstdio>
#include <vector>

#include "bench/common.h"

namespace bkup {
namespace {

struct Row {
  uint32_t aging_rounds;
  double mean_run_blocks;
  double logical_mbps;
  double physical_mbps;
  // Disk-arm seconds consumed per MB dumped: the direct cost of layout
  // fragmentation, independent of which stage happens to be the bottleneck.
  double logical_disk_s_per_mb;
  double physical_disk_s_per_mb;
};

double DiskBusySeconds(Volume* volume) {
  int64_t total = 0;
  for (const auto& d : volume->disks()) {
    total += d->arm().BusyIntegral();
  }
  return SimToSeconds(total);
}

Row RunOne(uint32_t aging_rounds) {
  bench::SetupOptions opts;
  opts.data_bytes = 120 * kMiB;  // mostly-full volume fragments realistically
  opts.quota_trees = 1;
  opts.aged = false;
  bench::Bench b(opts);
  if (aging_rounds > 0) {
    AgingParams aging;
    aging.rounds = aging_rounds;
    aging.churn_fraction = 0.3;
    bench::CheckStatus(AgeFilesystem(b.fs.get(), aging).status(), "aging");
  }
  auto frag = MeasureFragmentation(b.fs->LiveReader());
  bench::CheckStatus(frag.status(), "fragmentation");

  const double disk_before_logical = DiskBusySeconds(b.home.get());
  LogicalBackupJobResult logical;
  CountdownLatch ldone(&b.env, 1);
  b.env.Spawn(RunJob(b.filer.get(),
                     {.fs = b.fs.get(),
                      .endpoints = {{.drive = b.drives[0].get()}}},
                     &logical, &ldone));
  b.env.Run();
  bench::CheckStatus(logical.report.status, "logical backup");
  const double logical_disk_s =
      DiskBusySeconds(b.home.get()) - disk_before_logical;

  const double disk_before_physical = DiskBusySeconds(b.home.get());
  ImageBackupJobResult physical;
  CountdownLatch pdone(&b.env, 1);
  b.env.Spawn(RunJob(b.filer.get(),
                     {.fs = b.fs.get(),
                      .endpoints = {{.drive = b.drives[1].get()}}},
                     &physical, &pdone));
  b.env.Run();
  bench::CheckStatus(physical.report.status, "physical backup");
  const double physical_disk_s =
      DiskBusySeconds(b.home.get()) - disk_before_physical;

  Row row{};
  row.aging_rounds = aging_rounds;
  row.mean_run_blocks = frag->MeanRunBlocks();
  row.logical_mbps = logical.report.MBps();
  row.physical_mbps = physical.report.MBps();
  row.logical_disk_s_per_mb =
      logical_disk_s / (static_cast<double>(logical.report.data_bytes) / 1e6);
  row.physical_disk_s_per_mb =
      physical_disk_s /
      (static_cast<double>(physical.report.data_bytes) / 1e6);
  return row;
}

int Run() {
  bench::PrintBanner(
      "Fragmentation ablation: dump throughput vs. file-system age",
      "OSDI'99 paper, Section 5.1 footnote 1 (mature data sets)");
  std::vector<Row> rows;
  for (const uint32_t rounds : {0u, 2u, 4u, 8u}) {
    rows.push_back(RunOne(rounds));
  }
  std::printf("%8s %14s %13s %13s %16s %16s\n", "rounds",
              "run (blocks)", "logical MB/s", "phys MB/s",
              "log disk-s/MB", "phys disk-s/MB");
  for (const Row& r : rows) {
    std::printf("%8u %14.2f %13.2f %13.2f %16.4f %16.4f\n", r.aging_rounds,
                r.mean_run_blocks, r.logical_mbps, r.physical_mbps,
                r.logical_disk_s_per_mb, r.physical_disk_s_per_mb);
  }
  // Fragmentation must (a) shorten layout runs, (b) slow logical dump,
  // and (c) inflate logical dump's per-MB disk cost by more than physical
  // dump's — inode-order reads pay the scattering, block-order reads
  // mostly do not.
  const double logical_cost_growth = rows.back().logical_disk_s_per_mb /
                                     rows.front().logical_disk_s_per_mb;
  const double physical_cost_growth = rows.back().physical_disk_s_per_mb /
                                      rows.front().physical_disk_s_per_mb;
  std::printf("\ndisk cost growth, fresh -> aged: logical %.2fx, physical "
              "%.2fx\n",
              logical_cost_growth, physical_cost_growth);
  const bool ok =
      rows.back().mean_run_blocks < rows.front().mean_run_blocks &&
      logical_cost_growth > 1.1 &&
      logical_cost_growth > physical_cost_growth;
  std::printf("RESULT: %s\n",
              ok ? "aging hurts logical dump disproportionately (matches "
                   "footnote 1)"
                 : "SHAPE MISMATCH");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bkup

int main() { return bkup::Run(); }
