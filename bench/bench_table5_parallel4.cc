// Table 5 — "Parallel Backup and Restore Performance on 4 tape drives".
//
// The paper's headline scaling result: with 4 drives, logical dump reaches
// ~17.4 GB/h/tape with the CPU near 90% and tape utilization under 70%,
// while physical dump reaches ~27.6 GB/h/tape at ~30% CPU — physical scales,
// logical saturates on disks + CPU. `--json[=path]` writes
// BENCH_table5_parallel4.json.
#include <cstdio>
#include <string>

#include "bench/parallel_suite.h"

namespace bkup {
namespace {

int Run(const std::string& json_path) {
  bench::ParallelSuite suite = bench::RunParallelSuite(4, 128 * kMiB);
  bench::PrintBanner(
      "Table 5: Parallel Backup and Restore Performance on 4 tape drives",
      "OSDI'99 paper, Table 5 (Section 5.2)");
  bench::PrintParallelSuite(suite);
  std::printf(
      "\nPaper reference (4 drives):\n"
      "  logical: mapping 5min@90%%, dirs 7min@90%%, files 2.5h@90%%; "
      "restore create 0.75h@53%%, fill 3.25h@100%%\n"
      "  physical: dump 1.7h@30%% (110 GB/h = 27.6 GB/h/tape); restore "
      "1.63h@41%%\n"
      "  logical achieved 69.6 GB/h = 17.4 GB/h/tape (CPU-bound, tape "
      "util < 70%%)\n");

  // Shape checks: physical outruns logical per tape; logical is the one
  // burning CPU; physical tape utilization beats logical's.
  const double tape_rate = 9.0;  // MB/s per DLT-7000 in this model
  const double phys_tape_util =
      suite.physical_backup.TapeMBps() / (4 * tape_rate);
  const double log_tape_util =
      suite.logical_backup.TapeMBps() / (4 * tape_rate);
  std::printf("\nShape checks:\n");
  std::printf("  physical GB/h/tape vs logical: %.2f vs %.2f (paper 27.6 vs "
              "17.4)\n",
              suite.physical_backup.GBph() / 4,
              suite.logical_backup.GBph() / 4);
  std::printf("  tape utilization physical vs logical: %.0f%% vs %.0f%% "
              "(paper: logical < 70%%)\n",
              phys_tape_util * 100, log_tape_util * 100);
  std::printf("  logical dump CPU: %.0f%% (paper ~90%%), physical dump "
              "CPU: %.0f%% (paper ~30%%)\n",
              suite.logical_backup.phase(JobPhase::kDumpFiles)
                      .CpuUtilization() * 100,
              suite.physical_backup.phase(JobPhase::kDumpBlocks)
                      .CpuUtilization() * 100);
  const bool ok =
      suite.physical_backup.GBph() > suite.logical_backup.GBph() &&
      phys_tape_util > log_tape_util &&
      suite.logical_backup.phase(JobPhase::kDumpFiles).CpuUtilization() >
          suite.physical_backup.phase(JobPhase::kDumpBlocks)
              .CpuUtilization();
  std::printf("RESULT: %s\n",
              ok ? "shape matches the paper" : "SHAPE MISMATCH");

  if (!json_path.empty()) {
    bench::CheckStatus(
        bench::WriteBenchJson(
            json_path, "table5_parallel4", suite.opts, suite.sim_end,
            {&suite.logical_backup, &suite.logical_restore,
             &suite.physical_backup, &suite.physical_restore}),
        "writing JSON report");
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bkup

int main(int argc, char** argv) {
  return bkup::Run(bkup::bench::JsonPathFromArgs(
      argc, argv, "BENCH_table5_parallel4.json"));
}
