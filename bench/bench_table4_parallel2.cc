// Table 4 — "Parallel Backup and Restore Performance on 2 tape drives".
//
// Logical: the home volume split into 2 quota trees, dumped/restored
// concurrently. Physical: the image dump striped over 2 drives. Shape
// target: both roughly double their single-drive rate at 2 drives; logical
// CPU climbs faster. `--json[=path]` writes BENCH_table4_parallel2.json.
#include <cstdio>
#include <string>

#include "bench/parallel_suite.h"

namespace bkup {
namespace {

int Run(const std::string& json_path) {
  bench::ParallelSuite suite = bench::RunParallelSuite(2, 96 * kMiB);
  bench::PrintBanner(
      "Table 4: Parallel Backup and Restore Performance on 2 tape drives",
      "OSDI'99 paper, Table 4 (Section 5.2)");
  bench::PrintParallelSuite(suite);
  std::printf(
      "\nPaper reference (2 drives): logical files 4h@50%%; logical restore "
      "fill 3.5h@75%%;\n  physical dump 3.25h@12%%; physical restore "
      "3.1h@21%%\n");

  const bool ok =
      suite.physical_backup.CpuUtilization() <
          suite.logical_backup.phase(JobPhase::kDumpFiles).CpuUtilization() &&
      suite.physical_backup.TapeMBps() > suite.logical_backup.TapeMBps();
  std::printf("RESULT: %s\n",
              ok ? "shape matches the paper" : "SHAPE MISMATCH");

  if (!json_path.empty()) {
    bench::CheckStatus(
        bench::WriteBenchJson(
            json_path, "table4_parallel2", suite.opts, suite.sim_end,
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
      argc, argv, "BENCH_table4_parallel2.json"));
}
