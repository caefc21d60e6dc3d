// Table 3 — "Dump and Restore Details": per-stage elapsed time and CPU
// utilization for all four operations.
//
// Shape targets from the paper:
//   * logical dump: snapshot ~30 s @50%, mapping + directories at modest
//     CPU, files phase ~25% CPU; snapshot delete ~35 s @50%;
//   * physical dump: a single "dumping blocks" stage at ~5% CPU;
//   * logical restore: creating files ~30%, filling data ~40%;
//   * physical restore: "restoring blocks" at ~11% CPU;
//   * logical dump consumes ~5x the CPU of physical; logical restore >3x
//     the CPU of physical restore.
#include <cstdio>

#include "bench/common.h"

namespace bkup {
namespace {

double StreamCpu(const JobReport& r, JobPhase p) {
  return r.phase(p).CpuUtilization();
}

int Run() {
  bench::SetupOptions opts;
  bench::Bench b(opts);
  bench::BasicSuite suite = bench::RunBasicSuite(&b);

  bench::PrintBanner("Table 3: Dump and Restore Details",
                     "OSDI'99 paper, Table 3 (Section 5.1)");
  std::printf("\nLogical Dump\n");
  suite.logical_backup.PrintPhaseRows(stdout);
  std::printf("\nLogical Restore\n");
  suite.logical_restore.PrintPhaseRows(stdout);
  std::printf("\nPhysical Dump\n");
  suite.physical_backup.PrintPhaseRows(stdout);
  std::printf("\nPhysical Restore\n");
  suite.physical_restore.PrintPhaseRows(stdout);

  std::printf(
      "\nPaper reference (Table 3):\n"
      "  Logical Dump:    snapshot 30s@50%%, mapping 20min@30%%, dirs "
      "20min@20%%, files 6.75h@25%%, delete 35s@50%%\n"
      "  Logical Restore: creating files 2h@30%%, filling data 6h@40%%\n"
      "  Physical Dump:   snapshot 30s@50%%, blocks 6.2h@5%%, delete "
      "35s@50%%\n"
      "  Physical Restore: blocks 5.9h@11%%\n");

  const double ldump = StreamCpu(suite.logical_backup, JobPhase::kDumpFiles);
  const double pdump =
      StreamCpu(suite.physical_backup, JobPhase::kDumpBlocks);
  const double lrest = StreamCpu(suite.logical_restore, JobPhase::kFillData);
  const double prest =
      StreamCpu(suite.physical_restore, JobPhase::kRestoreBlocks);
  std::printf("\nShape checks:\n");
  std::printf("  logical dump CPU / physical dump CPU      : %.1fx "
              "(paper ~5x)\n", ldump / pdump);
  std::printf("  logical restore CPU / physical restore CPU: %.1fx "
              "(paper >3x)\n", lrest / prest);
  const bool ok = ldump / pdump > 3.0 && lrest / prest > 2.0 &&
                  pdump < 0.12 && ldump > 0.12 && ldump < 0.6;
  std::printf("RESULT: %s\n", ok ? "shape matches the paper"
                                 : "SHAPE MISMATCH");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bkup

int main() { return bkup::Run(); }
