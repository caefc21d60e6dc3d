// Table 2 — "Basic Backup and Restore Performance".
//
// One DLT-7000 drive, a mature home volume. The paper's qualitative
// results, which this bench must (and does) reproduce:
//   * both backups run near tape speed, physical ~20% faster,
//   * physical restore is much faster than logical restore, because it
//     bypasses the file system and NVRAM.
#include <cstdio>

#include "bench/common.h"

namespace bkup {
namespace {

int Run(const std::string& json_path) {
  bench::SetupOptions opts;
  bench::Bench b(opts);
  std::printf("workload: %u files, %u dirs, %s of data (mature/aged)\n",
              b.workload.files, b.workload.directories,
              FormatSize(b.workload.bytes).c_str());

  bench::BasicSuite suite = bench::RunBasicSuite(&b);

  bench::PrintBanner("Table 2: Basic Backup and Restore Performance",
                     "OSDI'99 paper, Table 2 (Section 5.1)");
  bench::PrintSummaryHeader();
  bench::PrintSummaryRow(suite.logical_backup);
  bench::PrintSummaryRow(suite.logical_restore);
  bench::PrintSummaryRow(suite.physical_backup);
  bench::PrintSummaryRow(suite.physical_restore);

  std::printf(
      "\nPaper reference (188 GB home volume, DLT-7000):\n"
      "  Logical Backup   ~7.5 h  ~7.2 MB/s   Logical Restore   ~8 h  ~6.5 "
      "MB/s\n"
      "  Physical Backup  ~6.3 h  ~8.5 MB/s   Physical Restore  ~5.9 h ~9.0 "
      "MB/s\n");

  const double backup_edge =
      suite.physical_backup.MBps() / suite.logical_backup.MBps();
  const double restore_edge =
      suite.physical_restore.MBps() / suite.logical_restore.MBps();
  std::printf("\nShape checks:\n");
  std::printf("  physical/logical backup throughput : %.2fx (paper ~1.2x)\n",
              backup_edge);
  std::printf("  physical/logical restore throughput: %.2fx (paper ~1.4x)\n",
              restore_edge);
  const bool ok = backup_edge > 1.02 && backup_edge < 1.8 &&
                  restore_edge > 1.1 && restore_edge < 3.0;
  std::printf("RESULT: %s\n", ok ? "shape matches the paper"
                                 : "SHAPE MISMATCH");

  if (!json_path.empty()) {
    bench::CheckStatus(
        bench::WriteBenchJson(
            json_path, "table2_basic", opts, b.env.now(),
            {&suite.logical_backup, &suite.logical_restore,
             &suite.physical_backup, &suite.physical_restore}),
        "writing JSON report");
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bkup

int main(int argc, char** argv) {
  return bkup::Run(
      bkup::bench::JsonPathFromArgs(argc, argv, "BENCH_table2_basic.json"));
}
