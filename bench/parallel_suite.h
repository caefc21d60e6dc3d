// Shared driver for Tables 4 and 5: parallel backup and restore on N tape
// drives.
//
// Logical parallelism follows the paper exactly: the home volume is split
// into N equal quota trees dumped concurrently (dump's strictly linear
// format cannot stripe one dump over drives). Physical parallelism stripes
// the block set across N drives from one shared snapshot.
#ifndef BKUP_BENCH_PARALLEL_SUITE_H_
#define BKUP_BENCH_PARALLEL_SUITE_H_

#include <cstdio>

#include "bench/common.h"

namespace bkup {
namespace bench {

struct ParallelSuite {
  JobReport logical_backup;
  JobReport logical_restore;
  JobReport physical_backup;
  JobReport physical_restore;
  SetupOptions opts;    // the testbed the suite ran on
  SimTime sim_end = 0;  // simulated time the last job drained at
};

inline ParallelSuite RunParallelSuite(uint32_t ntapes, uint64_t data_bytes) {
  SetupOptions opts;
  opts.data_bytes = data_bytes;
  opts.quota_trees = ntapes;
  opts.num_tapes = ntapes;
  Bench b(opts);
  ParallelSuite suite;
  suite.opts = opts;

  std::vector<std::string> subtrees;
  for (uint32_t k = 0; k < ntapes; ++k) {
    subtrees.push_back(ntapes == 1 ? "/" : QuotaTreePath(k));
  }

  // ---- Parallel logical backup: one dump job per quota tree. ----
  {
    ParallelJobResult<LogicalBackupJobResult> result;
    CountdownLatch done(&b.env, 1);
    JobSpec spec{.fs = b.fs.get(),
                 .endpoints = b.Endpoints(ntapes),
                 .trees = subtrees};
    spec.logical_dump.volume_name = "home";
    b.env.Spawn(RunJob(b.filer.get(), spec, &result, &done));
    b.env.Run();
    CheckStatus(result.merged.status, "parallel logical backup");
    result.merged.name = "Logical Backup";
    suite.logical_backup = result.merged;
  }
  // ---- Parallel logical restore into a fresh file system. ----
  {
    auto volume = b.FreshVolume("lrestore");
    auto fs = std::move(Filesystem::Format(volume.get(), &b.env)).value();
    b.RewindAll();
    ParallelJobResult<LogicalRestoreJobResult> result;
    CountdownLatch done(&b.env, 1);
    b.env.Spawn(RunJob(b.filer.get(),
                       {.fs = fs.get(),
                        .endpoints = b.Endpoints(ntapes),
                        .trees = subtrees},
                       &result, &done));
    b.env.Run();
    CheckStatus(result.merged.status, "parallel logical restore");
    result.merged.name = "Logical Restore";
    suite.logical_restore = result.merged;
  }
  // ---- Parallel physical backup: striped image dump. ----
  for (auto& t : b.tapes) {
    t->Erase();
  }
  for (uint32_t k = 0; k < ntapes; ++k) {
    b.drives[k]->LoadMedia(b.tapes[k].get());
  }
  {
    ParallelJobResult<ImageBackupJobResult> result;
    CountdownLatch done(&b.env, 1);
    b.env.Spawn(RunJob(b.filer.get(),
                       {.fs = b.fs.get(),
                        .endpoints = b.Endpoints(ntapes),
                        .delete_snapshot_after = false},
                       &result, &done));
    b.env.Run();
    CheckStatus(result.merged.status, "parallel physical backup");
    result.merged.name = "Physical Backup";
    suite.physical_backup = result.merged;
  }
  // ---- Parallel physical restore onto a fresh volume. ----
  {
    auto volume = b.FreshVolume("prestore");
    b.RewindAll();
    ParallelJobResult<ImageRestoreJobResult> result;
    CountdownLatch done(&b.env, 1);
    b.env.Spawn(RunJob(b.filer.get(),
                       {.volume = volume.get(),
                        .endpoints = b.Endpoints(ntapes)},
                       &result, &done));
    b.env.Run();
    CheckStatus(result.merged.status, "parallel physical restore");
    result.merged.name = "Physical Restore";
    suite.physical_restore = result.merged;
  }
  suite.sim_end = b.env.now();
  return suite;
}

inline void PrintParallelSuite(const ParallelSuite& suite) {
  std::printf("%-20s %12s %8s %10s %10s %8s %10s\n", "Operation", "Elapsed",
              "CPU", "Disk MB/s", "Tape MB/s", "GB/h", "GB/h/tape");
  for (const JobReport* r :
       {&suite.logical_backup, &suite.logical_restore,
        &suite.physical_backup, &suite.physical_restore}) {
    std::printf("%-20s %12s %7.1f%% %10.2f %10.2f %8.1f %10.2f\n",
                r->name.c_str(), FormatDuration(r->StreamElapsed()).c_str(),
                r->StreamCpuUtilization() * 100.0, r->DiskMBps(),
                r->TapeMBps(), r->GBph(), r->GBph() / suite.opts.num_tapes);
  }
}

}  // namespace bench
}  // namespace bkup

#endif  // BKUP_BENCH_PARALLEL_SUITE_H_
