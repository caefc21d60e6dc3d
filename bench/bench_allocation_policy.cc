// Design ablation: WAFL's write-anywhere allocation vs. a first-fit
// allocator.
//
// The paper credits WAFL's "complete flexibility in its write allocation
// policies" for laying data out sequentially. This ablation formats two
// otherwise identical volumes — one with the write-anywhere (moving write
// point) allocator, one with naive first-fit — runs the same aged workload,
// and compares layout contiguity and the disk cost of a logical dump.
// First-fit immediately recycles scattered holes, so files fragment faster
// (the paper's §2 claim for write-anywhere: sequential layout); the disk
// cost tells a second story — first-fit packs data densely near the start
// of the volume, trading shorter seeks for worse contiguity.
#include <cstdio>

#include "bench/common.h"

namespace bkup {
namespace {

struct Row {
  const char* name;
  double mean_run_blocks;
  double logical_disk_s_per_mb;
  double logical_mbps;
};

double DiskBusySeconds(Volume* volume) {
  int64_t total = 0;
  for (const auto& d : volume->disks()) {
    total += d->arm().BusyIntegral();
  }
  return SimToSeconds(total);
}

Row RunOne(WriteAllocator::Policy policy, const char* name) {
  SimEnvironment env;
  Filer filer(&env, FilerModel::F630());
  VolumeGeometry geom;
  geom.num_raid_groups = 3;
  geom.disks_per_group = 10;
  geom.blocks_per_disk = 2048;
  auto volume = Volume::Create(&env, "home", geom);
  FormatParams params;
  params.alloc_policy = policy;
  auto fs =
      std::move(Filesystem::Format(volume.get(), &env, nullptr, params))
          .value();

  WorkloadParams workload;
  workload.target_bytes = 165 * kMiB;
  bench::CheckStatus(PopulateFilesystem(fs.get(), workload).status(),
                     "populate");
  AgingParams aging;
  aging.rounds = 4;
  aging.churn_fraction = 0.3;
  bench::CheckStatus(AgeFilesystem(fs.get(), aging).status(), "aging");

  auto frag = MeasureFragmentation(fs->LiveReader());
  bench::CheckStatus(frag.status(), "fragmentation");

  Tape media("t0", 8ull * kGiB);
  TapeDrive drive(&env, "dlt0");
  drive.LoadMedia(&media);
  const double disk_before = DiskBusySeconds(volume.get());
  LogicalBackupJobResult backup;
  CountdownLatch done(&env, 1);
  env.Spawn(RunJob(&filer, {.fs = fs.get(), .endpoints = {{.drive = &drive}}},
                   &backup, &done));
  env.Run();
  bench::CheckStatus(backup.report.status, "logical backup");
  const double disk_s = DiskBusySeconds(volume.get()) - disk_before;

  return Row{name, frag->MeanRunBlocks(),
             disk_s / (static_cast<double>(backup.report.data_bytes) / 1e6),
             backup.report.MBps()};
}

int Run() {
  bench::PrintBanner(
      "Allocation-policy ablation: write-anywhere vs first-fit",
      "OSDI'99 paper, Section 2 (WAFL's write allocation flexibility)");
  const Row wa = RunOne(WriteAllocator::Policy::kWriteAnywhere,
                        "write-anywhere");
  const Row ff = RunOne(WriteAllocator::Policy::kFirstFit, "first-fit");
  std::printf("%-16s %18s %18s %14s\n", "policy", "mean run (blocks)",
              "log disk-s/MB", "logical MB/s");
  for (const Row* r : {&wa, &ff}) {
    std::printf("%-16s %18.2f %18.4f %14.2f\n", r->name, r->mean_run_blocks,
                r->logical_disk_s_per_mb, r->logical_mbps);
  }
  std::printf("\nObservation: write-anywhere keeps files %.1fx more "
              "contiguous; first-fit's dense packing shortens seek "
              "distances (%.2f vs %.2f disk-s/MB) at the price of "
              "fragmentation that compounds as the volume fills.\n",
              wa.mean_run_blocks / ff.mean_run_blocks,
              ff.logical_disk_s_per_mb, wa.logical_disk_s_per_mb);
  const bool ok = wa.mean_run_blocks > ff.mean_run_blocks;
  std::printf("RESULT: %s\n",
              ok ? "write-anywhere allocation keeps files more contiguous "
                   "(Section 2's layout-flexibility claim)"
                 : "SHAPE MISMATCH");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bkup

int main() { return bkup::Run(); }
