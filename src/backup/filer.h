// The simulated filer: CPU-cost model and shared resources, calibrated to
// the paper's testbed (§5): a NetApp F630 — 500 MHz Alpha 21164A, 512 MB
// RAM, 32 MB NVRAM, FC-AL disks, DLT-7000 drives on dedicated SCSI
// adapters.
//
// Cost constants are chosen so the *measured* behaviour of the simulated
// filer matches the paper's published utilizations (Table 3): logical dump
// ~25-30% CPU at tape speed, physical dump ~5%, logical restore 30-40%,
// physical restore ~11%, with snapshot create/delete costing tens of
// seconds at ~50% CPU. EXPERIMENTS.md records the calibration.
#ifndef BKUP_BACKUP_FILER_H_
#define BKUP_BACKUP_FILER_H_

#include <array>
#include <string>
#include <vector>

#include "src/block/io_trace.h"
#include "src/sim/environment.h"
#include "src/sim/resource.h"
#include "src/util/units.h"

namespace bkup {

struct FilerModel {
  // Per-unit CPU time for each work class, microseconds.
  std::array<SimDuration, kNumCpuCosts> cpu_cost_us{};

  // Snapshot bookkeeping (Table 3: ~30 s create / ~35 s delete, at the
  // 50% CPU duty cycle SnapshotPhase holds).
  SimDuration snapshot_create_time = 30 * kSecond;
  SimDuration snapshot_delete_time = 35 * kSecond;

  // The F630 as configured in §5.
  static FilerModel F630();

  SimDuration CostOf(const std::vector<CpuCharge>& charges) const {
    SimDuration total = 0;
    for (const CpuCharge& c : charges) {
      total += cpu_cost_us[static_cast<int>(c.kind)] *
               static_cast<SimDuration>(c.count);
    }
    return total;
  }
};

// Shared execution context for backup jobs running on one filer.
class Filer {
 public:
  Filer(SimEnvironment* env, FilerModel model)
      : env_(env),
        model_(model),
        cpu_(env, 1, "filer.cpu"),
        nvram_port_(env, 1, "filer.nvram") {}

  SimEnvironment* env() { return env_; }
  const FilerModel& model() const { return model_; }
  Resource& cpu() { return cpu_; }

  // Holds the CPU for the model cost of `charges`. `priority` is the CPU
  // scheduling class (kPriorityBackground demotes a QoS-throttled dump
  // behind foreground work).
  Task ChargeCpu(const std::vector<CpuCharge>& charges,
                 int priority = kPriorityForeground) {
    const SimDuration cost = model_.CostOf(charges);
    if (cost > 0) {
      co_await cpu_.Use(1, cost, priority);
    }
  }

  // Streams `bytes` through the NVRAM log port (16 MB/s; logical restore
  // funnels every byte through it, physical restore bypasses it entirely).
  Task ChargeNvram(uint64_t bytes, int priority = kPriorityForeground);

 private:
  SimEnvironment* env_;
  FilerModel model_;
  Resource cpu_;
  Resource nvram_port_;
};

}  // namespace bkup

#endif  // BKUP_BACKUP_FILER_H_
