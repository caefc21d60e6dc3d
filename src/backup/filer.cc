#include "src/backup/filer.h"

namespace bkup {

namespace {

// NVRAM log copy bandwidth.
constexpr double kNvramMbPerS = 16.0;

}  // namespace

FilerModel FilerModel::F630() {
  FilerModel m;
  auto set = [&m](CpuCost kind, SimDuration us) {
    m.cpu_cost_us[static_cast<int>(kind)] = us;
  };
  // Calibration targets (Table 3, 188 GB at DLT streaming speed):
  //   logical dump "dumping files" ~25% CPU at ~8 MB/s  -> ~120 us / 4 KB
  //   physical dump ~5% CPU at ~8.7 MB/s                -> ~22 us / 4 KB
  //   logical restore "filling in data" ~40% at ~8 MB/s -> ~190 us / 4 KB
  //   physical restore ~11% at ~9 MB/s                  -> ~48 us / 4 KB
  //   mapping ~20 min at 30% CPU for a large volume     -> ~150 us / inode
  set(CpuCost::kMapInode, 150);
  set(CpuCost::kDirEntry, 25);
  set(CpuCost::kLogicalBlock, 130);
  set(CpuCost::kHeaderFormat, 300);
  set(CpuCost::kPhysicalBlock, 22);
  set(CpuCost::kRestoreCreate, 700);
  set(CpuCost::kRestoreLogicalBlock, 300);
  set(CpuCost::kRestorePhysicalBlock, 48);
  set(CpuCost::kNvramByte, 0);  // modeled by the NVRAM port bandwidth
  set(CpuCost::kPathLookup, 120);
  return m;
}

Task Filer::ChargeNvram(uint64_t bytes, int priority) {
  const SimDuration cost =
      SecondsToSim(static_cast<double>(bytes) / (kNvramMbPerS * 1e6));
  if (cost > 0) {
    co_await nvram_port_.Use(1, cost, priority);
  }
}

}  // namespace bkup
