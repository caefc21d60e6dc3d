#include "src/backup/supervisor.h"

namespace bkup {

DiskFaultPolicy SupervisionPolicy::MakeDiskPolicy(
    FaultCounters* counters) const {
  DiskFaultPolicy policy;
  policy.retry = disk_retry;
  policy.reconstruct_on_failure = reconstruct_on_disk_failure;
  policy.hot_spares = hot_spare_disks;
  policy.counters = counters;
  return policy;
}

}  // namespace bkup
