// A simulated disk drive: a sparse in-memory block store plus a positional
// timing model (seek + rotation + transfer) and a single-server "arm"
// resource for the discrete-event simulation.
//
// Data operations (`ReadData`/`WriteData`) are functional and instantaneous;
// simulated time is charged by jobs through `TimedAccess`, which acquires the
// arm, advances the clock by `AccessTime`, and moves the head. Splitting data
// from timing lets the file system run functionally while the backup jobs —
// where all of the paper's measurements live — pay for every device touch.
#ifndef BKUP_BLOCK_DISK_H_
#define BKUP_BLOCK_DISK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "src/block/block.h"
#include "src/block/fault_hook.h"
#include "src/sim/environment.h"
#include "src/sim/resource.h"
#include "src/sim/task.h"
#include "src/util/status.h"
#include "src/util/units.h"

namespace bkup {

// Timing parameters. Defaults approximate the 9 GB 7200 rpm Fibre Channel
// drives of the paper's F630 (late-90s Seagate Barracuda class).
struct DiskTiming {
  double avg_seek_ms = 8.0;          // average random seek
  double track_seek_ms = 1.0;        // settling for a short (nearby) seek
  double rotational_ms = 4.17;       // half revolution at 7200 rpm
  double transfer_mb_per_s = 10.0;   // sustained media rate
  // Accesses within this many blocks of the head count as "near" and pay
  // only the track seek; beyond it, a fraction of the full average seek that
  // grows with distance.
  uint64_t near_threshold_blocks = 256;
};

class Disk {
 public:
  Disk(SimEnvironment* env, std::string name, uint64_t num_blocks,
       DiskTiming timing = DiskTiming());

  const std::string& name() const { return name_; }
  uint64_t num_blocks() const { return num_blocks_; }
  const DiskTiming& timing() const { return timing_; }

  // ------------------------------------------------------------- data ---

  // Reads block `dbn` into `out`; unwritten blocks read as zeros.
  Status ReadData(Dbn dbn, Block* out) const;
  Status WriteData(Dbn dbn, const Block& block);

  // --------------------------------------------------------- failures ---

  // A failed disk errors all data access until repaired; used by the RAID
  // reconstruction tests. An access already in flight also fails: TimedAccess
  // re-checks the flag after paying the access time.
  void Fail() { failed_ = true; }
  // Replaces the drive with a fresh (empty) one, as a field engineer would.
  void ReplaceWithBlank();
  bool failed() const { return failed_; }

  // Arms the drive against a fault engine; every TimedAccess consults the
  // hook. Null disarms.
  void set_fault_hook(DeviceFaultHook* hook) { fault_hook_ = hook; }
  DeviceFaultHook* fault_hook() const { return fault_hook_; }

  // ----------------------------------------------------------- timing ---

  // Duration of an access of `count` contiguous blocks starting at `dbn`,
  // given the current head position. Pure (does not move the head).
  SimDuration AccessTime(Dbn dbn, uint64_t count) const;

  // Awaitable process: acquire the arm, pay AccessTime, move the head.
  // Does not move data; pair it with ReadData/WriteData. If the drive is
  // failed (including a Fail() that lands while the access is in flight) or
  // an armed fault hook rejects the access, `*status` receives kIoError and
  // the head/byte counters are left untouched. `priority` is the arm's
  // scheduling class: background (1) accesses queue behind every foreground
  // (0) request but cannot be preempted once the arm is held.
  Task TimedAccess(Dbn dbn, uint64_t count, Status* status = nullptr,
                   int priority = kPriorityForeground);

  // The arm as a resource, for utilization reporting.
  Resource& arm() { return arm_; }
  const Resource& arm() const { return arm_; }

  Dbn head_position() const { return head_; }

  // Total bytes moved through TimedAccess, for MB/s reporting.
  uint64_t bytes_transferred() const { return bytes_transferred_; }

 private:
  SimEnvironment* env_;
  std::string name_;
  uint64_t num_blocks_;
  DiskTiming timing_;
  Resource arm_;
  Dbn head_ = 0;
  bool failed_ = false;
  DeviceFaultHook* fault_hook_ = nullptr;
  uint64_t bytes_transferred_ = 0;
  std::unordered_map<Dbn, std::unique_ptr<Block>> store_;
};

}  // namespace bkup

#endif  // BKUP_BLOCK_DISK_H_
