// I/O traces: the bridge between the functional backup engines and the
// discrete-event performance simulation.
//
// Dump and restore run *functionally* (real bytes, instantaneous), emitting
// a fine-grained trace of what they touched: volume blocks read, blocks
// written, CPU work by class, and how many stream bytes each step produced
// or consumed. The backup jobs (src/backup) then replay these traces through
// the simulated filer — disks, tapes, CPU — as coroutine pipelines, which is
// where elapsed time, utilization, and bottleneck behaviour come from.
#ifndef BKUP_BLOCK_IO_TRACE_H_
#define BKUP_BLOCK_IO_TRACE_H_

#include <cstdint>
#include <vector>

#include "src/block/block.h"

namespace bkup {

// Classes of CPU work, priced by the FilerModel (src/backup/filer_model.h).
enum class CpuCost : uint8_t {
  kMapInode = 0,        // phase I/II: examine one inode
  kDirEntry,            // process one directory entry
  kLogicalBlock,        // move one 4 KB block through the file system path
  kHeaderFormat,        // format one 1 KB dump record header
  kPhysicalBlock,       // move one 4 KB block through the raw RAID path
  kRestoreCreate,       // create one file/directory through the file system
  kRestoreLogicalBlock, // write one 4 KB block through the file system
  kRestorePhysicalBlock,// write one 4 KB block through raw RAID
  kNvramByte,           // copy one byte into the NVRAM log
  kPathLookup,          // one namei component resolution (portable restore)
  kCount,
};
inline constexpr int kNumCpuCosts = static_cast<int>(CpuCost::kCount);

struct CpuCharge {
  CpuCost kind;
  uint64_t count;
};

// Phases, matching the stage rows of the paper's Table 3.
enum class JobPhase : uint8_t {
  kCreateSnapshot = 0,
  kMap,            // "Mapping files and directories"
  kDumpDirs,       // "Dumping directories"
  kDumpFiles,      // "Dumping files"
  kDeleteSnapshot,
  kCreateFiles,    // restore: "Creating files"
  kFillData,       // restore: "Filling in data"
  kDumpBlocks,     // physical: "Dumping blocks"
  kRestoreBlocks,  // physical: "Restoring blocks"
  kCount,
};
const char* JobPhaseName(JobPhase phase);

// One step of a dump/restore engine.
struct IoEvent {
  JobPhase phase = JobPhase::kMap;
  // Stream offset after this event: the replay sends (or requires) bytes up
  // to this offset. Monotonically non-decreasing across a trace.
  uint64_t stream_end = 0;
  // Volume blocks read by this step (dump side; in access order).
  std::vector<Vbn> disk_reads;
  // Volume blocks written by this step (restore side; write-anywhere makes
  // them near-sequential, so only the count matters for timing).
  uint64_t blocks_written = 0;
  // Exact write locations, when the engine knows them (image restore writes
  // each block back to its recorded address; logical restore does not know
  // where the allocator will land and uses blocks_written instead).
  std::vector<Vbn> disk_writes;
  // NVRAM bytes logged by this step (logical restore pays this; physical
  // restore bypasses NVRAM entirely).
  uint64_t nvram_bytes = 0;
  std::vector<CpuCharge> cpu;
};

struct IoTrace {
  std::vector<IoEvent> events;
};

}  // namespace bkup

#endif  // BKUP_BLOCK_IO_TRACE_H_
