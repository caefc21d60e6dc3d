// Image (physical) dump and restore — WAFL's block-based strategy (§4.1).
//
// Both directions bypass the file system and the NVRAM log entirely: the
// dump reads raw blocks in ascending vbn order directly from the RAID
// volume, and the restore writes them straight back through it. The only
// file system knowledge used is the block map (see blockset.h). A restored
// volume is bit-identical in every referenced block and carries every
// snapshot of the original — "the system you restore looks just like the
// system you dumped, snapshots and all".
#ifndef BKUP_IMAGE_IMAGE_DUMP_H_
#define BKUP_IMAGE_IMAGE_DUMP_H_

#include <string>
#include <vector>

#include "src/block/io_trace.h"
#include "src/image/blockset.h"
#include "src/image/image_format.h"
#include "src/raid/volume.h"
#include "src/util/status.h"

namespace bkup {

struct ImageDumpOptions {
  // Empty = full dump; otherwise the name of the base snapshot for an
  // incremental dump (must exist in the volume's snapshot table).
  std::string base_snapshot;
  // Recorded in the header for operator bookkeeping.
  std::string snapshot_name;
  int64_t dump_time = 0;
  // Multi-tape striping: emit only chunks with index % part_count ==
  // part_index. Chunk boundaries are deterministic, so the N parts of a
  // parallel dump partition the block set exactly.
  uint32_t part_index = 0;
  uint32_t part_count = 1;
};

struct ImageDumpStats {
  uint64_t blocks_dumped = 0;
  uint64_t extents = 0;
  uint64_t meta_reads = 0;  // fsinfo + block-map file reads
  uint64_t stream_bytes = 0;
};

struct ImageDumpOutput {
  std::vector<uint8_t> stream;
  IoTrace trace;
  ImageDumpStats stats;
  Bitmap block_set;  // exactly the blocks included (for tests / Table 1)
};

Result<ImageDumpOutput> RunImageDump(Volume* volume,
                                     const ImageDumpOptions& options);

struct ImageRestoreStats {
  uint64_t blocks_restored = 0;
  uint64_t extents = 0;
};

struct ImageRestoreOutput {
  IoTrace trace;
  ImageRestoreStats stats;
  ImageHeader header;
};

// Restores an image stream onto `volume`. Enforces physical restore's
// fundamental limitation: the target must have exactly the source's block
// count ("it may even be necessary to restore the file system to disks that
// are the same size and configuration as the originals"). An incremental
// stream additionally requires that the target currently holds the chain it
// extends (verified via the base snapshot's generation).
Result<ImageRestoreOutput> RunImageRestore(Volume* volume,
                                           std::span<const uint8_t> stream);

}  // namespace bkup

#endif  // BKUP_IMAGE_IMAGE_DUMP_H_
