// The logical dump engine: WAFL-style BSD dump over a snapshot reader.
//
// The four phases of §3 of the paper:
//   Phase I   — tree walk marking used and to-be-dumped inodes,
//   Phase II  — mark the directories between the dump root and the files
//               selected in Phase I (restore needs them for name→inum maps),
//   Phase III — write directories, ascending inode order,
//   Phase IV  — write files, ascending inode order.
//
// The engine is functional: it produces the real byte stream plus an IoTrace
// the backup jobs replay for timing (see src/block/io_trace.h). Subtree
// dumps and exclusion filters — the paper's stated advantages of logical
// backup — are supported directly.
#ifndef BKUP_DUMP_LOGICAL_DUMP_H_
#define BKUP_DUMP_LOGICAL_DUMP_H_

#include <functional>
#include <string>
#include <vector>

#include "src/block/io_trace.h"
#include "src/dump/catalog.h"
#include "src/dump/format.h"
#include "src/fs/reader.h"
#include "src/util/status.h"

namespace bkup {

struct LogicalDumpOptions {
  int level = 0;
  // Dump inodes whose mtime or ctime is at/after this; 0 dumps everything.
  // Taken from the dumpdates base entry for incremental levels.
  int64_t base_time = 0;
  std::string subtree = "/";
  std::string volume_name = "vol";
  std::string snapshot_name;  // recorded in the tape header
  int64_t dump_time = 0;
  // Exclusion filter on leaf names ("logical backup schemes often take
  // advantage of filters"); return true to skip the entry (and, for a
  // directory, its whole subtree).
  std::function<bool(const std::string& name)> exclude;
  // Graceful degradation: drop files whose blocks cannot be read (e.g. a
  // double disk failure in one RAID group) from the dump instead of
  // aborting it, counting them in stats.files_skipped. The dumped-inode map
  // stays consistent with the stream, so verify and restore still pass.
  // This is a logical-dump-only luxury — image dump has no file boundaries
  // to skip at and must hard-fail on an unreadable block.
  bool skip_unreadable = false;
};

struct LogicalDumpStats {
  uint32_t inodes_in_subtree = 0;  // usedinomap population
  uint32_t inodes_dumped = 0;      // dumpinomap population
  uint32_t dirs_dumped = 0;
  uint32_t files_dumped = 0;
  uint32_t files_skipped = 0;  // unreadable files dropped (skip_unreadable)
  uint64_t data_blocks = 0;    // 4 KB data blocks written to the stream
  uint64_t holes_skipped = 0;  // file blocks omitted as holes
  uint64_t stream_bytes = 0;
};

struct LogicalDumpOutput {
  std::vector<uint8_t> stream;
  IoTrace trace;
  LogicalDumpStats stats;
  // Offset index of every record on `stream`: the recovery authority for
  // resumed and single-file restores.
  TapeCatalog catalog;
  // The same index as a durable journal image (checkpointed incrementally
  // while the dump ran), ready to land next to the media.
  std::vector<uint8_t> catalog_image;
};

// Runs a dump of `reader` (normally a snapshot view). Fails with NotFound if
// the subtree does not exist.
Result<LogicalDumpOutput> RunLogicalDump(const FsReader& reader,
                                         const LogicalDumpOptions& options);

}  // namespace bkup

#endif  // BKUP_DUMP_LOGICAL_DUMP_H_
