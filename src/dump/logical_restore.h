// Logical restore: rebuilds files from a dump stream through the file
// system, in both of the paper's modes:
//
//   * kPortable — the classic user-level BSD restore: files and directories
//     are created by pathname (namei per component), directory permissions
//     and times are fixed in a final pass "since creating the files might
//     have failed due to permission problems and definitely would have
//     affected the times".
//   * kKernel — the Network Appliance variant: runs as root inside the
//     filer, "directly creates the file handle from the inode number which
//     is stored in the dump stream", sets directory permissions at creation
//     and needs no final pass.
//
// Restores can be full, subtree, or single-file ("stupidity recovery"), and
// a chain of incrementals can be replayed on top of a level-0 restore using
// the restore symbol table to apply deletions and renames, exactly the role
// of BSD restore's restoresymtable.
#ifndef BKUP_DUMP_LOGICAL_RESTORE_H_
#define BKUP_DUMP_LOGICAL_RESTORE_H_

#include <map>
#include <string>
#include <vector>

#include "src/block/io_trace.h"
#include "src/dump/catalog.h"
#include "src/fs/filesystem.h"
#include "src/util/status.h"

namespace bkup {

// Maps dumped inums to their current path on the target file system.
// Carried from one incremental restore to the next.
class RestoreSymtable {
 public:
  void Set(Inum dumped_inum, const std::string& path) {
    paths_[dumped_inum] = path;
  }
  void Erase(Inum dumped_inum) { paths_.erase(dumped_inum); }
  Result<std::string> PathOf(Inum dumped_inum) const;
  bool Has(Inum dumped_inum) const { return paths_.count(dumped_inum) != 0; }
  size_t size() const { return paths_.size(); }
  const std::map<Inum, std::string>& paths() const { return paths_; }

  // Rewrites every path under `old_prefix` after a directory rename.
  void RenamePrefix(const std::string& old_prefix,
                    const std::string& new_prefix);

  // Drops entries whose inum is not set in `used`, returning the dropped
  // paths (the files deleted between the base dump and this one).
  std::vector<std::pair<Inum, std::string>> DropMissing(const Bitmap& used);

  // Text round-trip, so applications can persist it between incrementals.
  std::string Serialize() const;
  static Result<RestoreSymtable> Deserialize(const std::string& text);

 private:
  std::map<Inum, std::string> paths_;
};

// Where a restore process is when a crash-fault engine is consulted.
enum class RestorePhase : uint8_t {
  kMaps,         // tape header and inode maps
  kDirectories,  // directory records (catalog build + tree skeleton)
  kFiles,        // file/addr records (create + fill data)
  kFinal,        // final pass (directory fixups, closing CP)
};

// Consulted by the restore engine after every applied record. Returning
// true kills the restore process on the spot: the run returns with
// `interrupted` set, no final pass, no closing consistency point — exactly
// the state a SIGKILL would leave. Implemented by the crash fault engine in
// src/faults (the dump-layer twin of DeviceFaultHook).
class RestoreKillHook {
 public:
  virtual ~RestoreKillHook() = default;
  virtual bool ShouldKill(RestorePhase phase, uint64_t entries_applied,
                          uint64_t stream_offset) = 0;
};

struct LogicalRestoreOptions {
  enum class Mode { kPortable, kKernel };
  Mode mode = Mode::kKernel;
  // Existing directory on the target file system to restore into.
  std::string target_dir = "/";
  // Dump-root-relative paths to extract; empty restores everything on the
  // tape. A directory path extracts its whole subtree.
  std::vector<std::string> select;
  // Incremental application: reconcile the target tree with the dump's view
  // (apply deletions and renames). Requires `symtable`.
  bool apply_moves_and_deletes = false;
  RestoreSymtable* symtable = nullptr;  // updated in place when non-null

  // --- crash-resumable recovery ---
  // The stream's offset index. With it the engine seeks between the record
  // extents it actually needs (selection and resume) instead of scanning
  // every record; without it, behaviour is the classic full scan.
  const TapeCatalog* catalog = nullptr;
  // Resume a killed restore: after the directory stage, diff `catalog`
  // against the target tree and fast-forward past every file that is
  // already complete, replaying only the missing suffix. Requires
  // `catalog`.
  bool resume = false;
  // Consistency-point cadence: one CP per this many applied records makes
  // restored state durable as the run goes, so a crash loses at most one
  // cadence of work. 0 = only the final pass's closing CP.
  uint32_t checkpoint_every = 0;
  // Crash injection point; null runs to completion.
  RestoreKillHook* kill = nullptr;
};

struct LogicalRestoreStats {
  uint32_t dirs_created = 0;
  uint32_t files_restored = 0;
  uint32_t symlinks_restored = 0;
  uint32_t hard_links_restored = 0;
  uint32_t files_deleted = 0;   // incremental reconciliation
  uint32_t dirs_renamed = 0;    // incremental reconciliation
  uint64_t data_blocks = 0;
  uint64_t bytes_restored = 0;
  uint32_t corrupt_records_skipped = 0;
  uint32_t files_lost_to_corruption = 0;
  // Crash-resumable recovery accounting.
  uint64_t bytes_replayed = 0;     // stream bytes this run consumed
  uint64_t bytes_skipped = 0;      // stream bytes fast-forwarded via catalog
  uint32_t entries_skipped = 0;    // catalog entries proven already applied
  uint32_t files_already_complete = 0;  // files the resume diff kept
  uint32_t checkpoints = 0;        // CPs run at the checkpoint cadence
};

struct LogicalRestoreOutput {
  IoTrace trace;
  LogicalRestoreStats stats;
  uint32_t level = 0;
  int64_t dump_time = 0;
  // True when a RestoreKillHook fired: the run stopped mid-stream with no
  // final pass and no closing consistency point.
  bool interrupted = false;
  // Where the kill (or the end of the stream) left the cursor.
  uint64_t stopped_at = 0;
  // The stream extents this run actually consumed, ascending and coalesced:
  // the prologue plus every replayed record. A timed or remote replay needs
  // to move exactly these bytes — the "bounded replay" guarantee.
  std::vector<StreamRange> consumed_ranges;
};

Result<LogicalRestoreOutput> RunLogicalRestore(
    Filesystem* fs, std::span<const uint8_t> stream,
    const LogicalRestoreOptions& options);

}  // namespace bkup

#endif  // BKUP_DUMP_LOGICAL_RESTORE_H_
