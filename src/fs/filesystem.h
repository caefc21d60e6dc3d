// The live write-anywhere file system.
//
// Structure (paper §2): a tree of blocks rooted at the fsinfo structure,
// which describes the inode file; the inode file contains every inode;
// meta-data (the inode file and the 32-bit-plane block map) live in files;
// nothing but fsinfo has a fixed location. Mutations accumulate in memory
// (and, if configured, in an NVRAM op log); a *consistency point* flushes
// everything copy-on-write and atomically advances the root. Snapshots
// duplicate the root structure and the active bit plane in seconds and share
// every block with the active file system until it diverges.
#ifndef BKUP_FS_FILESYSTEM_H_
#define BKUP_FS_FILESYSTEM_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/fs/blockmap.h"
#include "src/fs/layout.h"
#include "src/fs/nvram.h"
#include "src/fs/reader.h"
#include "src/raid/volume.h"
#include "src/sim/environment.h"
#include "src/util/status.h"

namespace bkup {

struct FormatParams {
  uint32_t max_inodes = 0;  // 0: pick volume_blocks / 4 (min 1024)
  WriteAllocator::Policy alloc_policy = WriteAllocator::Policy::kWriteAnywhere;
};

// What one consistency point wrote, for the simulation's timing charges.
struct CpReport {
  uint64_t generation = 0;
  std::vector<Vbn> data_writes;  // user data blocks, in allocation order
  std::vector<Vbn> meta_writes;  // indirect, inode-file, block-map, fsinfo
  uint64_t blocks_freed = 0;
};

struct SetAttrRequest {
  std::optional<uint16_t> mode;
  std::optional<uint32_t> uid;
  std::optional<uint32_t> gid;
  std::optional<int64_t> mtime;
  std::optional<int64_t> atime;
};

struct FsStats {
  uint64_t volume_blocks = 0;
  uint64_t free_blocks = 0;
  uint64_t active_blocks = 0;    // plane 0
  uint64_t snapshot_only_blocks = 0;  // used but not in the active plane
  uint32_t inodes_used = 0;
  uint32_t max_inodes = 0;
  uint64_t generation = 0;
};

class Filesystem {
 public:
  // Creates a fresh file system on `volume` and mounts it. The environment
  // provides timestamps and the auto-CP clock. `nvram` may be null (no op
  // logging, as for the scratch file systems in tests).
  static Result<std::unique_ptr<Filesystem>> Format(Volume* volume,
                                                    SimEnvironment* env,
                                                    NvramLog* nvram = nullptr,
                                                    FormatParams params = {});

  // Mounts the most recent consistency point on `volume`; if `nvram` holds
  // surviving records, replays them (the paper's crash-recovery path: "the
  // filer boots in just a minute or two ... replays any NFS requests in the
  // NVRAM that have not reached disk").
  static Result<std::unique_ptr<Filesystem>> Mount(Volume* volume,
                                                   SimEnvironment* env,
                                                   NvramLog* nvram = nullptr);

  Filesystem(const Filesystem&) = delete;
  Filesystem& operator=(const Filesystem&) = delete;

  // ----------------------------------------------------- namespace ops ---

  Result<Inum> Create(const std::string& path, uint16_t mode);
  Result<Inum> Mkdir(const std::string& path, uint16_t mode);
  Result<Inum> SymlinkAt(const std::string& target, const std::string& path);
  Status Link(const std::string& existing, const std::string& new_path);
  Status Unlink(const std::string& path);
  Status Rmdir(const std::string& path);
  Status Rename(const std::string& from, const std::string& to);

  Result<Inum> LookupPath(const std::string& path);
  Result<std::vector<DirEntry>> ReadDir(Inum dir);
  Result<std::string> ReadSymlink(Inum inum);

  // ------------------------------------------------------- file ops ---

  Result<InodeData> GetAttr(Inum inum);
  Status SetAttr(Inum inum, const SetAttrRequest& request);
  Status Write(Inum inum, uint64_t offset, std::span<const uint8_t> data);
  // With `vbns`, appends the volume block each read block came off — 0 for
  // a block served from dirty in-memory state or a hole. The foreground
  // load generator charges disk-arm time for exactly these blocks.
  Status Read(Inum inum, uint64_t offset, uint64_t length,
              std::vector<uint8_t>* out, std::vector<Vbn>* vbns = nullptr);
  Status Truncate(Inum inum, uint64_t new_size);

  // ------------------------------------------------- consistency points ---

  // Flushes all dirty state copy-on-write and advances the root atomically.
  Result<CpReport> ConsistencyPoint();

  bool HasDirtyState() const;

  // --------------------------------------------------------- snapshots ---

  Status CreateSnapshot(const std::string& name);
  Status DeleteSnapshot(const std::string& name);
  std::vector<SnapshotInfo> ListSnapshots() const { return snapshots_; }
  Result<SnapshotInfo> FindSnapshot(const std::string& name) const;

  // Read-only view of a snapshot's tree (what logical dump walks).
  Result<FsReader> SnapshotReader(const std::string& name) const;

  // Read-only view of the last consistency point of the live file system.
  // Only coherent when there is no dirty in-memory state.
  FsReader LiveReader() const;

  // ------------------------------------------------------------ queries ---

  FsStats Stats() const;
  const BlockMap& blockmap() const { return blockmap_; }
  Volume* volume() { return volume_; }
  uint32_t max_inodes() const { return max_inodes_; }
  uint64_t generation() const { return generation_; }
  SimEnvironment* env() { return env_; }

  // CP reports accumulated since the counter was reset; restore jobs use
  // this to charge disk time for flushes that auto-CPs performed.
  uint64_t cp_data_writes_since_mark() const { return cp_data_writes_since_mark_; }
  uint64_t cp_meta_writes_since_mark() const { return cp_meta_writes_since_mark_; }
  void MarkCpCounters() {
    cp_data_writes_since_mark_ = 0;
    cp_meta_writes_since_mark_ = 0;
  }

 private:
  struct FileState {
    InodeData inode;
    bool inode_dirty = false;
    bool ptrs_loaded = false;
    bool ptrs_dirty = false;
    std::vector<uint32_t> ptrs;          // vbn per file block, 0 == hole
    std::map<uint64_t, Block> dirty_blocks;  // fbn -> pending content
  };

  Filesystem(Volume* volume, SimEnvironment* env, NvramLog* nvram);

  // --------- internal helpers (no NVRAM logging; used by replay too) ---
  Result<Inum> DoCreate(const std::string& path, InodeType type, uint16_t mode,
                        const std::string& symlink_target);
  Status DoLink(const std::string& existing, const std::string& new_path);
  Status DoUnlink(const std::string& path, bool must_be_dir);
  Status DoRename(const std::string& from, const std::string& to);
  Status DoWrite(Inum inum, uint64_t offset, std::span<const uint8_t> data);
  Status DoTruncate(Inum inum, uint64_t new_size);
  Status DoSetAttr(Inum inum, const SetAttrRequest& request);

  Result<FileState*> LoadFile(Inum inum);
  Status EnsurePtrsLoaded(FileState* fs);
  Result<Inum> AllocateInum(InodeType type, uint16_t mode);
  void FreeFileBlocks(FileState* fs);

  // Directory content manipulation through the file layer.
  Result<std::vector<DirEntry>> ReadDirState(FileState* dir);
  Status WriteDirState(Inum dir_inum, FileState* dir,
                       const std::vector<DirEntry>& entries);
  struct ResolvedParent {
    Inum parent;
    std::string leaf;
  };
  Result<ResolvedParent> ResolveParent(const std::string& path);
  Result<Inum> LookupLocked(const std::string& path);

  // Reads a file block honoring dirty state, then disk, then holes.
  Status ReadFileBlockLive(FileState* fs, uint64_t fbn, Block* out,
                           Vbn* vbn = nullptr);

  // CP plumbing.
  Status FlushFile(Inum inum, FileState* fs, CpReport* report);
  Status FlushInodeFile(CpReport* report);
  Status FlushBlockMapFile(CpReport* report);
  Status WriteFsInfo(CpReport* report);
  void MaybeAutoCp();

  // NVRAM logging + replay.
  void LogOp(std::vector<uint8_t> record);
  Status ReplayNvram();
  std::vector<uint8_t> last_replayed_record_;  // empty unless replaying

  Status LoadInodeUsage();

  // ------------------------------------------------------------ state ---
  Volume* volume_;
  SimEnvironment* env_;
  NvramLog* nvram_;

  uint64_t generation_ = 0;
  uint32_t max_inodes_ = 0;
  BlockMap blockmap_;
  WriteAllocator allocator_;
  std::vector<SnapshotInfo> snapshots_;

  // Meta-data files (their inodes live in fsinfo).
  InodeData inode_file_inode_;
  std::vector<uint32_t> inode_file_ptrs_;
  InodeData blockmap_inode_;
  std::vector<uint32_t> blockmap_ptrs_;

  // Cache of touched files, ordered for deterministic CP flushing.
  std::map<Inum, FileState> files_;
  Bitmap inode_used_;
  Inum next_inum_hint_ = kRootDirInum;

  SimDuration cp_interval_ = 10 * kSecond;
  SimTime last_cp_time_ = 0;
  uint64_t cp_data_writes_since_mark_ = 0;
  uint64_t cp_meta_writes_since_mark_ = 0;
  bool in_cp_ = false;
  bool replaying_ = false;
  bool internal_dir_write_ = false;
};

}  // namespace bkup

#endif  // BKUP_FS_FILESYSTEM_H_
