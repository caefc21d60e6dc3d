// Reading an on-disk file system without mounting it.
//
// FsReader is a read-only view of a tree rooted at an inode-file inode. Both
// snapshots and the post-CP live file system are read this way; logical dump
// backs up through an FsReader over a snapshot, which is how the paper's dump
// gets "a completely consistent view of the file system" without taking it
// off line. Callers that charge simulated disk time for what they read ask
// for vbns explicitly: `PointerMap` for a file's blocks, `InodeFileVbn` for
// the inode-file block holding an inode.
//
// The root loaders read fsinfo and the block-map file straight off the
// volume. `Filesystem::Mount` uses them, and so does image dump, which uses
// the file system "only to access the block map information" (§4.1).
#ifndef BKUP_FS_READER_H_
#define BKUP_FS_READER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/fs/blockmap.h"
#include "src/fs/file_tree.h"
#include "src/fs/layout.h"
#include "src/raid/volume.h"
#include "src/util/status.h"

namespace bkup {

class FsReader {
 public:
  FsReader(Volume* volume, InodeData inode_file_root, uint32_t max_inodes);

  uint32_t max_inodes() const { return max_inodes_; }
  Volume* volume() const { return volume_; }
  const InodeData& inode_file_root() const { return inode_file_root_; }

  // Reads inode `inum` from the inode file. Out-of-range inums and holes in
  // the inode file read as free inodes.
  Result<InodeData> ReadInode(Inum inum) const;

  // Byte-granular read of [offset, offset+length). Reads past EOF truncate;
  // holes read as zeros.
  Status ReadFile(const InodeData& inode, uint64_t offset, uint64_t length,
                  std::vector<uint8_t>* out) const;

  // Full pointer map of a file (0 == hole), for hole-aware dump writers.
  Result<std::vector<uint32_t>> PointerMap(const InodeData& inode) const;

  // The vbn of the inode-file block holding `inum` (0 if it is a hole).
  // Dump's mapping phase charges these reads.
  Vbn InodeFileVbn(Inum inum) const;

  // Directory contents of `inode` (which must be a directory).
  Result<std::vector<DirEntry>> ReadDir(const InodeData& inode) const;
  Result<std::vector<DirEntry>> ReadDirInum(Inum inum) const;

  // Resolves an absolute slash-separated path to an inum.
  Result<Inum> LookupPath(const std::string& path) const;

 private:
  Status ReadRaw(Vbn vbn, Block* out) const;

  Volume* volume_;
  InodeData inode_file_root_;
  uint32_t max_inodes_;
  // Pointer map of the inode file itself, loaded lazily on first use.
  mutable std::vector<uint32_t> inode_file_ptrs_;
  mutable bool inode_file_ptrs_loaded_ = false;
};

// Splits "/a/b/c" into {"a","b","c"}; rejects empty components, names longer
// than kMaxNameLen, and relative paths.
Result<std::vector<std::string>> SplitPath(std::string_view path);

// Reads the current fsinfo from the volume: the primary copy, falling back
// to the redundant one ("WAFL always uses the most recent consistency point
// on disk").
Result<FsInfo> ReadFsInfoFromVolume(Volume* volume);

// Loads the block map by walking the block-map file's pointer tree with raw
// volume reads. `reads` (optional) collects every vbn touched, so jobs can
// charge the (small) meta-data read cost of an image dump; `ptrs` (optional)
// receives the block-map file's pointer map.
Result<BlockMap> LoadBlockMapFromVolume(Volume* volume, const FsInfo& fsinfo,
                                        std::vector<Vbn>* reads = nullptr,
                                        std::vector<uint32_t>* ptrs = nullptr);

}  // namespace bkup

#endif  // BKUP_FS_READER_H_
