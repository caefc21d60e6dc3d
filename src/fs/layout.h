// On-disk layout of the WAFL-like file system.
//
// The design follows Section 2 of the paper:
//   * 4 KB blocks, no fragments.
//   * Inodes describe files; directories are specially formatted files.
//   * The two key meta-data *files* are the inode file (all inodes) and the
//     free-block bitmap file (32 bit planes per block: the active file
//     system plus up to 31 snapshots; we cap snapshots at 20 as WAFL does).
//   * Everything is written anywhere, copy-on-write, except the root
//     structure (fsinfo) which lives at two fixed, redundant locations.
//
// Deviation from WAFL (documented in DESIGN.md): the inodes describing the
// inode file and the block-map file are stored in the fsinfo block rather
// than at reserved inums inside the inode file. This removes a bootstrap
// cycle without changing any behaviour the paper measures.
#ifndef BKUP_FS_LAYOUT_H_
#define BKUP_FS_LAYOUT_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/block/block.h"
#include "src/util/serdes.h"
#include "src/util/status.h"

namespace bkup {

// ------------------------------------------------------------- constants ---

inline constexpr uint32_t kFsMagic = 0x57AF1B99;  // "WAFL-ish, 1999"
inline constexpr uint32_t kFsVersion = 1;

// fsinfo lives at these two volume blocks; they are never allocatable.
inline constexpr Vbn kFsInfoPrimary = 0;
inline constexpr Vbn kFsInfoBackup = 1;
inline constexpr Vbn kFirstAllocatableVbn = 2;

// Bit planes in the block map: plane 0 is the active file system; planes
// 1..kMaxSnapshots hold snapshots. 32 bits per block, as in the paper.
inline constexpr int kBlockMapPlanes = 32;
inline constexpr int kActivePlane = 0;
inline constexpr int kMaxSnapshots = 20;

inline constexpr uint32_t kInodeSize = 128;
inline constexpr uint32_t kInodesPerBlock = kBlockSize / kInodeSize;  // 32

// Inode block pointer geometry: 16 direct, one single-indirect, one
// double-indirect; pointers are 32-bit vbns (0 == hole / absent, which is
// safe because vbn 0 is fsinfo).
inline constexpr int kDirectPointers = 16;
inline constexpr uint32_t kPointersPerBlock = kBlockSize / 4;  // 1024
inline constexpr uint64_t kMaxFileBlocks =
    kDirectPointers + kPointersPerBlock +
    static_cast<uint64_t>(kPointersPerBlock) * kPointersPerBlock;

using Inum = uint32_t;
inline constexpr Inum kInvalidInum = 0;
inline constexpr Inum kReservedInum = 1;  // historical, never allocated
inline constexpr Inum kRootDirInum = 2;   // root of the namespace

inline constexpr size_t kMaxNameLen = 255;
inline constexpr size_t kMaxSnapshotNameLen = 32;

// ----------------------------------------------------------------- inode ---

enum class InodeType : uint8_t {
  kFree = 0,
  kFile = 1,
  kDirectory = 2,
  kSymlink = 3,
};

// The on-disk inode. Serialized form is exactly kInodeSize bytes.
struct InodeData {
  InodeType type = InodeType::kFree;
  uint16_t nlink = 0;
  uint16_t mode = 0;     // permission bits
  uint32_t uid = 0;
  uint32_t gid = 0;
  uint64_t size = 0;     // bytes
  int64_t mtime = 0;     // simulated-time stamps
  int64_t ctime = 0;
  int64_t atime = 0;
  uint32_t generation = 0;  // bumped on every reuse of the inum
  std::array<uint32_t, kDirectPointers> direct{};
  uint32_t single_indirect = 0;
  uint32_t double_indirect = 0;

  bool in_use() const { return type != InodeType::kFree; }
  uint64_t NumBlocks() const { return (size + kBlockSize - 1) / kBlockSize; }

  void SerializeTo(ByteWriter* writer) const;
  static Result<InodeData> Deserialize(ByteReader* reader);
};

// Inode-file block slots: inode `inum` lives at slot inum % kInodesPerBlock
// of inode-file block inum / kInodesPerBlock.
Result<InodeData> InodeAt(const Block& block, Inum inum);
void PutInodeAt(Block* block, Inum inum, const InodeData& inode);

// ------------------------------------------------------------- directory ---

struct DirEntry {
  Inum inum = kInvalidInum;
  InodeType type = InodeType::kFree;
  std::string name;
};

// Directory file content: a packed sequence of entries, "file name followed
// by the inode number" as the paper describes the dump directory format.
std::vector<uint8_t> SerializeDirectory(const std::vector<DirEntry>& entries);
Result<std::vector<DirEntry>> ParseDirectory(std::span<const uint8_t> bytes);

// ---------------------------------------------------------------- fsinfo ---

struct SnapshotInfo {
  uint8_t plane = 0;  // bit plane in the block map (1..kMaxSnapshots)
  std::string name;
  int64_t create_time = 0;
  uint64_t generation = 0;   // CP generation the snapshot captured
  InodeData inode_file;      // root of the snapshot's tree
  uint64_t used_blocks = 0;  // blocks referenced by this snapshot's plane
};

// The root structure. "Since the root data structure is only 128 bytes" in
// WAFL; ours is larger because it embeds the snapshot table, but it still
// fits one block and is written redundantly at two fixed locations.
struct FsInfo {
  uint64_t generation = 0;  // consistency-point counter
  uint64_t volume_blocks = 0;
  uint32_t max_inodes = 0;
  int64_t cp_time = 0;
  uint64_t alloc_write_point = kFirstAllocatableVbn;  // allocator resume point
  InodeData inode_file;     // inode describing the inode file
  InodeData blockmap_file;  // inode describing the block-map file
  std::vector<SnapshotInfo> snapshots;

  // Serializes into one 4 KB block with a trailing CRC-32C.
  Result<Block> SerializeToBlock() const;
  static Result<FsInfo> DeserializeFromBlock(const Block& block);
};

}  // namespace bkup

#endif  // BKUP_FS_LAYOUT_H_
