// Loading and storing a file's block-pointer tree (direct, single- and
// double-indirect blocks).
//
// While a file is being mutated, the live file system works with a flat
// in-memory pointer map (one vbn per file block, 0 == hole). These helpers
// translate between that map and the on-disk indirect-block structure:
// `LoadPointerMap` walks indirect blocks into the flat form, and
// `StorePointerMap` writes the flat form back out copy-on-write, allocating
// fresh indirect blocks and freeing the old ones.
#ifndef BKUP_FS_FILE_TREE_H_
#define BKUP_FS_FILE_TREE_H_

#include <functional>
#include <vector>

#include "src/block/block.h"
#include "src/fs/layout.h"
#include "src/util/status.h"

namespace bkup {

using ReadBlockFn = std::function<Status(Vbn, Block*)>;
using WriteBlockFn = std::function<Status(Vbn, const Block&)>;
using AllocBlockFn = std::function<Result<Vbn>()>;
using FreeBlockFn = std::function<void(Vbn)>;

// Reads the pointer map of `inode` into `ptrs` (resized to the file's block
// count). Hole pointers load as 0.
Status LoadPointerMap(const ReadBlockFn& read, const InodeData& inode,
                      std::vector<uint32_t>* ptrs);

// Writes `ptrs` back into `inode`'s direct/indirect fields, materializing
// indirect blocks copy-on-write: every needed indirect block is freshly
// allocated and written via `write`. The caller must detach (free) the old
// indirect blocks with FreeIndirectBlocks first. Indirect blocks that would
// contain only holes are elided (sparse indirect trees).
Status StorePointerMap(const WriteBlockFn& write, const AllocBlockFn& alloc,
                       const std::vector<uint32_t>& ptrs, InodeData* inode);

// Frees every indirect block attached to `inode` (not the data blocks) and
// clears its pointer fields: the copy-on-write flush calls it before
// StorePointerMap, and unlink calls it to release the whole tree.
Status FreeIndirectBlocks(const ReadBlockFn& read,
                          const FreeBlockFn& free_block, InodeData* inode);

}  // namespace bkup

#endif  // BKUP_FS_FILE_TREE_H_
