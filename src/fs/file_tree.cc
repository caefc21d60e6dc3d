#include "src/fs/file_tree.h"

#include <algorithm>

namespace bkup {

namespace {

// Parses a 1024-entry pointer block.
void ParsePointerBlock(const Block& block, std::vector<uint32_t>* out) {
  out->resize(kPointersPerBlock);
  for (uint32_t i = 0; i < kPointersPerBlock; ++i) {
    (*out)[i] = static_cast<uint32_t>(block.data[i * 4 + 0]) |
                static_cast<uint32_t>(block.data[i * 4 + 1]) << 8 |
                static_cast<uint32_t>(block.data[i * 4 + 2]) << 16 |
                static_cast<uint32_t>(block.data[i * 4 + 3]) << 24;
  }
}

void RenderPointerBlock(const std::vector<uint32_t>& ptrs, size_t first,
                        Block* out) {
  out->Zero();
  const size_t count = std::min<size_t>(kPointersPerBlock,
                                        ptrs.size() > first
                                            ? ptrs.size() - first
                                            : 0);
  for (size_t i = 0; i < count; ++i) {
    const uint32_t p = ptrs[first + i];
    out->data[i * 4 + 0] = static_cast<uint8_t>(p);
    out->data[i * 4 + 1] = static_cast<uint8_t>(p >> 8);
    out->data[i * 4 + 2] = static_cast<uint8_t>(p >> 16);
    out->data[i * 4 + 3] = static_cast<uint8_t>(p >> 24);
  }
}

bool RangeAllHoles(const std::vector<uint32_t>& ptrs, size_t first,
                   size_t count) {
  const size_t end = std::min(ptrs.size(), first + count);
  for (size_t i = first; i < end; ++i) {
    if (ptrs[i] != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

Status LoadPointerMap(const ReadBlockFn& read, const InodeData& inode,
                      std::vector<uint32_t>* ptrs) {
  const uint64_t nblocks = inode.NumBlocks();
  if (nblocks > kMaxFileBlocks) {
    return Corruption("file exceeds maximum mappable size");
  }
  ptrs->assign(nblocks, 0);
  // Direct pointers.
  for (uint64_t i = 0; i < std::min<uint64_t>(nblocks, kDirectPointers); ++i) {
    (*ptrs)[i] = inode.direct[i];
  }
  // Single indirect.
  if (nblocks > kDirectPointers && inode.single_indirect != 0) {
    Block ib;
    BKUP_RETURN_IF_ERROR(read(inode.single_indirect, &ib));
    std::vector<uint32_t> entries;
    ParsePointerBlock(ib, &entries);
    const uint64_t count =
        std::min<uint64_t>(nblocks - kDirectPointers, kPointersPerBlock);
    for (uint64_t i = 0; i < count; ++i) {
      (*ptrs)[kDirectPointers + i] = entries[i];
    }
  }
  // Double indirect.
  const uint64_t dbl_base = kDirectPointers + kPointersPerBlock;
  if (nblocks > dbl_base && inode.double_indirect != 0) {
    Block l2;
    BKUP_RETURN_IF_ERROR(read(inode.double_indirect, &l2));
    std::vector<uint32_t> l2_entries;
    ParsePointerBlock(l2, &l2_entries);
    const uint64_t remaining = nblocks - dbl_base;
    const uint64_t nl1 =
        (remaining + kPointersPerBlock - 1) / kPointersPerBlock;
    for (uint64_t j = 0; j < nl1; ++j) {
      if (l2_entries[j] == 0) {
        continue;  // a whole indirect block of holes
      }
      Block l1;
      BKUP_RETURN_IF_ERROR(read(l2_entries[j], &l1));
      std::vector<uint32_t> l1_entries;
      ParsePointerBlock(l1, &l1_entries);
      const uint64_t base = dbl_base + j * kPointersPerBlock;
      const uint64_t count =
          std::min<uint64_t>(nblocks - base, kPointersPerBlock);
      for (uint64_t i = 0; i < count; ++i) {
        (*ptrs)[base + i] = l1_entries[i];
      }
    }
  }
  return Status::Ok();
}

Status StorePointerMap(const WriteBlockFn& write, const AllocBlockFn& alloc,
                       const std::vector<uint32_t>& ptrs, InodeData* inode) {
  if (ptrs.size() > kMaxFileBlocks) {
    return InvalidArgument("file exceeds maximum mappable size");
  }
  // Copy-on-write: new indirect blocks always get fresh locations, so the
  // old tree must already be detached.
  if (inode->single_indirect != 0 || inode->double_indirect != 0) {
    return FailedPrecondition(
        "StorePointerMap: detach old indirect blocks with "
        "FreeIndirectBlocks first");
  }

  // Direct pointers.
  inode->direct.fill(0);
  for (size_t i = 0; i < std::min<size_t>(ptrs.size(), kDirectPointers); ++i) {
    inode->direct[i] = ptrs[i];
  }
  inode->single_indirect = 0;
  inode->double_indirect = 0;

  // Single indirect block.
  if (ptrs.size() > kDirectPointers &&
      !RangeAllHoles(ptrs, kDirectPointers, kPointersPerBlock)) {
    BKUP_ASSIGN_OR_RETURN(Vbn v, alloc());
    Block ib;
    RenderPointerBlock(ptrs, kDirectPointers, &ib);
    BKUP_RETURN_IF_ERROR(write(v, ib));
    inode->single_indirect = static_cast<uint32_t>(v);
  }

  // Double indirect tree.
  const uint64_t dbl_base = kDirectPointers + kPointersPerBlock;
  if (ptrs.size() > dbl_base) {
    const uint64_t remaining = ptrs.size() - dbl_base;
    const uint64_t nl1 =
        (remaining + kPointersPerBlock - 1) / kPointersPerBlock;
    std::vector<uint32_t> l2_entries(kPointersPerBlock, 0);
    bool any_l1 = false;
    for (uint64_t j = 0; j < nl1; ++j) {
      const uint64_t base = dbl_base + j * kPointersPerBlock;
      if (RangeAllHoles(ptrs, base, kPointersPerBlock)) {
        continue;
      }
      BKUP_ASSIGN_OR_RETURN(Vbn v, alloc());
      Block l1;
      RenderPointerBlock(ptrs, base, &l1);
      BKUP_RETURN_IF_ERROR(write(v, l1));
      l2_entries[j] = static_cast<uint32_t>(v);
      any_l1 = true;
    }
    if (any_l1) {
      BKUP_ASSIGN_OR_RETURN(Vbn v, alloc());
      Block l2;
      l2.Zero();
      for (uint32_t i = 0; i < kPointersPerBlock; ++i) {
        const uint32_t p = l2_entries[i];
        l2.data[i * 4 + 0] = static_cast<uint8_t>(p);
        l2.data[i * 4 + 1] = static_cast<uint8_t>(p >> 8);
        l2.data[i * 4 + 2] = static_cast<uint8_t>(p >> 16);
        l2.data[i * 4 + 3] = static_cast<uint8_t>(p >> 24);
      }
      BKUP_RETURN_IF_ERROR(write(v, l2));
      inode->double_indirect = static_cast<uint32_t>(v);
    }
  }
  return Status::Ok();
}

Status FreeIndirectBlocks(const ReadBlockFn& read,
                          const FreeBlockFn& free_block, InodeData* inode) {
  if (inode->single_indirect != 0) {
    free_block(inode->single_indirect);
    inode->single_indirect = 0;
  }
  if (inode->double_indirect != 0) {
    Block l2;
    BKUP_RETURN_IF_ERROR(read(inode->double_indirect, &l2));
    std::vector<uint32_t> l2_entries;
    ParsePointerBlock(l2, &l2_entries);
    for (uint32_t p : l2_entries) {
      if (p != 0) {
        free_block(p);
      }
    }
    free_block(inode->double_indirect);
    inode->double_indirect = 0;
  }
  return Status::Ok();
}

}  // namespace bkup
