// The block map: 32 bits for every block in the volume, exactly as the
// paper describes WAFL's free-block data structure. Plane 0 is the active
// file system; each snapshot owns one of planes 1..20. A block is free only
// when no plane references it.
//
// This in-memory structure is authoritative while the file system is
// mounted; at every consistency point it is serialized into the block-map
// *file* on disk (4 bytes per block), which is what makes an image-dumped
// volume self-describing.
#ifndef BKUP_FS_BLOCKMAP_H_
#define BKUP_FS_BLOCKMAP_H_

#include <cstdint>
#include <vector>

#include "src/block/block.h"
#include "src/fs/layout.h"
#include "src/util/bitmap.h"
#include "src/util/status.h"

namespace bkup {

class BlockMap {
 public:
  explicit BlockMap(uint64_t num_blocks) : words_(num_blocks, 0) {}

  uint64_t num_blocks() const { return words_.size(); }

  bool Test(int plane, Vbn vbn) const {
    return (words_[vbn] >> plane) & 1u;
  }
  void Set(int plane, Vbn vbn) { words_[vbn] |= 1u << plane; }
  void Clear(int plane, Vbn vbn) { words_[vbn] &= ~(1u << plane); }

  // A block is free iff no plane (active or snapshot) references it.
  bool IsFree(Vbn vbn) const { return words_[vbn] == 0; }

  uint32_t word(Vbn vbn) const { return words_[vbn]; }

  // Snapshot create: the snapshot inherits exactly the blocks of the active
  // file system ("duplicate the root data structure and update the block
  // allocation information").
  void CopyPlane(int src, int dst);
  void ClearPlane(int plane);

  uint64_t CountPlane(int plane) const;
  uint64_t CountFree() const;
  uint64_t CountUsed() const { return num_blocks() - CountFree(); }

  // Extracts a plane as a Bitmap; the image dump block sets (Table 1) are
  // computed from these.
  Bitmap ExtractPlane(int plane) const;

  // --------------------------- block-map file content (4 bytes/block) ---

  // Number of 4 KB blocks the on-disk block-map file occupies.
  uint64_t FileBlocks() const {
    return (num_blocks() * 4 + kBlockSize - 1) / kBlockSize;
  }
  uint64_t FileBytes() const { return num_blocks() * 4; }

  // Renders file block `fbn` of the block-map file from current state.
  void RenderFileBlock(uint64_t fbn, Block* out) const;

  // Loads state from a rendered file block (mount path).
  void LoadFileBlock(uint64_t fbn, const Block& block);

 private:
  std::vector<uint32_t> words_;
};

// Write-anywhere allocator: hands out free blocks starting from a moving
// write point so consecutive allocations are laid out sequentially on disk
// whenever free space permits — WAFL's "complete flexibility in its write
// allocation policies". A first-fit policy is kept for the allocation-policy
// ablation benchmark.
class WriteAllocator {
 public:
  enum class Policy { kWriteAnywhere, kFirstFit };

  WriteAllocator(BlockMap* map, Policy policy = Policy::kWriteAnywhere)
      : map_(map), policy_(policy), write_point_(kFirstAllocatableVbn) {}

  // Allocates one block: finds a free vbn, marks it in the active plane.
  Result<Vbn> Allocate();

  // Frees a block from the active file system; the block stays in use while
  // any snapshot still references it.
  void FreeActive(Vbn vbn) { map_->Clear(kActivePlane, vbn); }

  Vbn write_point() const { return write_point_; }
  void set_write_point(Vbn vbn) { write_point_ = vbn; }
  Policy policy() const { return policy_; }

 private:
  BlockMap* map_;
  Policy policy_;
  Vbn write_point_;
};

}  // namespace bkup

#endif  // BKUP_FS_BLOCKMAP_H_
