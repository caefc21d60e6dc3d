// Block-set computation for image dumps — the Table 1 logic.
//
// These helpers work on the block map that `LoadBlockMapFromVolume`
// (src/fs/reader.h) reads *through the raw volume*, using the file system
// "only to access the block map information" (§4.1): the fsinfo block names
// the block-map file, whose 32-bit words say which planes reference each
// block. A full dump takes every referenced block; an incremental takes the
// blocks referenced now but not by the base snapshot's plane — the set
// `B − A`.
#ifndef BKUP_IMAGE_BLOCKSET_H_
#define BKUP_IMAGE_BLOCKSET_H_

#include <optional>
#include <string>

#include "src/fs/blockmap.h"
#include "src/fs/layout.h"
#include "src/fs/reader.h"
#include "src/util/bitmap.h"
#include "src/util/status.h"

namespace bkup {

// The set of blocks an image dump must include. `base_plane` empty = full
// dump (every block referenced by any plane); otherwise the incremental set:
// referenced now, not referenced by the base plane (Table 1: "newly written
// — include", "deleted — no need to include", "needed but not changed since
// full dump — excluded").
Bitmap ComputeImageBlockSet(const BlockMap& map,
                            std::optional<int> base_plane);

// Finds the plane of a named snapshot in an fsinfo snapshot table.
Result<int> SnapshotPlaneOf(const FsInfo& fsinfo, const std::string& name);

}  // namespace bkup

#endif  // BKUP_IMAGE_BLOCKSET_H_
