#include "src/image/blockset.h"

namespace bkup {

Bitmap ComputeImageBlockSet(const BlockMap& map,
                            std::optional<int> base_plane) {
  Bitmap set(map.num_blocks());
  for (Vbn v = 0; v < map.num_blocks(); ++v) {
    if (map.word(v) == 0) {
      continue;  // free everywhere: never dumped
    }
    if (base_plane.has_value() && map.Test(*base_plane, v)) {
      continue;  // the base snapshot already has this block
    }
    set.Set(v);
  }
  return set;
}

Result<int> SnapshotPlaneOf(const FsInfo& fsinfo, const std::string& name) {
  for (const SnapshotInfo& s : fsinfo.snapshots) {
    if (s.name == name) {
      return static_cast<int>(s.plane);
    }
  }
  return NotFound("no snapshot named '" + name + "' in the fsinfo table");
}

}  // namespace bkup
