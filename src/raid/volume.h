// A Volume concatenates RAID groups into one flat block space. This is the
// layer the file system allocates from, and — crucially for the paper — the
// layer image dump/restore talks to directly, bypassing the file system.
#ifndef BKUP_RAID_VOLUME_H_
#define BKUP_RAID_VOLUME_H_

#include <memory>
#include <string>
#include <vector>

#include "src/block/disk.h"
#include "src/raid/raid_group.h"
#include "src/sim/environment.h"
#include "src/util/status.h"

namespace bkup {

struct VolumeGeometry {
  size_t num_raid_groups = 3;       // home volume: 3 groups
  size_t disks_per_group = 10;      // ~31 disks incl. parity
  uint64_t blocks_per_disk = 4096;  // scaled-down drive size
  DiskTiming disk_timing;
};

class Volume {
 public:
  // Builds a volume that owns its disks and groups.
  static std::unique_ptr<Volume> Create(SimEnvironment* env, std::string name,
                                        const VolumeGeometry& geometry);

  const std::string& name() const { return name_; }
  uint64_t num_blocks() const { return num_blocks_; }
  const VolumeGeometry& geometry() const { return geometry_; }

  Status ReadBlock(Vbn vbn, Block* out);
  Status WriteBlock(Vbn vbn, const Block& block);

  struct Placement {
    RaidGroup* group;
    size_t group_index;
    Disk* disk;
    Dbn dbn;
    size_t column;  // `disk`'s column in the group; parity is data_width()
    Disk* parity_disk;
  };
  Placement Locate(Vbn vbn);

  size_t num_groups() const { return groups_.size(); }
  RaidGroup* group(size_t i) { return groups_[i].get(); }

  // All drives, data and parity, across all groups (for failure injection
  // and per-disk utilization reporting).
  const std::vector<std::unique_ptr<Disk>>& disks() const { return disks_; }
  size_t num_disks() const { return disks_.size(); }
  Disk* disk(size_t i) { return disks_[i].get(); }

  uint64_t SizeBytes() const { return num_blocks_ * kBlockSize; }

 private:
  Volume(std::string name, const VolumeGeometry& geometry)
      : name_(std::move(name)), geometry_(geometry) {}

  std::string name_;
  VolumeGeometry geometry_;
  std::vector<std::unique_ptr<Disk>> disks_;
  std::vector<std::unique_ptr<RaidGroup>> groups_;
  std::vector<uint64_t> group_start_;  // first vbn of each group
  uint64_t num_blocks_ = 0;
};

}  // namespace bkup

#endif  // BKUP_RAID_VOLUME_H_
