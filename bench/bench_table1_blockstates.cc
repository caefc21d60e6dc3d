// Table 1 — "Block states for incremental image dump".
//
// Builds two snapshots A and B with blocks in all four (bit-plane A, bit-
// plane B) states, computes the incremental block set exactly as image dump
// does, and verifies each state lands on the paper's rule:
//
//     A B   state                                    in incremental?
//     0 0   not in either snapshot                   no
//     0 1   newly written                            YES
//     1 0   deleted, no need to include              no
//     1 1   needed, but not changed since full dump  no
#include <cstdio>

#include "bench/common.h"
#include "src/image/blockset.h"

namespace bkup {
namespace {

int Run() {
  SimEnvironment env;
  VolumeGeometry geom;
  geom.num_raid_groups = 1;
  geom.disks_per_group = 4;
  geom.blocks_per_disk = 2048;
  auto volume = Volume::Create(&env, "t1", geom);
  auto fs = std::move(Filesystem::Format(volume.get(), &env)).value();

  // Build the four states with real file operations.
  auto mk = [&fs](const std::string& path, size_t blocks,
                  uint64_t fill) {
    auto inum = fs->Create(path, 0644).value();
    std::vector<uint8_t> data(blocks * kBlockSize,
                              static_cast<uint8_t>(fill));
    bench::CheckStatus(fs->Write(inum, 0, data), "write");
    return inum;
  };
  mk("/unchanged", 8, 1);   // will be in A and B (state 1,1)
  mk("/doomed", 8, 2);      // in A, deleted before B (state 1,0)
  bench::CheckStatus(fs->CreateSnapshot("A"), "snapshot A");

  bench::CheckStatus(fs->Unlink("/doomed"), "unlink");
  mk("/fresh", 8, 3);       // written after A (state 0,1)
  bench::CheckStatus(fs->CreateSnapshot("B"), "snapshot B");

  auto fsinfo = ReadFsInfoFromVolume(volume.get()).value();
  auto map = LoadBlockMapFromVolume(volume.get(), fsinfo).value();
  const int plane_a = SnapshotPlaneOf(fsinfo, "A").value();
  const int plane_b = SnapshotPlaneOf(fsinfo, "B").value();
  const Bitmap incr = ComputeImageBlockSet(map, plane_a);

  // Classify every volume block by its (A, B) plane bits and check the
  // incremental rule per state.
  uint64_t counts[2][2] = {};
  uint64_t included[2][2] = {};
  uint64_t violations = 0;
  for (Vbn v = 0; v < map.num_blocks(); ++v) {
    const int a = map.Test(plane_a, v) ? 1 : 0;
    const int b = map.Test(plane_b, v) ? 1 : 0;
    counts[a][b]++;
    // The dump set is "used now and not in A"; for blocks whose word is
    // only the B/active planes this equals the B-not-A rule of Table 1.
    if (incr.Test(v)) {
      included[a][b]++;
    }
    const bool expect_included = map.word(v) != 0 && a == 0;
    if (incr.Test(v) != expect_included) {
      ++violations;
    }
  }

  bench::PrintBanner("Table 1: Block states for incremental image dump",
                     "OSDI'99 paper, Table 1 (Section 4.1)");
  std::printf("%-12s %-12s %-44s %10s %10s\n", "Bit plane A", "Bit plane B",
              "Block state", "blocks", "included");
  std::printf("%-12d %-12d %-44s %10llu %10llu\n", 0, 0,
              "not in either snapshot",
              (unsigned long long)counts[0][0],
              (unsigned long long)included[0][0]);
  std::printf("%-12d %-12d %-44s %10llu %10llu\n", 0, 1,
              "newly written - include in incremental",
              (unsigned long long)counts[0][1],
              (unsigned long long)included[0][1]);
  std::printf("%-12d %-12d %-44s %10llu %10llu\n", 1, 0,
              "deleted, no need to include",
              (unsigned long long)counts[1][0],
              (unsigned long long)included[1][0]);
  std::printf("%-12d %-12d %-44s %10llu %10llu\n", 1, 1,
              "needed, but not changed since full dump",
              (unsigned long long)counts[1][1],
              (unsigned long long)included[1][1]);
  std::printf("\nIncremental set size: %llu blocks (B - A rule)\n",
              (unsigned long long)incr.CountOnes());
  std::printf("Rule violations: %llu\n", (unsigned long long)violations);
  if (violations != 0 || included[1][0] != 0 || included[1][1] != 0 ||
      included[0][1] == 0) {
    std::printf("RESULT: MISMATCH with Table 1 semantics\n");
    return 1;
  }
  std::printf("RESULT: matches Table 1 semantics\n");
  return 0;
}

}  // namespace
}  // namespace bkup

int main() { return bkup::Run(); }
