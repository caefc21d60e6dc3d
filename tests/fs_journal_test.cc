// Corrupt NVRAM journal bytes: replaying a damaged op log must end in a
// Status or a mounted file system, never an abort or a hang. A real log of
// every op kind is truncated, bit-flipped and overwritten with random bytes,
// then mounted over the volume state it was logged against.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/fs/filesystem.h"
#include "src/util/checksum.h"
#include "src/util/random.h"
#include "tests/fs_scenario.h"

namespace bkup {
namespace {

VolumeGeometry SmallGeometry() {
  VolumeGeometry geom;
  geom.num_raid_groups = 1;
  geom.disks_per_group = 4;
  geom.blocks_per_disk = 1024;  // 3 data disks: 3072 blocks = 12 MiB
  return geom;
}

using Records = std::vector<std::vector<uint8_t>>;

// Tallies what mounting over a mutated log did.
struct Outcomes {
  int mounted = 0;
  int refused = 0;
  uint32_t trees_crc = 0;  // what the mounted file systems hold
};

// Rebuilds the volume the log was written against, crashes, and mounts it
// with `records` in the log. A mounted file system must still describe its
// tree and take a consistency point.
void MountWith(const Records& records, Outcomes* outcomes) {
  SimEnvironment env;
  auto volume = Volume::Create(&env, "v", SmallGeometry());
  NvramLog nvram(32 * kMiB);
  {
    auto fs = std::move(Filesystem::Format(volume.get(), &env, &nvram)).value();
    ASSERT_TRUE(LogEveryOpKind(fs.get()).ok());
  }  // crash
  nvram.Clear();
  for (const std::vector<uint8_t>& record : records) {
    nvram.Append(record);
  }
  auto mounted = Filesystem::Mount(volume.get(), &env, &nvram);
  if (!mounted.ok()) {
    outcomes->refused++;
    return;
  }
  outcomes->mounted++;
  // Describing a mangled tree may fail; it must only not crash.
  Result<std::vector<std::string>> tree = DescribeTree(mounted->get());
  if (!tree.ok()) {
    const std::string message = tree.status().message();
    outcomes->trees_crc = Crc32c(
        std::span(reinterpret_cast<const uint8_t*>(message.data()),
                  message.size()),
        outcomes->trees_crc);
  } else {
    for (const std::string& line : *tree) {
      outcomes->trees_crc = Crc32c(
          std::span(reinterpret_cast<const uint8_t*>(line.data()), line.size()),
          outcomes->trees_crc);
    }
  }
  EXPECT_TRUE((*mounted)->ConsistencyPoint().ok());
}

Records RealLog() {
  SimEnvironment env;
  auto volume = Volume::Create(&env, "v", SmallGeometry());
  NvramLog nvram(32 * kMiB);
  auto fs = std::move(Filesystem::Format(volume.get(), &env, &nvram)).value();
  EXPECT_TRUE(LogEveryOpKind(fs.get()).ok());
  return nvram.records();
}

TEST(NvramJournalTest, CorruptRecordsYieldStatusOrMount) {
  const Records log = RealLog();
  ASSERT_EQ(log.size(), 11u);
  Outcomes intact;
  MountWith(log, &intact);
  ASSERT_EQ(intact.mounted, 1);

  Rng rng(2910);
  Outcomes outcomes;
  // Truncation: each record cut to nothing, one byte, half, all but one.
  for (size_t i = 0; i < log.size(); ++i) {
    const size_t n = log[i].size();
    for (size_t keep : {size_t{0}, size_t{1}, n / 2, n - 1}) {
      Records mutated = log;
      mutated[i].resize(keep);
      MountWith(mutated, &outcomes);
    }
  }
  // One flipped bit in one record, eight times per record.
  for (size_t i = 0; i < log.size(); ++i) {
    for (int round = 0; round < 8; ++round) {
      Records mutated = log;
      const uint64_t bit = rng.Below(mutated[i].size() * 8);
      mutated[i][bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      MountWith(mutated, &outcomes);
    }
  }
  // One flipped bit in every record at once.
  for (int round = 0; round < 20; ++round) {
    Records mutated = log;
    for (std::vector<uint8_t>& record : mutated) {
      const uint64_t bit = rng.Below(record.size() * 8);
      record[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
    MountWith(mutated, &outcomes);
  }
  // Random bytes written over random positions of one record.
  for (int trial = 0; trial < 300; ++trial) {
    Records mutated = log;
    std::vector<uint8_t>& record = mutated[rng.Below(mutated.size())];
    const uint64_t count = 1 + rng.Below(8);
    for (uint64_t k = 0; k < count; ++k) {
      record[rng.Below(record.size())] = static_cast<uint8_t>(rng.Next());
    }
    MountWith(mutated, &outcomes);
  }
  EXPECT_EQ(outcomes.mounted + outcomes.refused, 44 + 88 + 20 + 300);
  // Pinned: which damaged logs still replay, and to what, is part of the
  // record format.
  EXPECT_EQ(outcomes.mounted, 116) << "refused " << outcomes.refused;
  EXPECT_EQ(outcomes.trees_crc, 2634717299u);
}

}  // namespace
}  // namespace bkup
