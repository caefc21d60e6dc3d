// Tests for physical (image) dump/restore: block-set computation (Table 1),
// full and incremental image round trips (bit-identical volumes including
// snapshots), geometry enforcement, corruption behaviour, and mirroring.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/fs/filesystem.h"
#include "src/image/blockset.h"
#include "src/image/image_dump.h"
#include "src/image/mirror.h"
#include "src/util/random.h"

namespace bkup {
namespace {

VolumeGeometry TestGeometry() {
  VolumeGeometry geom;
  geom.num_raid_groups = 2;
  geom.disks_per_group = 4;
  geom.blocks_per_disk = 2048;
  return geom;
}

struct ImageFixture {
  ImageFixture() {
    src_volume = Volume::Create(&env, "src", TestGeometry());
    dst_volume = Volume::Create(&env, "dst", TestGeometry());
    src = std::move(Filesystem::Format(src_volume.get(), &env)).value();
  }

  std::vector<uint8_t> Bytes(size_t n, uint64_t seed) {
    std::vector<uint8_t> data(n);
    Rng rng(seed);
    rng.Fill(data);
    return data;
  }

  void MustWrite(const std::string& path, const std::vector<uint8_t>& data) {
    auto inum = src->Create(path, 0644);
    ASSERT_TRUE(inum.ok()) << path;
    ASSERT_TRUE(src->Write(*inum, 0, data).ok());
  }

  ImageDumpOutput Dump(const std::string& base = "") {
    const std::string snap = "xfer" + std::to_string(counter++);
    EXPECT_TRUE(src->CreateSnapshot(snap).ok());
    ImageDumpOptions opt;
    opt.base_snapshot = base;
    opt.snapshot_name = snap;
    opt.dump_time = env.now();
    auto out = RunImageDump(src_volume.get(), opt);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return std::move(out).value();
  }

  // Compares every referenced block of two volumes.
  void ExpectVolumesEquivalent(Volume* a, Volume* b) {
    auto a_info = ReadFsInfoFromVolume(a);
    auto b_info = ReadFsInfoFromVolume(b);
    ASSERT_TRUE(a_info.ok());
    ASSERT_TRUE(b_info.ok());
    EXPECT_EQ(a_info->generation, b_info->generation);
    auto a_map = LoadBlockMapFromVolume(a, *a_info);
    ASSERT_TRUE(a_map.ok());
    Block ba, bb;
    for (Vbn v = 0; v < a->num_blocks(); ++v) {
      if (a_map->word(v) == 0) {
        continue;
      }
      ASSERT_TRUE(a->ReadBlock(v, &ba).ok());
      ASSERT_TRUE(b->ReadBlock(v, &bb).ok());
      ASSERT_EQ(ba, bb) << "vbn " << v << " differs";
    }
  }

  SimEnvironment env;
  std::unique_ptr<Volume> src_volume, dst_volume;
  std::unique_ptr<Filesystem> src;
  int counter = 0;
};

// -------------------------------------------------------------- block set ---

TEST(BlockSetTest, Table1Semantics) {
  // The four block states of Table 1, reproduced on a tiny map.
  BlockMap map(64);
  const int plane_a = 1;  // base snapshot A
  // State (0,0): in neither -> excluded.
  // State (0,1): newly written -> included.
  map.Set(kActivePlane, 10);
  // State (1,0): deleted since A -> excluded (but A still pins it).
  map.Set(plane_a, 11);
  // State (1,1): unchanged since A -> excluded from incremental.
  map.Set(plane_a, 12);
  map.Set(kActivePlane, 12);

  Bitmap incr = ComputeImageBlockSet(map, plane_a);
  EXPECT_FALSE(incr.Test(9));
  EXPECT_TRUE(incr.Test(10));
  EXPECT_FALSE(incr.Test(11));
  EXPECT_FALSE(incr.Test(12));
  EXPECT_EQ(incr.CountOnes(), 1u);

  // A full dump takes every referenced block regardless of plane.
  Bitmap full = ComputeImageBlockSet(map, std::nullopt);
  EXPECT_TRUE(full.Test(10));
  EXPECT_TRUE(full.Test(11));
  EXPECT_TRUE(full.Test(12));
  EXPECT_EQ(full.CountOnes(), 3u);
}

TEST(BlockSetTest, LoadBlockMapMatchesLiveFs) {
  ImageFixture f;
  f.MustWrite("/data", f.Bytes(30 * kBlockSize, 1));
  ASSERT_TRUE(f.src->CreateSnapshot("s1").ok());
  auto fsinfo = ReadFsInfoFromVolume(f.src_volume.get());
  ASSERT_TRUE(fsinfo.ok());
  std::vector<Vbn> reads;
  auto map = LoadBlockMapFromVolume(f.src_volume.get(), *fsinfo, &reads);
  ASSERT_TRUE(map.ok());
  EXPECT_GT(reads.size(), 0u);
  // The on-disk map agrees with the live file system's map.
  const BlockMap& live = f.src->blockmap();
  for (Vbn v = 0; v < live.num_blocks(); ++v) {
    EXPECT_EQ(map->word(v), live.word(v)) << "vbn " << v;
  }
}

// -------------------------------------------------------------- round trip ---

TEST(ImageTest, FullDumpRestoreGivesIdenticalVolume) {
  ImageFixture f;
  ASSERT_TRUE(f.src->Mkdir("/home", 0755).ok());
  const auto a = f.Bytes(50 * kBlockSize, 2);
  const auto b = f.Bytes(7 * kBlockSize + 99, 3);
  f.MustWrite("/home/a", a);
  f.MustWrite("/home/b", b);

  ImageDumpOutput dump = f.Dump();
  EXPECT_GT(dump.stats.blocks_dumped, 57u);
  EXPECT_GT(dump.stats.extents, 0u);
  // The header's block count is reserved and always 0; the trailer's count
  // is the authority.
  Block header_block;
  header_block.CopyFrom(std::span(dump.stream).first(kBlockSize));
  auto header = ImageHeader::Parse(header_block);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->block_count, 0u);
  auto trailer = ImageTrailer::Parse(
      std::span(dump.stream).last(ImageTrailer::kEncodedSize));
  ASSERT_TRUE(trailer.ok()) << trailer.status().ToString();
  EXPECT_EQ(trailer->block_count, dump.stats.blocks_dumped);

  auto restored = RunImageRestore(f.dst_volume.get(), dump.stream);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->stats.blocks_restored, dump.stats.blocks_dumped);

  f.ExpectVolumesEquivalent(f.src_volume.get(), f.dst_volume.get());

  // The restored volume mounts and serves the files.
  auto fs2 = Filesystem::Mount(f.dst_volume.get(), &f.env);
  ASSERT_TRUE(fs2.ok()) << fs2.status().ToString();
  auto inum = (*fs2)->LookupPath("/home/a");
  ASSERT_TRUE(inum.ok());
  std::vector<uint8_t> back;
  ASSERT_TRUE((*fs2)->Read(*inum, 0, a.size(), &back).ok());
  EXPECT_EQ(back, a);
}

TEST(ImageTest, RestorePreservesSnapshots) {
  // "Unlike the logical dump, which preserves just the live file system, the
  // block based device can backup all snapshots of the system."
  ImageFixture f;
  const auto v1 = f.Bytes(10 * kBlockSize, 4);
  f.MustWrite("/file", v1);
  ASSERT_TRUE(f.src->CreateSnapshot("monday").ok());
  const auto v2 = f.Bytes(10 * kBlockSize, 5);
  ASSERT_TRUE(f.src->Write(*f.src->LookupPath("/file"), 0, v2).ok());
  ASSERT_TRUE(f.src->CreateSnapshot("tuesday").ok());

  ImageDumpOutput dump = f.Dump();
  ASSERT_TRUE(RunImageRestore(f.dst_volume.get(), dump.stream).ok());

  auto fs2_result = Filesystem::Mount(f.dst_volume.get(), &f.env);
  ASSERT_TRUE(fs2_result.ok());
  auto fs2 = std::move(fs2_result).value();
  auto snaps = fs2->ListSnapshots();
  ASSERT_EQ(snaps.size(), 3u);  // monday, tuesday, xfer0

  auto monday = fs2->SnapshotReader("monday");
  ASSERT_TRUE(monday.ok());
  auto mon_inum = monday->LookupPath("/file");
  ASSERT_TRUE(mon_inum.ok());
  std::vector<uint8_t> back;
  ASSERT_TRUE(monday->ReadFile(*monday->ReadInode(*mon_inum), 0, v1.size(),
                               &back)
                  .ok());
  EXPECT_EQ(back, v1) << "snapshot contents must survive physical restore";
}

TEST(ImageTest, IncrementalChainReconstructsLatestState) {
  ImageFixture f;
  const auto original = f.Bytes(300 * kBlockSize, 6);
  f.MustWrite("/base_file", original);

  ImageDumpOutput full = f.Dump();  // creates snapshot xfer0
  ASSERT_TRUE(RunImageRestore(f.dst_volume.get(), full.stream).ok());

  // Mutate: new file, overwrite, delete nothing.
  const auto added = f.Bytes(15 * kBlockSize, 7);
  f.MustWrite("/new_file", added);
  const auto rewritten = f.Bytes(20 * kBlockSize, 8);  // small partial rewrite
  ASSERT_TRUE(
      f.src->Write(*f.src->LookupPath("/base_file"), 0, rewritten).ok());

  ImageDumpOutput incr = f.Dump("xfer0");
  EXPECT_TRUE(incr.stats.blocks_dumped < full.stats.blocks_dumped)
      << "incremental must move fewer blocks than the full dump";

  auto restored = RunImageRestore(f.dst_volume.get(), incr.stream);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  f.ExpectVolumesEquivalent(f.src_volume.get(), f.dst_volume.get());
  auto fs2 = Filesystem::Mount(f.dst_volume.get(), &f.env);
  ASSERT_TRUE(fs2.ok());
  std::vector<uint8_t> back;
  ASSERT_TRUE(
      (*fs2)->Read(*(*fs2)->LookupPath("/new_file"), 0, added.size(), &back)
          .ok());
  EXPECT_EQ(back, added);
  ASSERT_TRUE((*fs2)
                  ->Read(*(*fs2)->LookupPath("/base_file"), 0,
                         rewritten.size(), &back)
                  .ok());
  EXPECT_EQ(back, rewritten);
}

TEST(ImageTest, IncrementalBlockSetIsDisjointFromBasePlane) {
  ImageFixture f;
  f.MustWrite("/a", f.Bytes(30 * kBlockSize, 9));
  ImageDumpOutput full = f.Dump();  // snapshot xfer0
  f.MustWrite("/b", f.Bytes(10 * kBlockSize, 10));
  ImageDumpOutput incr = f.Dump("xfer0");

  // No block of the incremental set is in the base snapshot's plane.
  auto fsinfo = ReadFsInfoFromVolume(f.src_volume.get());
  ASSERT_TRUE(fsinfo.ok());
  auto plane = SnapshotPlaneOf(*fsinfo, "xfer0");
  ASSERT_TRUE(plane.ok());
  auto map = LoadBlockMapFromVolume(f.src_volume.get(), *fsinfo);
  ASSERT_TRUE(map.ok());
  Bitmap base_plane = map->ExtractPlane(*plane);
  EXPECT_TRUE(incr.block_set.DisjointWith(base_plane));
}

// ------------------------------------------------------------- limitations ---

TEST(ImageTest, GeometryMismatchRejected) {
  ImageFixture f;
  f.MustWrite("/x", f.Bytes(kBlockSize, 11));
  ImageDumpOutput dump = f.Dump();

  VolumeGeometry other = TestGeometry();
  other.blocks_per_disk = 1024;  // smaller disks
  auto small = Volume::Create(&f.env, "small", other);
  EXPECT_EQ(RunImageRestore(small.get(), dump.stream).status().code(),
            ErrorCode::kUnsupported)
      << "physical restore must enforce identical geometry";
}

TEST(ImageTest, IncrementalOntoEmptyVolumeRejected) {
  ImageFixture f;
  f.MustWrite("/x", f.Bytes(kBlockSize, 12));
  f.Dump();  // xfer0
  f.MustWrite("/y", f.Bytes(kBlockSize, 13));
  ImageDumpOutput incr = f.Dump("xfer0");
  EXPECT_EQ(RunImageRestore(f.dst_volume.get(), incr.stream).status().code(),
            ErrorCode::kFailedPrecondition);
}

TEST(ImageTest, IncrementalOntoWrongBaseRejected) {
  ImageFixture f;
  f.MustWrite("/x", f.Bytes(kBlockSize, 14));
  ImageDumpOutput full = f.Dump();  // xfer0
  ASSERT_TRUE(RunImageRestore(f.dst_volume.get(), full.stream).ok());
  // Drift the chain: delete xfer0, take xfer1, dump against xfer1.
  f.MustWrite("/y", f.Bytes(kBlockSize, 15));
  ImageDumpOutput incr1 = f.Dump("xfer0");  // valid for dst
  f.MustWrite("/z", f.Bytes(kBlockSize, 16));
  ImageDumpOutput incr2 = f.Dump("xfer1");  // dst has never seen xfer1
  EXPECT_EQ(RunImageRestore(f.dst_volume.get(), incr2.stream).status().code(),
            ErrorCode::kFailedPrecondition);
  // Applying them in order works.
  ASSERT_TRUE(RunImageRestore(f.dst_volume.get(), incr1.stream).ok());
  ASSERT_TRUE(RunImageRestore(f.dst_volume.get(), incr2.stream).ok());
  f.ExpectVolumesEquivalent(f.src_volume.get(), f.dst_volume.get());
}

TEST(ImageTest, CorruptionDoomsTheRestore) {
  // The asymmetry with logical restore: a damaged physical stream cannot be
  // partially salvaged file-by-file.
  ImageFixture f;
  f.MustWrite("/x", f.Bytes(40 * kBlockSize, 17));
  ImageDumpOutput dump = f.Dump();
  std::vector<uint8_t> corrupted = dump.stream;
  corrupted[corrupted.size() / 2] ^= 0xFF;
  EXPECT_EQ(RunImageRestore(f.dst_volume.get(), corrupted).status().code(),
            ErrorCode::kCorruption);
}

TEST(ImageTest, DumpStreamsInAscendingBlockOrder) {
  ImageFixture f;
  f.MustWrite("/x", f.Bytes(64 * kBlockSize, 18));
  ImageDumpOutput dump = f.Dump();
  // Only the extent events stream data blocks; the first event is the
  // meta-data pass and the last re-reads fsinfo for the trailer.
  Vbn last = 0;
  for (const IoEvent& e : dump.trace.events) {
    const bool is_extent =
        !e.cpu.empty() && e.cpu.front().kind == CpuCost::kPhysicalBlock;
    if (!is_extent) {
      continue;
    }
    for (Vbn v : e.disk_reads) {
      EXPECT_GE(v, last) << "physical dump must read in device order";
      last = v;
    }
  }
}

// ----------------------------------------------------------------- mirror ---

TEST(MirrorTest, InitialSyncReplicatesEverything) {
  ImageFixture f;
  const auto data = f.Bytes(25 * kBlockSize, 20);
  f.MustWrite("/replica_me", data);
  VolumeMirror mirror(f.src.get(), f.dst_volume.get());
  auto sent = mirror.Sync();
  ASSERT_TRUE(sent.ok()) << sent.status().ToString();
  EXPECT_GT(*sent, 25 * kBlockSize);
  EXPECT_EQ(mirror.syncs_completed(), 1u);

  auto fs2 = Filesystem::Mount(f.dst_volume.get(), &f.env);
  ASSERT_TRUE(fs2.ok());
  std::vector<uint8_t> back;
  ASSERT_TRUE(
      (*fs2)
          ->Read(*(*fs2)->LookupPath("/replica_me"), 0, data.size(), &back)
          .ok());
  EXPECT_EQ(back, data);
}

TEST(MirrorTest, IncrementalSyncsShipOnlyDeltas) {
  ImageFixture f;
  f.MustWrite("/big", f.Bytes(100 * kBlockSize, 21));
  VolumeMirror mirror(f.src.get(), f.dst_volume.get());
  auto first = mirror.Sync();
  ASSERT_TRUE(first.ok());

  const auto small = f.Bytes(2 * kBlockSize, 22);
  f.MustWrite("/small", small);
  auto second = mirror.Sync();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_LT(*second, *first / 4)
      << "a small change must ship a small incremental";

  auto fs2 = Filesystem::Mount(f.dst_volume.get(), &f.env);
  ASSERT_TRUE(fs2.ok());
  std::vector<uint8_t> back;
  ASSERT_TRUE(
      (*fs2)->Read(*(*fs2)->LookupPath("/small"), 0, small.size(), &back)
          .ok());
  EXPECT_EQ(back, small);
}

TEST(MirrorTest, RepeatedSyncsConverge) {
  ImageFixture f;
  VolumeMirror mirror(f.src.get(), f.dst_volume.get());
  std::map<std::string, std::vector<uint8_t>> files;
  Rng rng(23);
  for (int round = 0; round < 4; ++round) {
    const std::string path = "/round" + std::to_string(round);
    std::vector<uint8_t> data(rng.Below(20 * kBlockSize) + 1);
    rng.Fill(data);
    f.MustWrite(path, data);
    files[path] = data;
    ASSERT_TRUE(mirror.Sync().ok()) << "round " << round;
  }
  EXPECT_EQ(mirror.syncs_completed(), 4u);
  // The source carries only the latest transfer snapshot.
  EXPECT_EQ(f.src->ListSnapshots().size(), 1u);
  EXPECT_EQ(mirror.last_transfer_snapshot(), "mirror.4");

  auto fs2_result = Filesystem::Mount(f.dst_volume.get(), &f.env);
  ASSERT_TRUE(fs2_result.ok());
  auto fs2 = std::move(fs2_result).value();
  for (const auto& [path, want] : files) {
    std::vector<uint8_t> back;
    ASSERT_TRUE(
        fs2->Read(*fs2->LookupPath(path), 0, want.size(), &back).ok())
        << path;
    EXPECT_EQ(back, want) << path;
  }
}

// Property: for random histories, full + incrementals always reproduce the
// source volume exactly.
class ImageChainProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ImageChainProperty, RandomHistoryRoundTrips) {
  ImageFixture f;
  Rng rng(GetParam());
  std::vector<std::string> paths;
  ImageDumpOutput full = f.Dump();
  ASSERT_TRUE(RunImageRestore(f.dst_volume.get(), full.stream).ok());
  std::string base = "xfer0";
  for (int round = 0; round < 3; ++round) {
    // Random mutations.
    for (int i = 0; i < 5; ++i) {
      if (!paths.empty() && rng.Chance(0.3)) {
        const size_t pick = rng.Below(paths.size());
        ASSERT_TRUE(f.src->Unlink(paths[pick]).ok());
        paths.erase(paths.begin() + static_cast<long>(pick));
      } else {
        const std::string path = "/f" + std::to_string(round) + "_" +
                                 std::to_string(i);
        std::vector<uint8_t> data(rng.Below(10 * kBlockSize) + 1);
        rng.Fill(data);
        auto inum = f.src->Create(path, 0644);
        ASSERT_TRUE(inum.ok());
        ASSERT_TRUE(f.src->Write(*inum, 0, data).ok());
        paths.push_back(path);
      }
    }
    ImageDumpOutput incr = f.Dump(base);
    base = "xfer" + std::to_string(f.counter - 1);
    ASSERT_TRUE(RunImageRestore(f.dst_volume.get(), incr.stream).ok())
        << "round " << round;
    f.ExpectVolumesEquivalent(f.src_volume.get(), f.dst_volume.get());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImageChainProperty,
                         ::testing::Values(31, 32, 33, 1999));

}  // namespace
}  // namespace bkup
