// Tests for the write-anywhere file system: namespace operations, file I/O,
// persistence across consistency points and remounts, snapshots (COW
// immutability, bit-plane bookkeeping), and NVRAM crash replay.
#include <gtest/gtest.h>

#include <memory>
#include <set>
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
  geom.num_raid_groups = 2;
  geom.disks_per_group = 4;   // 3 data disks each
  geom.blocks_per_disk = 1024;  // 2 * 3 * 1024 = 6144 data blocks = 24 MiB
  return geom;
}

// Renders `values` as a C++ initializer, so a failing pin prints what the
// code now produces.
std::string Initializer(const std::vector<uint32_t>& values) {
  std::string out = "{";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i % 6 == 0 ? "\n    " : " ") + std::to_string(values[i]) + "u,";
  }
  return out + "}";
}

uint32_t CrcOfVbns(const std::vector<Vbn>& vbns, uint32_t seed = 0) {
  std::vector<uint8_t> bytes;
  ByteWriter w(&bytes);
  for (Vbn v : vbns) {
    w.PutU64(v);
  }
  return Crc32c(bytes, seed);
}

struct FsFixture {
  FsFixture() : FsFixture(SmallGeometry()) {}
  explicit FsFixture(const VolumeGeometry& geom) {
    volume = Volume::Create(&env, "test", geom);
    auto result = Filesystem::Format(volume.get(), &env);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    fs = std::move(result).value();
  }

  std::vector<uint8_t> Bytes(size_t n, uint64_t seed) {
    std::vector<uint8_t> data(n);
    Rng rng(seed);
    rng.Fill(data);
    return data;
  }

  SimEnvironment env;
  std::unique_ptr<Volume> volume;
  std::unique_ptr<Filesystem> fs;
};

// ----------------------------------------------------------- basic files ---

TEST(FsTest, FormatCreatesEmptyRoot) {
  FsFixture f;
  auto root = f.fs->LookupPath("/");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(*root, kRootDirInum);
  auto entries = f.fs->ReadDir(kRootDirInum);
  ASSERT_TRUE(entries.ok());
  EXPECT_TRUE(entries->empty());
}

TEST(FsTest, CreateWriteReadRoundTrip) {
  FsFixture f;
  auto inum = f.fs->Create("/hello.txt", 0644);
  ASSERT_TRUE(inum.ok()) << inum.status().ToString();
  const std::vector<uint8_t> data = f.Bytes(10000, 42);
  ASSERT_TRUE(f.fs->Write(*inum, 0, data).ok());
  std::vector<uint8_t> back;
  ASSERT_TRUE(f.fs->Read(*inum, 0, data.size(), &back).ok());
  EXPECT_EQ(back, data);
  auto attr = f.fs->GetAttr(*inum);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->size, data.size());
  EXPECT_EQ(attr->type, InodeType::kFile);
  EXPECT_EQ(attr->mode, 0644);
  EXPECT_EQ(attr->nlink, 1);
}

TEST(FsTest, CreateExistingFails) {
  FsFixture f;
  ASSERT_TRUE(f.fs->Create("/a", 0644).ok());
  EXPECT_EQ(f.fs->Create("/a", 0644).status().code(),
            ErrorCode::kAlreadyExists);
}

TEST(FsTest, LookupAndReadDirSeeUncommittedState) {
  FsFixture f;
  ASSERT_TRUE(f.fs->Mkdir("/dir", 0755).ok());
  ASSERT_TRUE(f.fs->Create("/dir/file", 0644).ok());
  // No consistency point yet: lookups must still see everything.
  auto inum = f.fs->LookupPath("/dir/file");
  ASSERT_TRUE(inum.ok());
  auto dir_inum = f.fs->LookupPath("/dir");
  ASSERT_TRUE(dir_inum.ok());
  auto entries = f.fs->ReadDir(*dir_inum);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].name, "file");
  EXPECT_EQ((*entries)[0].inum, *inum);
}

TEST(FsTest, WriteAtOffsetAndOverwrite) {
  FsFixture f;
  auto inum = f.fs->Create("/f", 0644);
  ASSERT_TRUE(inum.ok());
  std::vector<uint8_t> a(5000, 0xAA);
  std::vector<uint8_t> b(100, 0xBB);
  ASSERT_TRUE(f.fs->Write(*inum, 0, a).ok());
  ASSERT_TRUE(f.fs->Write(*inum, 4000, b).ok());
  std::vector<uint8_t> back;
  ASSERT_TRUE(f.fs->Read(*inum, 0, 5000, &back).ok());
  EXPECT_EQ(back[3999], 0xAA);
  EXPECT_EQ(back[4000], 0xBB);
  EXPECT_EQ(back[4099], 0xBB);
  EXPECT_EQ(back[4100], 0xAA);
}

TEST(FsTest, SparseFileReadsZerosInHoles) {
  FsFixture f;
  auto inum = f.fs->Create("/sparse", 0644);
  ASSERT_TRUE(inum.ok());
  std::vector<uint8_t> tail(10, 0xCC);
  // Write 10 bytes at 1 MiB: everything before is a hole.
  ASSERT_TRUE(f.fs->Write(*inum, 1 * kMiB, tail).ok());
  auto attr = f.fs->GetAttr(*inum);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->size, 1 * kMiB + 10);
  std::vector<uint8_t> back;
  ASSERT_TRUE(f.fs->Read(*inum, 1 * kMiB - 100, 110, &back).ok());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(back[i], 0) << i;
  }
  EXPECT_EQ(back[100], 0xCC);
  // Holes consume no blocks: the file should use ~1 block.
  ASSERT_TRUE(f.fs->ConsistencyPoint().ok());
  auto reader = f.fs->LiveReader();
  auto ino = reader.ReadInode(*inum);
  ASSERT_TRUE(ino.ok());
  auto ptrs = reader.PointerMap(*ino);
  ASSERT_TRUE(ptrs.ok());
  size_t mapped = 0;
  for (uint32_t p : *ptrs) {
    mapped += p != 0 ? 1 : 0;
  }
  EXPECT_EQ(mapped, 1u);
}

TEST(FsTest, ReadPastEofTruncates) {
  FsFixture f;
  auto inum = f.fs->Create("/f", 0644);
  ASSERT_TRUE(inum.ok());
  ASSERT_TRUE(f.fs->Write(*inum, 0, f.Bytes(100, 1)).ok());
  std::vector<uint8_t> back;
  ASSERT_TRUE(f.fs->Read(*inum, 50, 1000, &back).ok());
  EXPECT_EQ(back.size(), 50u);
  ASSERT_TRUE(f.fs->Read(*inum, 200, 10, &back).ok());
  EXPECT_TRUE(back.empty());
}

TEST(FsTest, LargeFileUsesIndirectBlocks) {
  FsFixture f;
  auto inum = f.fs->Create("/big", 0644);
  ASSERT_TRUE(inum.ok());
  // 100 blocks: needs the single-indirect block (16 direct + 84).
  const std::vector<uint8_t> data = f.Bytes(100 * kBlockSize, 7);
  ASSERT_TRUE(f.fs->Write(*inum, 0, data).ok());
  ASSERT_TRUE(f.fs->ConsistencyPoint().ok());
  auto reader = f.fs->LiveReader();
  auto ino = reader.ReadInode(*inum);
  ASSERT_TRUE(ino.ok());
  EXPECT_NE(ino->single_indirect, 0u);
  std::vector<uint8_t> back;
  ASSERT_TRUE(f.fs->Read(*inum, 0, data.size(), &back).ok());
  EXPECT_EQ(back, data);
}

TEST(FsTest, DoubleIndirectFile) {
  FsFixture f;
  auto inum = f.fs->Create("/huge", 0644);
  ASSERT_TRUE(inum.ok());
  // Block 1500 is past 16 + 1024, forcing the double-indirect tree; write
  // sparsely so the volume doesn't fill.
  const std::vector<uint8_t> chunk = f.Bytes(kBlockSize, 9);
  ASSERT_TRUE(f.fs->Write(*inum, 1500ull * kBlockSize, chunk).ok());
  ASSERT_TRUE(f.fs->ConsistencyPoint().ok());
  auto reader = f.fs->LiveReader();
  auto ino = reader.ReadInode(*inum);
  ASSERT_TRUE(ino.ok());
  EXPECT_NE(ino->double_indirect, 0u);
  std::vector<uint8_t> back;
  ASSERT_TRUE(f.fs->Read(*inum, 1500ull * kBlockSize, kBlockSize, &back).ok());
  EXPECT_EQ(back, chunk);
  // And the hole region still reads zero.
  ASSERT_TRUE(f.fs->Read(*inum, 700ull * kBlockSize, 8, &back).ok());
  EXPECT_EQ(back, std::vector<uint8_t>(8, 0));
}

TEST(FsTest, TruncateShrinkFreesBlocksAndZeroesTail) {
  FsFixture f;
  auto inum = f.fs->Create("/t", 0644);
  ASSERT_TRUE(inum.ok());
  ASSERT_TRUE(f.fs->Write(*inum, 0, f.Bytes(10 * kBlockSize, 3)).ok());
  ASSERT_TRUE(f.fs->ConsistencyPoint().ok());
  const uint64_t active_before = f.fs->Stats().active_blocks;
  ASSERT_TRUE(f.fs->Truncate(*inum, 2 * kBlockSize + 100).ok());
  ASSERT_TRUE(f.fs->ConsistencyPoint().ok());
  const uint64_t active_after = f.fs->Stats().active_blocks;
  EXPECT_LT(active_after, active_before);
  // Extending again must read zeros past the old tail.
  ASSERT_TRUE(f.fs->Truncate(*inum, 4 * kBlockSize).ok());
  std::vector<uint8_t> back;
  ASSERT_TRUE(f.fs->Read(*inum, 2 * kBlockSize + 100, 100, &back).ok());
  EXPECT_EQ(back, std::vector<uint8_t>(100, 0));
}

TEST(FsTest, WriteToDirectoryRejected) {
  FsFixture f;
  ASSERT_TRUE(f.fs->Mkdir("/d", 0755).ok());
  auto inum = f.fs->LookupPath("/d");
  ASSERT_TRUE(inum.ok());
  std::vector<uint8_t> junk(10, 1);
  EXPECT_EQ(f.fs->Write(*inum, 0, junk).code(), ErrorCode::kIsADirectory);
}

// ------------------------------------------------------------- namespace ---

TEST(FsTest, MkdirNested) {
  FsFixture f;
  ASSERT_TRUE(f.fs->Mkdir("/a", 0755).ok());
  ASSERT_TRUE(f.fs->Mkdir("/a/b", 0755).ok());
  ASSERT_TRUE(f.fs->Mkdir("/a/b/c", 0755).ok());
  ASSERT_TRUE(f.fs->Create("/a/b/c/file", 0600).ok());
  auto inum = f.fs->LookupPath("/a/b/c/file");
  EXPECT_TRUE(inum.ok());
  EXPECT_EQ(f.fs->LookupPath("/a/x/c").status().code(), ErrorCode::kNotFound);
}

TEST(FsTest, UnlinkRemovesAndFreesBlocks) {
  FsFixture f;
  auto inum = f.fs->Create("/victim", 0644);
  ASSERT_TRUE(inum.ok());
  ASSERT_TRUE(f.fs->Write(*inum, 0, f.Bytes(20 * kBlockSize, 5)).ok());
  ASSERT_TRUE(f.fs->ConsistencyPoint().ok());
  const uint64_t active_before = f.fs->Stats().active_blocks;
  ASSERT_TRUE(f.fs->Unlink("/victim").ok());
  ASSERT_TRUE(f.fs->ConsistencyPoint().ok());
  EXPECT_EQ(f.fs->LookupPath("/victim").status().code(), ErrorCode::kNotFound);
  EXPECT_LT(f.fs->Stats().active_blocks, active_before);
}

TEST(FsTest, UnlinkOfDirectoryRejected) {
  FsFixture f;
  ASSERT_TRUE(f.fs->Mkdir("/d", 0755).ok());
  EXPECT_EQ(f.fs->Unlink("/d").code(), ErrorCode::kIsADirectory);
}

TEST(FsTest, RmdirOnlyEmpty) {
  FsFixture f;
  ASSERT_TRUE(f.fs->Mkdir("/d", 0755).ok());
  ASSERT_TRUE(f.fs->Create("/d/f", 0644).ok());
  EXPECT_EQ(f.fs->Rmdir("/d").code(), ErrorCode::kNotEmpty);
  ASSERT_TRUE(f.fs->Unlink("/d/f").ok());
  EXPECT_TRUE(f.fs->Rmdir("/d").ok());
  EXPECT_EQ(f.fs->LookupPath("/d").status().code(), ErrorCode::kNotFound);
}

TEST(FsTest, RenameFile) {
  FsFixture f;
  auto inum = f.fs->Create("/old", 0644);
  ASSERT_TRUE(inum.ok());
  ASSERT_TRUE(f.fs->Write(*inum, 0, f.Bytes(100, 8)).ok());
  ASSERT_TRUE(f.fs->Mkdir("/dir", 0755).ok());
  ASSERT_TRUE(f.fs->Rename("/old", "/dir/new").ok());
  EXPECT_EQ(f.fs->LookupPath("/old").status().code(), ErrorCode::kNotFound);
  auto moved = f.fs->LookupPath("/dir/new");
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(*moved, *inum) << "rename must not change the inode";
}

TEST(FsTest, RenameReplacesExistingFile) {
  FsFixture f;
  auto a = f.fs->Create("/a", 0644);
  auto b = f.fs->Create("/b", 0644);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(f.fs->Rename("/a", "/b").ok());
  auto now_b = f.fs->LookupPath("/b");
  ASSERT_TRUE(now_b.ok());
  EXPECT_EQ(*now_b, *a);
  // Old /b's inode is gone.
  EXPECT_EQ(f.fs->GetAttr(*b).status().code(), ErrorCode::kNotFound);
}

TEST(FsTest, RenameDirIntoItselfRejected) {
  FsFixture f;
  ASSERT_TRUE(f.fs->Mkdir("/d", 0755).ok());
  EXPECT_EQ(f.fs->Rename("/d", "/d/sub").code(), ErrorCode::kInvalidArgument);
}

TEST(FsTest, HardLinkSharesInode) {
  FsFixture f;
  auto inum = f.fs->Create("/file", 0644);
  ASSERT_TRUE(inum.ok());
  ASSERT_TRUE(f.fs->Write(*inum, 0, f.Bytes(100, 9)).ok());
  ASSERT_TRUE(f.fs->Link("/file", "/alias").ok());
  auto alias = f.fs->LookupPath("/alias");
  ASSERT_TRUE(alias.ok());
  EXPECT_EQ(*alias, *inum);
  auto attr = f.fs->GetAttr(*inum);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->nlink, 2);
  // Unlinking one name keeps the data alive.
  ASSERT_TRUE(f.fs->Unlink("/file").ok());
  std::vector<uint8_t> back;
  EXPECT_TRUE(f.fs->Read(*alias, 0, 100, &back).ok());
  EXPECT_EQ(back.size(), 100u);
  attr = f.fs->GetAttr(*inum);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->nlink, 1);
}

TEST(FsTest, SymlinkStoresTarget) {
  FsFixture f;
  ASSERT_TRUE(f.fs->Create("/real", 0644).ok());
  auto link = f.fs->SymlinkAt("/real", "/sym");
  ASSERT_TRUE(link.ok());
  auto target = f.fs->ReadSymlink(*link);
  ASSERT_TRUE(target.ok());
  EXPECT_EQ(*target, "/real");
}

TEST(FsTest, InumReuseBumpsGeneration) {
  FsFixture f;
  auto first = f.fs->Create("/a", 0644);
  ASSERT_TRUE(first.ok());
  auto gen1 = f.fs->GetAttr(*first)->generation;
  ASSERT_TRUE(f.fs->Unlink("/a").ok());
  auto second = f.fs->Create("/b", 0644);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, *first) << "lowest-free allocation reuses the inum";
  EXPECT_GT(f.fs->GetAttr(*second)->generation, gen1);
}

// ------------------------------------------------------------ persistence ---

TEST(FsTest, RemountSeesCommittedState) {
  FsFixture f;
  auto inum = f.fs->Create("/persist", 0640);
  ASSERT_TRUE(inum.ok());
  const std::vector<uint8_t> data = f.Bytes(30000, 11);
  ASSERT_TRUE(f.fs->Write(*inum, 0, data).ok());
  ASSERT_TRUE(f.fs->Mkdir("/dir", 0700).ok());
  ASSERT_TRUE(f.fs->ConsistencyPoint().ok());
  f.fs.reset();  // unmount

  auto mounted = Filesystem::Mount(f.volume.get(), &f.env);
  ASSERT_TRUE(mounted.ok()) << mounted.status().ToString();
  auto fs2 = std::move(mounted).value();
  auto found = fs2->LookupPath("/persist");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, *inum);
  std::vector<uint8_t> back;
  ASSERT_TRUE(fs2->Read(*found, 0, data.size(), &back).ok());
  EXPECT_EQ(back, data);
  auto attr = fs2->GetAttr(*found);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->mode, 0640);
  EXPECT_TRUE(fs2->LookupPath("/dir").ok());
}

TEST(FsTest, UncommittedStateLostWithoutNvram) {
  FsFixture f;
  ASSERT_TRUE(f.fs->Create("/committed", 0644).ok());
  ASSERT_TRUE(f.fs->ConsistencyPoint().ok());
  ASSERT_TRUE(f.fs->Create("/lost", 0644).ok());
  f.fs.reset();  // crash without CP

  auto fs2 = Filesystem::Mount(f.volume.get(), &f.env);
  ASSERT_TRUE(fs2.ok());
  EXPECT_TRUE((*fs2)->LookupPath("/committed").ok());
  EXPECT_EQ((*fs2)->LookupPath("/lost").status().code(),
            ErrorCode::kNotFound);
}

TEST(FsTest, MountFallsBackToRedundantFsInfo) {
  FsFixture f;
  ASSERT_TRUE(f.fs->Create("/x", 0644).ok());
  ASSERT_TRUE(f.fs->ConsistencyPoint().ok());
  f.fs.reset();
  // Corrupt the primary fsinfo block on every disk it maps to.
  Block junk;
  junk.data.fill(0x5A);
  ASSERT_TRUE(f.volume->WriteBlock(kFsInfoPrimary, junk).ok());
  auto fs2 = Filesystem::Mount(f.volume.get(), &f.env);
  ASSERT_TRUE(fs2.ok()) << fs2.status().ToString();
  EXPECT_TRUE((*fs2)->LookupPath("/x").ok());
}

TEST(FsTest, GenerationAdvancesEveryCp) {
  FsFixture f;
  const uint64_t g0 = f.fs->generation();
  ASSERT_TRUE(f.fs->ConsistencyPoint().ok());
  ASSERT_TRUE(f.fs->ConsistencyPoint().ok());
  EXPECT_EQ(f.fs->generation(), g0 + 2);
}

// ------------------------------------------------------------- snapshots ---

TEST(FsTest, SnapshotPreservesOldContents) {
  FsFixture f;
  auto inum = f.fs->Create("/file", 0644);
  ASSERT_TRUE(inum.ok());
  const std::vector<uint8_t> v1 = f.Bytes(5 * kBlockSize, 100);
  ASSERT_TRUE(f.fs->Write(*inum, 0, v1).ok());
  ASSERT_TRUE(f.fs->CreateSnapshot("snap1").ok());

  // Overwrite and delete in the active file system.
  const std::vector<uint8_t> v2 = f.Bytes(5 * kBlockSize, 200);
  ASSERT_TRUE(f.fs->Write(*inum, 0, v2).ok());
  ASSERT_TRUE(f.fs->ConsistencyPoint().ok());

  // The snapshot still shows v1.
  auto reader = f.fs->SnapshotReader("snap1");
  ASSERT_TRUE(reader.ok());
  auto snap_inum = reader->LookupPath("/file");
  ASSERT_TRUE(snap_inum.ok());
  auto snap_ino = reader->ReadInode(*snap_inum);
  ASSERT_TRUE(snap_ino.ok());
  std::vector<uint8_t> back;
  ASSERT_TRUE(reader->ReadFile(*snap_ino, 0, v1.size(), &back).ok());
  EXPECT_EQ(back, v1);
  // The live file shows v2.
  ASSERT_TRUE(f.fs->Read(*inum, 0, v2.size(), &back).ok());
  EXPECT_EQ(back, v2);
}

TEST(FsTest, SnapshotSurvivesFileDeletion) {
  FsFixture f;
  auto inum = f.fs->Create("/doomed", 0644);
  ASSERT_TRUE(inum.ok());
  const std::vector<uint8_t> data = f.Bytes(3 * kBlockSize, 300);
  ASSERT_TRUE(f.fs->Write(*inum, 0, data).ok());
  ASSERT_TRUE(f.fs->CreateSnapshot("before-delete").ok());
  ASSERT_TRUE(f.fs->Unlink("/doomed").ok());
  ASSERT_TRUE(f.fs->ConsistencyPoint().ok());

  EXPECT_EQ(f.fs->LookupPath("/doomed").status().code(), ErrorCode::kNotFound);
  auto reader = f.fs->SnapshotReader("before-delete");
  ASSERT_TRUE(reader.ok());
  auto snap_inum = reader->LookupPath("/doomed");
  ASSERT_TRUE(snap_inum.ok());
  auto ino = reader->ReadInode(*snap_inum);
  ASSERT_TRUE(ino.ok());
  std::vector<uint8_t> back;
  ASSERT_TRUE(reader->ReadFile(*ino, 0, data.size(), &back).ok());
  EXPECT_EQ(back, data);
}

TEST(FsTest, SnapshotUsesNoSpaceUntilChange) {
  FsFixture f;
  auto inum = f.fs->Create("/file", 0644);
  ASSERT_TRUE(inum.ok());
  ASSERT_TRUE(f.fs->Write(*inum, 0, f.Bytes(50 * kBlockSize, 1)).ok());
  ASSERT_TRUE(f.fs->ConsistencyPoint().ok());
  const uint64_t used_before = f.fs->blockmap().CountUsed();
  ASSERT_TRUE(f.fs->CreateSnapshot("s").ok());
  const uint64_t used_after = f.fs->blockmap().CountUsed();
  // The snapshot shares every block; only the CP's own meta-data rewrite
  // (block-map file etc.) moved blocks.
  const uint64_t meta_overhead = f.fs->blockmap().FileBlocks() + 8;
  EXPECT_LE(used_after, used_before + meta_overhead);
}

TEST(FsTest, DeleteSnapshotFreesItsBlocks) {
  FsFixture f;
  auto inum = f.fs->Create("/f", 0644);
  ASSERT_TRUE(inum.ok());
  ASSERT_TRUE(f.fs->Write(*inum, 0, f.Bytes(40 * kBlockSize, 2)).ok());
  ASSERT_TRUE(f.fs->CreateSnapshot("s").ok());
  ASSERT_TRUE(f.fs->Unlink("/f").ok());
  ASSERT_TRUE(f.fs->ConsistencyPoint().ok());
  // Blocks are pinned by the snapshot.
  const uint64_t used_with_snap = f.fs->blockmap().CountUsed();
  ASSERT_TRUE(f.fs->DeleteSnapshot("s").ok());
  EXPECT_LT(f.fs->blockmap().CountUsed(), used_with_snap - 35);
}

TEST(FsTest, SnapshotLimitsEnforced) {
  FsFixture f;
  for (int i = 0; i < kMaxSnapshots; ++i) {
    ASSERT_TRUE(f.fs->CreateSnapshot("snap" + std::to_string(i)).ok()) << i;
  }
  EXPECT_EQ(f.fs->CreateSnapshot("one-too-many").code(),
            ErrorCode::kExhausted);
  EXPECT_EQ(f.fs->CreateSnapshot("snap3").code(), ErrorCode::kAlreadyExists);
  ASSERT_TRUE(f.fs->DeleteSnapshot("snap3").ok());
  EXPECT_TRUE(f.fs->CreateSnapshot("again").ok());
  EXPECT_EQ(f.fs->DeleteSnapshot("gone").code(), ErrorCode::kNotFound);
}

TEST(FsTest, SnapshotTableSurvivesRemount) {
  FsFixture f;
  ASSERT_TRUE(f.fs->Create("/a", 0644).ok());
  ASSERT_TRUE(f.fs->CreateSnapshot("keeper").ok());
  f.fs.reset();
  auto fs2 = Filesystem::Mount(f.volume.get(), &f.env);
  ASSERT_TRUE(fs2.ok());
  auto snaps = (*fs2)->ListSnapshots();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].name, "keeper");
  auto reader = (*fs2)->SnapshotReader("keeper");
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader->LookupPath("/a").ok());
}

TEST(FsTest, BlockMapInvariantFreeIffNoPlane) {
  FsFixture f;
  auto inum = f.fs->Create("/f", 0644);
  ASSERT_TRUE(inum.ok());
  ASSERT_TRUE(f.fs->Write(*inum, 0, f.Bytes(10 * kBlockSize, 3)).ok());
  ASSERT_TRUE(f.fs->CreateSnapshot("s1").ok());
  ASSERT_TRUE(f.fs->Write(*inum, 0, f.Bytes(10 * kBlockSize, 4)).ok());
  ASSERT_TRUE(f.fs->CreateSnapshot("s2").ok());
  ASSERT_TRUE(f.fs->Unlink("/f").ok());
  ASSERT_TRUE(f.fs->ConsistencyPoint().ok());

  const BlockMap& bm = f.fs->blockmap();
  for (Vbn v = 0; v < bm.num_blocks(); ++v) {
    bool any_plane = false;
    for (int plane = 0; plane < kBlockMapPlanes; ++plane) {
      any_plane |= bm.Test(plane, v);
    }
    EXPECT_EQ(bm.IsFree(v), !any_plane) << "vbn " << v;
  }
}

// ---------------------------------------------------------------- NVRAM ---

TEST(FsTest, NvramReplayRecoversUncommittedOps) {
  SimEnvironment env;
  auto volume = Volume::Create(&env, "v", SmallGeometry());
  NvramLog nvram(32 * kMiB);
  auto fs_result = Filesystem::Format(volume.get(), &env, &nvram);
  ASSERT_TRUE(fs_result.ok());
  auto fs = std::move(fs_result).value();

  ASSERT_TRUE(fs->Mkdir("/dir", 0755).ok());
  ASSERT_TRUE(fs->ConsistencyPoint().ok());
  EXPECT_TRUE(nvram.empty()) << "CP must clear the log";

  // Post-CP mutations live only in memory + NVRAM.
  auto inum = fs->Create("/dir/recovered", 0644);
  ASSERT_TRUE(inum.ok());
  std::vector<uint8_t> data(9000);
  Rng(77).Fill(data);
  ASSERT_TRUE(fs->Write(*inum, 0, data).ok());
  ASSERT_TRUE(fs->Rename("/dir/recovered", "/dir/renamed").ok());
  EXPECT_GT(nvram.num_records(), 0u);

  fs.reset();  // crash: all dirty in-memory state is gone

  auto fs2 = Filesystem::Mount(volume.get(), &env, &nvram);
  ASSERT_TRUE(fs2.ok()) << fs2.status().ToString();
  auto found = (*fs2)->LookupPath("/dir/renamed");
  ASSERT_TRUE(found.ok());
  std::vector<uint8_t> back;
  ASSERT_TRUE((*fs2)->Read(*found, 0, data.size(), &back).ok());
  EXPECT_EQ(back, data);
}

TEST(FsTest, NvramFailureLosesOnlyRecentOps) {
  // Paper §2.2: "If the filer's NVRAM fails, the WAFL file system is still
  // completely self consistent; the only damage is that a few seconds worth
  // of NFS operations may be lost."
  SimEnvironment env;
  auto volume = Volume::Create(&env, "v", SmallGeometry());
  NvramLog nvram(32 * kMiB);
  auto fs_result = Filesystem::Format(volume.get(), &env, &nvram);
  ASSERT_TRUE(fs_result.ok());
  auto fs = std::move(fs_result).value();
  ASSERT_TRUE(fs->Create("/durable", 0644).ok());
  ASSERT_TRUE(fs->ConsistencyPoint().ok());
  ASSERT_TRUE(fs->Create("/recent", 0644).ok());
  nvram.FailAndLoseContents();
  fs.reset();
  auto fs2 = Filesystem::Mount(volume.get(), &env, &nvram);
  ASSERT_TRUE(fs2.ok());
  EXPECT_TRUE((*fs2)->LookupPath("/durable").ok());
  EXPECT_EQ((*fs2)->LookupPath("/recent").status().code(),
            ErrorCode::kNotFound);
}

TEST(FsTest, NvramPressureForcesCp) {
  SimEnvironment env;
  auto volume = Volume::Create(&env, "v", SmallGeometry());
  NvramLog nvram(64 * kKiB);  // tiny log
  auto fs_result = Filesystem::Format(volume.get(), &env, &nvram);
  ASSERT_TRUE(fs_result.ok());
  auto fs = std::move(fs_result).value();
  const uint64_t g0 = fs->generation();
  auto inum = fs->Create("/f", 0644);
  ASSERT_TRUE(inum.ok());
  std::vector<uint8_t> chunk(16 * kKiB);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(fs->Write(*inum, i * chunk.size(), chunk).ok());
  }
  EXPECT_GT(fs->generation(), g0) << "log overflow must take CPs";
  EXPECT_LE(nvram.size_bytes(), nvram.capacity());
}

// The length and CRC of every record in a log holding all ten op kinds.
// NvramLog::WouldOverflow times forced consistency points by these lengths,
// and a log written before a format change must still replay after it.
TEST(FsTest, NvramRecordsArePinned) {
  SimEnvironment env;
  auto volume = Volume::Create(&env, "v", SmallGeometry());
  NvramLog nvram(32 * kMiB);
  auto fs = std::move(Filesystem::Format(volume.get(), &env, &nvram)).value();
  ASSERT_TRUE(LogEveryOpKind(fs.get()).ok());
  std::vector<uint32_t> actual;
  std::set<uint8_t> opcodes;
  for (const std::vector<uint8_t>& record : nvram.records()) {
    actual.push_back(static_cast<uint32_t>(record.size()));
    actual.push_back(Crc32c(record));
    opcodes.insert(record.at(0));
  }
  EXPECT_EQ(opcodes.size(), 10u);
  const std::vector<uint32_t> pinned = {
      11u, 1310064410u, 11u, 3423186668u, 20u, 2054954507u,
      20u, 260880591u, 12u, 3693202026u, 11u, 3552157940u,
      18u, 584103329u, 9017u, 178924765u, 3017u, 2870378396u,
      13u, 3808523832u, 32u, 4160714454u};
  EXPECT_EQ(actual, pinned) << Initializer(actual);
}

// Each op kind logged after a consistency point survives a crash: mounting
// with the log rebuilds the live tree exactly, and durably.
TEST(FsTest, EveryLoggedOpReplays) {
  SimEnvironment env;
  auto volume = Volume::Create(&env, "v", SmallGeometry());
  NvramLog nvram(32 * kMiB);
  auto fs = std::move(Filesystem::Format(volume.get(), &env, &nvram)).value();
  ASSERT_TRUE(LogEveryOpKind(fs.get()).ok());
  ASSERT_EQ(nvram.num_records(), 11u);
  auto live = DescribeTree(fs.get());
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  fs.reset();  // crash

  auto replayed = Filesystem::Mount(volume.get(), &env, &nvram);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_TRUE(nvram.empty()) << "replay ends in a consistency point";
  auto tree = DescribeTree(replayed->get());
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(*tree, *live);

  replayed->reset();
  auto remounted = Filesystem::Mount(volume.get(), &env);
  ASSERT_TRUE(remounted.ok()) << remounted.status().ToString();
  auto durable = DescribeTree(remounted->get());
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  EXPECT_EQ(*durable, *live);
}

// A seeded mix of every mutation, automatic and explicit consistency points
// and snapshots. Pins what each explicit consistency point wrote, in order,
// the status of every op, the totals the auto-CPs added, and every block of
// the volume at the end: the write-anywhere layout must not drift.
TEST(FsTest, ConsistencyPointWritesArePinned) {
  FsFixture f;
  Rng rng(1999);
  std::vector<std::string> dirs = {""};  // "" is the root
  std::vector<std::string> names;        // non-directories
  int serial = 0;
  auto fresh_path = [&](const char* stem) {
    return dirs[rng.Below(dirs.size())] + "/" + stem + std::to_string(serial++);
  };
  auto pick = [&]() -> std::string& { return names[rng.Below(names.size())]; };
  std::vector<uint32_t> actual;
  uint32_t ops_crc = 0;
  for (int step = 0; step < 160; ++step) {
    f.env.RunUntil(f.env.now() + static_cast<SimDuration>(rng.Below(
        static_cast<uint64_t>(2 * kSecond))));
    Status st = Status::Ok();
    const uint64_t op = names.empty() ? rng.Below(4) : rng.Below(12);
    if (op <= 1) {
      const std::string path = fresh_path("f");
      st = f.fs->Create(path, 0644).status();
      if (st.ok()) {
        names.push_back(path);
      }
    } else if (op == 2) {
      const std::string path = fresh_path("d");
      st = f.fs->Mkdir(path, 0755).status();
      if (st.ok()) {
        dirs.push_back(path);
      }
    } else if (op == 3) {
      const std::string path = fresh_path("s");
      st = f.fs->SymlinkAt(rng.Name(1 + rng.Below(40)), path).status();
      if (st.ok()) {
        names.push_back(path);
      }
    } else if (op == 4) {
      const std::string path = fresh_path("h");
      st = f.fs->Link(pick(), path);
      if (st.ok()) {
        names.push_back(path);
      }
    } else if (op <= 7) {
      const Result<Inum> inum = f.fs->LookupPath(pick());
      st = inum.status();
      if (inum.ok() && op == 7) {
        st = f.fs->Truncate(*inum, rng.Below(80 * kKiB));
      } else if (inum.ok()) {
        std::vector<uint8_t> data(1 + rng.Below(48 * kKiB));
        rng.Fill(data);
        st = f.fs->Write(*inum, rng.Below(64 * kKiB), data);
      }
    } else if (op == 8) {
      const Result<Inum> inum = f.fs->LookupPath(pick());
      st = inum.status();
      if (inum.ok()) {
        SetAttrRequest request;
        request.mode = static_cast<uint16_t>(rng.Below(01000));
        if (rng.Chance(0.5)) {
          request.uid = static_cast<uint32_t>(rng.Below(1000));
        }
        if (rng.Chance(0.3)) {
          request.mtime = static_cast<int64_t>(rng.Below(1'000'000));
        }
        st = f.fs->SetAttr(*inum, request);
      }
    } else if (op == 9) {
      std::string& from = pick();
      const std::string to = fresh_path("r");
      st = f.fs->Rename(from, to);
      if (st.ok()) {
        from = to;
      }
    } else if (op == 10) {
      const size_t i = rng.Below(names.size());
      st = f.fs->Unlink(names[i]);
      names.erase(names.begin() + static_cast<long>(i));
    } else if (dirs.size() > 1) {
      const size_t i = 1 + rng.Below(dirs.size() - 1);
      st = f.fs->Rmdir(dirs[i]);
      if (st.ok()) {
        dirs.erase(dirs.begin() + static_cast<long>(i));
      }
    }
    if (step == 50 && st.ok()) {
      // One file reaches into the double-indirect range.
      std::vector<uint8_t> data(4 * kMiB + 300 * kKiB);
      rng.Fill(data);
      const Result<Inum> inum = f.fs->LookupPath(pick());
      st = inum.ok() ? f.fs->Write(*inum, 0, data) : inum.status();
    }
    const uint8_t code = static_cast<uint8_t>(st.code());
    ops_crc = Crc32c(std::span(&code, 1), ops_crc);
    if (step == 40 || step == 70 || step == 130) {
      ASSERT_TRUE(f.fs->CreateSnapshot("s" + std::to_string(step)).ok());
    }
    if (step == 100) {
      ASSERT_TRUE(f.fs->DeleteSnapshot("s40").ok());
    }
    if (step % 17 == 16 || step == 159) {
      auto report = f.fs->ConsistencyPoint();
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      actual.push_back(static_cast<uint32_t>(report->data_writes.size()));
      actual.push_back(CrcOfVbns(report->data_writes));
      actual.push_back(static_cast<uint32_t>(report->meta_writes.size()));
      actual.push_back(CrcOfVbns(report->meta_writes));
    }
  }
  actual.push_back(ops_crc);
  actual.push_back(static_cast<uint32_t>(f.fs->generation()));
  actual.push_back(static_cast<uint32_t>(f.fs->cp_data_writes_since_mark()));
  actual.push_back(static_cast<uint32_t>(f.fs->cp_meta_writes_since_mark()));
  uint32_t volume_crc = 0;
  Block block;
  for (Vbn v = 0; v < f.volume->num_blocks(); ++v) {
    ASSERT_TRUE(f.volume->ReadBlock(v, &block).ok());
    volume_crc = Crc32c(block.data, volume_crc);
  }
  actual.push_back(volume_crc);
  const std::vector<uint32_t> pinned = {
      14u, 165008277u, 10u, 2438057045u, 6u, 1791923932u,
      10u, 3197226480u, 1101u, 2541367736u, 12u, 1021201136u,
      4u, 3446775806u, 9u, 3433048468u, 13u, 821264116u,
      10u, 1235619956u, 2u, 2447877724u, 9u, 848165023u,
      3u, 207376222u, 10u, 4252442721u, 5u, 1182043851u,
      10u, 2636070006u, 9u, 3952042891u, 10u, 1763479193u,
      14u, 1094663236u, 11u, 959413946u, 3668428281u, 27u,
      1320u, 265u, 1041622693u};
  EXPECT_EQ(actual, pinned) << Initializer(actual);
}

// ---------------------------------------------------------------- stats ---

TEST(FsTest, StatsTrackUsage) {
  FsFixture f;
  const FsStats before = f.fs->Stats();
  auto inum = f.fs->Create("/f", 0644);
  ASSERT_TRUE(inum.ok());
  ASSERT_TRUE(f.fs->Write(*inum, 0, f.Bytes(25 * kBlockSize, 6)).ok());
  ASSERT_TRUE(f.fs->ConsistencyPoint().ok());
  const FsStats after = f.fs->Stats();
  EXPECT_EQ(after.inodes_used, before.inodes_used + 1);
  EXPECT_GE(after.active_blocks, before.active_blocks + 25);
  EXPECT_LT(after.free_blocks, before.free_blocks);
  EXPECT_EQ(after.volume_blocks, f.volume->num_blocks());
}

// Property sweep: randomized workload, then verify every file via remount.
class FsRandomWorkloadTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FsRandomWorkloadTest, RandomOpsSurviveRemount) {
  FsFixture f;
  Rng rng(GetParam());
  // Model state: path -> contents.
  std::vector<std::pair<std::string, std::vector<uint8_t>>> model;
  for (int i = 0; i < 40; ++i) {
    const std::string path = "/f" + std::to_string(i);
    auto inum = f.fs->Create(path, 0644);
    ASSERT_TRUE(inum.ok());
    std::vector<uint8_t> data(rng.Below(6 * kBlockSize) + 1);
    rng.Fill(data);
    ASSERT_TRUE(f.fs->Write(*inum, 0, data).ok());
    model.emplace_back(path, std::move(data));
    if (rng.Chance(0.3) && !model.empty()) {
      // Random overwrite of an earlier file.
      const size_t pick = rng.Below(model.size());
      auto target = f.fs->LookupPath(model[pick].first);
      ASSERT_TRUE(target.ok());
      const uint64_t off = rng.Below(model[pick].second.size());
      std::vector<uint8_t> patch(rng.Below(kBlockSize) + 1);
      rng.Fill(patch);
      ASSERT_TRUE(f.fs->Write(*target, off, patch).ok());
      auto& bytes = model[pick].second;
      if (off + patch.size() > bytes.size()) {
        bytes.resize(off + patch.size());
      }
      std::copy(patch.begin(), patch.end(), bytes.begin() + static_cast<long>(off));
    }
    if (rng.Chance(0.15) && model.size() > 1) {
      const size_t pick = rng.Below(model.size());
      ASSERT_TRUE(f.fs->Unlink(model[pick].first).ok());
      model.erase(model.begin() + static_cast<long>(pick));
    }
    if (rng.Chance(0.2)) {
      ASSERT_TRUE(f.fs->ConsistencyPoint().ok());
    }
  }
  ASSERT_TRUE(f.fs->ConsistencyPoint().ok());
  f.fs.reset();
  auto fs2_result = Filesystem::Mount(f.volume.get(), &f.env);
  ASSERT_TRUE(fs2_result.ok());
  auto fs2 = std::move(fs2_result).value();
  for (const auto& [path, bytes] : model) {
    auto inum = fs2->LookupPath(path);
    ASSERT_TRUE(inum.ok()) << path;
    std::vector<uint8_t> back;
    ASSERT_TRUE(fs2->Read(*inum, 0, bytes.size() + 10, &back).ok());
    EXPECT_EQ(back, bytes) << path;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FsRandomWorkloadTest,
                         ::testing::Values(1, 2, 3, 7, 1999));

}  // namespace
}  // namespace bkup
