// Tests for logical dump/restore: tape format, the four dump phases,
// full/subtree/single-file restores, incremental chains with deletions and
// renames, corruption resilience, and cross-volume ("cross-platform")
// restores.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/dump/dumpdates.h"
#include "src/dump/logical_dump.h"
#include "src/dump/logical_restore.h"
#include "src/fs/filesystem.h"
#include "src/fs/layout.h"
#include "src/util/checksum.h"
#include "src/util/random.h"

namespace bkup {
namespace {

VolumeGeometry TestGeometry() {
  VolumeGeometry geom;
  geom.num_raid_groups = 2;
  geom.disks_per_group = 4;
  geom.blocks_per_disk = 2048;  // 2*3*2048 blocks = 48 MiB
  return geom;
}

struct DumpFixture {
  DumpFixture() {
    src_volume = Volume::Create(&env, "src", TestGeometry());
    dst_volume = Volume::Create(&env, "dst", TestGeometry());
    src = std::move(Filesystem::Format(src_volume.get(), &env)).value();
    dst = std::move(Filesystem::Format(dst_volume.get(), &env)).value();
  }

  std::vector<uint8_t> Bytes(size_t n, uint64_t seed) {
    std::vector<uint8_t> data(n);
    Rng rng(seed);
    rng.Fill(data);
    return data;
  }

  Inum MustCreate(Filesystem* fs, const std::string& path, size_t nbytes,
                  uint64_t seed) {
    auto inum = fs->Create(path, 0644);
    EXPECT_TRUE(inum.ok()) << path;
    if (nbytes > 0) {
      EXPECT_TRUE(fs->Write(*inum, 0, Bytes(nbytes, seed)).ok());
    }
    return *inum;
  }

  // Dumps `subtree` of `src` from a fresh snapshot.
  LogicalDumpOutput Dump(int level = 0, int64_t base_time = 0,
                         const std::string& subtree = "/") {
    const std::string snap = "dumpsnap" + std::to_string(snap_counter++);
    EXPECT_TRUE(src->CreateSnapshot(snap).ok());
    auto reader = src->SnapshotReader(snap);
    EXPECT_TRUE(reader.ok());
    LogicalDumpOptions opt;
    opt.level = level;
    opt.base_time = base_time;
    opt.subtree = subtree;
    opt.volume_name = "src";
    opt.snapshot_name = snap;
    opt.dump_time = env.now();
    auto out = RunLogicalDump(*reader, opt);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_TRUE(src->DeleteSnapshot(snap).ok());
    return std::move(out).value();
  }

  // Verifies that the file at `path` exists on `fs` with the given content.
  void ExpectFile(Filesystem* fs, const std::string& path,
                  const std::vector<uint8_t>& want) {
    auto inum = fs->LookupPath(path);
    ASSERT_TRUE(inum.ok()) << path;
    std::vector<uint8_t> got;
    ASSERT_TRUE(fs->Read(*inum, 0, want.size() + 16, &got).ok()) << path;
    EXPECT_EQ(got.size(), want.size()) << path;
    EXPECT_EQ(Crc32c(got), Crc32c(want)) << path << " content differs";
  }

  void AdvanceTime(SimDuration d) {
    env.Spawn([](SimEnvironment* e, SimDuration dur) -> Task {
      co_await e->Delay(dur);
    }(&env, d));
    env.Run();
  }

  SimEnvironment env;
  std::unique_ptr<Volume> src_volume, dst_volume;
  std::unique_ptr<Filesystem> src, dst;
  int snap_counter = 0;
};

// ---------------------------------------------------------------- format ---

TEST(DumpFormatTest, RecordRoundTrip) {
  DumpRecord rec;
  rec.type = DumpRecordType::kInode;
  rec.inum = 42;
  rec.attrs = {InodeType::kFile, 0644, 2, 1000, 100, 123456, 11, 22, 33, 7};
  rec.total_blocks = 31;
  rec.first_fbn = 0;
  rec.map_count = 31;
  rec.present_count = 2;
  rec.data_crc = 0xDEADBEEF;
  rec.block_map.assign(4, 0);
  rec.block_map[0] = 0x81;
  auto bytes = rec.Serialize();
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes->size(), kDumpRecordSize);
  auto back = DumpRecord::Parse(*bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->type, DumpRecordType::kInode);
  EXPECT_EQ(back->inum, 42u);
  EXPECT_EQ(back->attrs.mode, 0644);
  EXPECT_EQ(back->attrs.nlink, 2);
  EXPECT_EQ(back->attrs.size, 123456u);
  EXPECT_EQ(back->total_blocks, 31u);
  EXPECT_EQ(back->present_count, 2u);
  EXPECT_EQ(back->data_crc, 0xDEADBEEFu);
  EXPECT_TRUE(back->BlockPresent(0));
  EXPECT_FALSE(back->BlockPresent(1));
  EXPECT_TRUE(back->BlockPresent(7));
}

TEST(DumpFormatTest, TapeHeaderRoundTrip) {
  DumpRecord rec;
  rec.type = DumpRecordType::kTapeHeader;
  rec.level = 3;
  rec.dump_time = 999;
  rec.base_time = 500;
  rec.max_inodes = 4096;
  rec.volume_name = "home";
  rec.snapshot_name = "nightly.0";
  rec.subtree = "/users";
  auto bytes = rec.Serialize();
  ASSERT_TRUE(bytes.ok());
  auto back = DumpRecord::Parse(*bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->level, 3u);
  EXPECT_EQ(back->base_time, 500);
  EXPECT_EQ(back->volume_name, "home");
  EXPECT_EQ(back->snapshot_name, "nightly.0");
  EXPECT_EQ(back->subtree, "/users");
}

TEST(DumpFormatTest, CorruptionDetected) {
  DumpRecord rec;
  rec.type = DumpRecordType::kEnd;
  auto bytes = rec.Serialize();
  ASSERT_TRUE(bytes.ok());
  (*bytes)[100] ^= 1;
  EXPECT_EQ(DumpRecord::Parse(*bytes).status().code(), ErrorCode::kCorruption);

  // Headers whose length fields contradict each other carry valid CRCs, so
  // Parse itself must reject them before a walker sizes anything by them.
  DumpRecord huge_map;  // 8 bytes of bitmap cannot hold 2^32 - 1 inodes
  huge_map.type = DumpRecordType::kDumpedMap;
  huge_map.map_bytes = 8;
  huge_map.map_inode_count = 0xffffffffu;
  DumpRecord long_dir;  // a 2 KB payload in one 1 KB tape block
  long_dir.type = DumpRecordType::kDirectory;
  long_dir.present_count = 1;
  long_dir.payload_bytes = 2 * kDumpRecordSize;
  DumpRecord extra_bits;  // 8 presence bits, 1 data block
  extra_bits.type = DumpRecordType::kInode;
  extra_bits.map_count = 8;
  extra_bits.block_map = {0xff};
  extra_bits.present_count = 1;
  for (const DumpRecord& hostile : {huge_map, long_dir, extra_bits}) {
    auto crafted = hostile.Serialize();
    ASSERT_TRUE(crafted.ok()) << crafted.status().ToString();
    EXPECT_EQ(DumpRecord::Parse(*crafted).status().code(),
              ErrorCode::kCorruption);
  }
}

TEST(DumpFormatTest, DirectoryEncodingRoundTrip) {
  std::vector<DirEntry> entries = {
      {10, InodeType::kFile, "alpha"},
      {11, InodeType::kDirectory, "beta"},
      {12, InodeType::kSymlink, "gamma"},
  };
  auto bytes = EncodeDumpDirectory(entries);
  auto back = DecodeDumpDirectory(bytes);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 3u);
  EXPECT_EQ((*back)[0].name, "alpha");
  EXPECT_EQ((*back)[1].type, InodeType::kDirectory);
  EXPECT_EQ((*back)[2].inum, 12u);

  // Hostile bytes get kCorruption from the dump decoder and the on-disk
  // parser alike: an entry count far past what the bytes could hold must
  // not size an allocation, and an entry type past kSymlink is rejected.
  const std::vector<uint8_t> huge_count = {0xff, 0xff, 0xff, 0x7f, 10, 0, 0};
  std::vector<uint8_t> bad_type = bytes;
  bad_type[8] = 0xee;  // the first entry's type, after count and inum
  for (const std::vector<uint8_t>& hostile : {huge_count, bad_type}) {
    EXPECT_EQ(DecodeDumpDirectory(hostile).status().code(),
              ErrorCode::kCorruption);
    EXPECT_EQ(ParseDirectory(hostile).status().code(),
              ErrorCode::kCorruption);
  }
}

// ------------------------------------------------------------- dumpdates ---

TEST(DumpDatesTest, BaseSelection) {
  DumpDates db;
  db.Record({"home", "/", 0, 100, 1, "snap0"});
  db.Record({"home", "/", 1, 200, 2, "snap1"});
  db.Record({"home", "/", 5, 300, 3, "snap5"});
  // A level-9 dump bases on the most recent lower level (5, at t=300).
  auto base = db.BaseFor("home", "/", 9);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base->level, 5);
  EXPECT_EQ(base->dump_time, 300);
  // A level-1 dump bases on the level-0.
  base = db.BaseFor("home", "/", 1);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base->level, 0);
  // Level 0 has no base; unknown volumes have none either.
  EXPECT_FALSE(db.BaseFor("home", "/", 0).ok());
  EXPECT_FALSE(db.BaseFor("rlse", "/", 5).ok());
}

TEST(DumpDatesTest, RecordReplacesSameLevel) {
  DumpDates db;
  db.Record({"home", "/", 0, 100, 1, "a"});
  db.Record({"home", "/", 0, 500, 9, "b"});
  EXPECT_EQ(db.entries().size(), 1u);
  EXPECT_EQ(db.entries()[0].dump_time, 500);
}

TEST(DumpDatesTest, SerializeRoundTrip) {
  DumpDates db;
  db.Record({"home", "/", 0, 100, 1, "snap0"});
  db.Record({"home", "/users", 2, 250, 7, "snap2"});
  auto back = DumpDates::Deserialize(db.Serialize());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->entries().size(), 2u);
  EXPECT_EQ(back->entries()[1].subtree, "/users");
  EXPECT_EQ(back->entries()[1].dump_time, 250);
}

// ------------------------------------------------------------ round trip ---

TEST(DumpRestoreTest, FullDumpRestoreRoundTrip) {
  DumpFixture f;
  ASSERT_TRUE(f.src->Mkdir("/docs", 0750).ok());
  ASSERT_TRUE(f.src->Mkdir("/docs/sub", 0700).ok());
  const auto a = f.Bytes(10 * kBlockSize + 123, 1);
  const auto b = f.Bytes(3, 2);
  const auto c = f.Bytes(100 * kBlockSize, 3);
  f.MustCreate(f.src.get(), "/docs/a.bin", 0, 0);
  ASSERT_TRUE(
      f.src->Write(*f.src->LookupPath("/docs/a.bin"), 0, a).ok());
  f.MustCreate(f.src.get(), "/docs/sub/b.txt", 0, 0);
  ASSERT_TRUE(
      f.src->Write(*f.src->LookupPath("/docs/sub/b.txt"), 0, b).ok());
  f.MustCreate(f.src.get(), "/big.bin", 0, 0);
  ASSERT_TRUE(f.src->Write(*f.src->LookupPath("/big.bin"), 0, c).ok());

  LogicalDumpOutput dump = f.Dump();
  EXPECT_EQ(dump.stats.files_dumped, 3u);
  EXPECT_EQ(dump.stats.dirs_dumped, 3u);  // /, /docs, /docs/sub

  LogicalRestoreOptions opt;
  auto restored = RunLogicalRestore(f.dst.get(), dump.stream, opt);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->stats.files_restored, 3u);
  EXPECT_EQ(restored->stats.dirs_created, 2u);  // root already exists

  f.ExpectFile(f.dst.get(), "/docs/a.bin", a);
  f.ExpectFile(f.dst.get(), "/docs/sub/b.txt", b);
  f.ExpectFile(f.dst.get(), "/big.bin", c);
  // Attributes carried over.
  auto dir_attr = f.dst->GetAttr(*f.dst->LookupPath("/docs"));
  ASSERT_TRUE(dir_attr.ok());
  EXPECT_EQ(dir_attr->mode, 0750);
}

TEST(DumpRestoreTest, SparseFilePreservedThroughDump) {
  DumpFixture f;
  auto inum = f.src->Create("/sparse", 0644);
  ASSERT_TRUE(inum.ok());
  const auto tail = f.Bytes(100, 5);
  ASSERT_TRUE(f.src->Write(*inum, 50 * kBlockSize, tail).ok());
  LogicalDumpOutput dump = f.Dump();
  // Holes are not written to the stream.
  EXPECT_EQ(dump.stats.data_blocks, 1u);
  EXPECT_EQ(dump.stats.holes_skipped, 50u);

  LogicalRestoreOptions opt;
  ASSERT_TRUE(RunLogicalRestore(f.dst.get(), dump.stream, opt).ok());
  auto restored_inum = f.dst->LookupPath("/sparse");
  ASSERT_TRUE(restored_inum.ok());
  auto attrs = f.dst->GetAttr(*restored_inum);
  EXPECT_EQ(attrs->size, 50 * kBlockSize + 100);
  std::vector<uint8_t> back;
  ASSERT_TRUE(f.dst->Read(*restored_inum, 50 * kBlockSize, 100, &back).ok());
  EXPECT_EQ(back, tail);
  // Restored holes consume no blocks.
  ASSERT_TRUE(f.dst->ConsistencyPoint().ok());
  auto reader = f.dst->LiveReader();
  auto ptrs = reader.PointerMap(*reader.ReadInode(*restored_inum));
  ASSERT_TRUE(ptrs.ok());
  size_t mapped = 0;
  for (uint32_t p : *ptrs) {
    mapped += p != 0 ? 1 : 0;
  }
  EXPECT_EQ(mapped, 1u);
}

TEST(DumpRestoreTest, HardLinksAndSymlinksSurvive) {
  DumpFixture f;
  const auto data = f.Bytes(5000, 9);
  f.MustCreate(f.src.get(), "/original", 0, 0);
  ASSERT_TRUE(f.src->Write(*f.src->LookupPath("/original"), 0, data).ok());
  ASSERT_TRUE(f.src->Mkdir("/d", 0755).ok());
  ASSERT_TRUE(f.src->Link("/original", "/d/alias").ok());
  ASSERT_TRUE(f.src->SymlinkAt("/original", "/ptr").ok());

  LogicalDumpOutput dump = f.Dump();
  EXPECT_EQ(dump.stats.files_dumped, 2u);  // hard link dumped once + symlink

  LogicalRestoreOptions opt;
  auto restored = RunLogicalRestore(f.dst.get(), dump.stream, opt);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->stats.hard_links_restored, 1u);
  EXPECT_EQ(restored->stats.symlinks_restored, 1u);

  auto orig = f.dst->LookupPath("/original");
  auto alias = f.dst->LookupPath("/d/alias");
  ASSERT_TRUE(orig.ok());
  ASSERT_TRUE(alias.ok());
  EXPECT_EQ(*orig, *alias) << "hard link must share the inode";
  EXPECT_EQ(f.dst->GetAttr(*orig)->nlink, 2);
  auto sym = f.dst->LookupPath("/ptr");
  ASSERT_TRUE(sym.ok());
  EXPECT_EQ(*f.dst->ReadSymlink(*sym), "/original");
}

TEST(DumpRestoreTest, EmptyFilesAndDirsRestored) {
  DumpFixture f;
  ASSERT_TRUE(f.src->Create("/empty", 0604).ok());
  ASSERT_TRUE(f.src->Mkdir("/hollow", 0711).ok());
  LogicalDumpOutput dump = f.Dump();
  LogicalRestoreOptions opt;
  ASSERT_TRUE(RunLogicalRestore(f.dst.get(), dump.stream, opt).ok());
  auto inum = f.dst->LookupPath("/empty");
  ASSERT_TRUE(inum.ok());
  EXPECT_EQ(f.dst->GetAttr(*inum)->size, 0u);
  EXPECT_EQ(f.dst->GetAttr(*inum)->mode, 0604);
  auto dir = f.dst->LookupPath("/hollow");
  ASSERT_TRUE(dir.ok());
  EXPECT_EQ(f.dst->GetAttr(*dir)->mode, 0711);
}

TEST(DumpRestoreTest, PortableAndKernelModesAgreeOnContent) {
  for (const auto mode : {LogicalRestoreOptions::Mode::kPortable,
                          LogicalRestoreOptions::Mode::kKernel}) {
    DumpFixture f;
    ASSERT_TRUE(f.src->Mkdir("/x", 0705).ok());
    const auto data = f.Bytes(20000, 4);
    f.MustCreate(f.src.get(), "/x/file", 0, 0);
    ASSERT_TRUE(f.src->Write(*f.src->LookupPath("/x/file"), 0, data).ok());
    LogicalDumpOutput dump = f.Dump();
    LogicalRestoreOptions opt;
    opt.mode = mode;
    auto restored = RunLogicalRestore(f.dst.get(), dump.stream, opt);
    ASSERT_TRUE(restored.ok());
    f.ExpectFile(f.dst.get(), "/x/file", data);
    auto dir = f.dst->GetAttr(*f.dst->LookupPath("/x"));
    EXPECT_EQ(dir->mode, 0705) << "both modes must end with correct perms";
  }
}

TEST(DumpRestoreTest, RestoreIntoSubdirectory) {
  DumpFixture f;
  const auto data = f.Bytes(100, 8);
  f.MustCreate(f.src.get(), "/file", 0, 0);
  ASSERT_TRUE(f.src->Write(*f.src->LookupPath("/file"), 0, data).ok());
  LogicalDumpOutput dump = f.Dump();
  ASSERT_TRUE(f.dst->Mkdir("/recovered", 0755).ok());
  LogicalRestoreOptions opt;
  opt.target_dir = "/recovered";
  ASSERT_TRUE(RunLogicalRestore(f.dst.get(), dump.stream, opt).ok());
  f.ExpectFile(f.dst.get(), "/recovered/file", data);
}

// --------------------------------------------------------------- subtree ---

TEST(DumpRestoreTest, SubtreeDump) {
  DumpFixture f;
  ASSERT_TRUE(f.src->Mkdir("/keep", 0755).ok());
  ASSERT_TRUE(f.src->Mkdir("/skip", 0755).ok());
  const auto kept = f.Bytes(5000, 10);
  f.MustCreate(f.src.get(), "/keep/file", 0, 0);
  ASSERT_TRUE(f.src->Write(*f.src->LookupPath("/keep/file"), 0, kept).ok());
  f.MustCreate(f.src.get(), "/skip/other", 3000, 11);

  LogicalDumpOutput dump = f.Dump(0, 0, "/keep");
  EXPECT_EQ(dump.stats.files_dumped, 1u);

  LogicalRestoreOptions opt;
  auto restored = RunLogicalRestore(f.dst.get(), dump.stream, opt);
  ASSERT_TRUE(restored.ok());
  // The dump root maps to the restore target.
  f.ExpectFile(f.dst.get(), "/file", kept);
  EXPECT_FALSE(f.dst->LookupPath("/skip").ok());
}

TEST(DumpRestoreTest, ExcludeFilterSkipsSubtrees) {
  DumpFixture f;
  ASSERT_TRUE(f.src->Mkdir("/src", 0755).ok());
  ASSERT_TRUE(f.src->Mkdir("/src/.cache", 0755).ok());
  f.MustCreate(f.src.get(), "/src/real.c", 2000, 12);
  f.MustCreate(f.src.get(), "/src/.cache/junk", 9000, 13);
  f.MustCreate(f.src.get(), "/core", 5000, 14);

  const std::string snap = "s";
  ASSERT_TRUE(f.src->CreateSnapshot(snap).ok());
  LogicalDumpOptions opt;
  opt.dump_time = f.env.now();
  opt.exclude = [](const std::string& name) {
    return name == ".cache" || name == "core";
  };
  auto reader = f.src->SnapshotReader(snap);
  auto dump = RunLogicalDump(*reader, opt);
  ASSERT_TRUE(dump.ok());
  EXPECT_EQ(dump->stats.files_dumped, 1u);

  LogicalRestoreOptions ropt;
  ASSERT_TRUE(RunLogicalRestore(f.dst.get(), dump->stream, ropt).ok());
  EXPECT_TRUE(f.dst->LookupPath("/src/real.c").ok());
  EXPECT_FALSE(f.dst->LookupPath("/src/.cache").ok());
  EXPECT_FALSE(f.dst->LookupPath("/core").ok());
}

// ----------------------------------------------------- stupidity recovery ---

TEST(DumpRestoreTest, SingleFileRestore) {
  DumpFixture f;
  ASSERT_TRUE(f.src->Mkdir("/users", 0755).ok());
  ASSERT_TRUE(f.src->Mkdir("/users/alice", 0700).ok());
  const auto precious = f.Bytes(7777, 20);
  f.MustCreate(f.src.get(), "/users/alice/thesis.tex", 0, 0);
  ASSERT_TRUE(f.src
                  ->Write(*f.src->LookupPath("/users/alice/thesis.tex"), 0,
                          precious)
                  .ok());
  f.MustCreate(f.src.get(), "/users/alice/notes.txt", 100, 21);
  f.MustCreate(f.src.get(), "/users/bob_file", 200, 22);

  LogicalDumpOutput dump = f.Dump();

  LogicalRestoreOptions opt;
  opt.select = {"/users/alice/thesis.tex"};
  auto restored = RunLogicalRestore(f.dst.get(), dump.stream, opt);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->stats.files_restored, 1u);
  f.ExpectFile(f.dst.get(), "/users/alice/thesis.tex", precious);
  // Nothing else was laid on the file system.
  EXPECT_FALSE(f.dst->LookupPath("/users/alice/notes.txt").ok());
  EXPECT_FALSE(f.dst->LookupPath("/users/bob_file").ok());
}

TEST(DumpRestoreTest, SubtreeSelectionRestoresDescendants) {
  DumpFixture f;
  ASSERT_TRUE(f.src->Mkdir("/a", 0755).ok());
  ASSERT_TRUE(f.src->Mkdir("/a/b", 0755).ok());
  f.MustCreate(f.src.get(), "/a/b/one", 1000, 30);
  f.MustCreate(f.src.get(), "/a/two", 1000, 31);
  f.MustCreate(f.src.get(), "/three", 1000, 32);

  LogicalDumpOutput dump = f.Dump();
  LogicalRestoreOptions opt;
  opt.select = {"/a"};
  auto restored = RunLogicalRestore(f.dst.get(), dump.stream, opt);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(f.dst->LookupPath("/a/b/one").ok());
  EXPECT_TRUE(f.dst->LookupPath("/a/two").ok());
  EXPECT_FALSE(f.dst->LookupPath("/three").ok());
}

// ------------------------------------------------------------ incremental ---

TEST(DumpRestoreTest, IncrementalChainWithDeletesAndRenames) {
  DumpFixture f;
  // Level 0 state.
  ASSERT_TRUE(f.src->Mkdir("/proj", 0755).ok());
  const auto keep = f.Bytes(4000, 40);
  const auto doomed = f.Bytes(3000, 41);
  const auto moved = f.Bytes(2000, 42);
  f.MustCreate(f.src.get(), "/proj/keep.c", 0, 0);
  ASSERT_TRUE(f.src->Write(*f.src->LookupPath("/proj/keep.c"), 0, keep).ok());
  f.MustCreate(f.src.get(), "/proj/doomed.c", 0, 0);
  ASSERT_TRUE(
      f.src->Write(*f.src->LookupPath("/proj/doomed.c"), 0, doomed).ok());
  f.MustCreate(f.src.get(), "/proj/moved.c", 0, 0);
  ASSERT_TRUE(
      f.src->Write(*f.src->LookupPath("/proj/moved.c"), 0, moved).ok());

  f.AdvanceTime(5 * kSecond);
  LogicalDumpOutput level0 = f.Dump(0);
  const int64_t level0_time = f.env.now();

  // Restore level 0 to the destination, carrying a symtable.
  RestoreSymtable symtable;
  {
    LogicalRestoreOptions opt;
    opt.symtable = &symtable;
    ASSERT_TRUE(RunLogicalRestore(f.dst.get(), level0.stream, opt).ok());
  }
  EXPECT_TRUE(f.dst->LookupPath("/proj/doomed.c").ok());

  // Mutate: advance time so changed inodes sort after the base.
  f.AdvanceTime(10 * kSecond);
  ASSERT_TRUE(f.src->Unlink("/proj/doomed.c").ok());
  ASSERT_TRUE(f.src->Rename("/proj/moved.c", "/proj/renamed.c").ok());
  const auto fresh = f.Bytes(6000, 43);
  f.MustCreate(f.src.get(), "/proj/new.c", 0, 0);
  ASSERT_TRUE(f.src->Write(*f.src->LookupPath("/proj/new.c"), 0, fresh).ok());

  // Level 1 incremental.
  LogicalDumpOutput level1 = f.Dump(1, level0_time);
  EXPECT_LT(level1.stream.size(), level0.stream.size());

  // Apply it with reconciliation.
  {
    LogicalRestoreOptions opt;
    opt.symtable = &symtable;
    opt.apply_moves_and_deletes = true;
    auto restored = RunLogicalRestore(f.dst.get(), level1.stream, opt);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_GE(restored->stats.files_deleted, 1u);
  }

  EXPECT_FALSE(f.dst->LookupPath("/proj/doomed.c").ok())
      << "deletion must propagate through the incremental";
  EXPECT_FALSE(f.dst->LookupPath("/proj/moved.c").ok());
  f.ExpectFile(f.dst.get(), "/proj/renamed.c", moved);
  f.ExpectFile(f.dst.get(), "/proj/new.c", fresh);
  f.ExpectFile(f.dst.get(), "/proj/keep.c", keep);
}

TEST(DumpRestoreTest, IncrementalDumpsOnlyChangedFiles) {
  DumpFixture f;
  for (int i = 0; i < 10; ++i) {
    f.MustCreate(f.src.get(), "/file" + std::to_string(i), 5000, 50 + i);
  }
  f.AdvanceTime(5 * kSecond);
  LogicalDumpOutput level0 = f.Dump(0);
  EXPECT_EQ(level0.stats.files_dumped, 10u);
  const int64_t base = f.env.now();

  f.AdvanceTime(10 * kSecond);
  // Touch two files.
  ASSERT_TRUE(
      f.src->Write(*f.src->LookupPath("/file3"), 100, f.Bytes(50, 99)).ok());
  ASSERT_TRUE(
      f.src->Write(*f.src->LookupPath("/file7"), 0, f.Bytes(50, 98)).ok());

  LogicalDumpOutput level1 = f.Dump(1, base);
  EXPECT_EQ(level1.stats.files_dumped, 2u);
  // usedinomap still records every inode in the subtree.
  EXPECT_EQ(level1.stats.inodes_in_subtree, level0.stats.inodes_in_subtree);
}

TEST(DumpRestoreTest, RenamedDirectoryKeepsUnchangedChildren) {
  DumpFixture f;
  ASSERT_TRUE(f.src->Mkdir("/olddir", 0755).ok());
  const auto payload = f.Bytes(3000, 60);
  f.MustCreate(f.src.get(), "/olddir/stable", 0, 0);
  ASSERT_TRUE(
      f.src->Write(*f.src->LookupPath("/olddir/stable"), 0, payload).ok());

  f.AdvanceTime(5 * kSecond);
  LogicalDumpOutput level0 = f.Dump(0);
  const int64_t base = f.env.now();
  RestoreSymtable symtable;
  {
    LogicalRestoreOptions opt;
    opt.symtable = &symtable;
    ASSERT_TRUE(RunLogicalRestore(f.dst.get(), level0.stream, opt).ok());
  }

  f.AdvanceTime(10 * kSecond);
  ASSERT_TRUE(f.src->Rename("/olddir", "/newdir").ok());

  LogicalDumpOutput level1 = f.Dump(1, base);
  // The unchanged child file is NOT on the incremental tape...
  EXPECT_EQ(level1.stats.files_dumped, 0u);
  {
    LogicalRestoreOptions opt;
    opt.symtable = &symtable;
    opt.apply_moves_and_deletes = true;
    auto restored = RunLogicalRestore(f.dst.get(), level1.stream, opt);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(restored->stats.dirs_renamed, 1u);
  }
  // ...yet it survives under the renamed directory.
  EXPECT_FALSE(f.dst->LookupPath("/olddir").ok());
  f.ExpectFile(f.dst.get(), "/newdir/stable", payload);
}

// -------------------------------------------------------------- corruption ---

TEST(DumpRestoreTest, CorruptionLosesOnlyTheAffectedFile) {
  DumpFixture f;
  std::map<std::string, std::vector<uint8_t>> contents;
  for (int i = 0; i < 12; ++i) {
    const std::string path = "/file" + std::to_string(i);
    contents[path] = f.Bytes(4 * kBlockSize, 70 + i);
    f.MustCreate(f.src.get(), path, 0, 0);
    ASSERT_TRUE(
        f.src->Write(*f.src->LookupPath(path), 0, contents[path]).ok());
  }
  LogicalDumpOutput dump = f.Dump();

  // Corrupt a region in the middle of the file section of the stream.
  std::vector<uint8_t> corrupted = dump.stream;
  const size_t hit = corrupted.size() / 2;
  for (size_t i = hit; i < hit + 2048 && i < corrupted.size(); ++i) {
    corrupted[i] ^= 0x5A;
  }

  LogicalRestoreOptions opt;
  auto restored = RunLogicalRestore(f.dst.get(), corrupted, opt);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_GT(restored->stats.corrupt_records_skipped +
                restored->stats.files_lost_to_corruption,
            0u);
  // Most files survive: corruption cost at most a couple of them.
  int survivors = 0;
  for (const auto& [path, want] : contents) {
    auto inum = f.dst->LookupPath(path);
    if (!inum.ok()) {
      continue;
    }
    std::vector<uint8_t> got;
    if (!f.dst->Read(*inum, 0, want.size(), &got).ok() || got != want) {
      continue;
    }
    ++survivors;
  }
  EXPECT_GE(survivors, 9) << "minor corruption must only lose nearby files";

  // A spliced header for one file: its presence bits still name 4 blocks,
  // but present_count (and the stream) carry none. Parse must reject it, so
  // exactly that file is lost and every other file restores intact.
  const std::string victim = "/file5";
  const Inum victim_inum = *f.src->LookupPath(victim);
  std::vector<uint8_t> spliced;
  for (const TapeCatalog::Entry& e : dump.catalog.entries()) {
    if (e.type != DumpRecordType::kInode || e.inum != victim_inum) {
      continue;
    }
    const auto header = std::span<const uint8_t>(dump.stream)
                            .subspan(e.offset, kDumpRecordSize);
    auto rec = DumpRecord::Parse(header);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    ASSERT_EQ(rec->present_count, 4u);
    rec->present_count = 0;
    rec->data_crc = Crc32c(std::span<const uint8_t>());
    auto crafted = rec->Serialize();
    ASSERT_TRUE(crafted.ok()) << crafted.status().ToString();
    spliced.assign(dump.stream.begin(),
                   dump.stream.begin() + static_cast<long>(e.offset));
    spliced.insert(spliced.end(), crafted->begin(), crafted->end());
    spliced.insert(spliced.end(),
                   dump.stream.begin() + static_cast<long>(e.offset + e.bytes),
                   dump.stream.end());
  }
  ASSERT_FALSE(spliced.empty()) << "victim's kInode record not cataloged";

  auto volume = Volume::Create(&f.env, "dst2", TestGeometry());
  auto fresh = std::move(Filesystem::Format(volume.get(), &f.env)).value();
  auto again = RunLogicalRestore(fresh.get(), spliced, opt);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_GT(again->stats.corrupt_records_skipped, 0u);
  EXPECT_FALSE(fresh->LookupPath(victim).ok())
      << "a header contradicting its own block map must not restore";
  for (const auto& [path, want] : contents) {
    if (path != victim) {
      f.ExpectFile(fresh.get(), path, want);
    }
  }
}

TEST(DumpRestoreTest, TruncatedStreamStillRestoresPrefix) {
  DumpFixture f;
  const auto early = f.Bytes(2 * kBlockSize, 80);
  f.MustCreate(f.src.get(), "/aaa_first", 0, 0);
  ASSERT_TRUE(f.src->Write(*f.src->LookupPath("/aaa_first"), 0, early).ok());
  f.MustCreate(f.src.get(), "/zzz_last", 64 * kBlockSize, 81);
  LogicalDumpOutput dump = f.Dump();

  std::vector<uint8_t> truncated(
      dump.stream.begin(),
      dump.stream.begin() + static_cast<long>(dump.stream.size() / 2));
  LogicalRestoreOptions opt;
  auto restored = RunLogicalRestore(f.dst.get(), truncated, opt);
  ASSERT_TRUE(restored.ok());
  f.ExpectFile(f.dst.get(), "/aaa_first", early);
}

TEST(DumpRestoreTest, VeryLongSymlinkTargetSurvives) {
  // Deep trees produce symlink targets longer than a 1 KB dump header can
  // embed; those must travel as data blocks (regression test).
  DumpFixture f;
  std::string deep = "";
  for (int i = 0; i < 30; ++i) {
    deep += "/" + std::string(20, static_cast<char>('a' + i % 26));
    ASSERT_TRUE(f.src->Mkdir(deep, 0755).ok());
  }
  ASSERT_GT(deep.size(), kMaxNameLen);
  ASSERT_TRUE(f.src->Create(deep + "/target", 0644).ok());
  auto link = f.src->SymlinkAt(deep + "/target", "/longlink");
  ASSERT_TRUE(link.ok());

  LogicalDumpOutput dump = f.Dump();
  LogicalRestoreOptions opt;
  auto restored = RunLogicalRestore(f.dst.get(), dump.stream, opt);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  auto inum = f.dst->LookupPath("/longlink");
  ASSERT_TRUE(inum.ok());
  auto target = f.dst->ReadSymlink(*inum);
  ASSERT_TRUE(target.ok());
  EXPECT_EQ(*target, deep + "/target");
}

// --------------------------------------------------------------- symtable ---

TEST(SymtableTest, SerializeRoundTrip) {
  RestoreSymtable t;
  t.Set(10, "/a/b");
  t.Set(20, "/c");
  auto back = RestoreSymtable::Deserialize(t.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back->PathOf(10), "/a/b");
  EXPECT_EQ(*back->PathOf(20), "/c");
  EXPECT_FALSE(back->PathOf(30).ok());
}

TEST(SymtableTest, RenamePrefix) {
  RestoreSymtable t;
  t.Set(1, "/old/x");
  t.Set(2, "/old/y/z");
  t.Set(3, "/other");
  t.RenamePrefix("/old/", "/new/");
  EXPECT_EQ(*t.PathOf(1), "/new/x");
  EXPECT_EQ(*t.PathOf(2), "/new/y/z");
  EXPECT_EQ(*t.PathOf(3), "/other");
}

TEST(SymtableTest, DropMissing) {
  RestoreSymtable t;
  t.Set(1, "/a");
  t.Set(2, "/b");
  Bitmap used(10);
  used.Set(1);
  auto dropped = t.DropMissing(used);
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(dropped[0].first, 2u);
  EXPECT_TRUE(t.Has(1));
  EXPECT_FALSE(t.Has(2));
}

// A randomized round-trip sweep across seeds: arbitrary trees must survive
// dump + restore exactly.
class DumpRoundTripProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DumpRoundTripProperty, RandomTreeRoundTrips) {
  DumpFixture f;
  Rng rng(GetParam());
  std::vector<std::string> dirs = {""};
  std::map<std::string, std::vector<uint8_t>> files;
  for (int i = 0; i < 25; ++i) {
    const std::string& parent = dirs[rng.Below(dirs.size())];
    if (rng.Chance(0.3)) {
      const std::string path = parent + "/d" + std::to_string(i);
      ASSERT_TRUE(f.src->Mkdir(path, 0700 + (i % 8)).ok());
      dirs.push_back(path);
    } else {
      const std::string path = parent + "/f" + std::to_string(i);
      std::vector<uint8_t> data(rng.Below(8 * kBlockSize) + 1);
      rng.Fill(data);
      auto inum = f.src->Create(path, 0600 + (i % 8));
      ASSERT_TRUE(inum.ok());
      uint64_t offset = rng.Chance(0.2) ? rng.Below(4) * kBlockSize : 0;
      ASSERT_TRUE(f.src->Write(*inum, offset, data).ok());
      std::vector<uint8_t> whole;
      EXPECT_TRUE(f.src->Read(*inum, 0, offset + data.size(), &whole).ok());
      files[path] = whole;
    }
  }
  LogicalDumpOutput dump = f.Dump();
  LogicalRestoreOptions opt;
  opt.mode = GetParam() % 2 == 0 ? LogicalRestoreOptions::Mode::kKernel
                                 : LogicalRestoreOptions::Mode::kPortable;
  auto restored = RunLogicalRestore(f.dst.get(), dump.stream, opt);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  for (const auto& [path, want] : files) {
    f.ExpectFile(f.dst.get(), path, want);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DumpRoundTripProperty,
                         ::testing::Values(11, 12, 13, 14, 15, 1999));

}  // namespace
}  // namespace bkup
