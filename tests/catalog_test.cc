// Direct tests for the restore catalog — the "desiccated file system" that
// resolves names to dumped inums without touching the target file system —
// and for its durable twin, the TapeCatalog offset journal: round-trips,
// torn tails, mid-entry truncation, bit flips, and the scan-the-stream
// oracle a loaded catalog must agree with.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/dump/catalog.h"
#include "src/dump/logical_dump.h"
#include "src/dump/logical_restore.h"
#include "src/fs/filesystem.h"
#include "src/util/random.h"

namespace bkup {
namespace {

DumpInodeAttrs DirAttrs() {
  DumpInodeAttrs a;
  a.type = InodeType::kDirectory;
  a.mode = 0755;
  return a;
}

// Builds:  / (2) ├── docs (10) │ ├── a.txt (20)
//                │ └── sub (11) ── b.txt (21)
//                └── link-to-a (20)   [hard link]
RestoreCatalog MakeCatalog() {
  RestoreCatalog c;
  c.AddDirectory(2, DirAttrs(),
                 {{10, InodeType::kDirectory, "docs"},
                  {20, InodeType::kFile, "link-to-a"}});
  c.AddDirectory(10, DirAttrs(),
                 {{20, InodeType::kFile, "a.txt"},
                  {11, InodeType::kDirectory, "sub"}});
  c.AddDirectory(11, DirAttrs(), {{21, InodeType::kFile, "b.txt"}});
  EXPECT_TRUE(c.Finalize().ok());
  return c;
}

TEST(CatalogTest, FindsRoot) {
  RestoreCatalog c = MakeCatalog();
  EXPECT_EQ(c.root(), 2u);
  EXPECT_EQ(c.num_directories(), 3u);
}

TEST(CatalogTest, NameiResolvesPaths) {
  RestoreCatalog c = MakeCatalog();
  EXPECT_EQ(*c.Namei("/"), 2u);
  EXPECT_EQ(*c.Namei("/docs"), 10u);
  EXPECT_EQ(*c.Namei("/docs/a.txt"), 20u);
  EXPECT_EQ(*c.Namei("/docs/sub/b.txt"), 21u);
  EXPECT_EQ(c.Namei("/nope").status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(c.Namei("/docs/a.txt/deeper").status().code(),
            ErrorCode::kNotFound);
}

TEST(CatalogTest, PathsOfHardLink) {
  RestoreCatalog c = MakeCatalog();
  auto paths = c.PathsOf(20);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0], "/docs/a.txt");
  EXPECT_EQ(paths[1], "/link-to-a");
  EXPECT_EQ(c.PathsOf(2), std::vector<std::string>{"/"});
  EXPECT_TRUE(c.PathsOf(999).empty());
}

TEST(CatalogTest, Descendants) {
  RestoreCatalog c = MakeCatalog();
  auto d = c.Descendants(10);
  // docs, a.txt, sub, b.txt (order: BFS)
  EXPECT_EQ(d.size(), 4u);
  EXPECT_EQ(d[0], 10u);
  auto leaf = c.Descendants(21);
  EXPECT_EQ(leaf, std::vector<Inum>{21});
}

// A selection holds each path's subtree and the directories above it.
TEST(CatalogTest, SelectAddsAncestors) {
  RestoreCatalog c = MakeCatalog();
  const std::vector<std::string> leaf = {"/docs/sub/b.txt"};
  EXPECT_EQ(*c.Select(leaf), (std::set<Inum>{2, 10, 11, 21}));
  const std::vector<std::string> two = {"/docs/sub", "/link-to-a"};
  EXPECT_EQ(*c.Select(two), (std::set<Inum>{2, 10, 11, 20, 21}));
  const std::vector<std::string> root = {"/"};
  EXPECT_EQ(*c.Select(root), (std::set<Inum>{2, 10, 11, 20, 21}));
  const std::vector<std::string> missing = {"/docs", "/nope"};
  EXPECT_EQ(c.Select(missing).status().code(), ErrorCode::kNotFound);
}

TEST(CatalogTest, TopDownVisitsParentsFirst) {
  RestoreCatalog c = MakeCatalog();
  std::vector<std::pair<Inum, std::string>> seen;
  c.ForEachDirTopDown([&seen](Inum inum, const std::string& path) {
    seen.emplace_back(inum, path);
  });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<Inum, std::string>{2, "/"}));
  EXPECT_EQ(seen[1], (std::pair<Inum, std::string>{10, "/docs"}));
  EXPECT_EQ(seen[2], (std::pair<Inum, std::string>{11, "/docs/sub"}));
}

TEST(CatalogTest, MultipleRootsRejected) {
  RestoreCatalog c;
  c.AddDirectory(2, DirAttrs(), {});
  c.AddDirectory(9, DirAttrs(), {});
  EXPECT_EQ(c.Finalize().code(), ErrorCode::kCorruption);
}

TEST(CatalogTest, NameiBeforeFinalizeFails) {
  RestoreCatalog c;
  c.AddDirectory(2, DirAttrs(), {});
  EXPECT_EQ(c.Namei("/").status().code(), ErrorCode::kFailedPrecondition);
}

TEST(CatalogTest, DirAttrsAndEntriesAccessors) {
  RestoreCatalog c = MakeCatalog();
  auto attrs = c.DirAttrs(10);
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs->mode, 0755);
  auto entries = c.DirEntries(10);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u);
  EXPECT_FALSE(c.DirAttrs(20).ok()) << "files are not catalog directories";
  EXPECT_TRUE(c.HasDirectory(11));
  EXPECT_FALSE(c.HasDirectory(21));
}

TEST(CatalogTest, SubtreeDumpRootIsNotInum2) {
  // A subtree dump's root keeps its original inum; the catalog must still
  // identify it as the root (nobody references it).
  RestoreCatalog c;
  c.AddDirectory(57, DirAttrs(), {{80, InodeType::kFile, "x"}});
  ASSERT_TRUE(c.Finalize().ok());
  EXPECT_EQ(c.root(), 57u);
  EXPECT_EQ(*c.Namei("/x"), 80u);
}

// ----------------------------------------------------------- StreamRange ---

TEST(StreamRangeTest, CoalesceMergesAdjacentAndOverlapping) {
  std::vector<StreamRange> r = {{0, 10}, {10, 20}, {25, 30}, {28, 40}};
  CoalesceRanges(&r);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], (StreamRange{0, 20}));
  EXPECT_EQ(r[1], (StreamRange{25, 40}));
  std::vector<StreamRange> empty;
  CoalesceRanges(&empty);
  EXPECT_TRUE(empty.empty());
}

// ----------------------------------------------------- TapeCatalog journal ---

TapeCatalog MakeTapeCatalog(size_t n) {
  TapeCatalog c;
  uint64_t off = 0;
  c.Add({DumpRecordType::kDirectory, 2, off, 2 * kDumpRecordSize});
  off += 2 * kDumpRecordSize;
  for (size_t i = 1; i < n; ++i) {
    c.Add({DumpRecordType::kInode, static_cast<Inum>(100 + i), off,
           kDumpRecordSize + kBlockSize});
    off += kDumpRecordSize + kBlockSize;
  }
  return c;
}

TEST(TapeCatalogTest, SerializeLoadRoundTrip) {
  TapeCatalog c = MakeTapeCatalog(10);
  std::vector<uint8_t> image = c.Serialize(/*checkpoint_every=*/4);
  TapeCatalog::LoadStats stats;
  auto loaded = TapeCatalog::Load(image, &stats);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->entries(), c.entries());
  EXPECT_FALSE(stats.truncated);
  EXPECT_EQ(stats.entries_loaded, 10u);
  EXPECT_EQ(stats.entries_dropped, 0u);
  EXPECT_GE(stats.checkpoints_seen, 2u);
  EXPECT_EQ(loaded->stream_end(), c.stream_end());
}

TEST(TapeCatalogTest, WriterIncrementalMatchesSerialize) {
  TapeCatalog c = MakeTapeCatalog(10);
  TapeCatalogWriter w(/*checkpoint_every=*/4);
  for (const auto& e : c.entries()) w.Add(e);
  w.Finish();
  EXPECT_EQ(w.image(), c.Serialize(4));
  EXPECT_GE(w.checkpoints_written(), 2u);
}

// Any truncation point must yield either a clean Corruption status or a
// checkpointed prefix of the original entries — never garbage, never a
// crash. This is the loader's whole contract, so sweep every cut.
TEST(TapeCatalogTest, EveryTruncationPointIsPrefixOrError) {
  TapeCatalog c = MakeTapeCatalog(10);
  std::vector<uint8_t> image = c.Serialize(/*checkpoint_every=*/4);
  for (size_t cut = 0; cut < image.size(); ++cut) {
    std::vector<uint8_t> torn(image.begin(), image.begin() + cut);
    TapeCatalog::LoadStats stats;
    auto loaded = TapeCatalog::Load(torn, &stats);
    if (!loaded.ok()) {
      EXPECT_EQ(loaded.status().code(), ErrorCode::kCorruption) << cut;
      continue;
    }
    // A cut landing exactly on a checkpoint boundary is a clean (shorter)
    // prefix; anywhere else the loader must notice the tear.
    if (stats.entries_loaded < c.entries().size()) {
      EXPECT_TRUE(stats.truncated || stats.entries_dropped == 0) << cut;
    }
    ASSERT_LE(stats.entries_loaded, c.entries().size());
    for (size_t i = 0; i < stats.entries_loaded; ++i) {
      EXPECT_EQ(loaded->entries()[i], c.entries()[i]) << cut;
    }
  }
}

TEST(TapeCatalogTest, TornTailDropsOnlyPastLastCheckpoint) {
  TapeCatalog c = MakeTapeCatalog(10);
  std::vector<uint8_t> image = c.Serialize(/*checkpoint_every=*/4);
  // Chop the final seal (21-byte checkpoint frame): entries 9 and 10 were
  // staged but never sealed, so the loader keeps exactly the first 8.
  image.resize(image.size() - 21);
  TapeCatalog::LoadStats stats;
  auto loaded = TapeCatalog::Load(image, &stats);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(stats.entries_loaded, 8u);
  EXPECT_EQ(stats.entries_dropped, 2u);
}

TEST(TapeCatalogTest, MidEntryTruncationKeepsSealedPrefix) {
  TapeCatalog c = MakeTapeCatalog(10);
  std::vector<uint8_t> image = c.Serialize(/*checkpoint_every=*/4);
  // Cut 10 bytes into the second unsealed entry frame (frame = 22 bytes):
  // header(8) + 4*22 + cp(21) + 4*22 + cp(21) puts the cut past checkpoint
  // #2 (8 entries sealed) and inside entry #10.
  image.resize(8 + 4 * 22 + 21 + 4 * 22 + 21 + 22 + 10);
  TapeCatalog::LoadStats stats;
  auto loaded = TapeCatalog::Load(image, &stats);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(stats.entries_loaded, 8u);
  EXPECT_EQ(stats.entries_dropped, 1u) << "entry 9 parsed whole but unsealed";
}

TEST(TapeCatalogTest, BitFlipInFirstSealedRegionIsCorruption) {
  TapeCatalog c = MakeTapeCatalog(10);
  std::vector<uint8_t> image = c.Serialize(/*checkpoint_every=*/4);
  image[8 + 22 + 3] ^= 0x40;  // inside entry #2, before any checkpoint
  auto loaded = TapeCatalog::Load(image);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), ErrorCode::kCorruption);
}

TEST(TapeCatalogTest, BitFlipPastFirstCheckpointTruncatesThere) {
  TapeCatalog c = MakeTapeCatalog(10);
  std::vector<uint8_t> image = c.Serialize(/*checkpoint_every=*/4);
  image[8 + 4 * 22 + 21 + 5] ^= 0x01;  // inside entry #5 (second region)
  TapeCatalog::LoadStats stats;
  auto loaded = TapeCatalog::Load(image, &stats);
  // The flip lands in an entry's payload bytes, so parsing still succeeds
  // but checkpoint #2's full-prefix CRC fails — only region one survives.
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(stats.entries_loaded, 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(loaded->entries()[i], c.entries()[i]);
  }
}

TEST(TapeCatalogTest, BadHeaderIsCorruption) {
  TapeCatalog c = MakeTapeCatalog(4);
  std::vector<uint8_t> good = c.Serialize(4);

  std::vector<uint8_t> bad_magic = good;
  bad_magic[0] ^= 0xFF;
  EXPECT_EQ(TapeCatalog::Load(bad_magic).status().code(),
            ErrorCode::kCorruption);

  std::vector<uint8_t> bad_version = good;
  bad_version[4] ^= 0xFF;
  EXPECT_EQ(TapeCatalog::Load(bad_version).status().code(),
            ErrorCode::kCorruption);

  EXPECT_EQ(TapeCatalog::Load({}).status().code(), ErrorCode::kCorruption);
}

// ------------------------------------------- journal vs. stream (oracle) ---

VolumeGeometry CatalogTestGeometry() {
  VolumeGeometry geom;
  geom.num_raid_groups = 1;
  geom.disks_per_group = 4;
  geom.blocks_per_disk = 2048;
  return geom;
}

// Dumps a small seeded tree and returns the dump output (stream + catalog).
LogicalDumpOutput DumpSeededTree(SimEnvironment* env,
                                 std::unique_ptr<Volume>* volume,
                                 std::unique_ptr<Filesystem>* fs) {
  *volume = Volume::Create(env, "src", CatalogTestGeometry());
  *fs = std::move(Filesystem::Format(volume->get(), env)).value();
  Filesystem* f = fs->get();
  EXPECT_TRUE(f->Mkdir("/docs", 0755).ok());
  EXPECT_TRUE(f->Mkdir("/docs/sub", 0755).ok());
  Rng rng(7);
  for (const char* path : {"/a.txt", "/docs/b.txt", "/docs/sub/c.txt"}) {
    auto inum = f->Create(path, 0644);
    EXPECT_TRUE(inum.ok());
    std::vector<uint8_t> data(3 * kBlockSize + 100);
    rng.Fill(data);
    EXPECT_TRUE(f->Write(*inum, 0, data).ok());
  }
  EXPECT_TRUE(f->CreateSnapshot("snap").ok());
  auto reader = f->SnapshotReader("snap");
  EXPECT_TRUE(reader.ok());
  LogicalDumpOptions opt;
  opt.volume_name = "src";
  opt.snapshot_name = "snap";
  auto out = RunLogicalDump(*reader, opt);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return std::move(out).value();
}

TEST(TapeCatalogTest, LoadedJournalMatchesStreamScanOracle) {
  SimEnvironment env;
  std::unique_ptr<Volume> volume;
  std::unique_ptr<Filesystem> fs;
  LogicalDumpOutput dump = DumpSeededTree(&env, &volume, &fs);

  auto loaded = TapeCatalog::Load(dump.catalog_image);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto scanned = TapeCatalog::FromStream(dump.stream);
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();

  EXPECT_EQ(loaded->entries(), scanned->entries());
  EXPECT_EQ(loaded->entries(), dump.catalog.entries());
  EXPECT_FALSE(loaded->empty());
  EXPECT_GT(loaded->directory_end(), 0u);
  EXPECT_LT(loaded->directory_end(), loaded->stream_end());
  EXPECT_LE(loaded->stream_end(), dump.stream.size());
}

TEST(TapeCatalogTest, RestoreRangesCoverOneFileCheaply) {
  SimEnvironment env;
  std::unique_ptr<Volume> volume;
  std::unique_ptr<Filesystem> fs;
  LogicalDumpOutput dump = DumpSeededTree(&env, &volume, &fs);
  auto catalog = TapeCatalog::Load(dump.catalog_image);
  ASSERT_TRUE(catalog.ok());

  auto names = BuildRestoreCatalog(dump.stream);
  ASSERT_TRUE(names.ok()) << names.status().ToString();
  auto inum = names->Namei("/docs/sub/c.txt");
  ASSERT_TRUE(inum.ok());

  size_t files_seen = 0;
  auto ranges = catalog->RestoreRanges(
      [&](const TapeCatalog::Entry& file, size_t records) {
        EXPECT_EQ(file.type, DumpRecordType::kInode);
        EXPECT_GE(records, 1u);
        ++files_seen;
        return file.inum == *inum;
      });
  EXPECT_GT(files_seen, 1u) << "the plan offers every file once";
  ASSERT_FALSE(ranges.empty());
  // The prologue comes first, then the one file's extent.
  EXPECT_EQ(ranges.front().begin, 0u);
  EXPECT_GE(ranges.front().end, catalog->directory_end());
  uint64_t total = 0, last_end = 0;
  for (const auto& r : ranges) {
    EXPECT_GE(r.begin, last_end) << "ranges must ascend, disjoint";
    last_end = r.end;
    total += r.size();
  }
  EXPECT_LT(total, dump.stream.size()) << "one file must cost < full stream";
  // Every record of the wanted inum lies inside the ranges.
  size_t records = 0;
  for (const auto& rec : catalog->entries()) {
    if (rec.inum != *inum) {
      continue;
    }
    ++records;
    bool covered = false;
    for (const auto& r : ranges) {
      covered |= rec.offset >= r.begin && rec.offset + rec.bytes <= r.end;
    }
    EXPECT_TRUE(covered) << "record at " << rec.offset;
  }
  EXPECT_GE(records, 1u) << "the file's records are in the catalog";
}

// A damaged directory is skipped by the restore; the name catalog a
// budgeted single-file restore prices its reads with must skip it too, or
// that restore fails where the unbudgeted one succeeds. Two damages: a
// payload that fails its CRC, and a header that fails its own, which every
// reader must step over to the next valid header.
TEST(TapeCatalogTest, CorruptDirectoryOffThePathStillResolves) {
  SimEnvironment env;
  std::unique_ptr<Volume> volume;
  std::unique_ptr<Filesystem> fs;
  LogicalDumpOutput dump = DumpSeededTree(&env, &volume, &fs);
  auto catalog = TapeCatalog::Load(dump.catalog_image);
  ASSERT_TRUE(catalog.ok());
  auto clean = BuildRestoreCatalog(dump.stream);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  auto sub = clean->Namei("/docs/sub");
  ASSERT_TRUE(sub.ok());
  uint64_t sub_offset = 0;
  for (const TapeCatalog::Entry& e : catalog->entries()) {
    if (e.type == DumpRecordType::kDirectory && e.inum == *sub) {
      sub_offset = e.offset;
    }
  }
  ASSERT_GT(sub_offset, 0u);

  struct Patch {
    const char* name;
    bool header;  // damages the header, not the payload
    void (*apply)(uint8_t* record);  // record: /docs/sub's header
  };
  const Patch patches[] = {
      {"payload entry count", false,
       [](uint8_t* record) { std::fill_n(record + kDumpRecordSize, 4, 0xFF); }},
      {"header byte 100", true, [](uint8_t* record) { record[100] ^= 0xFF; }},
  };
  for (const Patch& patch : patches) {
    SCOPED_TRACE(patch.name);
    std::vector<uint8_t> stream = dump.stream;
    patch.apply(stream.data() + sub_offset);

    auto target_volume = Volume::Create(&env, "dst", CatalogTestGeometry());
    auto target =
        std::move(Filesystem::Format(target_volume.get(), &env)).value();
    LogicalRestoreOptions options;
    options.select = {"/a.txt"};
    options.catalog = &*catalog;
    auto restored = RunLogicalRestore(target.get(), stream, options);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(restored->stats.files_restored, 1u);
    EXPECT_GT(restored->stats.corrupt_records_skipped, 0u);

    auto names = BuildRestoreCatalog(stream);
    ASSERT_TRUE(names.ok()) << names.status().ToString();
    auto a = names->Namei("/a.txt");
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    EXPECT_EQ(*a, *clean->Namei("/a.txt"));
    EXPECT_EQ(names->Namei("/docs/sub/c.txt").status().code(),
              ErrorCode::kNotFound);

    // The scan oracle indexes every record but the damaged header's.
    auto scanned = TapeCatalog::FromStream(stream);
    ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
    std::vector<TapeCatalog::Entry> expected = catalog->entries();
    if (patch.header) {
      std::erase_if(expected, [&](const TapeCatalog::Entry& e) {
        return e.offset == sub_offset;
      });
    }
    EXPECT_EQ(scanned->entries(), expected);
  }
}

// A logical dump seals its catalog every 64 entries, so a catalog whose
// final seal is torn still loads every entry up to the last multiple of 64.
TEST(TapeCatalogTest, DumpCatalogSealsEvery64Entries) {
  SimEnvironment env;
  std::unique_ptr<Volume> volume =
      Volume::Create(&env, "src", CatalogTestGeometry());
  std::unique_ptr<Filesystem> fs =
      std::move(Filesystem::Format(volume.get(), &env)).value();
  const std::vector<uint8_t> data(100, 0x5A);
  for (int i = 0; i < 100; ++i) {
    auto inum = fs->Create("/f" + std::to_string(i), 0644);
    ASSERT_TRUE(inum.ok());
    ASSERT_TRUE(fs->Write(*inum, 0, data).ok());
  }
  ASSERT_TRUE(fs->CreateSnapshot("snap").ok());
  auto reader = fs->SnapshotReader("snap");
  ASSERT_TRUE(reader.ok());
  LogicalDumpOptions opt;
  opt.volume_name = "src";
  opt.snapshot_name = "snap";
  auto dump = RunLogicalDump(*reader, opt);
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  const uint64_t entries = dump->catalog.entries().size();
  ASSERT_GT(entries, 64u);
  ASSERT_NE(entries % 64, 0u) << "the final seal must cover a partial batch";

  TapeCatalog::LoadStats stats;
  ASSERT_TRUE(TapeCatalog::Load(dump->catalog_image, &stats).ok());
  EXPECT_EQ(stats.entries_loaded, entries);
  EXPECT_EQ(stats.checkpoints_seen, (entries + 63) / 64);

  std::vector<uint8_t> torn = dump->catalog_image;
  torn.pop_back();  // breaks the final checkpoint's CRC
  ASSERT_TRUE(TapeCatalog::Load(torn, &stats).ok());
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(stats.entries_loaded, entries - entries % 64);
}

}  // namespace
}  // namespace bkup
