// The restore catalog: the "desiccated file system" the paper describes.
//
// "Restore reads the directories from tape into one large file ... So, when
// a user asks for a file, it can execute its own namei ... without ever
// laying this directory structure on the file system."
//
// The catalog holds the dumped directories (attributes + entries) keyed by
// dumped inum, resolves dump-relative paths with its own namei, enumerates
// hard-link paths, and walks the tree top-down for directory creation.
// The durable twin, `TapeCatalog`, extends that record into the recovery
// authority: every stream record's byte offset and extent, serialized as an
// append-only journal of entry frames sealed by CRC checkpoints. A restore
// killed mid-stream diffs the catalog against the partially-restored tree
// and replays only the missing suffix; a single-file restore turns a name
// into the exact byte ranges to pull off the media.
#ifndef BKUP_DUMP_CATALOG_H_
#define BKUP_DUMP_CATALOG_H_

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/dump/format.h"
#include "src/util/status.h"

namespace bkup {

class RestoreCatalog {
 public:
  void AddDirectory(Inum inum, const DumpInodeAttrs& attrs,
                    std::vector<DirEntry> entries);

  // Must be called after all directories are added; identifies the dump
  // root (the directory that is nobody's child) and builds parent links.
  Status Finalize();

  Inum root() const { return root_; }
  size_t num_directories() const { return dirs_.size(); }

  bool HasDirectory(Inum inum) const { return dirs_.count(inum) != 0; }
  Result<DumpInodeAttrs> DirAttrs(Inum inum) const;
  Result<std::vector<DirEntry>> DirEntries(Inum inum) const;

  // Catalog namei: resolves a dump-root-relative path ("/a/b/c"). "/" is the
  // dump root itself.
  Result<Inum> Namei(const std::string& path) const;

  // All dump-relative paths referring to `inum` (several for hard links),
  // in deterministic order. Empty if the inum appears in no dumped
  // directory.
  std::vector<std::string> PathsOf(Inum inum) const;

  // The set of inums reachable below `inum` (inclusive), for subtree
  // selection in partial restores. Non-directory inums yield {inum}.
  std::vector<Inum> Descendants(Inum inum) const;

  // Visits every catalog directory top-down (parents before children) with
  // its dump-relative path.
  void ForEachDirTopDown(
      const std::function<void(Inum, const std::string&)>& fn) const;

 private:
  struct DirInfo {
    DumpInodeAttrs attrs;
    std::vector<DirEntry> entries;
  };

  std::string PathOfDir(Inum inum) const;

  std::map<Inum, DirInfo> dirs_;
  // child inum -> list of (parent dir inum, name); files may have several.
  std::map<Inum, std::vector<std::pair<Inum, std::string>>> links_;
  Inum root_ = kInvalidInum;
  bool finalized_ = false;
};

// A half-open byte range [begin, end) of a dump stream.
struct StreamRange {
  uint64_t begin = 0;
  uint64_t end = 0;

  uint64_t size() const { return end - begin; }
  bool operator==(const StreamRange&) const = default;
};

// Coalesces adjacent/overlapping ranges of a sorted range list in place.
void CoalesceRanges(std::vector<StreamRange>* ranges);

// Offset index of one dump stream: for every kDirectory/kInode/kAddr record,
// where its extent (header + payload) lies on the stream. Built by the dump
// engine as it emits records, persisted as a checkpointed journal, and used
// by restores to seek instead of scan.
class TapeCatalog {
 public:
  struct Entry {
    DumpRecordType type = DumpRecordType::kEnd;
    Inum inum = kInvalidInum;
    uint64_t offset = 0;  // stream offset of the 1 KB record header
    uint64_t bytes = 0;   // header + padded payload

    bool operator==(const Entry&) const = default;
  };

  // How a serialized image loaded: entries recovered, frames dropped past
  // the last valid checkpoint, and whether the tail was torn at all.
  struct LoadStats {
    uint64_t entries_loaded = 0;
    uint64_t entries_dropped = 0;
    uint64_t checkpoints_seen = 0;
    bool truncated = false;
  };

  void Add(const Entry& entry) { entries_.push_back(entry); }

  const std::vector<Entry>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }

  // End of the stream extent the catalog covers (offset past the last
  // indexed record; the kEnd record and padding may follow).
  uint64_t stream_end() const;

  // Offset where the file section begins: the first kInode record, or
  // stream_end() for a dump with no files. The prologue [0, directory_end())
  // — tape header, inode maps, directory records — is what every restore
  // (full, resumed, or single-file) must consume.
  uint64_t directory_end() const;

  // Index of the first file-section entry, entries().size() if none.
  size_t first_file_entry() const;

  // The contiguous record extent of `inum`'s file data: its kInode record
  // and the kAddr continuations that follow it. Empty if the inum has no
  // file records (a directory, or not in this dump).
  std::vector<Entry> RecordsOf(Inum inum) const;

  // Byte ranges a restore of exactly `wanted` needs off the media: the
  // prologue plus each wanted inum's record extents, coalesced and in
  // ascending order. The heart of O(file) single-file restore.
  std::vector<StreamRange> RestoreRanges(std::span<const Inum> wanted) const;

  // Serializes the whole index as one journal image (entry frames with a
  // checkpoint frame every `checkpoint_every` entries and one final seal).
  std::vector<uint8_t> Serialize(uint32_t checkpoint_every = 64) const;

  // Tolerant loader: parses a journal image, truncating at the last valid
  // checkpoint on a torn tail or mid-entry truncation. Fails with
  // Corruption only when not even one checkpointed prefix is intact (bad
  // magic, bad version, or a bit flip inside the first sealed region).
  static Result<TapeCatalog> Load(std::span<const uint8_t> image,
                                  LoadStats* stats = nullptr);

  // Rebuilds the index by scanning a dump stream with DumpStreamReader:
  // the test oracle Load-ed catalogs are checked against (no production
  // code calls it). A damaged header is stepped over as the restore steps
  // over it, and a truncated tail is left out. Corruption if the stream
  // does not start with a tape header.
  static Result<TapeCatalog> FromStream(std::span<const uint8_t> stream);

 private:
  std::vector<Entry> entries_;
};

// Incremental journal writer: the dump engine appends one entry per emitted
// record; every `checkpoint_every` entries the image gains a checkpoint
// frame (CRC over the whole preceding image), so a torn tail costs at most
// one cadence of entries. Finish() seals the remainder.
class TapeCatalogWriter {
 public:
  explicit TapeCatalogWriter(uint32_t checkpoint_every = 64);

  void Add(const TapeCatalog::Entry& entry);
  // Seals unsealed entries with a final checkpoint frame.
  void Finish();

  const std::vector<uint8_t>& image() const { return image_; }
  std::vector<uint8_t> TakeImage() { return std::move(image_); }
  uint64_t checkpoints_written() const { return checkpoints_written_; }

 private:
  void Checkpoint();

  uint32_t checkpoint_every_;
  std::vector<uint8_t> image_;
  uint64_t entries_ = 0;
  uint64_t entries_sealed_ = 0;
  uint64_t stream_end_ = 0;
  uint64_t checkpoints_written_ = 0;
};

// Builds the in-memory directory catalog from a dump stream's prologue
// (tape header, inode maps, directory records) without touching any file
// system — the namei side of a catalog-driven single-file restore. It
// reads the stream as the restore does: a damaged header is stepped over,
// and a directory whose payload fails its CRC is left out.
Result<RestoreCatalog> BuildRestoreCatalog(std::span<const uint8_t> stream);

}  // namespace bkup

#endif  // BKUP_DUMP_CATALOG_H_
