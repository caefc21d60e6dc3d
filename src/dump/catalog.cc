#include "src/dump/catalog.h"

#include <algorithm>
#include <deque>

#include "src/fs/layout.h"
#include "src/fs/reader.h"
#include "src/util/checksum.h"
#include "src/util/serdes.h"

namespace bkup {

void RestoreCatalog::AddDirectory(Inum inum, const DumpInodeAttrs& attrs,
                                  std::vector<DirEntry> entries) {
  DirInfo info;
  info.attrs = attrs;
  info.entries = std::move(entries);
  dirs_[inum] = std::move(info);
  finalized_ = false;
}

Status RestoreCatalog::Finalize() {
  links_.clear();
  for (const auto& [dir, info] : dirs_) {
    for (const DirEntry& e : info.entries) {
      links_[e.inum].emplace_back(dir, e.name);
    }
  }
  // The root is the directory that no other directory references.
  root_ = kInvalidInum;
  for (const auto& [dir, info] : dirs_) {
    if (links_.count(dir) == 0) {
      if (root_ != kInvalidInum) {
        return Corruption("catalog has multiple roots");
      }
      root_ = dir;
    }
  }
  if (root_ == kInvalidInum && !dirs_.empty()) {
    return Corruption("catalog has no root (directory cycle?)");
  }
  finalized_ = true;
  return Status::Ok();
}

Result<DumpInodeAttrs> RestoreCatalog::DirAttrs(Inum inum) const {
  auto it = dirs_.find(inum);
  if (it == dirs_.end()) {
    return NotFound("directory not in catalog");
  }
  return it->second.attrs;
}

Result<std::vector<DirEntry>> RestoreCatalog::DirEntries(Inum inum) const {
  auto it = dirs_.find(inum);
  if (it == dirs_.end()) {
    return NotFound("directory not in catalog");
  }
  return it->second.entries;
}

Result<Inum> RestoreCatalog::Namei(const std::string& path) const {
  if (!finalized_) {
    return FailedPrecondition("catalog not finalized");
  }
  BKUP_ASSIGN_OR_RETURN(std::vector<std::string> parts, SplitPath(path));
  Inum current = root_;
  for (const std::string& part : parts) {
    auto it = dirs_.find(current);
    if (it == dirs_.end()) {
      return NotFound("'" + part + "': parent directory not on this tape");
    }
    const auto& entries = it->second.entries;
    const auto e =
        std::find_if(entries.begin(), entries.end(),
                     [&part](const DirEntry& d) { return d.name == part; });
    if (e == entries.end()) {
      return NotFound("'" + part + "' not found on this tape");
    }
    current = e->inum;
  }
  return current;
}

std::string RestoreCatalog::PathOfDir(Inum inum) const {
  if (inum == root_) {
    return "/";
  }
  auto it = links_.find(inum);
  if (it == links_.end() || it->second.empty()) {
    return "";
  }
  const auto& [parent, name] = it->second.front();
  const std::string prefix = PathOfDir(parent);
  if (prefix.empty()) {
    return "";
  }
  return prefix == "/" ? "/" + name : prefix + "/" + name;
}

std::vector<std::string> RestoreCatalog::PathsOf(Inum inum) const {
  std::vector<std::string> out;
  if (inum == root_) {
    out.push_back("/");
    return out;
  }
  auto it = links_.find(inum);
  if (it == links_.end()) {
    return out;
  }
  for (const auto& [parent, name] : it->second) {
    const std::string prefix = PathOfDir(parent);
    if (prefix.empty()) {
      continue;
    }
    out.push_back(prefix == "/" ? "/" + name : prefix + "/" + name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Inum> RestoreCatalog::Descendants(Inum inum) const {
  std::vector<Inum> out;
  std::deque<Inum> queue{inum};
  while (!queue.empty()) {
    const Inum cur = queue.front();
    queue.pop_front();
    out.push_back(cur);
    auto it = dirs_.find(cur);
    if (it == dirs_.end()) {
      continue;
    }
    for (const DirEntry& e : it->second.entries) {
      queue.push_back(e.inum);
    }
  }
  return out;
}

void RestoreCatalog::ForEachDirTopDown(
    const std::function<void(Inum, const std::string&)>& fn) const {
  if (root_ == kInvalidInum) {
    return;
  }
  std::deque<std::pair<Inum, std::string>> queue{{root_, "/"}};
  while (!queue.empty()) {
    auto [inum, path] = queue.front();
    queue.pop_front();
    fn(inum, path);
    auto it = dirs_.find(inum);
    if (it == dirs_.end()) {
      continue;
    }
    for (const DirEntry& e : it->second.entries) {
      if (e.type == InodeType::kDirectory && dirs_.count(e.inum) != 0) {
        queue.emplace_back(
            e.inum, path == "/" ? "/" + e.name : path + "/" + e.name);
      }
    }
  }
}

// ----------------------------------------------------------- TapeCatalog ---

namespace {

// Journal image layout: magic, version, then a frame sequence. Entry frames
// carry one record's (type, inum, offset, bytes); a checkpoint frame seals
// every frame before it with a CRC over the whole image prefix, so a loader
// can prove exactly how far the journal is intact.
constexpr uint32_t kCatalogMagic = 0xCA7A1099;
constexpr uint32_t kCatalogVersion = 1;
constexpr uint8_t kEntryFrame = 1;
constexpr uint8_t kCheckpointFrame = 2;

}  // namespace

void CoalesceRanges(std::vector<StreamRange>* ranges) {
  size_t kept = 0;
  for (const StreamRange& r : *ranges) {
    if (r.begin >= r.end) {
      continue;
    }
    if (kept > 0 && r.begin <= (*ranges)[kept - 1].end) {
      (*ranges)[kept - 1].end = std::max((*ranges)[kept - 1].end, r.end);
    } else {
      (*ranges)[kept++] = r;
    }
  }
  ranges->resize(kept);
}

uint64_t TapeCatalog::stream_end() const {
  uint64_t end = 0;
  for (const Entry& e : entries_) {
    end = std::max(end, e.offset + e.bytes);
  }
  return end;
}

size_t TapeCatalog::first_file_entry() const {
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].type == DumpRecordType::kInode ||
        entries_[i].type == DumpRecordType::kAddr) {
      return i;
    }
  }
  return entries_.size();
}

uint64_t TapeCatalog::directory_end() const {
  const size_t i = first_file_entry();
  return i < entries_.size() ? entries_[i].offset : stream_end();
}

std::vector<TapeCatalog::Entry> TapeCatalog::RecordsOf(Inum inum) const {
  std::vector<Entry> out;
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].type != DumpRecordType::kInode ||
        entries_[i].inum != inum) {
      continue;
    }
    out.push_back(entries_[i]);
    for (size_t j = i + 1; j < entries_.size() &&
                           entries_[j].type == DumpRecordType::kAddr &&
                           entries_[j].inum == inum;
         ++j) {
      out.push_back(entries_[j]);
    }
    break;
  }
  return out;
}

std::vector<StreamRange> TapeCatalog::RestoreRanges(
    std::span<const Inum> wanted) const {
  std::vector<StreamRange> ranges;
  ranges.push_back({0, directory_end()});
  for (Inum inum : wanted) {
    for (const Entry& e : RecordsOf(inum)) {
      ranges.push_back({e.offset, e.offset + e.bytes});
    }
  }
  std::sort(ranges.begin(), ranges.end(),
            [](const StreamRange& a, const StreamRange& b) {
              return a.begin < b.begin;
            });
  CoalesceRanges(&ranges);
  return ranges;
}

std::vector<uint8_t> TapeCatalog::Serialize(uint32_t checkpoint_every) const {
  TapeCatalogWriter writer(checkpoint_every);
  for (const Entry& e : entries_) {
    writer.Add(e);
  }
  writer.Finish();
  return writer.TakeImage();
}

Result<TapeCatalog> TapeCatalog::Load(std::span<const uint8_t> image,
                                      LoadStats* stats) {
  LoadStats local;
  ByteReader r(image);
  Result<uint32_t> magic = r.ReadU32();
  if (!magic.ok() || *magic != kCatalogMagic) {
    return Corruption("catalog image has no valid header");
  }
  Result<uint32_t> version = r.ReadU32();
  if (!version.ok() || *version != kCatalogVersion) {
    return Corruption("unsupported catalog version");
  }

  std::vector<Entry> staged;
  size_t sealed = 0;  // entries proven intact by the last valid checkpoint
  bool torn = false;
  while (!r.exhausted() && !torn) {
    Result<uint8_t> kind = r.ReadU8();
    if (!kind.ok()) {
      torn = true;
      break;
    }
    switch (*kind) {
      case kEntryFrame: {
        Result<uint8_t> type = r.ReadU8();
        Result<uint32_t> inum = r.ReadU32();
        Result<uint64_t> offset = r.ReadU64();
        Result<uint64_t> bytes = r.ReadU64();
        if (!type.ok() || !inum.ok() || !offset.ok() || !bytes.ok()) {
          torn = true;  // mid-entry truncation
          break;
        }
        staged.push_back(Entry{static_cast<DumpRecordType>(*type),
                               static_cast<Inum>(*inum), *offset, *bytes});
        break;
      }
      case kCheckpointFrame: {
        Result<uint64_t> count = r.ReadU64();
        Result<uint64_t> end = r.ReadU64();
        if (!count.ok() || !end.ok()) {
          torn = true;
          break;
        }
        const size_t crc_at = r.position();
        Result<uint32_t> crc = r.ReadU32();
        if (!crc.ok()) {
          torn = true;
          break;
        }
        if (*crc != Crc32c(image.first(crc_at)) || *count != staged.size()) {
          // A flip anywhere in the prefix fails every later checkpoint; the
          // last one that verified bounds what is trustworthy.
          torn = true;
          break;
        }
        sealed = staged.size();
        ++local.checkpoints_seen;
        break;
      }
      default:
        torn = true;  // unknown frame: treat like a torn tail
        break;
    }
  }

  if (local.checkpoints_seen == 0) {
    return Corruption("catalog has no intact checkpointed prefix");
  }
  local.truncated = torn || sealed < staged.size();
  local.entries_dropped = staged.size() - sealed;
  local.entries_loaded = sealed;
  staged.resize(sealed);

  if (stats != nullptr) {
    *stats = local;
  }
  TapeCatalog catalog;
  catalog.entries_ = std::move(staged);
  return catalog;
}

Result<TapeCatalog> TapeCatalog::FromStream(std::span<const uint8_t> stream) {
  DumpStreamReader reader(stream);
  BKUP_RETURN_IF_ERROR(reader.ReadPrologue().status());
  TapeCatalog catalog;
  while (std::optional<DumpStreamItem> item = reader.Next()) {
    const DumpRecordType type = item->record.type;
    if (item->truncated || type == DumpRecordType::kEnd) {
      break;
    }
    if (type == DumpRecordType::kDirectory || type == DumpRecordType::kInode ||
        type == DumpRecordType::kAddr) {
      catalog.Add(Entry{type, item->record.inum, item->offset,
                        item->end - item->offset});
    }
  }
  return catalog;
}

// ----------------------------------------------------- TapeCatalogWriter ---

TapeCatalogWriter::TapeCatalogWriter(uint32_t checkpoint_every)
    : checkpoint_every_(checkpoint_every == 0 ? 1 : checkpoint_every) {
  ByteWriter w(&image_);
  w.PutU32(kCatalogMagic);
  w.PutU32(kCatalogVersion);
}

void TapeCatalogWriter::Add(const TapeCatalog::Entry& entry) {
  ByteWriter w(&image_);
  w.PutU8(kEntryFrame);
  w.PutU8(static_cast<uint8_t>(entry.type));
  w.PutU32(entry.inum);
  w.PutU64(entry.offset);
  w.PutU64(entry.bytes);
  ++entries_;
  stream_end_ = std::max(stream_end_, entry.offset + entry.bytes);
  if (entries_ - entries_sealed_ >= checkpoint_every_) {
    Checkpoint();
  }
}

void TapeCatalogWriter::Finish() {
  if (entries_sealed_ < entries_ || checkpoints_written_ == 0) {
    Checkpoint();
  }
}

void TapeCatalogWriter::Checkpoint() {
  ByteWriter w(&image_);
  w.PutU8(kCheckpointFrame);
  w.PutU64(entries_);
  w.PutU64(stream_end_);
  w.PutU32(Crc32c(image_));
  entries_sealed_ = entries_;
  ++checkpoints_written_;
}

// --------------------------------------------------- BuildRestoreCatalog ---

Result<RestoreCatalog> BuildRestoreCatalog(std::span<const uint8_t> stream) {
  DumpStreamReader reader(stream);
  BKUP_RETURN_IF_ERROR(reader.ReadPrologue().status());
  // The directories end at the first file record, as the restore's
  // directory stage does; like the restore, other records are passed over.
  RestoreCatalog catalog;
  while (std::optional<DumpStreamItem> item = reader.Next()) {
    const DumpRecord& rec = item->record;
    if (rec.type == DumpRecordType::kInode ||
        rec.type == DumpRecordType::kAddr || rec.type == DumpRecordType::kEnd) {
      break;
    }
    if (rec.type != DumpRecordType::kDirectory) {
      continue;
    }
    if (item->truncated) {
      return Corruption("stream prologue truncated");
    }
    // A directory whose payload fails its CRC is lost, exactly as the
    // restore itself skips it; the rest of the tree still resolves.
    if (item->PayloadIntact()) {
      BKUP_ASSIGN_OR_RETURN(std::vector<DirEntry> entries,
                            DecodeDumpDirectory(item->payload));
      catalog.AddDirectory(rec.inum, rec.attrs, std::move(entries));
    }
  }
  BKUP_RETURN_IF_ERROR(catalog.Finalize());
  return catalog;
}

}  // namespace bkup
