#include "src/dump/logical_restore.h"

#include <algorithm>
#include <set>
#include <sstream>

namespace bkup {

// ------------------------------------------------------- RestoreSymtable ---

Result<std::string> RestoreSymtable::PathOf(Inum dumped_inum) const {
  auto it = paths_.find(dumped_inum);
  if (it == paths_.end()) {
    return NotFound("inum not in restore symtable");
  }
  return it->second;
}

void RestoreSymtable::RenamePrefix(const std::string& old_prefix,
                                   const std::string& new_prefix) {
  for (auto& [inum, path] : paths_) {
    if (path.size() >= old_prefix.size() &&
        path.compare(0, old_prefix.size(), old_prefix) == 0) {
      path = new_prefix + path.substr(old_prefix.size());
    }
  }
}

std::vector<std::pair<Inum, std::string>> RestoreSymtable::DropMissing(
    const Bitmap& used) {
  std::vector<std::pair<Inum, std::string>> dropped;
  for (auto it = paths_.begin(); it != paths_.end();) {
    if (it->first < used.size() && used.Test(it->first)) {
      ++it;
    } else {
      dropped.emplace_back(it->first, it->second);
      it = paths_.erase(it);
    }
  }
  return dropped;
}

std::string RestoreSymtable::Serialize() const {
  std::ostringstream out;
  for (const auto& [inum, path] : paths_) {
    out << inum << '\t' << path << '\n';
  }
  return out.str();
}

Result<RestoreSymtable> RestoreSymtable::Deserialize(const std::string& text) {
  RestoreSymtable table;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) {
      return Corruption("malformed symtable line: " + line);
    }
    try {
      table.Set(static_cast<Inum>(std::stoul(line.substr(0, tab))),
                line.substr(tab + 1));
    } catch (...) {
      return Corruption("malformed symtable inum: " + line);
    }
  }
  return table;
}

// ------------------------------------------------------------- internals ---

namespace {

// Joins the restore target directory with a dump-root-relative path.
std::string JoinTarget(const std::string& target, const std::string& rel) {
  if (rel == "/") {
    return target;
  }
  if (target == "/") {
    return rel;
  }
  return target + rel;
}

// Recursively removes a path (file, symlink, or directory tree).
Status RecursiveDelete(Filesystem* fs, const std::string& path,
                       uint32_t* deleted) {
  BKUP_ASSIGN_OR_RETURN(Inum inum, fs->LookupPath(path));
  BKUP_ASSIGN_OR_RETURN(InodeData attrs, fs->GetAttr(inum));
  if (attrs.type != InodeType::kDirectory) {
    BKUP_RETURN_IF_ERROR(fs->Unlink(path));
    ++*deleted;
    return Status::Ok();
  }
  BKUP_ASSIGN_OR_RETURN(std::vector<DirEntry> entries, fs->ReadDir(inum));
  for (const DirEntry& e : entries) {
    BKUP_RETURN_IF_ERROR(
        RecursiveDelete(fs, path + "/" + e.name, deleted));
  }
  BKUP_RETURN_IF_ERROR(fs->Rmdir(path));
  ++*deleted;
  return Status::Ok();
}

size_t PathDepth(const std::string& path) {
  size_t n = 0;
  for (char c : path) {
    n += c == '/' ? 1 : 0;
  }
  return n;
}

class RestoreRun {
 public:
  RestoreRun(Filesystem* fs, std::span<const uint8_t> stream,
             const LogicalRestoreOptions& options)
      : fs_(fs), opt_(options), reader_(stream) {}

  Result<LogicalRestoreOutput> Run();

 private:
  IoEvent& Event(JobPhase phase) {
    out_.trace.events.emplace_back();
    out_.trace.events.back().phase = phase;
    out_.trace.events.back().stream_end = reader_.position();
    return out_.trace.events.back();
  }

  Status HandleDirectory(const DumpStreamItem& item);
  Status FinishDirectoryStage();
  Status ComputeSelection();
  Status ApplyMoves();
  Status CreateDirectories();
  Status ApplyDeletes();
  Status HandleFileRecord(const DumpStreamItem& item);
  Status FinalizeOpenFile();
  Status FinalPass();

  // Crash-resumable recovery (active when opt_.catalog is set and the run
  // resumes or selects): seek between needed record extents via the catalog
  // instead of scanning every record.
  Status MaybePlanAndSkip(bool* stop);
  Status BuildReplayPlan();
  Result<bool> EntryComplete(const TapeCatalog::Entry& entry);
  // Applies one record's worth of progress bookkeeping: the CP cadence and
  // the kill hook. True = the process just died.
  bool Applied(RestorePhase phase);
  void Jump(uint64_t to);
  Result<LogicalRestoreOutput> Finish();

  Filesystem* fs_;
  const LogicalRestoreOptions& opt_;
  LogicalRestoreOutput out_;
  DumpStreamReader reader_;

  RestoreCatalog catalog_;
  Bitmap used_;
  bool dirs_done_ = false;

  bool restore_all_ = true;
  std::set<Inum> wanted_;

  std::map<Inum, Inum> inum_map_;  // dumped inum -> target fs inum
  std::map<Inum, std::string> fs_path_of_;  // dumped inum -> primary fs path

  // Directory attribute fixups for the final pass.
  std::vector<std::pair<std::string, DumpInodeAttrs>> dir_fixups_;

  // Currently-open file being filled from kInode/kAddr records.
  Inum open_dumped_ = kInvalidInum;
  Inum open_fs_ = kInvalidInum;
  DumpInodeAttrs open_attrs_;
  bool open_valid_ = false;

  // Crash-resumable recovery state.
  bool killed_ = false;
  uint64_t entries_applied_ = 0;
  uint32_t applied_since_cp_ = 0;
  bool plan_ready_ = false;
  std::vector<StreamRange> plan_;  // file-section extents to replay
  size_t plan_idx_ = 0;
  uint64_t run_start_ = 0;  // begin of the current contiguous consumed run
  std::vector<StreamRange> consumed_;
};

Status RestoreRun::HandleDirectory(const DumpStreamItem& item) {
  if (item.truncated) {
    return Corruption("directory payload truncated");
  }
  if (!item.PayloadIntact()) {
    out_.stats.corrupt_records_skipped++;
    return Status::Ok();  // this directory is lost; restore continues
  }
  BKUP_ASSIGN_OR_RETURN(std::vector<DirEntry> entries,
                        DecodeDumpDirectory(item.payload));
  IoEvent& event = Event(JobPhase::kCreateFiles);
  event.cpu.push_back({CpuCost::kDirEntry, entries.size()});
  catalog_.AddDirectory(item.record.inum, item.record.attrs,
                        std::move(entries));
  return Status::Ok();
}

Status RestoreRun::ComputeSelection() {
  restore_all_ = opt_.select.empty();
  if (restore_all_) {
    return Status::Ok();
  }
  for (const std::string& sel : opt_.select) {
    BKUP_ASSIGN_OR_RETURN(Inum inum, catalog_.Namei(sel));
    for (Inum d : catalog_.Descendants(inum)) {
      wanted_.insert(d);
    }
    // Ancestor directories are needed to hold the restored files.
    BKUP_ASSIGN_OR_RETURN(std::vector<std::string> parts, SplitPath(sel));
    wanted_.insert(catalog_.root());
    Inum cur = catalog_.root();
    for (size_t i = 0; i + 1 < parts.size(); ++i) {
      BKUP_ASSIGN_OR_RETURN(std::vector<DirEntry> entries,
                            catalog_.DirEntries(cur));
      const auto it = std::find_if(
          entries.begin(), entries.end(),
          [&](const DirEntry& e) { return e.name == parts[i]; });
      if (it == entries.end()) {
        return NotFound("selection ancestor missing from catalog");
      }
      cur = it->inum;
      wanted_.insert(cur);
    }
  }
  return Status::Ok();
}

Status RestoreRun::ApplyMoves() {
  if (!opt_.apply_moves_and_deletes || opt_.symtable == nullptr) {
    return Status::Ok();
  }
  RestoreSymtable* sym = opt_.symtable;
  Status failure = Status::Ok();
  catalog_.ForEachDirTopDown([&](Inum dir, const std::string& dir_path) {
    if (!failure.ok()) {
      return;
    }
    auto entries = catalog_.DirEntries(dir);
    if (!entries.ok()) {
      return;
    }
    for (const DirEntry& e : *entries) {
      if (!sym->Has(e.inum)) {
        continue;
      }
      const std::string rel =
          dir_path == "/" ? "/" + e.name : dir_path + "/" + e.name;
      const std::string new_path = JoinTarget(opt_.target_dir, rel);
      const std::string old_path = sym->PathOf(e.inum).value();
      if (old_path == new_path) {
        continue;
      }
      if (!fs_->LookupPath(old_path).ok() || fs_->LookupPath(new_path).ok()) {
        continue;
      }
      if (e.type == InodeType::kDirectory) {
        Status st = fs_->Rename(old_path, new_path);
        if (!st.ok()) {
          failure = st;
          return;
        }
        sym->RenamePrefix(old_path + "/", new_path + "/");
        sym->Set(e.inum, new_path);
        out_.stats.dirs_renamed++;
      } else {
        Status st = fs_->Link(old_path, new_path);
        if (!st.ok()) {
          failure = st;
          return;
        }
        sym->Set(e.inum, new_path);
      }
      IoEvent& event = Event(JobPhase::kCreateFiles);
      event.cpu.push_back({CpuCost::kRestoreCreate, 1});
      event.nvram_bytes += 64;
    }
  });
  return failure;
}

Status RestoreRun::CreateDirectories() {
  Status failure = Status::Ok();
  catalog_.ForEachDirTopDown([&](Inum dir, const std::string& dir_path) {
    if (!failure.ok()) {
      return;
    }
    if (!restore_all_ && wanted_.count(dir) == 0) {
      return;
    }
    auto attrs = catalog_.DirAttrs(dir);
    if (!attrs.ok()) {
      return;
    }
    const std::string fs_path = JoinTarget(opt_.target_dir, dir_path);
    IoEvent& event = Event(JobPhase::kCreateFiles);
    event.cpu.push_back({CpuCost::kRestoreCreate, 1});
    if (opt_.mode == LogicalRestoreOptions::Mode::kPortable) {
      event.cpu.push_back({CpuCost::kPathLookup, PathDepth(fs_path)});
    }

    Result<Inum> existing = fs_->LookupPath(fs_path);
    Inum fs_inum;
    if (existing.ok()) {
      fs_inum = *existing;
    } else {
      // Kernel mode sets the real permissions at creation; portable mode
      // creates writable and fixes permissions in the final pass.
      const uint16_t mode =
          opt_.mode == LogicalRestoreOptions::Mode::kKernel ? attrs->mode
                                                            : 0700;
      Result<Inum> created = fs_->Mkdir(fs_path, mode);
      if (!created.ok()) {
        failure = created.status();
        return;
      }
      fs_inum = *created;
      out_.stats.dirs_created++;
      event.nvram_bytes += 64;
      event.blocks_written += 1;
    }
    inum_map_[dir] = fs_inum;
    fs_path_of_[dir] = fs_path;
    if (opt_.symtable != nullptr) {
      opt_.symtable->Set(dir, fs_path);
    }
    dir_fixups_.emplace_back(fs_path, *attrs);
  });
  return failure;
}

Status RestoreRun::ApplyDeletes() {
  if (!opt_.apply_moves_and_deletes) {
    return Status::Ok();
  }
  Status failure = Status::Ok();
  catalog_.ForEachDirTopDown([&](Inum dir, const std::string& dir_path) {
    if (!failure.ok()) {
      return;
    }
    auto entries = catalog_.DirEntries(dir);
    if (!entries.ok()) {
      return;
    }
    const std::string fs_path = JoinTarget(opt_.target_dir, dir_path);
    Result<Inum> fs_dir = fs_->LookupPath(fs_path);
    if (!fs_dir.ok()) {
      return;
    }
    auto fs_entries = fs_->ReadDir(*fs_dir);
    if (!fs_entries.ok()) {
      return;
    }
    std::set<std::string> keep;
    for (const DirEntry& e : *entries) {
      keep.insert(e.name);
    }
    for (const DirEntry& fe : *fs_entries) {
      if (keep.count(fe.name) != 0) {
        continue;
      }
      const std::string victim = fs_path == "/" ? "/" + fe.name
                                                : fs_path + "/" + fe.name;
      Status st = RecursiveDelete(fs_, victim, &out_.stats.files_deleted);
      if (!st.ok()) {
        failure = st;
        return;
      }
      IoEvent& event = Event(JobPhase::kCreateFiles);
      event.cpu.push_back({CpuCost::kRestoreCreate, 1});
      event.nvram_bytes += 64;
    }
  });
  if (!failure.ok()) {
    return failure;
  }
  // Clean the symtable of anything the dump says no longer exists.
  if (opt_.symtable != nullptr && used_.size() > 0) {
    opt_.symtable->DropMissing(used_);
  }
  return Status::Ok();
}

Status RestoreRun::FinishDirectoryStage() {
  if (dirs_done_) {
    return Status::Ok();
  }
  dirs_done_ = true;
  BKUP_RETURN_IF_ERROR(catalog_.Finalize());
  BKUP_RETURN_IF_ERROR(ComputeSelection());
  BKUP_RETURN_IF_ERROR(ApplyMoves());
  BKUP_RETURN_IF_ERROR(CreateDirectories());
  return ApplyDeletes();
}

Status RestoreRun::FinalizeOpenFile() {
  if (!open_valid_) {
    return Status::Ok();
  }
  open_valid_ = false;
  BKUP_RETURN_IF_ERROR(fs_->Truncate(open_fs_, open_attrs_.size));
  SetAttrRequest req;
  req.mode = open_attrs_.mode;
  req.uid = open_attrs_.uid;
  req.gid = open_attrs_.gid;
  req.mtime = open_attrs_.mtime;
  req.atime = open_attrs_.atime;
  return fs_->SetAttr(open_fs_, req);
}

Status RestoreRun::HandleFileRecord(const DumpStreamItem& item) {
  if (!dirs_done_) {
    // The directory stage closes on the first file header: its events are
    // stamped with the stream read up to that header, not the file's data.
    reader_.Seek(item.offset + kDumpRecordSize);
    BKUP_RETURN_IF_ERROR(FinishDirectoryStage());
    reader_.Seek(item.end);
  }
  const DumpRecord& rec = item.record;
  if (item.truncated) {
    // Ran off a truncated tape mid-file: salvage everything restored so
    // far; the reader has no records left.
    out_.stats.corrupt_records_skipped++;
    out_.stats.files_lost_to_corruption++;
    return Status::Ok();
  }

  if (rec.type == DumpRecordType::kInode) {
    BKUP_RETURN_IF_ERROR(FinalizeOpenFile());
    open_dumped_ = rec.inum;
    open_attrs_ = rec.attrs;

    const bool wanted = restore_all_ || wanted_.count(rec.inum) != 0;
    if (!wanted) {
      return Status::Ok();  // open_valid_ stays false; kAddr data skipped
    }
    const std::vector<std::string> rel_paths = catalog_.PathsOf(rec.inum);
    if (rel_paths.empty()) {
      // Unreferenced inode (its directory record was lost to corruption).
      out_.stats.files_lost_to_corruption++;
      return Status::Ok();
    }

    if (!item.PayloadIntact()) {
      out_.stats.corrupt_records_skipped++;
      out_.stats.files_lost_to_corruption++;
      return Status::Ok();
    }

    const std::string fs_path = JoinTarget(opt_.target_dir, rel_paths[0]);
    IoEvent& event = Event(JobPhase::kCreateFiles);
    event.cpu.push_back({CpuCost::kRestoreCreate, 1});
    if (opt_.mode == LogicalRestoreOptions::Mode::kPortable) {
      event.cpu.push_back({CpuCost::kPathLookup, PathDepth(fs_path)});
    }

    if (fs_->LookupPath(fs_path).ok()) {
      uint32_t deleted = 0;
      BKUP_RETURN_IF_ERROR(RecursiveDelete(fs_, fs_path, &deleted));
    }
    // A symlink whose target was too long for the header arrives with an
    // empty target string; its data blocks (following) carry the content.
    Result<Inum> created =
        rec.attrs.type == InodeType::kSymlink
            ? fs_->SymlinkAt(rec.symlink_target, fs_path)
            : fs_->Create(fs_path, rec.attrs.mode);
    BKUP_RETURN_IF_ERROR(created.status());
    open_fs_ = *created;
    open_valid_ = true;
    event.nvram_bytes += 64;
    if (rec.attrs.type == InodeType::kSymlink) {
      out_.stats.symlinks_restored++;
    } else {
      out_.stats.files_restored++;
    }
    inum_map_[rec.inum] = open_fs_;
    fs_path_of_[rec.inum] = fs_path;
    if (opt_.symtable != nullptr) {
      opt_.symtable->Set(rec.inum, fs_path);
    }
    // Additional hard links.
    for (size_t i = 1; i < rel_paths.size(); ++i) {
      const std::string link_path =
          JoinTarget(opt_.target_dir, rel_paths[i]);
      if (fs_->LookupPath(link_path).ok()) {
        uint32_t deleted = 0;
        BKUP_RETURN_IF_ERROR(RecursiveDelete(fs_, link_path, &deleted));
      }
      BKUP_RETURN_IF_ERROR(fs_->Link(fs_path, link_path));
      out_.stats.hard_links_restored++;
      event.nvram_bytes += 64;
    }
  } else {  // kAddr continuation
    if (!open_valid_ || rec.inum != open_dumped_) {
      return Status::Ok();  // continuation of a skipped or corrupt file
    }
    if (!item.PayloadIntact()) {
      out_.stats.corrupt_records_skipped++;
      out_.stats.files_lost_to_corruption++;
      open_valid_ = false;
      return Status::Ok();
    }
  }

  if (!open_valid_) {
    return Status::Ok();
  }

  // Lay the present blocks into the file at their hole-aware offsets.
  IoEvent& event = Event(JobPhase::kFillData);
  uint64_t consumed = 0;
  for (uint32_t i = 0; i < rec.map_count; ++i) {
    if (!rec.BlockPresent(i)) {
      continue;
    }
    const uint64_t offset = (rec.first_fbn + i) * kBlockSize;
    BKUP_RETURN_IF_ERROR(fs_->Write(
        open_fs_, offset, item.payload.subspan(consumed, kBlockSize)));
    consumed += kBlockSize;
  }
  event.blocks_written += rec.present_count;
  event.nvram_bytes += consumed + 32ull * rec.present_count;
  event.cpu.push_back({CpuCost::kRestoreLogicalBlock, rec.present_count});
  out_.stats.data_blocks += rec.present_count;
  out_.stats.bytes_restored += consumed;
  return Status::Ok();
}

Status RestoreRun::FinalPass() {
  BKUP_RETURN_IF_ERROR(FinalizeOpenFile());
  BKUP_RETURN_IF_ERROR(FinishDirectoryStage());  // dump with no files at all
  // "After the directories and files have been written to disk, the system
  // begins to restore the directories' permissions and times."
  IoEvent& event = Event(JobPhase::kCreateFiles);
  for (const auto& [path, attrs] : dir_fixups_) {
    Result<Inum> inum = fs_->LookupPath(path);
    if (!inum.ok()) {
      continue;
    }
    SetAttrRequest req;
    if (opt_.mode == LogicalRestoreOptions::Mode::kPortable) {
      req.mode = attrs.mode;
      req.uid = attrs.uid;
      req.gid = attrs.gid;
      event.cpu.push_back({CpuCost::kPathLookup, PathDepth(path)});
    }
    req.mtime = attrs.mtime;
    req.atime = attrs.atime;
    BKUP_RETURN_IF_ERROR(fs_->SetAttr(*inum, req));
    event.cpu.push_back({CpuCost::kRestoreCreate, 1});
    event.nvram_bytes += 64;
  }
  BKUP_RETURN_IF_ERROR(fs_->ConsistencyPoint().status());
  return Status::Ok();
}

bool RestoreRun::Applied(RestorePhase phase) {
  ++entries_applied_;
  if (opt_.checkpoint_every > 0 &&
      ++applied_since_cp_ >= opt_.checkpoint_every) {
    applied_since_cp_ = 0;
    if (fs_->ConsistencyPoint().status().ok()) {
      out_.stats.checkpoints++;
    }
  }
  if (!killed_ && opt_.kill != nullptr &&
      opt_.kill->ShouldKill(phase, entries_applied_, reader_.position())) {
    killed_ = true;
  }
  return killed_;
}

void RestoreRun::Jump(uint64_t to) {
  const uint64_t pos = reader_.position();
  if (to <= pos) {
    return;
  }
  out_.stats.bytes_skipped += to - pos;
  if (pos > run_start_) {
    consumed_.push_back({run_start_, pos});
  }
  reader_.Seek(to);
  run_start_ = to;
}

Result<LogicalRestoreOutput> RestoreRun::Finish() {
  const uint64_t pos = reader_.position();
  if (pos > run_start_) {
    consumed_.push_back({run_start_, pos});
  }
  CoalesceRanges(&consumed_);
  out_.consumed_ranges = consumed_;
  out_.stats.bytes_replayed = 0;
  for (const StreamRange& r : out_.consumed_ranges) {
    out_.stats.bytes_replayed += r.size();
  }
  out_.stopped_at = pos;
  out_.interrupted = killed_;
  out_.stats.corrupt_records_skipped += reader_.skipped_runs();
  return std::move(out_);
}

Result<bool> RestoreRun::EntryComplete(const TapeCatalog::Entry& entry) {
  DumpStreamReader at = reader_;  // a second cursor on the same stream
  at.Seek(entry.offset);
  std::optional<DumpStreamItem> item = at.Next();
  if (!item.has_value() || item->offset != entry.offset) {
    return false;
  }
  const DumpRecord& rec = item->record;
  if (rec.type != DumpRecordType::kInode) {
    return false;
  }
  const std::vector<std::string> rel_paths = catalog_.PathsOf(rec.inum);
  if (rel_paths.empty()) {
    return false;
  }
  // Complete means: every link name exists on the target, and the primary
  // path's attributes match the dumped ones. The finalize step (truncate to
  // size + set mode/uid/gid/times) is the last thing the engine does per
  // file, so a file that passes this check either ran the full create/fill/
  // finalize sequence or is byte-identical to one that did — replaying it
  // again would be a no-op either way.
  Inum fs_inum = kInvalidInum;
  for (size_t i = 0; i < rel_paths.size(); ++i) {
    Result<Inum> found =
        fs_->LookupPath(JoinTarget(opt_.target_dir, rel_paths[i]));
    if (!found.ok()) {
      return false;
    }
    if (i == 0) {
      fs_inum = *found;
    }
  }
  Result<InodeData> attrs = fs_->GetAttr(fs_inum);
  if (!attrs.ok()) {
    return false;
  }
  const DumpInodeAttrs& want = rec.attrs;
  if (attrs->type != want.type || attrs->size != want.size ||
      attrs->mtime != want.mtime || attrs->uid != want.uid ||
      attrs->gid != want.gid) {
    return false;
  }
  // The file survives as-is; register it so a later incremental pass and
  // the symtable still see it.
  const std::string fs_path = JoinTarget(opt_.target_dir, rel_paths[0]);
  inum_map_[rec.inum] = fs_inum;
  fs_path_of_[rec.inum] = fs_path;
  if (opt_.symtable != nullptr) {
    opt_.symtable->Set(rec.inum, fs_path);
  }
  return true;
}

Status RestoreRun::BuildReplayPlan() {
  const std::vector<TapeCatalog::Entry>& entries = opt_.catalog->entries();
  for (size_t i = opt_.catalog->first_file_entry(); i < entries.size();) {
    if (entries[i].type != DumpRecordType::kInode) {
      ++i;  // an orphan kAddr is useless without its kInode
      continue;
    }
    // The file's extent: its kInode record plus following continuations.
    size_t j = i + 1;
    uint64_t end = entries[i].offset + entries[i].bytes;
    while (j < entries.size() && entries[j].type == DumpRecordType::kAddr &&
           entries[j].inum == entries[i].inum) {
      end = entries[j].offset + entries[j].bytes;
      ++j;
    }
    bool replay = restore_all_ || wanted_.count(entries[i].inum) != 0;
    if (replay && opt_.resume) {
      BKUP_ASSIGN_OR_RETURN(bool complete, EntryComplete(entries[i]));
      if (complete) {
        replay = false;
        out_.stats.files_already_complete++;
        out_.stats.entries_skipped += static_cast<uint32_t>(j - i);
      }
    }
    if (replay) {
      plan_.push_back({entries[i].offset, end});
    }
    i = j;
  }
  CoalesceRanges(&plan_);
  return Status::Ok();
}

Status RestoreRun::MaybePlanAndSkip(bool* stop) {
  *stop = false;
  if (opt_.catalog == nullptr || (!opt_.resume && opt_.select.empty())) {
    return Status::Ok();  // classic full scan
  }
  if (!plan_ready_) {
    if (reader_.position() < opt_.catalog->directory_end()) {
      return Status::Ok();  // still inside the prologue
    }
    // The cursor reached the file section: the directory stage is fully
    // read, so the selection and the resume diff can be computed now.
    BKUP_RETURN_IF_ERROR(FinishDirectoryStage());
    BKUP_RETURN_IF_ERROR(BuildReplayPlan());
    plan_ready_ = true;
  }
  const uint64_t pos = reader_.position();
  while (plan_idx_ < plan_.size() && pos >= plan_[plan_idx_].end) {
    ++plan_idx_;
  }
  if (plan_idx_ >= plan_.size()) {
    *stop = true;  // nothing left to replay; skip straight to the final pass
    return Status::Ok();
  }
  if (pos < plan_[plan_idx_].begin) {
    Jump(plan_[plan_idx_].begin);
  }
  return Status::Ok();
}

Result<LogicalRestoreOutput> RestoreRun::Run() {
  if (opt_.apply_moves_and_deletes && opt_.symtable == nullptr) {
    return InvalidArgument(
        "incremental reconciliation requires a restore symtable");
  }
  // Validate the restore target before touching the stream.
  BKUP_ASSIGN_OR_RETURN(Inum target, fs_->LookupPath(opt_.target_dir));
  BKUP_ASSIGN_OR_RETURN(InodeData target_attrs, fs_->GetAttr(target));
  if (target_attrs.type != InodeType::kDirectory) {
    return NotADirectory("restore target is not a directory");
  }

  BKUP_ASSIGN_OR_RETURN(DumpStreamPrologue prologue, reader_.ReadPrologue());
  out_.level = prologue.header.level;
  out_.dump_time = prologue.header.dump_time;
  used_ = std::move(prologue.used);
  Event(JobPhase::kCreateFiles).cpu.push_back({CpuCost::kHeaderFormat, 2});
  if (Applied(RestorePhase::kMaps)) {
    return Finish();
  }

  while (!killed_) {
    bool plan_done = false;
    BKUP_RETURN_IF_ERROR(MaybePlanAndSkip(&plan_done));
    if (plan_done) {
      break;
    }
    std::optional<DumpStreamItem> item = reader_.Next();
    if (!item.has_value() || item->record.type == DumpRecordType::kEnd) {
      break;  // running off the end stops the scan like kEnd does
    }
    switch (item->record.type) {
      case DumpRecordType::kDirectory:
        BKUP_RETURN_IF_ERROR(HandleDirectory(*item));
        Applied(RestorePhase::kDirectories);
        break;
      case DumpRecordType::kInode:
      case DumpRecordType::kAddr:
        BKUP_RETURN_IF_ERROR(HandleFileRecord(*item));
        Applied(RestorePhase::kFiles);
        break;
      default:
        // Unexpected record type mid-stream; skip it.
        out_.stats.corrupt_records_skipped++;
        break;
    }
  }
  if (killed_ || Applied(RestorePhase::kFinal)) {
    return Finish();  // died before the final pass: no closing CP
  }
  BKUP_RETURN_IF_ERROR(FinalPass());
  return Finish();
}

}  // namespace

Result<LogicalRestoreOutput> RunLogicalRestore(
    Filesystem* fs, std::span<const uint8_t> stream,
    const LogicalRestoreOptions& options) {
  RestoreRun run(fs, stream, options);
  return run.Run();
}

}  // namespace bkup
