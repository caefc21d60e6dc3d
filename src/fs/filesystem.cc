#include "src/fs/filesystem.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace bkup {

namespace {

// NVRAM log record opcodes.
enum class NvOp : uint8_t {
  kCreate = 1,
  kMkdir = 2,
  kSymlink = 3,
  kLink = 4,
  kUnlink = 5,
  kRmdir = 6,
  kRename = 7,
  kWrite = 8,
  kTruncate = 9,
  kSetAttr = 10,
};

uint16_t DefaultDirMode() { return 0755; }

}  // namespace

Filesystem::Filesystem(Volume* volume, SimEnvironment* env, NvramLog* nvram)
    : volume_(volume),
      env_(env),
      nvram_(nvram),
      blockmap_(volume->num_blocks()),
      allocator_(&blockmap_) {}

// ===================================================================== setup

Result<std::unique_ptr<Filesystem>> Filesystem::Format(Volume* volume,
                                                       SimEnvironment* env,
                                                       NvramLog* nvram,
                                                       FormatParams params) {
  if (volume->num_blocks() < 64) {
    return InvalidArgument("volume too small to format");
  }
  std::unique_ptr<Filesystem> fs(new Filesystem(volume, env, nvram));
  fs->allocator_ = WriteAllocator(&fs->blockmap_, params.alloc_policy);

  uint32_t max_inodes = params.max_inodes;
  if (max_inodes == 0) {
    max_inodes =
        static_cast<uint32_t>(std::max<uint64_t>(1024, volume->num_blocks() / 4));
  }
  // Round up to whole inode-file blocks.
  max_inodes = (max_inodes + kInodesPerBlock - 1) / kInodesPerBlock *
               kInodesPerBlock;
  fs->max_inodes_ = max_inodes;

  // The inode file: fixed size, fully sparse until inodes are written.
  fs->inode_file_inode_ = InodeData{};
  fs->inode_file_inode_.type = InodeType::kFile;
  fs->inode_file_inode_.nlink = 1;
  fs->inode_file_inode_.size =
      static_cast<uint64_t>(max_inodes) * kInodeSize;
  fs->inode_file_ptrs_.assign(fs->inode_file_inode_.NumBlocks(), 0);

  // The block-map file: fixed size = 4 bytes per volume block.
  fs->blockmap_inode_ = InodeData{};
  fs->blockmap_inode_.type = InodeType::kFile;
  fs->blockmap_inode_.nlink = 1;
  fs->blockmap_inode_.size = fs->blockmap_.FileBytes();
  fs->blockmap_ptrs_.assign(fs->blockmap_.FileBlocks(), 0);

  fs->inode_used_.Resize(max_inodes);
  fs->inode_used_.Set(kInvalidInum);
  fs->inode_used_.Set(kReservedInum);

  // Root directory.
  fs->inode_used_.Set(kRootDirInum);
  FileState root;
  root.inode.type = InodeType::kDirectory;
  root.inode.nlink = 1;
  root.inode.mode = DefaultDirMode();
  root.inode.mtime = root.inode.ctime = root.inode.atime = env->now();
  root.inode_dirty = true;
  root.ptrs_loaded = true;
  fs->files_.emplace(kRootDirInum, std::move(root));
  // Write the empty directory body.
  const std::vector<uint8_t> empty = SerializeDirectory({});
  fs->internal_dir_write_ = true;
  Status root_write = fs->DoWrite(kRootDirInum, 0, empty);
  fs->internal_dir_write_ = false;
  BKUP_RETURN_IF_ERROR(root_write);

  BKUP_RETURN_IF_ERROR(fs->ConsistencyPoint().status());
  return fs;
}

Result<std::unique_ptr<Filesystem>> Filesystem::Mount(Volume* volume,
                                                      SimEnvironment* env,
                                                      NvramLog* nvram) {
  // "WAFL always uses the most recent consistency point on disk": read the
  // primary fsinfo, falling back to the redundant copy.
  Block block;
  BKUP_RETURN_IF_ERROR(volume->ReadBlock(kFsInfoPrimary, &block));
  Result<FsInfo> info = FsInfo::DeserializeFromBlock(block);
  if (!info.ok()) {
    BKUP_RETURN_IF_ERROR(volume->ReadBlock(kFsInfoBackup, &block));
    info = FsInfo::DeserializeFromBlock(block);
    if (!info.ok()) {
      return Corruption("both fsinfo copies unreadable: " +
                        info.status().message());
    }
  }
  if (info->volume_blocks != volume->num_blocks()) {
    return Corruption("fsinfo volume size does not match this volume");
  }

  std::unique_ptr<Filesystem> fs(new Filesystem(volume, env, nvram));
  fs->generation_ = info->generation;
  fs->max_inodes_ = info->max_inodes;
  fs->inode_file_inode_ = info->inode_file;
  fs->blockmap_inode_ = info->blockmap_file;
  fs->snapshots_ = info->snapshots;
  fs->last_cp_time_ = env->now();

  // Load the block map from its file.
  auto read = [volume](Vbn v, Block* b) { return volume->ReadBlock(v, b); };
  BKUP_RETURN_IF_ERROR(
      LoadPointerMap(read, fs->blockmap_inode_, &fs->blockmap_ptrs_));
  Block bmblock;
  for (uint64_t fbn = 0; fbn < fs->blockmap_ptrs_.size(); ++fbn) {
    if (fs->blockmap_ptrs_[fbn] == 0) {
      return Corruption("block-map file has a hole");
    }
    BKUP_RETURN_IF_ERROR(volume->ReadBlock(fs->blockmap_ptrs_[fbn], &bmblock));
    fs->blockmap_.LoadFileBlock(fbn, bmblock);
  }
  fs->allocator_ = WriteAllocator(&fs->blockmap_);
  fs->allocator_.set_write_point(info->alloc_write_point);

  BKUP_RETURN_IF_ERROR(
      LoadPointerMap(read, fs->inode_file_inode_, &fs->inode_file_ptrs_));
  BKUP_RETURN_IF_ERROR(fs->LoadInodeUsage());

  // Replay any operations that survived in NVRAM.
  if (nvram != nullptr && !nvram->empty()) {
    BKUP_RETURN_IF_ERROR(fs->ReplayNvram());
    BKUP_RETURN_IF_ERROR(fs->ConsistencyPoint().status());
    nvram->Clear();
  }
  return fs;
}

Status Filesystem::LoadInodeUsage() {
  inode_used_.Resize(max_inodes_);
  inode_used_.Set(kInvalidInum);
  inode_used_.Set(kReservedInum);
  Block block;
  for (uint64_t fbn = 0; fbn < inode_file_ptrs_.size(); ++fbn) {
    if (inode_file_ptrs_[fbn] == 0) {
      continue;  // hole: 32 free inodes
    }
    BKUP_RETURN_IF_ERROR(volume_->ReadBlock(inode_file_ptrs_[fbn], &block));
    for (uint32_t i = 0; i < kInodesPerBlock; ++i) {
      ByteReader r(std::span(block.data).subspan(i * kInodeSize, kInodeSize));
      BKUP_ASSIGN_OR_RETURN(InodeData ino, InodeData::Deserialize(&r));
      if (ino.in_use()) {
        inode_used_.Set(fbn * kInodesPerBlock + i);
      }
    }
  }
  return Status::Ok();
}

// ============================================================ file loading

Result<Filesystem::FileState*> Filesystem::LoadFile(Inum inum) {
  auto it = files_.find(inum);
  if (it != files_.end()) {
    return &it->second;
  }
  if (inum >= max_inodes_) {
    return NotFound("inum out of range");
  }
  // Read the inode from the on-disk inode file.
  FileState state;
  const uint64_t fbn = inum / kInodesPerBlock;
  if (fbn < inode_file_ptrs_.size() && inode_file_ptrs_[fbn] != 0) {
    Block block;
    BKUP_RETURN_IF_ERROR(volume_->ReadBlock(inode_file_ptrs_[fbn], &block));
    ByteReader r(std::span(block.data)
                     .subspan((inum % kInodesPerBlock) * kInodeSize,
                              kInodeSize));
    BKUP_ASSIGN_OR_RETURN(state.inode, InodeData::Deserialize(&r));
  }
  auto [pos, inserted] = files_.emplace(inum, std::move(state));
  (void)inserted;
  return &pos->second;
}

Status Filesystem::EnsurePtrsLoaded(FileState* fs) {
  if (fs->ptrs_loaded) {
    return Status::Ok();
  }
  auto read = [this](Vbn v, Block* b) { return volume_->ReadBlock(v, b); };
  BKUP_RETURN_IF_ERROR(LoadPointerMap(read, fs->inode, &fs->ptrs));
  fs->ptrs_loaded = true;
  return Status::Ok();
}

Result<Inum> Filesystem::AllocateInum(InodeType type, uint16_t mode) {
  size_t found = inode_used_.FindFirstClear(next_inum_hint_);
  if (found == Bitmap::npos) {
    found = inode_used_.FindFirstClear(kRootDirInum);
  }
  if (found == Bitmap::npos) {
    return Exhausted("out of inodes");
  }
  const Inum inum = static_cast<Inum>(found);
  // Fetch the stale inode first so the generation number advances across
  // inum reuse (dump incrementals rely on this to spot replaced files).
  BKUP_ASSIGN_OR_RETURN(FileState * state, LoadFile(inum));
  const uint32_t old_generation = state->inode.generation;
  state->inode = InodeData{};
  state->inode.type = type;
  state->inode.nlink = 1;
  state->inode.mode = mode;
  state->inode.generation = old_generation + 1;
  state->inode.mtime = state->inode.ctime = state->inode.atime = env_->now();
  state->inode_dirty = true;
  state->ptrs_loaded = true;
  state->ptrs.clear();
  state->dirty_blocks.clear();
  state->ptrs_dirty = false;
  inode_used_.Set(inum);
  next_inum_hint_ = inum + 1;
  return inum;
}

void Filesystem::FreeFileBlocks(FileState* fs) {
  // Frees all on-disk blocks of the file from the active plane; pending
  // dirty blocks simply evaporate.
  if (!fs->ptrs_loaded) {
    Status st = EnsurePtrsLoaded(fs);
    assert(st.ok());
    (void)st;
  }
  for (uint32_t p : fs->ptrs) {
    if (p != 0) {
      allocator_.FreeActive(p);
    }
  }
  auto read = [this](Vbn v, Block* b) { return volume_->ReadBlock(v, b); };
  auto free_block = [this](Vbn v) { allocator_.FreeActive(v); };
  Status st = FreeIndirectBlocks(read, free_block, &fs->inode);
  assert(st.ok());
  (void)st;
  fs->ptrs.clear();
  fs->dirty_blocks.clear();
  fs->ptrs_dirty = false;
}

// =========================================================== live block read

Status Filesystem::ReadFileBlockLive(FileState* fs, uint64_t fbn, Block* out,
                                     Vbn* vbn) {
  if (vbn != nullptr) {
    *vbn = 0;  // dirty state and holes cost no disk arm
  }
  auto dirty = fs->dirty_blocks.find(fbn);
  if (dirty != fs->dirty_blocks.end()) {
    *out = dirty->second;
    return Status::Ok();
  }
  BKUP_RETURN_IF_ERROR(EnsurePtrsLoaded(fs));
  if (fbn < fs->ptrs.size() && fs->ptrs[fbn] != 0) {
    if (vbn != nullptr) {
      *vbn = fs->ptrs[fbn];
    }
    return volume_->ReadBlock(fs->ptrs[fbn], out);
  }
  out->Zero();
  return Status::Ok();
}

// ================================================================ directories

Result<std::vector<DirEntry>> Filesystem::ReadDirState(FileState* dir) {
  if (dir->inode.type != InodeType::kDirectory) {
    return NotADirectory("not a directory");
  }
  std::vector<uint8_t> bytes;
  bytes.reserve(dir->inode.size);
  Block block;
  for (uint64_t fbn = 0; fbn * kBlockSize < dir->inode.size; ++fbn) {
    BKUP_RETURN_IF_ERROR(ReadFileBlockLive(dir, fbn, &block));
    const uint64_t n =
        std::min<uint64_t>(kBlockSize, dir->inode.size - fbn * kBlockSize);
    bytes.insert(bytes.end(), block.data.begin(),
                 block.data.begin() + static_cast<long>(n));
  }
  return ParseDirectory(bytes);
}

Status Filesystem::WriteDirState(Inum dir_inum, FileState* dir,
                                 const std::vector<DirEntry>& entries) {
  const std::vector<uint8_t> bytes = SerializeDirectory(entries);
  internal_dir_write_ = true;
  Status write_status = DoWrite(dir_inum, 0, bytes);
  if (write_status.ok() && bytes.size() < dir->inode.size) {
    write_status = DoTruncate(dir_inum, bytes.size());
  }
  internal_dir_write_ = false;
  BKUP_RETURN_IF_ERROR(write_status);
  dir->inode.mtime = env_->now();
  dir->inode_dirty = true;
  return Status::Ok();
}

Result<Filesystem::ResolvedParent> Filesystem::ResolveParent(
    const std::string& path) {
  BKUP_ASSIGN_OR_RETURN(std::vector<std::string> parts, SplitPath(path));
  if (parts.empty()) {
    return InvalidArgument("path names the root directory");
  }
  Inum current = kRootDirInum;
  for (size_t i = 0; i + 1 < parts.size(); ++i) {
    BKUP_ASSIGN_OR_RETURN(FileState * dir, LoadFile(current));
    if (!dir->inode.in_use()) {
      return NotFound("path component missing");
    }
    BKUP_ASSIGN_OR_RETURN(std::vector<DirEntry> entries, ReadDirState(dir));
    const auto it = std::find_if(
        entries.begin(), entries.end(),
        [&parts, i](const DirEntry& e) { return e.name == parts[i]; });
    if (it == entries.end()) {
      return NotFound("'" + parts[i] + "' not found");
    }
    current = it->inum;
  }
  return ResolvedParent{current, parts.back()};
}

Result<Inum> Filesystem::LookupLocked(const std::string& path) {
  BKUP_ASSIGN_OR_RETURN(std::vector<std::string> parts, SplitPath(path));
  Inum current = kRootDirInum;
  for (const std::string& part : parts) {
    BKUP_ASSIGN_OR_RETURN(FileState * dir, LoadFile(current));
    if (!dir->inode.in_use()) {
      return NotFound("path component missing");
    }
    BKUP_ASSIGN_OR_RETURN(std::vector<DirEntry> entries, ReadDirState(dir));
    const auto it =
        std::find_if(entries.begin(), entries.end(),
                     [&part](const DirEntry& e) { return e.name == part; });
    if (it == entries.end()) {
      return NotFound("'" + part + "' not found");
    }
    current = it->inum;
  }
  return current;
}

// ========================================================== namespace ops

Result<Inum> Filesystem::DoCreate(const std::string& path, InodeType type,
                                  uint16_t mode,
                                  const std::string& symlink_target) {
  BKUP_ASSIGN_OR_RETURN(ResolvedParent rp, ResolveParent(path));
  BKUP_ASSIGN_OR_RETURN(FileState * parent, LoadFile(rp.parent));
  BKUP_ASSIGN_OR_RETURN(std::vector<DirEntry> entries, ReadDirState(parent));
  for (const DirEntry& e : entries) {
    if (e.name == rp.leaf) {
      return AlreadyExists("'" + path + "' exists");
    }
  }
  BKUP_ASSIGN_OR_RETURN(Inum inum, AllocateInum(type, mode));
  entries.push_back(DirEntry{inum, type, rp.leaf});
  // Reload the parent pointer: AllocateInum may have rehashed files_.
  BKUP_ASSIGN_OR_RETURN(parent, LoadFile(rp.parent));
  BKUP_RETURN_IF_ERROR(WriteDirState(rp.parent, parent, entries));
  if (type == InodeType::kDirectory) {
    const std::vector<uint8_t> empty = SerializeDirectory({});
    internal_dir_write_ = true;
    Status body_write = DoWrite(inum, 0, empty);
    internal_dir_write_ = false;
    BKUP_RETURN_IF_ERROR(body_write);
  } else if (type == InodeType::kSymlink) {
    const auto* data =
        reinterpret_cast<const uint8_t*>(symlink_target.data());
    BKUP_RETURN_IF_ERROR(
        DoWrite(inum, 0, std::span(data, symlink_target.size())));
  }
  return inum;
}

Result<Inum> Filesystem::Create(const std::string& path, uint16_t mode) {
  BKUP_ASSIGN_OR_RETURN(Inum inum, DoCreate(path, InodeType::kFile, mode, ""));
  if (!replaying_) {
    std::vector<uint8_t> rec;
    ByteWriter w(&rec);
    w.PutU8(static_cast<uint8_t>(NvOp::kCreate));
    w.PutString(path);
    w.PutU16(mode);
    LogOp(std::move(rec));
    MaybeAutoCp();
  }
  return inum;
}

Result<Inum> Filesystem::Mkdir(const std::string& path, uint16_t mode) {
  BKUP_ASSIGN_OR_RETURN(Inum inum,
                        DoCreate(path, InodeType::kDirectory, mode, ""));
  if (!replaying_) {
    std::vector<uint8_t> rec;
    ByteWriter w(&rec);
    w.PutU8(static_cast<uint8_t>(NvOp::kMkdir));
    w.PutString(path);
    w.PutU16(mode);
    LogOp(std::move(rec));
    MaybeAutoCp();
  }
  return inum;
}

Result<Inum> Filesystem::SymlinkAt(const std::string& target,
                                   const std::string& path) {
  BKUP_ASSIGN_OR_RETURN(Inum inum,
                        DoCreate(path, InodeType::kSymlink, 0777, target));
  if (!replaying_) {
    std::vector<uint8_t> rec;
    ByteWriter w(&rec);
    w.PutU8(static_cast<uint8_t>(NvOp::kSymlink));
    w.PutString(target);
    w.PutString(path);
    LogOp(std::move(rec));
    MaybeAutoCp();
  }
  return inum;
}

Status Filesystem::DoLink(const std::string& existing,
                          const std::string& new_path) {
  BKUP_ASSIGN_OR_RETURN(Inum target, LookupLocked(existing));
  BKUP_ASSIGN_OR_RETURN(FileState * tstate, LoadFile(target));
  if (tstate->inode.type == InodeType::kDirectory) {
    return IsADirectory("cannot hard-link a directory");
  }
  BKUP_ASSIGN_OR_RETURN(ResolvedParent rp, ResolveParent(new_path));
  BKUP_ASSIGN_OR_RETURN(FileState * parent, LoadFile(rp.parent));
  BKUP_ASSIGN_OR_RETURN(std::vector<DirEntry> entries, ReadDirState(parent));
  for (const DirEntry& e : entries) {
    if (e.name == rp.leaf) {
      return AlreadyExists("'" + new_path + "' exists");
    }
  }
  entries.push_back(DirEntry{target, tstate->inode.type, rp.leaf});
  BKUP_RETURN_IF_ERROR(WriteDirState(rp.parent, parent, entries));
  BKUP_ASSIGN_OR_RETURN(tstate, LoadFile(target));
  tstate->inode.nlink++;
  tstate->inode.ctime = env_->now();
  tstate->inode_dirty = true;
  return Status::Ok();
}

Status Filesystem::Link(const std::string& existing,
                        const std::string& new_path) {
  BKUP_RETURN_IF_ERROR(DoLink(existing, new_path));
  if (!replaying_) {
    std::vector<uint8_t> rec;
    ByteWriter w(&rec);
    w.PutU8(static_cast<uint8_t>(NvOp::kLink));
    w.PutString(existing);
    w.PutString(new_path);
    LogOp(std::move(rec));
    MaybeAutoCp();
  }
  return Status::Ok();
}

Status Filesystem::DoUnlink(const std::string& path, bool must_be_dir) {
  BKUP_ASSIGN_OR_RETURN(ResolvedParent rp, ResolveParent(path));
  BKUP_ASSIGN_OR_RETURN(FileState * parent, LoadFile(rp.parent));
  BKUP_ASSIGN_OR_RETURN(std::vector<DirEntry> entries, ReadDirState(parent));
  const auto it =
      std::find_if(entries.begin(), entries.end(),
                   [&rp](const DirEntry& e) { return e.name == rp.leaf; });
  if (it == entries.end()) {
    return NotFound("'" + path + "' not found");
  }
  const Inum inum = it->inum;
  BKUP_ASSIGN_OR_RETURN(FileState * state, LoadFile(inum));
  if (must_be_dir) {
    if (state->inode.type != InodeType::kDirectory) {
      return NotADirectory("'" + path + "' is not a directory");
    }
    BKUP_ASSIGN_OR_RETURN(std::vector<DirEntry> children, ReadDirState(state));
    if (!children.empty()) {
      return NotEmpty("'" + path + "' is not empty");
    }
  } else if (state->inode.type == InodeType::kDirectory) {
    return IsADirectory("'" + path + "' is a directory; use Rmdir");
  }

  entries.erase(it);
  BKUP_ASSIGN_OR_RETURN(parent, LoadFile(rp.parent));
  BKUP_RETURN_IF_ERROR(WriteDirState(rp.parent, parent, entries));

  BKUP_ASSIGN_OR_RETURN(state, LoadFile(inum));
  if (state->inode.nlink > 1 && !must_be_dir) {
    state->inode.nlink--;
    state->inode.ctime = env_->now();
    state->inode_dirty = true;
    return Status::Ok();
  }
  // Last link: release the file's blocks; the inode slot becomes free but
  // keeps its generation for reuse detection.
  FreeFileBlocks(state);
  const uint32_t generation = state->inode.generation;
  state->inode = InodeData{};
  state->inode.generation = generation;
  state->inode_dirty = true;
  state->ptrs_loaded = true;
  inode_used_.Clear(inum);
  if (inum < next_inum_hint_) {
    next_inum_hint_ = inum;
  }
  return Status::Ok();
}

Status Filesystem::Unlink(const std::string& path) {
  BKUP_RETURN_IF_ERROR(DoUnlink(path, /*must_be_dir=*/false));
  if (!replaying_) {
    std::vector<uint8_t> rec;
    ByteWriter w(&rec);
    w.PutU8(static_cast<uint8_t>(NvOp::kUnlink));
    w.PutString(path);
    LogOp(std::move(rec));
    MaybeAutoCp();
  }
  return Status::Ok();
}

Status Filesystem::Rmdir(const std::string& path) {
  BKUP_RETURN_IF_ERROR(DoUnlink(path, /*must_be_dir=*/true));
  if (!replaying_) {
    std::vector<uint8_t> rec;
    ByteWriter w(&rec);
    w.PutU8(static_cast<uint8_t>(NvOp::kRmdir));
    w.PutString(path);
    LogOp(std::move(rec));
    MaybeAutoCp();
  }
  return Status::Ok();
}

Status Filesystem::DoRename(const std::string& from, const std::string& to) {
  if (to.size() > from.size() && to.compare(0, from.size(), from) == 0 &&
      to[from.size()] == '/') {
    return InvalidArgument("cannot move a directory into itself");
  }
  BKUP_ASSIGN_OR_RETURN(ResolvedParent src, ResolveParent(from));
  BKUP_ASSIGN_OR_RETURN(FileState * src_parent, LoadFile(src.parent));
  BKUP_ASSIGN_OR_RETURN(std::vector<DirEntry> src_entries,
                        ReadDirState(src_parent));
  const auto src_it =
      std::find_if(src_entries.begin(), src_entries.end(),
                   [&src](const DirEntry& e) { return e.name == src.leaf; });
  if (src_it == src_entries.end()) {
    return NotFound("'" + from + "' not found");
  }
  const DirEntry moving = *src_it;

  // If the destination exists, it must be replaceable.
  Result<Inum> existing = LookupLocked(to);
  if (existing.ok()) {
    BKUP_ASSIGN_OR_RETURN(FileState * old, LoadFile(*existing));
    const bool old_is_dir = old->inode.type == InodeType::kDirectory;
    const bool new_is_dir = moving.type == InodeType::kDirectory;
    if (old_is_dir != new_is_dir) {
      return old_is_dir ? IsADirectory("rename target is a directory")
                        : NotADirectory("rename target is not a directory");
    }
    BKUP_RETURN_IF_ERROR(DoUnlink(to, old_is_dir));
  }

  // Remove the source entry.
  {
    BKUP_ASSIGN_OR_RETURN(FileState * p, LoadFile(src.parent));
    BKUP_ASSIGN_OR_RETURN(std::vector<DirEntry> entries, ReadDirState(p));
    const auto it = std::find_if(
        entries.begin(), entries.end(),
        [&src](const DirEntry& e) { return e.name == src.leaf; });
    if (it == entries.end()) {
      return NotFound("source vanished during rename");
    }
    entries.erase(it);
    BKUP_RETURN_IF_ERROR(WriteDirState(src.parent, p, entries));
  }
  // Add the destination entry.
  {
    BKUP_ASSIGN_OR_RETURN(ResolvedParent dst, ResolveParent(to));
    BKUP_ASSIGN_OR_RETURN(FileState * p, LoadFile(dst.parent));
    BKUP_ASSIGN_OR_RETURN(std::vector<DirEntry> entries, ReadDirState(p));
    entries.push_back(DirEntry{moving.inum, moving.type, dst.leaf});
    BKUP_RETURN_IF_ERROR(WriteDirState(dst.parent, p, entries));
  }
  BKUP_ASSIGN_OR_RETURN(FileState * moved, LoadFile(moving.inum));
  moved->inode.ctime = env_->now();
  moved->inode_dirty = true;
  return Status::Ok();
}

Status Filesystem::Rename(const std::string& from, const std::string& to) {
  BKUP_RETURN_IF_ERROR(DoRename(from, to));
  if (!replaying_) {
    std::vector<uint8_t> rec;
    ByteWriter w(&rec);
    w.PutU8(static_cast<uint8_t>(NvOp::kRename));
    w.PutString(from);
    w.PutString(to);
    LogOp(std::move(rec));
    MaybeAutoCp();
  }
  return Status::Ok();
}

Result<Inum> Filesystem::LookupPath(const std::string& path) {
  return LookupLocked(path);
}

Result<std::vector<DirEntry>> Filesystem::ReadDir(Inum dir) {
  BKUP_ASSIGN_OR_RETURN(FileState * state, LoadFile(dir));
  if (!state->inode.in_use()) {
    return NotFound("no such directory inode");
  }
  return ReadDirState(state);
}

Result<std::string> Filesystem::ReadSymlink(Inum inum) {
  BKUP_ASSIGN_OR_RETURN(FileState * state, LoadFile(inum));
  if (state->inode.type != InodeType::kSymlink) {
    return InvalidArgument("not a symlink");
  }
  std::vector<uint8_t> bytes;
  BKUP_RETURN_IF_ERROR(Read(inum, 0, state->inode.size, &bytes));
  return std::string(bytes.begin(), bytes.end());
}

// ================================================================= file ops

Result<InodeData> Filesystem::GetAttr(Inum inum) {
  BKUP_ASSIGN_OR_RETURN(FileState * state, LoadFile(inum));
  if (!state->inode.in_use()) {
    return NotFound("inode not in use");
  }
  return state->inode;
}

Status Filesystem::DoSetAttr(Inum inum, const SetAttrRequest& request) {
  BKUP_ASSIGN_OR_RETURN(FileState * state, LoadFile(inum));
  if (!state->inode.in_use()) {
    return NotFound("inode not in use");
  }
  if (request.mode) {
    state->inode.mode = *request.mode;
  }
  if (request.uid) {
    state->inode.uid = *request.uid;
  }
  if (request.gid) {
    state->inode.gid = *request.gid;
  }
  if (request.mtime) {
    state->inode.mtime = *request.mtime;
  }
  if (request.atime) {
    state->inode.atime = *request.atime;
  }
  state->inode.ctime = env_->now();
  state->inode_dirty = true;
  return Status::Ok();
}

Status Filesystem::SetAttr(Inum inum, const SetAttrRequest& request) {
  BKUP_RETURN_IF_ERROR(DoSetAttr(inum, request));
  if (!replaying_) {
    std::vector<uint8_t> rec;
    ByteWriter w(&rec);
    w.PutU8(static_cast<uint8_t>(NvOp::kSetAttr));
    w.PutU32(inum);
    w.PutU8((request.mode ? 1 : 0) | (request.uid ? 2 : 0) |
            (request.gid ? 4 : 0) | (request.mtime ? 8 : 0) |
            (request.atime ? 16 : 0));
    w.PutU16(request.mode.value_or(0));
    w.PutU32(request.uid.value_or(0));
    w.PutU32(request.gid.value_or(0));
    w.PutI64(request.mtime.value_or(0));
    w.PutI64(request.atime.value_or(0));
    LogOp(std::move(rec));
    MaybeAutoCp();
  }
  return Status::Ok();
}

Status Filesystem::DoWrite(Inum inum, uint64_t offset,
                           std::span<const uint8_t> data) {
  BKUP_ASSIGN_OR_RETURN(FileState * state, LoadFile(inum));
  if (!state->inode.in_use()) {
    return NotFound("inode not in use");
  }
  if (state->inode.type == InodeType::kDirectory && !internal_dir_write_) {
    // Directories are mutated through the namespace operations only; a raw
    // Write would corrupt the directory format.
    return IsADirectory("cannot Write to a directory");
  }
  const uint64_t end = offset + data.size();
  if ((end + kBlockSize - 1) / kBlockSize > kMaxFileBlocks) {
    return NoSpace("file would exceed maximum size");
  }
  BKUP_RETURN_IF_ERROR(EnsurePtrsLoaded(state));
  if (end > state->inode.size) {
    state->inode.size = end;
    state->ptrs.resize(state->inode.NumBlocks(), 0);
    state->ptrs_dirty = true;
  }
  uint64_t pos = offset;
  size_t consumed = 0;
  while (pos < end) {
    const uint64_t fbn = pos / kBlockSize;
    const uint64_t in_block = pos % kBlockSize;
    const uint64_t n = std::min<uint64_t>(kBlockSize - in_block, end - pos);
    auto it = state->dirty_blocks.find(fbn);
    if (it == state->dirty_blocks.end()) {
      Block base;
      if (n == kBlockSize) {
        base.Zero();  // full overwrite: no read-modify-write needed
      } else {
        BKUP_RETURN_IF_ERROR(ReadFileBlockLive(state, fbn, &base));
      }
      it = state->dirty_blocks.emplace(fbn, base).first;
    }
    std::memcpy(it->second.data.data() + in_block, data.data() + consumed, n);
    pos += n;
    consumed += n;
  }
  state->inode.mtime = env_->now();
  state->inode_dirty = true;
  return Status::Ok();
}

Status Filesystem::Write(Inum inum, uint64_t offset,
                         std::span<const uint8_t> data) {
  BKUP_RETURN_IF_ERROR(DoWrite(inum, offset, data));
  if (!replaying_) {
    // Without a log the record would be dropped: skip copying the payload.
    if (nvram_ != nullptr) {
      std::vector<uint8_t> rec;
      rec.reserve(1 + 4 + 8 + 4 + data.size());  // op, inum, offset, length
      ByteWriter w(&rec);
      w.PutU8(static_cast<uint8_t>(NvOp::kWrite));
      w.PutU32(inum);
      w.PutU64(offset);
      w.PutU32(static_cast<uint32_t>(data.size()));
      w.PutBytes(data);
      LogOp(std::move(rec));
    }
    MaybeAutoCp();
  }
  return Status::Ok();
}

Status Filesystem::Read(Inum inum, uint64_t offset, uint64_t length,
                        std::vector<uint8_t>* out, std::vector<Vbn>* vbns) {
  BKUP_ASSIGN_OR_RETURN(FileState * state, LoadFile(inum));
  if (!state->inode.in_use()) {
    return NotFound("inode not in use");
  }
  out->clear();
  if (offset >= state->inode.size) {
    return Status::Ok();
  }
  length = std::min(length, state->inode.size - offset);
  out->reserve(length);
  uint64_t pos = offset;
  Block block;
  while (pos < offset + length) {
    const uint64_t fbn = pos / kBlockSize;
    const uint64_t in_block = pos % kBlockSize;
    const uint64_t n =
        std::min<uint64_t>(kBlockSize - in_block, offset + length - pos);
    Vbn vbn = 0;
    BKUP_RETURN_IF_ERROR(ReadFileBlockLive(state, fbn, &block, &vbn));
    if (vbns != nullptr && vbn != 0) {
      vbns->push_back(vbn);
    }
    out->insert(out->end(), block.data.begin() + static_cast<long>(in_block),
                block.data.begin() + static_cast<long>(in_block + n));
    pos += n;
  }
  state->inode.atime = env_->now();
  return Status::Ok();
}

Status Filesystem::DoTruncate(Inum inum, uint64_t new_size) {
  BKUP_ASSIGN_OR_RETURN(FileState * state, LoadFile(inum));
  if (!state->inode.in_use()) {
    return NotFound("inode not in use");
  }
  BKUP_RETURN_IF_ERROR(EnsurePtrsLoaded(state));
  if (new_size >= state->inode.size) {
    // Extension: the new tail is a hole.
    if ((new_size + kBlockSize - 1) / kBlockSize > kMaxFileBlocks) {
      return NoSpace("file would exceed maximum size");
    }
    state->inode.size = new_size;
    state->ptrs.resize(state->inode.NumBlocks(), 0);
  } else {
    const uint64_t keep_blocks = (new_size + kBlockSize - 1) / kBlockSize;
    for (uint64_t fbn = keep_blocks; fbn < state->ptrs.size(); ++fbn) {
      if (state->ptrs[fbn] != 0) {
        allocator_.FreeActive(state->ptrs[fbn]);
      }
      state->dirty_blocks.erase(fbn);
    }
    state->ptrs.resize(keep_blocks, 0);
    state->inode.size = new_size;
    // Zero the now-dead tail of the final partial block so later extensions
    // read zeros.
    const uint64_t tail = new_size % kBlockSize;
    if (tail != 0 && keep_blocks > 0) {
      Block last;
      BKUP_RETURN_IF_ERROR(ReadFileBlockLive(state, keep_blocks - 1, &last));
      std::memset(last.data.data() + tail, 0, kBlockSize - tail);
      state->dirty_blocks[keep_blocks - 1] = last;
    }
  }
  state->ptrs_dirty = true;
  state->inode.mtime = env_->now();
  state->inode_dirty = true;
  return Status::Ok();
}

Status Filesystem::Truncate(Inum inum, uint64_t new_size) {
  BKUP_RETURN_IF_ERROR(DoTruncate(inum, new_size));
  if (!replaying_) {
    std::vector<uint8_t> rec;
    ByteWriter w(&rec);
    w.PutU8(static_cast<uint8_t>(NvOp::kTruncate));
    w.PutU32(inum);
    w.PutU64(new_size);
    LogOp(std::move(rec));
    MaybeAutoCp();
  }
  return Status::Ok();
}

// ========================================================= consistency point

bool Filesystem::HasDirtyState() const {
  for (const auto& [inum, state] : files_) {
    if (state.inode_dirty || state.ptrs_dirty || !state.dirty_blocks.empty()) {
      return true;
    }
  }
  return false;
}

Status Filesystem::FlushFile(Inum inum, FileState* fs, CpReport* report) {
  (void)inum;
  if (fs->dirty_blocks.empty() && !fs->ptrs_dirty) {
    return Status::Ok();
  }
  BKUP_RETURN_IF_ERROR(EnsurePtrsLoaded(fs));
  // Write dirty data blocks to fresh locations ("write anywhere").
  for (const auto& [fbn, block] : fs->dirty_blocks) {
    BKUP_ASSIGN_OR_RETURN(Vbn vbn, allocator_.Allocate());
    BKUP_RETURN_IF_ERROR(volume_->WriteBlock(vbn, block));
    if (fbn < fs->ptrs.size() && fs->ptrs[fbn] != 0) {
      allocator_.FreeActive(fs->ptrs[fbn]);
      report->blocks_freed++;
    }
    assert(fbn < fs->ptrs.size());
    fs->ptrs[fbn] = static_cast<uint32_t>(vbn);
    report->data_writes.push_back(vbn);
  }
  fs->dirty_blocks.clear();
  // Rewrite the indirect chain copy-on-write.
  auto read = [this](Vbn v, Block* b) { return volume_->ReadBlock(v, b); };
  auto free_block = [this, report](Vbn v) {
    allocator_.FreeActive(v);
    report->blocks_freed++;
  };
  BKUP_RETURN_IF_ERROR(FreeIndirectBlocks(read, free_block, &fs->inode));
  auto write = [this, report](Vbn v, const Block& b) {
    report->meta_writes.push_back(v);
    return volume_->WriteBlock(v, b);
  };
  auto alloc = [this]() { return allocator_.Allocate(); };
  BKUP_RETURN_IF_ERROR(StorePointerMap(write, alloc, fs->ptrs, &fs->inode));
  fs->ptrs_dirty = false;
  fs->inode_dirty = true;
  return Status::Ok();
}

Status Filesystem::FlushInodeFile(CpReport* report) {
  // Which inode-file blocks contain dirty inodes?
  std::vector<uint64_t> dirty_fbns;
  for (auto& [inum, state] : files_) {
    if (state.inode_dirty) {
      const uint64_t fbn = inum / kInodesPerBlock;
      if (dirty_fbns.empty() || dirty_fbns.back() != fbn) {
        dirty_fbns.push_back(fbn);
      }
    }
  }
  if (dirty_fbns.empty()) {
    return Status::Ok();
  }
  for (uint64_t fbn : dirty_fbns) {
    // Start from the old on-disk block (preserving the other inodes), then
    // patch in every cached inode that lives in it.
    Block block;
    if (fbn < inode_file_ptrs_.size() && inode_file_ptrs_[fbn] != 0) {
      BKUP_RETURN_IF_ERROR(volume_->ReadBlock(inode_file_ptrs_[fbn], &block));
    } else {
      block.Zero();
    }
    const Inum first = static_cast<Inum>(fbn * kInodesPerBlock);
    for (Inum inum = first; inum < first + kInodesPerBlock; ++inum) {
      auto it = files_.find(inum);
      if (it == files_.end()) {
        continue;
      }
      std::vector<uint8_t> bytes;
      ByteWriter w(&bytes);
      it->second.inode.SerializeTo(&w);
      std::memcpy(block.data.data() + (inum % kInodesPerBlock) * kInodeSize,
                  bytes.data(), kInodeSize);
      it->second.inode_dirty = false;
    }
    BKUP_ASSIGN_OR_RETURN(Vbn vbn, allocator_.Allocate());
    BKUP_RETURN_IF_ERROR(volume_->WriteBlock(vbn, block));
    if (fbn < inode_file_ptrs_.size() && inode_file_ptrs_[fbn] != 0) {
      allocator_.FreeActive(inode_file_ptrs_[fbn]);
      report->blocks_freed++;
    }
    inode_file_ptrs_[fbn] = static_cast<uint32_t>(vbn);
    report->meta_writes.push_back(vbn);
  }
  // Rewrite the inode file's indirect chain.
  auto read = [this](Vbn v, Block* b) { return volume_->ReadBlock(v, b); };
  auto free_block = [this, report](Vbn v) {
    allocator_.FreeActive(v);
    report->blocks_freed++;
  };
  BKUP_RETURN_IF_ERROR(
      FreeIndirectBlocks(read, free_block, &inode_file_inode_));
  auto write = [this, report](Vbn v, const Block& b) {
    report->meta_writes.push_back(v);
    return volume_->WriteBlock(v, b);
  };
  auto alloc = [this]() { return allocator_.Allocate(); };
  BKUP_RETURN_IF_ERROR(
      StorePointerMap(write, alloc, inode_file_ptrs_, &inode_file_inode_));
  return Status::Ok();
}

Status Filesystem::FlushBlockMapFile(CpReport* report) {
  // Detach the old incarnation.
  for (uint32_t p : blockmap_ptrs_) {
    if (p != 0) {
      allocator_.FreeActive(p);
    }
  }
  auto read = [this](Vbn v, Block* b) { return volume_->ReadBlock(v, b); };
  auto free_block = [this](Vbn v) { allocator_.FreeActive(v); };
  BKUP_RETURN_IF_ERROR(FreeIndirectBlocks(read, free_block, &blockmap_inode_));

  // Pre-allocate every data block, then the indirect chain, so that all
  // allocation for this consistency point is finished *before* the map is
  // rendered — the rendered content therefore describes its own layout.
  std::vector<uint32_t> new_ptrs(blockmap_.FileBlocks());
  for (auto& p : new_ptrs) {
    BKUP_ASSIGN_OR_RETURN(Vbn vbn, allocator_.Allocate());
    p = static_cast<uint32_t>(vbn);
  }
  auto write = [this, report](Vbn v, const Block& b) {
    report->meta_writes.push_back(v);
    return volume_->WriteBlock(v, b);
  };
  auto alloc = [this]() { return allocator_.Allocate(); };
  BKUP_RETURN_IF_ERROR(
      StorePointerMap(write, alloc, new_ptrs, &blockmap_inode_));

  // Render and write the final map.
  Block block;
  for (uint64_t fbn = 0; fbn < new_ptrs.size(); ++fbn) {
    blockmap_.RenderFileBlock(fbn, &block);
    BKUP_RETURN_IF_ERROR(volume_->WriteBlock(new_ptrs[fbn], block));
    report->meta_writes.push_back(new_ptrs[fbn]);
  }
  blockmap_ptrs_ = std::move(new_ptrs);
  return Status::Ok();
}

Status Filesystem::WriteFsInfo(CpReport* report) {
  FsInfo info;
  info.generation = generation_;
  info.volume_blocks = volume_->num_blocks();
  info.max_inodes = max_inodes_;
  info.cp_time = env_->now();
  info.alloc_write_point = allocator_.write_point();
  info.inode_file = inode_file_inode_;
  info.blockmap_file = blockmap_inode_;
  info.snapshots = snapshots_;
  BKUP_ASSIGN_OR_RETURN(Block block, info.SerializeToBlock());
  BKUP_RETURN_IF_ERROR(volume_->WriteBlock(kFsInfoPrimary, block));
  BKUP_RETURN_IF_ERROR(volume_->WriteBlock(kFsInfoBackup, block));
  report->meta_writes.push_back(kFsInfoPrimary);
  report->meta_writes.push_back(kFsInfoBackup);
  return Status::Ok();
}

Result<CpReport> Filesystem::ConsistencyPoint() {
  assert(!in_cp_);
  in_cp_ = true;
  CpReport report;
  generation_++;
  report.generation = generation_;

  // 1. User and directory files, ascending inum for determinism.
  for (auto& [inum, state] : files_) {
    Status st = FlushFile(inum, &state, &report);
    if (!st.ok()) {
      in_cp_ = false;
      return st;
    }
  }
  // 2. The inode file.
  {
    Status st = FlushInodeFile(&report);
    if (!st.ok()) {
      in_cp_ = false;
      return st;
    }
  }
  // 3. The block-map file (must be last: it freezes allocation state).
  {
    Status st = FlushBlockMapFile(&report);
    if (!st.ok()) {
      in_cp_ = false;
      return st;
    }
  }
  // 4. The root, written atomically at its fixed redundant locations.
  {
    Status st = WriteFsInfo(&report);
    if (!st.ok()) {
      in_cp_ = false;
      return st;
    }
  }
  // 5. Everything logged is now durable.
  if (nvram_ != nullptr) {
    nvram_->Clear();
  }
  last_cp_time_ = env_->now();
  // Drop cache entries for freed inodes; keep the rest (they are clean).
  for (auto it = files_.begin(); it != files_.end();) {
    if (!it->second.inode.in_use() && !it->second.inode_dirty) {
      it = files_.erase(it);
    } else {
      ++it;
    }
  }
  cp_data_writes_since_mark_ += report.data_writes.size();
  cp_meta_writes_since_mark_ += report.meta_writes.size();
  in_cp_ = false;
  return report;
}

void Filesystem::MaybeAutoCp() {
  if (in_cp_) {
    return;
  }
  if (env_->now() - last_cp_time_ >= cp_interval_) {
    Status st = ConsistencyPoint().status();
    assert(st.ok());
    (void)st;
  }
}

// ================================================================ snapshots

Result<SnapshotInfo> Filesystem::FindSnapshot(const std::string& name) const {
  for (const SnapshotInfo& s : snapshots_) {
    if (s.name == name) {
      return s;
    }
  }
  return NotFound("no such snapshot '" + name + "'");
}

Status Filesystem::CreateSnapshot(const std::string& name) {
  if (name.empty() || name.size() > kMaxSnapshotNameLen) {
    return InvalidArgument("bad snapshot name");
  }
  if (FindSnapshot(name).ok()) {
    return AlreadyExists("snapshot '" + name + "' exists");
  }
  if (snapshots_.size() >= kMaxSnapshots) {
    return Exhausted("snapshot table full (max 20)");
  }
  // Pick the lowest unused plane.
  uint8_t plane = 0;
  for (uint8_t candidate = 1; candidate <= kMaxSnapshots; ++candidate) {
    bool taken = false;
    for (const SnapshotInfo& s : snapshots_) {
      if (s.plane == candidate) {
        taken = true;
        break;
      }
    }
    if (!taken) {
      plane = candidate;
      break;
    }
  }
  assert(plane != 0);

  // Quiesce: everything dirty reaches disk, so the snapshot's root describes
  // a complete on-disk tree.
  BKUP_RETURN_IF_ERROR(ConsistencyPoint().status());

  SnapshotInfo snap;
  snap.plane = plane;
  snap.name = name;
  snap.create_time = env_->now();
  snap.generation = generation_;
  snap.inode_file = inode_file_inode_;
  blockmap_.CopyPlane(kActivePlane, plane);
  snap.used_blocks = blockmap_.CountPlane(plane);
  snapshots_.push_back(std::move(snap));

  // Persist the new plane and snapshot table.
  return ConsistencyPoint().status();
}

Status Filesystem::DeleteSnapshot(const std::string& name) {
  for (auto it = snapshots_.begin(); it != snapshots_.end(); ++it) {
    if (it->name == name) {
      blockmap_.ClearPlane(it->plane);
      snapshots_.erase(it);
      return ConsistencyPoint().status();
    }
  }
  return NotFound("no such snapshot '" + name + "'");
}

Result<FsReader> Filesystem::SnapshotReader(const std::string& name) const {
  BKUP_ASSIGN_OR_RETURN(SnapshotInfo snap, FindSnapshot(name));
  return FsReader(volume_, snap.inode_file, max_inodes_);
}

FsReader Filesystem::LiveReader() const {
  return FsReader(volume_, inode_file_inode_, max_inodes_);
}

// ================================================================= queries

FsStats Filesystem::Stats() const {
  FsStats stats;
  stats.volume_blocks = volume_->num_blocks();
  stats.free_blocks = blockmap_.CountFree() - kFirstAllocatableVbn;
  stats.active_blocks = blockmap_.CountPlane(kActivePlane);
  stats.snapshot_only_blocks =
      blockmap_.CountUsed() - stats.active_blocks;
  stats.inodes_used = static_cast<uint32_t>(inode_used_.CountOnes()) - 2;
  stats.max_inodes = max_inodes_;
  stats.generation = generation_;
  return stats;
}

// ==================================================================== NVRAM

void Filesystem::LogOp(std::vector<uint8_t> record) {
  if (nvram_ == nullptr) {
    return;
  }
  if (nvram_->WouldOverflow(record.size())) {
    // Log pressure forces a consistency point, after which the log is empty.
    Status st = ConsistencyPoint().status();
    assert(st.ok());
    (void)st;
  }
  nvram_->Append(std::move(record));
}

Status Filesystem::ReplayNvram() {
  replaying_ = true;
  for (const std::vector<uint8_t>& rec : nvram_->records()) {
    ByteReader r(rec);
    BKUP_ASSIGN_OR_RETURN(uint8_t op_raw, r.ReadU8());
    const NvOp op = static_cast<NvOp>(op_raw);
    Status st = Status::Ok();
    switch (op) {
      case NvOp::kCreate: {
        BKUP_ASSIGN_OR_RETURN(std::string path, r.ReadString());
        BKUP_ASSIGN_OR_RETURN(uint16_t mode, r.ReadU16());
        st = DoCreate(path, InodeType::kFile, mode, "").status();
        break;
      }
      case NvOp::kMkdir: {
        BKUP_ASSIGN_OR_RETURN(std::string path, r.ReadString());
        BKUP_ASSIGN_OR_RETURN(uint16_t mode, r.ReadU16());
        st = DoCreate(path, InodeType::kDirectory, mode, "").status();
        break;
      }
      case NvOp::kSymlink: {
        BKUP_ASSIGN_OR_RETURN(std::string target, r.ReadString());
        BKUP_ASSIGN_OR_RETURN(std::string path, r.ReadString());
        st = DoCreate(path, InodeType::kSymlink, 0777, target).status();
        break;
      }
      case NvOp::kLink: {
        BKUP_ASSIGN_OR_RETURN(std::string existing, r.ReadString());
        BKUP_ASSIGN_OR_RETURN(std::string path, r.ReadString());
        st = DoLink(existing, path);
        break;
      }
      case NvOp::kUnlink: {
        BKUP_ASSIGN_OR_RETURN(std::string path, r.ReadString());
        st = DoUnlink(path, false);
        break;
      }
      case NvOp::kRmdir: {
        BKUP_ASSIGN_OR_RETURN(std::string path, r.ReadString());
        st = DoUnlink(path, true);
        break;
      }
      case NvOp::kRename: {
        BKUP_ASSIGN_OR_RETURN(std::string from, r.ReadString());
        BKUP_ASSIGN_OR_RETURN(std::string to, r.ReadString());
        st = DoRename(from, to);
        break;
      }
      case NvOp::kWrite: {
        BKUP_ASSIGN_OR_RETURN(uint32_t inum, r.ReadU32());
        BKUP_ASSIGN_OR_RETURN(uint64_t offset, r.ReadU64());
        BKUP_ASSIGN_OR_RETURN(uint32_t len, r.ReadU32());
        BKUP_ASSIGN_OR_RETURN(auto data, r.ReadSpan(len));
        st = DoWrite(inum, offset, data);
        break;
      }
      case NvOp::kTruncate: {
        BKUP_ASSIGN_OR_RETURN(uint32_t inum, r.ReadU32());
        BKUP_ASSIGN_OR_RETURN(uint64_t size, r.ReadU64());
        st = DoTruncate(inum, size);
        break;
      }
      case NvOp::kSetAttr: {
        BKUP_ASSIGN_OR_RETURN(uint32_t inum, r.ReadU32());
        BKUP_ASSIGN_OR_RETURN(uint8_t flags, r.ReadU8());
        SetAttrRequest req;
        BKUP_ASSIGN_OR_RETURN(uint16_t mode, r.ReadU16());
        BKUP_ASSIGN_OR_RETURN(uint32_t uid, r.ReadU32());
        BKUP_ASSIGN_OR_RETURN(uint32_t gid, r.ReadU32());
        BKUP_ASSIGN_OR_RETURN(int64_t mtime, r.ReadI64());
        BKUP_ASSIGN_OR_RETURN(int64_t atime, r.ReadI64());
        if (flags & 1) {
          req.mode = mode;
        }
        if (flags & 2) {
          req.uid = uid;
        }
        if (flags & 4) {
          req.gid = gid;
        }
        if (flags & 8) {
          req.mtime = mtime;
        }
        if (flags & 16) {
          req.atime = atime;
        }
        st = DoSetAttr(inum, req);
        break;
      }
      default:
        replaying_ = false;
        return Corruption("unknown NVRAM opcode");
    }
    if (!st.ok()) {
      replaying_ = false;
      return st;
    }
  }
  replaying_ = false;
  return Status::Ok();
}

}  // namespace bkup
