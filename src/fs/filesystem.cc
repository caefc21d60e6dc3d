#include "src/fs/filesystem.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace bkup {

namespace {

uint16_t DefaultDirMode() { return 0755; }

// SetAttr records carry every field, with a bit per field that is set.
enum SetAttrBits : uint8_t {
  kSetMode = 1,
  kSetUid = 2,
  kSetGid = 4,
  kSetMtime = 8,
  kSetAtime = 16,
};

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
  FileState* root_state =
      &fs->files_.emplace(kRootDirInum, std::move(root)).first->second;
  BKUP_RETURN_IF_ERROR(fs->WriteDirState(kRootDirInum, root_state, {}));

  BKUP_RETURN_IF_ERROR(fs->ConsistencyPoint().status());
  return fs;
}

Result<std::unique_ptr<Filesystem>> Filesystem::Mount(Volume* volume,
                                                      SimEnvironment* env,
                                                      NvramLog* nvram) {
  BKUP_ASSIGN_OR_RETURN(FsInfo info, ReadFsInfoFromVolume(volume));
  if (info.volume_blocks != volume->num_blocks()) {
    return Corruption("fsinfo volume size does not match this volume");
  }

  std::unique_ptr<Filesystem> fs(new Filesystem(volume, env, nvram));
  fs->generation_ = info.generation;
  fs->max_inodes_ = info.max_inodes;
  fs->inode_file_inode_ = info.inode_file;
  fs->blockmap_inode_ = info.blockmap_file;
  fs->snapshots_ = info.snapshots;
  fs->last_cp_time_ = env->now();

  BKUP_ASSIGN_OR_RETURN(
      fs->blockmap_,
      LoadBlockMapFromVolume(volume, info, nullptr, &fs->blockmap_ptrs_));
  fs->allocator_ = WriteAllocator(&fs->blockmap_);
  fs->allocator_.set_write_point(info.alloc_write_point);

  auto read = [volume](Vbn v, Block* b) { return volume->ReadBlock(v, b); };
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
      BKUP_ASSIGN_OR_RETURN(InodeData ino, InodeAt(block, i));
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
    BKUP_ASSIGN_OR_RETURN(state.inode, InodeAt(block, inum));
  }
  return &files_.emplace(inum, std::move(state)).first->second;
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
  Status st = EnsurePtrsLoaded(fs);
  assert(st.ok());
  st = FreeTree(&fs->inode, fs->ptrs);
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
  BKUP_RETURN_IF_ERROR(DoWrite(dir_inum, 0, bytes));
  if (bytes.size() < dir->inode.size) {
    BKUP_RETURN_IF_ERROR(DoTruncate(dir_inum, bytes.size()));
  }
  dir->inode.mtime = env_->now();
  dir->inode_dirty = true;
  return Status::Ok();
}

Result<Inum> Filesystem::Walk(std::span<const std::string> parts) {
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

Result<Filesystem::ResolvedParent> Filesystem::ResolveParent(
    std::string_view path) {
  BKUP_ASSIGN_OR_RETURN(std::vector<std::string> parts, SplitPath(path));
  if (parts.empty()) {
    return InvalidArgument("path names the root directory");
  }
  BKUP_ASSIGN_OR_RETURN(Inum parent,
                        Walk(std::span(parts).first(parts.size() - 1)));
  return ResolvedParent{parent, std::move(parts.back())};
}

Result<Inum> Filesystem::LookupPath(std::string_view path) {
  BKUP_ASSIGN_OR_RETURN(std::vector<std::string> parts, SplitPath(path));
  return Walk(parts);
}

// ========================================================== namespace ops

Result<Inum> Filesystem::DoCreate(std::string_view path, InodeType type,
                                  uint16_t mode,
                                  std::string_view symlink_target) {
  BKUP_ASSIGN_OR_RETURN(ResolvedParent rp, ResolveParent(path));
  BKUP_ASSIGN_OR_RETURN(FileState * parent, LoadFile(rp.parent));
  BKUP_ASSIGN_OR_RETURN(std::vector<DirEntry> entries, ReadDirState(parent));
  for (const DirEntry& e : entries) {
    if (e.name == rp.leaf) {
      return AlreadyExists("'" + std::string(path) + "' exists");
    }
  }
  BKUP_ASSIGN_OR_RETURN(Inum inum, AllocateInum(type, mode));
  entries.push_back(DirEntry{inum, type, rp.leaf});
  BKUP_RETURN_IF_ERROR(WriteDirState(rp.parent, parent, entries));
  if (type == InodeType::kDirectory) {
    BKUP_ASSIGN_OR_RETURN(FileState * dir, LoadFile(inum));
    BKUP_RETURN_IF_ERROR(WriteDirState(inum, dir, {}));
  } else if (type == InodeType::kSymlink) {
    const auto* data =
        reinterpret_cast<const uint8_t*>(symlink_target.data());
    BKUP_RETURN_IF_ERROR(
        DoWrite(inum, 0, std::span(data, symlink_target.size())));
  }
  return inum;
}

Status Filesystem::DoLink(std::string_view existing,
                          std::string_view new_path) {
  BKUP_ASSIGN_OR_RETURN(Inum target, LookupPath(existing));
  BKUP_ASSIGN_OR_RETURN(FileState * tstate, LoadFile(target));
  if (tstate->inode.type == InodeType::kDirectory) {
    return IsADirectory("cannot hard-link a directory");
  }
  BKUP_ASSIGN_OR_RETURN(ResolvedParent rp, ResolveParent(new_path));
  BKUP_ASSIGN_OR_RETURN(FileState * parent, LoadFile(rp.parent));
  BKUP_ASSIGN_OR_RETURN(std::vector<DirEntry> entries, ReadDirState(parent));
  for (const DirEntry& e : entries) {
    if (e.name == rp.leaf) {
      return AlreadyExists("'" + std::string(new_path) + "' exists");
    }
  }
  entries.push_back(DirEntry{target, tstate->inode.type, rp.leaf});
  BKUP_RETURN_IF_ERROR(WriteDirState(rp.parent, parent, entries));
  tstate->inode.nlink++;
  tstate->inode.ctime = env_->now();
  tstate->inode_dirty = true;
  return Status::Ok();
}

Status Filesystem::DoUnlink(std::string_view path, bool must_be_dir) {
  BKUP_ASSIGN_OR_RETURN(ResolvedParent rp, ResolveParent(path));
  BKUP_ASSIGN_OR_RETURN(FileState * parent, LoadFile(rp.parent));
  BKUP_ASSIGN_OR_RETURN(std::vector<DirEntry> entries, ReadDirState(parent));
  const auto it =
      std::find_if(entries.begin(), entries.end(),
                   [&rp](const DirEntry& e) { return e.name == rp.leaf; });
  if (it == entries.end()) {
    return NotFound("'" + std::string(path) + "' not found");
  }
  const Inum inum = it->inum;
  BKUP_ASSIGN_OR_RETURN(FileState * state, LoadFile(inum));
  if (must_be_dir) {
    if (state->inode.type != InodeType::kDirectory) {
      return NotADirectory("'" + std::string(path) + "' is not a directory");
    }
    BKUP_ASSIGN_OR_RETURN(std::vector<DirEntry> children, ReadDirState(state));
    if (!children.empty()) {
      return NotEmpty("'" + std::string(path) + "' is not empty");
    }
  } else if (state->inode.type == InodeType::kDirectory) {
    return IsADirectory("'" + std::string(path) + "' is a directory; use Rmdir");
  }

  entries.erase(it);
  BKUP_RETURN_IF_ERROR(WriteDirState(rp.parent, parent, entries));

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

Status Filesystem::DoRename(std::string_view from, std::string_view to) {
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
    return NotFound("'" + std::string(from) + "' not found");
  }
  const DirEntry moving = *src_it;

  // If the destination exists, it must be replaceable.
  Result<Inum> existing = LookupPath(to);
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

  // Remove the source entry (unlinking the destination may have rewritten
  // the source directory).
  {
    BKUP_ASSIGN_OR_RETURN(std::vector<DirEntry> entries,
                          ReadDirState(src_parent));
    const auto it = std::find_if(
        entries.begin(), entries.end(),
        [&src](const DirEntry& e) { return e.name == src.leaf; });
    if (it == entries.end()) {
      return NotFound("source vanished during rename");
    }
    entries.erase(it);
    BKUP_RETURN_IF_ERROR(WriteDirState(src.parent, src_parent, entries));
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

Status Filesystem::DoWrite(Inum inum, uint64_t offset,
                           std::span<const uint8_t> data) {
  BKUP_ASSIGN_OR_RETURN(FileState * state, LoadFile(inum));
  if (!state->inode.in_use()) {
    return NotFound("inode not in use");
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

// ========================================================= consistency point

bool Filesystem::HasDirtyState() const {
  for (const auto& [inum, state] : files_) {
    if (state.inode_dirty || state.ptrs_dirty || !state.dirty_blocks.empty()) {
      return true;
    }
  }
  return false;
}

Status Filesystem::WriteAnywhere(uint64_t fbn, const Block& block,
                                 std::vector<uint32_t>* ptrs,
                                 std::vector<Vbn>* writes) {
  BKUP_ASSIGN_OR_RETURN(Vbn vbn, allocator_.Allocate());
  BKUP_RETURN_IF_ERROR(volume_->WriteBlock(vbn, block));
  uint32_t& ptr = (*ptrs)[fbn];
  if (ptr != 0) {
    allocator_.FreeActive(ptr);
  }
  ptr = static_cast<uint32_t>(vbn);
  writes->push_back(vbn);
  return Status::Ok();
}

Status Filesystem::FreeTree(InodeData* inode, std::span<const uint32_t> data) {
  for (uint32_t p : data) {
    if (p != 0) {
      allocator_.FreeActive(p);
    }
  }
  auto read = [this](Vbn v, Block* b) { return volume_->ReadBlock(v, b); };
  auto free_block = [this](Vbn v) { allocator_.FreeActive(v); };
  return FreeIndirectBlocks(read, free_block, inode);
}

Status Filesystem::StoreTree(const std::vector<uint32_t>& ptrs,
                             InodeData* inode, CpReport* report) {
  auto write = [this, report](Vbn v, const Block& b) {
    report->meta_writes.push_back(v);
    return volume_->WriteBlock(v, b);
  };
  auto alloc = [this]() { return allocator_.Allocate(); };
  return StorePointerMap(write, alloc, ptrs, inode);
}

Status Filesystem::FlushFile(FileState* fs, CpReport* report) {
  if (fs->dirty_blocks.empty() && !fs->ptrs_dirty) {
    return Status::Ok();
  }
  BKUP_RETURN_IF_ERROR(EnsurePtrsLoaded(fs));
  for (const auto& [fbn, block] : fs->dirty_blocks) {
    BKUP_RETURN_IF_ERROR(
        WriteAnywhere(fbn, block, &fs->ptrs, &report->data_writes));
  }
  fs->dirty_blocks.clear();
  // Rewrite the indirect chain copy-on-write.
  BKUP_RETURN_IF_ERROR(FreeTree(&fs->inode));
  BKUP_RETURN_IF_ERROR(StoreTree(fs->ptrs, &fs->inode, report));
  fs->ptrs_dirty = false;
  fs->inode_dirty = true;
  return Status::Ok();
}

Status Filesystem::FlushInodeFile(CpReport* report) {
  // Every inode-file block holding a dirty inode is rendered from its old
  // on-disk content (preserving the other inodes) with every cached inode
  // in it patched in, then written anywhere. Blocks go in ascending order.
  bool wrote = false;
  Block block;
  for (auto it = files_.begin(); it != files_.end();) {
    if (!it->second.inode_dirty) {
      ++it;
      continue;
    }
    const uint64_t fbn = it->first / kInodesPerBlock;
    if (inode_file_ptrs_[fbn] != 0) {
      BKUP_RETURN_IF_ERROR(volume_->ReadBlock(inode_file_ptrs_[fbn], &block));
    } else {
      block.Zero();
    }
    const Inum first = static_cast<Inum>(fbn * kInodesPerBlock);
    for (it = files_.lower_bound(first);
         it != files_.end() && it->first < first + kInodesPerBlock; ++it) {
      PutInodeAt(&block, it->first, it->second.inode);
      it->second.inode_dirty = false;
    }
    BKUP_RETURN_IF_ERROR(
        WriteAnywhere(fbn, block, &inode_file_ptrs_, &report->meta_writes));
    wrote = true;
  }
  if (!wrote) {
    return Status::Ok();
  }
  // Rewrite the inode file's indirect chain.
  BKUP_RETURN_IF_ERROR(FreeTree(&inode_file_inode_));
  return StoreTree(inode_file_ptrs_, &inode_file_inode_, report);
}

Status Filesystem::FlushBlockMapFile(CpReport* report) {
  // Detach the old incarnation.
  BKUP_RETURN_IF_ERROR(FreeTree(&blockmap_inode_, blockmap_ptrs_));

  // Pre-allocate every data block, then the indirect chain, so that all
  // allocation for this consistency point is finished *before* the map is
  // rendered — the rendered content therefore describes its own layout.
  std::vector<uint32_t> new_ptrs(blockmap_.FileBlocks());
  for (auto& p : new_ptrs) {
    BKUP_ASSIGN_OR_RETURN(Vbn vbn, allocator_.Allocate());
    p = static_cast<uint32_t>(vbn);
  }
  BKUP_RETURN_IF_ERROR(StoreTree(new_ptrs, &blockmap_inode_, report));

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

Status Filesystem::Flush(CpReport* report) {
  // 1. User and directory files, ascending inum for determinism.
  for (auto& [inum, state] : files_) {
    BKUP_RETURN_IF_ERROR(FlushFile(&state, report));
  }
  // 2. The inode file.
  BKUP_RETURN_IF_ERROR(FlushInodeFile(report));
  // 3. The block-map file (must be last: it freezes allocation state).
  BKUP_RETURN_IF_ERROR(FlushBlockMapFile(report));
  // 4. The root, written atomically at its fixed redundant locations.
  return WriteFsInfo(report);
}

Result<CpReport> Filesystem::ConsistencyPoint() {
  assert(!in_cp_);
  in_cp_ = true;
  CpReport report;
  generation_++;
  report.generation = generation_;
  const Status flushed = Flush(&report);
  in_cp_ = false;
  BKUP_RETURN_IF_ERROR(flushed);
  // Everything logged is now durable.
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

// ======================================================= logged mutations

Result<Inum> Filesystem::Create(const std::string& path, uint16_t mode) {
  return Run({.code = OpCode::kCreate, .path = path, .mode = mode});
}

Result<Inum> Filesystem::Mkdir(const std::string& path, uint16_t mode) {
  return Run({.code = OpCode::kMkdir, .path = path, .mode = mode});
}

Result<Inum> Filesystem::SymlinkAt(const std::string& target,
                                   const std::string& path) {
  return Run({.code = OpCode::kSymlink, .path = path, .target = target});
}

Status Filesystem::Link(const std::string& existing,
                        const std::string& new_path) {
  return Run({.code = OpCode::kLink, .path = new_path, .target = existing})
      .status();
}

Status Filesystem::Unlink(const std::string& path) {
  return Run({.code = OpCode::kUnlink, .path = path}).status();
}

Status Filesystem::Rmdir(const std::string& path) {
  return Run({.code = OpCode::kRmdir, .path = path}).status();
}

Status Filesystem::Rename(const std::string& from, const std::string& to) {
  return Run({.code = OpCode::kRename, .path = from, .target = to}).status();
}

Status Filesystem::SetAttr(Inum inum, const SetAttrRequest& request) {
  return Run({.code = OpCode::kSetAttr, .inum = inum, .attrs = request})
      .status();
}

Status Filesystem::Write(Inum inum, uint64_t offset,
                         std::span<const uint8_t> data) {
  return Run({.code = OpCode::kWrite,
              .inum = inum,
              .offset = offset,
              .data = data})
      .status();
}

Status Filesystem::Truncate(Inum inum, uint64_t new_size) {
  return Run({.code = OpCode::kTruncate, .inum = inum, .offset = new_size})
      .status();
}

Result<Inum> Filesystem::Run(const LoggedOp& op) {
  BKUP_ASSIGN_OR_RETURN(Inum inum, Apply(op));
  if (nvram_ != nullptr) {
    std::vector<uint8_t> record = EncodeOp(op);
    if (nvram_->WouldOverflow(record.size())) {
      // Log pressure forces a consistency point, after which the log is empty.
      Status st = ConsistencyPoint().status();
      assert(st.ok());
      (void)st;
    }
    nvram_->Append(std::move(record));
  }
  MaybeAutoCp();
  return inum;
}

Result<Inum> Filesystem::Apply(const LoggedOp& op) {
  Status st = Status::Ok();
  switch (op.code) {
    case OpCode::kCreate:
      return DoCreate(op.path, InodeType::kFile, op.mode, {});
    case OpCode::kMkdir:
      return DoCreate(op.path, InodeType::kDirectory, op.mode, {});
    case OpCode::kSymlink:
      return DoCreate(op.path, InodeType::kSymlink, 0777, op.target);
    case OpCode::kLink:
      st = DoLink(op.target, op.path);
      break;
    case OpCode::kUnlink:
    case OpCode::kRmdir:
      st = DoUnlink(op.path, op.code == OpCode::kRmdir);
      break;
    case OpCode::kRename:
      st = DoRename(op.path, op.target);
      break;
    case OpCode::kWrite: {
      // Directories change through the namespace ops only; a raw write
      // would corrupt the directory format.
      BKUP_ASSIGN_OR_RETURN(FileState * state, LoadFile(op.inum));
      if (state->inode.type == InodeType::kDirectory) {
        return IsADirectory("cannot Write to a directory");
      }
      st = DoWrite(op.inum, op.offset, op.data);
      break;
    }
    case OpCode::kTruncate:
      st = DoTruncate(op.inum, op.offset);
      break;
    case OpCode::kSetAttr:
      st = DoSetAttr(op.inum, op.attrs);
      break;
  }
  BKUP_RETURN_IF_ERROR(st);
  return kInvalidInum;
}

std::vector<uint8_t> Filesystem::EncodeOp(const LoggedOp& op) {
  std::vector<uint8_t> record;
  // Fixed fields take at most 32 bytes (setattr).
  record.reserve(32 + op.path.size() + op.target.size() + op.data.size());
  ByteWriter w(&record);
  w.PutU8(static_cast<uint8_t>(op.code));
  switch (op.code) {
    case OpCode::kCreate:
    case OpCode::kMkdir:
      w.PutString(op.path);
      w.PutU16(op.mode);
      break;
    case OpCode::kSymlink:
    case OpCode::kLink:
      w.PutString(op.target);
      w.PutString(op.path);
      break;
    case OpCode::kUnlink:
    case OpCode::kRmdir:
      w.PutString(op.path);
      break;
    case OpCode::kRename:
      w.PutString(op.path);
      w.PutString(op.target);
      break;
    case OpCode::kWrite:
      w.PutU32(op.inum);
      w.PutU64(op.offset);
      w.PutU32(static_cast<uint32_t>(op.data.size()));
      w.PutBytes(op.data);
      break;
    case OpCode::kTruncate:
      w.PutU32(op.inum);
      w.PutU64(op.offset);
      break;
    case OpCode::kSetAttr: {
      const SetAttrRequest& a = op.attrs;
      w.PutU32(op.inum);
      w.PutU8((a.mode ? kSetMode : 0) | (a.uid ? kSetUid : 0) |
              (a.gid ? kSetGid : 0) | (a.mtime ? kSetMtime : 0) |
              (a.atime ? kSetAtime : 0));
      w.PutU16(a.mode.value_or(0));
      w.PutU32(a.uid.value_or(0));
      w.PutU32(a.gid.value_or(0));
      w.PutI64(a.mtime.value_or(0));
      w.PutI64(a.atime.value_or(0));
      break;
    }
  }
  return record;
}

Result<Filesystem::LoggedOp> Filesystem::DecodeOp(
    std::span<const uint8_t> record) {
  ByteReader r(record);
  BKUP_ASSIGN_OR_RETURN(uint8_t code, r.ReadU8());
  LoggedOp op{.code = static_cast<OpCode>(code)};
  switch (op.code) {
    case OpCode::kCreate:
    case OpCode::kMkdir: {
      BKUP_ASSIGN_OR_RETURN(op.path, r.ReadStringView());
      BKUP_ASSIGN_OR_RETURN(op.mode, r.ReadU16());
      return op;
    }
    case OpCode::kSymlink:
    case OpCode::kLink: {
      BKUP_ASSIGN_OR_RETURN(op.target, r.ReadStringView());
      BKUP_ASSIGN_OR_RETURN(op.path, r.ReadStringView());
      return op;
    }
    case OpCode::kUnlink:
    case OpCode::kRmdir: {
      BKUP_ASSIGN_OR_RETURN(op.path, r.ReadStringView());
      return op;
    }
    case OpCode::kRename: {
      BKUP_ASSIGN_OR_RETURN(op.path, r.ReadStringView());
      BKUP_ASSIGN_OR_RETURN(op.target, r.ReadStringView());
      return op;
    }
    case OpCode::kWrite: {
      BKUP_ASSIGN_OR_RETURN(op.inum, r.ReadU32());
      BKUP_ASSIGN_OR_RETURN(op.offset, r.ReadU64());
      BKUP_ASSIGN_OR_RETURN(uint32_t length, r.ReadU32());
      BKUP_ASSIGN_OR_RETURN(op.data, r.ReadSpan(length));
      return op;
    }
    case OpCode::kTruncate: {
      BKUP_ASSIGN_OR_RETURN(op.inum, r.ReadU32());
      BKUP_ASSIGN_OR_RETURN(op.offset, r.ReadU64());
      return op;
    }
    case OpCode::kSetAttr: {
      BKUP_ASSIGN_OR_RETURN(op.inum, r.ReadU32());
      BKUP_ASSIGN_OR_RETURN(uint8_t bits, r.ReadU8());
      BKUP_ASSIGN_OR_RETURN(uint16_t mode, r.ReadU16());
      BKUP_ASSIGN_OR_RETURN(uint32_t uid, r.ReadU32());
      BKUP_ASSIGN_OR_RETURN(uint32_t gid, r.ReadU32());
      BKUP_ASSIGN_OR_RETURN(int64_t mtime, r.ReadI64());
      BKUP_ASSIGN_OR_RETURN(int64_t atime, r.ReadI64());
      SetAttrRequest& a = op.attrs;
      if (bits & kSetMode) {
        a.mode = mode;
      }
      if (bits & kSetUid) {
        a.uid = uid;
      }
      if (bits & kSetGid) {
        a.gid = gid;
      }
      if (bits & kSetMtime) {
        a.mtime = mtime;
      }
      if (bits & kSetAtime) {
        a.atime = atime;
      }
      return op;
    }
  }
  return Corruption("unknown NVRAM opcode");
}

Status Filesystem::ReplayNvram() {
  for (const std::vector<uint8_t>& record : nvram_->records()) {
    BKUP_ASSIGN_OR_RETURN(LoggedOp op, DecodeOp(record));
    BKUP_RETURN_IF_ERROR(Apply(op).status());
  }
  return Status::Ok();
}

}  // namespace bkup
