#include "src/fs/reader.h"

#include <algorithm>
#include <cstring>

namespace bkup {

FsReader::FsReader(Volume* volume, InodeData inode_file_root,
                   uint32_t max_inodes)
    : volume_(volume),
      inode_file_root_(inode_file_root),
      max_inodes_(max_inodes) {}

Status FsReader::ReadRaw(Vbn vbn, Block* out) const {
  return volume_->ReadBlock(vbn, out);
}

Result<InodeData> FsReader::ReadInode(Inum inum) const {
  if (inum >= max_inodes_) {
    return InodeData{};  // beyond the inode file: free
  }
  if (!inode_file_ptrs_loaded_) {
    auto read = [this](Vbn v, Block* b) { return ReadRaw(v, b); };
    BKUP_RETURN_IF_ERROR(
        LoadPointerMap(read, inode_file_root_, &inode_file_ptrs_));
    inode_file_ptrs_loaded_ = true;
  }
  const uint64_t fbn = inum / kInodesPerBlock;
  if (fbn >= inode_file_ptrs_.size() || inode_file_ptrs_[fbn] == 0) {
    return InodeData{};  // hole in the inode file: all inodes free
  }
  Block block;
  BKUP_RETURN_IF_ERROR(ReadRaw(inode_file_ptrs_[fbn], &block));
  return InodeAt(block, inum);
}

Status FsReader::ReadFile(const InodeData& inode, uint64_t offset,
                          uint64_t length, std::vector<uint8_t>* out) const {
  out->clear();
  if (offset >= inode.size) {
    return Status::Ok();
  }
  length = std::min(length, inode.size - offset);
  out->reserve(length);

  std::vector<uint32_t> ptrs;
  auto read = [this](Vbn v, Block* b) { return ReadRaw(v, b); };
  BKUP_RETURN_IF_ERROR(LoadPointerMap(read, inode, &ptrs));

  uint64_t pos = offset;
  Block block;
  while (pos < offset + length) {
    const uint64_t fbn = pos / kBlockSize;
    const uint64_t in_block = pos % kBlockSize;
    const uint64_t n =
        std::min<uint64_t>(kBlockSize - in_block, offset + length - pos);
    if (fbn >= ptrs.size() || ptrs[fbn] == 0) {
      out->insert(out->end(), n, 0);
    } else {
      BKUP_RETURN_IF_ERROR(ReadRaw(ptrs[fbn], &block));
      out->insert(out->end(), block.data.begin() + static_cast<long>(in_block),
                  block.data.begin() + static_cast<long>(in_block + n));
    }
    pos += n;
  }
  return Status::Ok();
}

Result<std::vector<uint32_t>> FsReader::PointerMap(
    const InodeData& inode) const {
  std::vector<uint32_t> ptrs;
  auto read = [this](Vbn v, Block* b) { return ReadRaw(v, b); };
  BKUP_RETURN_IF_ERROR(LoadPointerMap(read, inode, &ptrs));
  return ptrs;
}

Vbn FsReader::InodeFileVbn(Inum inum) const {
  if (inum >= max_inodes_ || !inode_file_ptrs_loaded_) {
    // Force the lazy load through ReadInode's path.
    Result<InodeData> unused = ReadInode(std::min(inum, max_inodes_ - 1));
    (void)unused;
  }
  const uint64_t fbn = inum / kInodesPerBlock;
  if (fbn >= inode_file_ptrs_.size()) {
    return 0;
  }
  return inode_file_ptrs_[fbn];
}

Result<std::vector<DirEntry>> FsReader::ReadDir(const InodeData& inode) const {
  if (inode.type != InodeType::kDirectory) {
    return NotADirectory("ReadDir of a non-directory inode");
  }
  std::vector<uint8_t> bytes;
  BKUP_RETURN_IF_ERROR(ReadFile(inode, 0, inode.size, &bytes));
  return ParseDirectory(bytes);
}

Result<std::vector<DirEntry>> FsReader::ReadDirInum(Inum inum) const {
  BKUP_ASSIGN_OR_RETURN(InodeData inode, ReadInode(inum));
  if (!inode.in_use()) {
    return NotFound("directory inode not in use");
  }
  return ReadDir(inode);
}

Result<Inum> FsReader::LookupPath(const std::string& path) const {
  BKUP_ASSIGN_OR_RETURN(std::vector<std::string> parts, SplitPath(path));
  Inum current = kRootDirInum;
  for (const std::string& part : parts) {
    BKUP_ASSIGN_OR_RETURN(InodeData dir, ReadInode(current));
    if (!dir.in_use()) {
      return NotFound("dangling directory inode in path");
    }
    if (dir.type != InodeType::kDirectory) {
      return NotADirectory("'" + part + "': parent is not a directory");
    }
    BKUP_ASSIGN_OR_RETURN(std::vector<DirEntry> entries, ReadDir(dir));
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

Result<std::vector<std::string>> SplitPath(std::string_view path) {
  if (path.empty() || path[0] != '/') {
    return InvalidArgument("path must be absolute: '" + std::string(path) +
                           "'");
  }
  std::vector<std::string> parts;
  size_t i = 1;
  while (i < path.size()) {
    size_t j = path.find('/', i);
    if (j == std::string::npos) {
      j = path.size();
    }
    if (j == i) {
      return InvalidArgument("empty path component in '" +
                             std::string(path) + "'");
    }
    const std::string_view part = path.substr(i, j - i);
    if (part.size() > kMaxNameLen) {
      return InvalidArgument("name too long in '" + std::string(path) + "'");
    }
    if (part == "." || part == "..") {
      return InvalidArgument("'.' and '..' are not supported in paths");
    }
    parts.emplace_back(part);
    i = j + 1;
  }
  return parts;
}

Result<FsInfo> ReadFsInfoFromVolume(Volume* volume) {
  Block block;
  BKUP_RETURN_IF_ERROR(volume->ReadBlock(kFsInfoPrimary, &block));
  Result<FsInfo> info = FsInfo::DeserializeFromBlock(block);
  if (info.ok()) {
    return info;
  }
  BKUP_RETURN_IF_ERROR(volume->ReadBlock(kFsInfoBackup, &block));
  info = FsInfo::DeserializeFromBlock(block);
  if (!info.ok()) {
    return Corruption("both fsinfo copies unreadable: " +
                      info.status().message());
  }
  return info;
}

Result<BlockMap> LoadBlockMapFromVolume(Volume* volume, const FsInfo& fsinfo,
                                        std::vector<Vbn>* reads,
                                        std::vector<uint32_t>* ptrs) {
  BlockMap map(fsinfo.volume_blocks);
  auto read = [volume, reads](Vbn v, Block* b) {
    if (reads != nullptr) {
      reads->push_back(v);
    }
    return volume->ReadBlock(v, b);
  };
  std::vector<uint32_t> local_ptrs;
  if (ptrs == nullptr) {
    ptrs = &local_ptrs;
  }
  BKUP_RETURN_IF_ERROR(LoadPointerMap(read, fsinfo.blockmap_file, ptrs));
  Block block;
  for (uint64_t fbn = 0; fbn < ptrs->size(); ++fbn) {
    if ((*ptrs)[fbn] == 0) {
      return Corruption("block-map file has a hole");
    }
    BKUP_RETURN_IF_ERROR(read((*ptrs)[fbn], &block));
    map.LoadFileBlock(fbn, block);
  }
  return map;
}

}  // namespace bkup
