#include "src/fs/layout.h"

#include <algorithm>
#include <cstring>

#include "src/util/checksum.h"

namespace bkup {

// ----------------------------------------------------------------- inode ---

void InodeData::SerializeTo(ByteWriter* writer) const {
  const size_t start = writer->size();
  writer->PutU8(static_cast<uint8_t>(type));
  writer->PutU16(nlink);
  writer->PutU16(mode);
  writer->PutU32(uid);
  writer->PutU32(gid);
  writer->PutU64(size);
  writer->PutI64(mtime);
  writer->PutI64(ctime);
  writer->PutI64(atime);
  writer->PutU32(generation);
  for (uint32_t p : direct) {
    writer->PutU32(p);
  }
  writer->PutU32(single_indirect);
  writer->PutU32(double_indirect);
  // Pad to the fixed on-disk inode size.
  while (writer->size() - start < kInodeSize) {
    writer->PutU8(0);
  }
}

Result<InodeData> InodeData::Deserialize(ByteReader* reader) {
  const size_t start = reader->position();
  InodeData ino;
  BKUP_ASSIGN_OR_RETURN(uint8_t type_raw, reader->ReadU8());
  if (type_raw > static_cast<uint8_t>(InodeType::kSymlink)) {
    return Corruption("bad inode type");
  }
  ino.type = static_cast<InodeType>(type_raw);
  BKUP_ASSIGN_OR_RETURN(ino.nlink, reader->ReadU16());
  BKUP_ASSIGN_OR_RETURN(ino.mode, reader->ReadU16());
  BKUP_ASSIGN_OR_RETURN(ino.uid, reader->ReadU32());
  BKUP_ASSIGN_OR_RETURN(ino.gid, reader->ReadU32());
  BKUP_ASSIGN_OR_RETURN(ino.size, reader->ReadU64());
  BKUP_ASSIGN_OR_RETURN(ino.mtime, reader->ReadI64());
  BKUP_ASSIGN_OR_RETURN(ino.ctime, reader->ReadI64());
  BKUP_ASSIGN_OR_RETURN(ino.atime, reader->ReadI64());
  BKUP_ASSIGN_OR_RETURN(ino.generation, reader->ReadU32());
  for (auto& p : ino.direct) {
    BKUP_ASSIGN_OR_RETURN(p, reader->ReadU32());
  }
  BKUP_ASSIGN_OR_RETURN(ino.single_indirect, reader->ReadU32());
  BKUP_ASSIGN_OR_RETURN(ino.double_indirect, reader->ReadU32());
  BKUP_RETURN_IF_ERROR(reader->Skip(kInodeSize - (reader->position() - start)));
  return ino;
}

Result<InodeData> InodeAt(const Block& block, Inum inum) {
  ByteReader r(std::span(block.data)
                   .subspan((inum % kInodesPerBlock) * kInodeSize, kInodeSize));
  return InodeData::Deserialize(&r);
}

void PutInodeAt(Block* block, Inum inum, const InodeData& inode) {
  std::vector<uint8_t> bytes;
  bytes.reserve(kInodeSize);
  ByteWriter w(&bytes);
  inode.SerializeTo(&w);
  std::memcpy(block->data.data() + (inum % kInodesPerBlock) * kInodeSize,
              bytes.data(), kInodeSize);
}

// ------------------------------------------------------------- directory ---

std::vector<uint8_t> SerializeDirectory(const std::vector<DirEntry>& entries) {
  std::vector<uint8_t> out;
  ByteWriter w(&out);
  w.PutU32(static_cast<uint32_t>(entries.size()));
  for (const DirEntry& e : entries) {
    w.PutU32(e.inum);
    w.PutU8(static_cast<uint8_t>(e.type));
    w.PutString(e.name);
  }
  return out;
}

Result<std::vector<DirEntry>> ParseDirectory(std::span<const uint8_t> bytes) {
  ByteReader r(bytes);
  BKUP_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
  std::vector<DirEntry> entries;
  // `count` is untrusted: reserve no more entries than the remaining bytes
  // could hold (at least 7 each: u32 inum, u8 type, u16 name length).
  entries.reserve(std::min<size_t>(count, r.remaining() / 7));
  for (uint32_t i = 0; i < count; ++i) {
    DirEntry e;
    BKUP_ASSIGN_OR_RETURN(e.inum, r.ReadU32());
    BKUP_ASSIGN_OR_RETURN(uint8_t type_raw, r.ReadU8());
    if (type_raw > static_cast<uint8_t>(InodeType::kSymlink)) {
      return Corruption("bad entry type in directory");
    }
    e.type = static_cast<InodeType>(type_raw);
    BKUP_ASSIGN_OR_RETURN(e.name, r.ReadString());
    entries.push_back(std::move(e));
  }
  return entries;
}

// ---------------------------------------------------------------- fsinfo ---

Result<Block> FsInfo::SerializeToBlock() const {
  std::vector<uint8_t> bytes;
  ByteWriter w(&bytes);
  w.PutU32(kFsMagic);
  w.PutU32(kFsVersion);
  w.PutU64(generation);
  w.PutU64(volume_blocks);
  w.PutU32(max_inodes);
  w.PutI64(cp_time);
  w.PutU64(alloc_write_point);
  inode_file.SerializeTo(&w);
  blockmap_file.SerializeTo(&w);
  w.PutU8(static_cast<uint8_t>(snapshots.size()));
  for (const SnapshotInfo& s : snapshots) {
    w.PutU8(s.plane);
    w.PutString(s.name);
    w.PutI64(s.create_time);
    w.PutU64(s.generation);
    s.inode_file.SerializeTo(&w);
    w.PutU64(s.used_blocks);
  }
  if (bytes.size() + 4 > kBlockSize) {
    return Corruption("fsinfo overflows its block");
  }
  // CRC over the payload, stored in the last 4 bytes of the block.
  Block block;
  block.CopyFrom(bytes);
  const uint32_t crc = Crc32c(std::span(block.data).first(kBlockSize - 4));
  block.data[kBlockSize - 4] = static_cast<uint8_t>(crc);
  block.data[kBlockSize - 3] = static_cast<uint8_t>(crc >> 8);
  block.data[kBlockSize - 2] = static_cast<uint8_t>(crc >> 16);
  block.data[kBlockSize - 1] = static_cast<uint8_t>(crc >> 24);
  return block;
}

Result<FsInfo> FsInfo::DeserializeFromBlock(const Block& block) {
  const uint32_t stored = static_cast<uint32_t>(block.data[kBlockSize - 4]) |
                          static_cast<uint32_t>(block.data[kBlockSize - 3]) << 8 |
                          static_cast<uint32_t>(block.data[kBlockSize - 2]) << 16 |
                          static_cast<uint32_t>(block.data[kBlockSize - 1]) << 24;
  const uint32_t computed = Crc32c(std::span(block.data).first(kBlockSize - 4));
  if (stored != computed) {
    return Corruption("fsinfo checksum mismatch");
  }
  ByteReader r(block.data);
  FsInfo info;
  BKUP_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  if (magic != kFsMagic) {
    return Corruption("fsinfo bad magic");
  }
  BKUP_ASSIGN_OR_RETURN(uint32_t version, r.ReadU32());
  if (version != kFsVersion) {
    return Unsupported("fsinfo version mismatch");
  }
  BKUP_ASSIGN_OR_RETURN(info.generation, r.ReadU64());
  BKUP_ASSIGN_OR_RETURN(info.volume_blocks, r.ReadU64());
  BKUP_ASSIGN_OR_RETURN(info.max_inodes, r.ReadU32());
  BKUP_ASSIGN_OR_RETURN(info.cp_time, r.ReadI64());
  BKUP_ASSIGN_OR_RETURN(info.alloc_write_point, r.ReadU64());
  BKUP_ASSIGN_OR_RETURN(info.inode_file, InodeData::Deserialize(&r));
  BKUP_ASSIGN_OR_RETURN(info.blockmap_file, InodeData::Deserialize(&r));
  BKUP_ASSIGN_OR_RETURN(uint8_t nsnaps, r.ReadU8());
  if (nsnaps > kMaxSnapshots) {
    return Corruption("fsinfo snapshot count out of range");
  }
  for (uint8_t i = 0; i < nsnaps; ++i) {
    SnapshotInfo s;
    BKUP_ASSIGN_OR_RETURN(s.plane, r.ReadU8());
    BKUP_ASSIGN_OR_RETURN(s.name, r.ReadString());
    BKUP_ASSIGN_OR_RETURN(s.create_time, r.ReadI64());
    BKUP_ASSIGN_OR_RETURN(s.generation, r.ReadU64());
    BKUP_ASSIGN_OR_RETURN(s.inode_file, InodeData::Deserialize(&r));
    BKUP_ASSIGN_OR_RETURN(s.used_blocks, r.ReadU64());
    info.snapshots.push_back(std::move(s));
  }
  return info;
}

}  // namespace bkup
