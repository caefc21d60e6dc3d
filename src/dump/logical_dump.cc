#include "src/dump/logical_dump.h"

#include <algorithm>
#include <deque>
#include <map>

#include "src/dump/dumpdates.h"
#include "src/util/checksum.h"
#include "src/util/stream_buffer.h"

namespace bkup {

namespace {

// Durable catalog journal cadence: a checkpoint frame seals the entry
// journal every this many records, bounding what a torn tail can lose.
constexpr uint32_t kCatalogCheckpointEvery = 64;

// Working state for one dump run.
struct DumpContext {
  const FsReader* reader;
  const LogicalDumpOptions* options;
  LogicalDumpOutput out;

  // Phase I/II results.
  Bitmap used;    // inodes in use within the subtree
  Bitmap dumped;  // inodes that will be written to the stream
  std::map<Inum, InodeData> dir_inodes;        // directories in the subtree
  std::map<Inum, std::vector<DirEntry>> dirs;  // their (filtered) entries
  std::map<Inum, Inum> parent;                 // child dir -> parent dir
  std::map<Inum, InodeData> file_inodes;       // non-directories
  // Phase IV's files in inode order with their pointer maps, loaded once
  // while sizing the stream.
  struct DumpedFile {
    Inum inum;
    const InodeData* inode;
    std::vector<uint32_t> ptrs;
  };
  std::vector<DumpedFile> dumped_files;

  TapeCatalogWriter catalog_writer{64};

  void Emit(std::span<const uint8_t> bytes) {
    out.stream.insert(out.stream.end(), bytes.begin(), bytes.end());
  }
  // Indexes the record emitted since `offset` in the offset catalog and its
  // durable journal (checkpointed at the journal's cadence).
  void Index(DumpRecordType type, Inum inum, uint64_t offset) {
    const TapeCatalog::Entry e{type, inum, offset,
                               out.stream.size() - offset};
    out.catalog.Add(e);
    catalog_writer.Add(e);
  }
  IoEvent& Event(JobPhase phase) {
    out.trace.events.emplace_back();
    out.trace.events.back().phase = phase;
    out.trace.events.back().stream_end = out.stream.size();
    return out.trace.events.back();
  }
};

bool ChangedSince(const InodeData& inode, int64_t base_time) {
  return base_time == 0 || inode.mtime >= base_time ||
         inode.ctime >= base_time;
}

// Phase I+II: walk the subtree breadth-first, filling used/dumped maps.
Status MapPhase(DumpContext* ctx) {
  const FsReader& reader = *ctx->reader;
  const LogicalDumpOptions& opt = *ctx->options;
  ctx->used.Resize(reader.max_inodes());
  ctx->dumped.Resize(reader.max_inodes());

  BKUP_ASSIGN_OR_RETURN(Inum root, reader.LookupPath(opt.subtree));
  BKUP_ASSIGN_OR_RETURN(InodeData root_inode, reader.ReadInode(root));
  if (root_inode.type != InodeType::kDirectory) {
    return NotADirectory("dump root '" + opt.subtree + "'");
  }

  std::deque<Inum> queue;
  queue.push_back(root);
  ctx->used.Set(root);
  ctx->dir_inodes[root] = root_inode;
  ctx->parent[root] = root;

  while (!queue.empty()) {
    const Inum dir = queue.front();
    queue.pop_front();
    const InodeData& dir_inode = ctx->dir_inodes[dir];

    // Trace: examining this directory reads its inode-file block and its
    // data blocks, and costs CPU per entry.
    IoEvent& event = ctx->Event(JobPhase::kMap);
    const Vbn ivbn = reader.InodeFileVbn(dir);
    if (ivbn != 0) {
      event.disk_reads.push_back(ivbn);
    }
    BKUP_ASSIGN_OR_RETURN(std::vector<uint32_t> dir_ptrs,
                          reader.PointerMap(dir_inode));
    for (uint32_t p : dir_ptrs) {
      if (p != 0) {
        event.disk_reads.push_back(p);
      }
    }

    BKUP_ASSIGN_OR_RETURN(std::vector<DirEntry> entries,
                          reader.ReadDir(dir_inode));
    event.cpu.push_back({CpuCost::kMapInode, 1});
    event.cpu.push_back({CpuCost::kDirEntry, entries.size()});

    std::vector<DirEntry> kept;
    kept.reserve(entries.size());
    for (const DirEntry& e : entries) {
      if (opt.exclude && opt.exclude(e.name)) {
        continue;
      }
      kept.push_back(e);
      if (e.type == InodeType::kDirectory) {
        if (ctx->dir_inodes.count(e.inum) != 0) {
          continue;  // hard structure error, but be defensive
        }
        BKUP_ASSIGN_OR_RETURN(InodeData child, reader.ReadInode(e.inum));
        ctx->used.Set(e.inum);
        ctx->dir_inodes[e.inum] = child;
        ctx->parent[e.inum] = dir;
        queue.push_back(e.inum);
      } else {
        ctx->used.Set(e.inum);
        if (ctx->file_inodes.count(e.inum) == 0) {
          BKUP_ASSIGN_OR_RETURN(InodeData child, reader.ReadInode(e.inum));
          ctx->file_inodes[e.inum] = child;
        }
      }
    }
    ctx->dirs[dir] = std::move(kept);
  }

  // Phase I: select changed files.
  for (const auto& [inum, inode] : ctx->file_inodes) {
    if (ChangedSince(inode, opt.base_time)) {
      ctx->dumped.Set(inum);
    }
  }
  // Phase II: a directory is dumped if it changed itself or lies on the path
  // from the root to any dumped file. Walking ancestors of every dumped
  // inode marks exactly those.
  for (const auto& [inum, inode] : ctx->dir_inodes) {
    if (ChangedSince(inode, opt.base_time)) {
      ctx->dumped.Set(inum);
    }
  }
  // Collect directories that contain dumped entries (transitively).
  std::vector<Inum> to_mark;
  for (const auto& [dir, entries] : ctx->dirs) {
    for (const DirEntry& e : entries) {
      if (ctx->dumped.Test(e.inum)) {
        to_mark.push_back(dir);
        break;
      }
    }
  }
  for (Inum dir : to_mark) {
    Inum cur = dir;
    while (!ctx->dumped.Test(cur)) {
      ctx->dumped.Set(cur);
      cur = ctx->parent[cur];
    }
  }
  // A level-0 dump always includes the root directory.
  if (opt.base_time == 0) {
    ctx->dumped.Set(root);
  }
  // Phase II accounting: one more pass over the directory inodes.
  IoEvent& phase2 = ctx->Event(JobPhase::kMap);
  phase2.cpu.push_back({CpuCost::kMapInode, ctx->dir_inodes.size()});

  ctx->out.stats.inodes_in_subtree =
      static_cast<uint32_t>(ctx->used.CountOnes());
  ctx->out.stats.inodes_dumped =
      static_cast<uint32_t>(ctx->dumped.CountOnes());
  return Status::Ok();
}

Status EmitHeaders(DumpContext* ctx) {
  const LogicalDumpOptions& opt = *ctx->options;
  DumpRecord tape;
  tape.type = DumpRecordType::kTapeHeader;
  tape.level = static_cast<uint32_t>(opt.level);
  tape.dump_time = opt.dump_time;
  tape.base_time = opt.base_time;
  tape.max_inodes = ctx->reader->max_inodes();
  tape.volume_name = opt.volume_name;
  tape.snapshot_name = opt.snapshot_name;
  tape.subtree = opt.subtree;
  BKUP_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, tape.Serialize());
  ctx->Emit(bytes);

  // The two inode maps, each padded to 8 bytes.
  for (const bool used_map : {true, false}) {
    const Bitmap& map = used_map ? ctx->used : ctx->dumped;
    DumpRecord rec;
    rec.type =
        used_map ? DumpRecordType::kUsedMap : DumpRecordType::kDumpedMap;
    std::vector<uint8_t> payload = map.Serialize();
    payload.resize(InodeMapStreamBytes(ctx->reader->max_inodes()), 0);
    rec.map_bytes = static_cast<uint32_t>(payload.size());
    rec.map_inode_count = ctx->reader->max_inodes();
    BKUP_ASSIGN_OR_RETURN(std::vector<uint8_t> hdr, rec.Serialize());
    ctx->Emit(hdr);
    ctx->Emit(payload);
  }
  IoEvent& event = ctx->Event(JobPhase::kMap);
  event.cpu.push_back({CpuCost::kHeaderFormat, 3});
  return Status::Ok();
}

// Phase III: dump directories in ascending inode order.
Status DumpDirectories(DumpContext* ctx) {
  for (const auto& [inum, entries] : ctx->dirs) {
    if (!ctx->dumped.Test(inum)) {
      continue;
    }
    const InodeData& inode = ctx->dir_inodes[inum];
    std::vector<uint8_t> payload = EncodeDumpDirectory(entries);

    DumpRecord rec;
    rec.type = DumpRecordType::kDirectory;
    rec.inum = inum;
    rec.attrs = DumpInodeAttrs{inode.type,  inode.mode,  inode.nlink,
                               inode.uid,   inode.gid,   inode.size,
                               inode.mtime, inode.atime, inode.ctime,
                               inode.generation};
    rec.payload_bytes = payload.size();
    rec.data_crc = Crc32c(payload);
    payload.resize(DirectoryStreamBytes(payload.size()), 0);
    rec.present_count =
        static_cast<uint32_t>(payload.size() / kDumpRecordSize);
    const uint64_t record_offset = ctx->out.stream.size();
    BKUP_ASSIGN_OR_RETURN(std::vector<uint8_t> hdr, rec.Serialize());
    ctx->Emit(hdr);
    ctx->Emit(payload);
    ctx->Index(DumpRecordType::kDirectory, inum, record_offset);

    IoEvent& event = ctx->Event(JobPhase::kDumpDirs);
    const Vbn ivbn = ctx->reader->InodeFileVbn(inum);
    if (ivbn != 0) {
      event.disk_reads.push_back(ivbn);
    }
    BKUP_ASSIGN_OR_RETURN(std::vector<uint32_t> ptrs,
                          ctx->reader->PointerMap(inode));
    for (uint32_t p : ptrs) {
      if (p != 0) {
        event.disk_reads.push_back(p);
      }
    }
    event.cpu.push_back({CpuCost::kHeaderFormat, 1});
    event.cpu.push_back(
        {CpuCost::kDirEntry, ctx->dirs[inum].size()});
    ctx->out.stats.dirs_dumped++;
  }
  return Status::Ok();
}

// Phase IV: dump files in ascending inode order.
Status DumpFiles(DumpContext* ctx) {
  const FsReader& reader = *ctx->reader;
  std::vector<uint8_t>& stream = ctx->out.stream;
  Block block;
  for (const auto& [inum, inode_ptr, ptrs] : ctx->dumped_files) {
    const InodeData& inode = *inode_ptr;
    // Short symlink targets ride in the header (like BSD's spcl); longer
    // ones travel as ordinary data blocks, which the block map already
    // covers (a symlink's target is its file content here).
    std::string symlink_target;
    if (inode.type == InodeType::kSymlink && inode.size <= kMaxNameLen) {
      std::vector<uint8_t> bytes;
      BKUP_RETURN_IF_ERROR(reader.ReadFile(inode, 0, inode.size, &bytes));
      symlink_target.assign(bytes.begin(), bytes.end());
    }

    const uint64_t total_blocks = ptrs.size();
    uint64_t fbn = 0;
    bool first = true;
    // Every file emits at least one record (even empty files), then
    // continuation records for every kMapBitsPerRecord further blocks.
    do {
      const uint32_t map_count = static_cast<uint32_t>(std::min<uint64_t>(
          kMapBitsPerRecord, total_blocks - fbn));
      DumpRecord rec;
      rec.type = first ? DumpRecordType::kInode : DumpRecordType::kAddr;
      rec.inum = inum;
      rec.attrs = DumpInodeAttrs{inode.type,  inode.mode,  inode.nlink,
                                 inode.uid,   inode.gid,   inode.size,
                                 inode.mtime, inode.atime, inode.ctime,
                                 inode.generation};
      rec.symlink_target = first ? symlink_target : "";
      rec.total_blocks = total_blocks;
      rec.first_fbn = fbn;
      rec.map_count = map_count;
      rec.block_map.assign((map_count + 7) / 8, 0);

      IoEvent& event = ctx->Event(JobPhase::kDumpFiles);
      // The inode itself is not re-read here: the mapping phase already
      // brought the inode file through the cache (the kernel dump "generates
      // its own read-ahead policy").

      // The present blocks go straight to the stream behind a placeholder
      // header, which is filled in once their CRC is known.
      const uint64_t record_offset = stream.size();
      stream.resize(record_offset + kDumpRecordSize);
      uint32_t present = 0;
      for (uint32_t i = 0; i < map_count; ++i) {
        const uint32_t vbn = ptrs[fbn + i];
        if (vbn == 0) {
          ctx->out.stats.holes_skipped++;
          continue;
        }
        rec.block_map[i / 8] |= static_cast<uint8_t>(1u << (i % 8));
        BKUP_RETURN_IF_ERROR(reader.volume()->ReadBlock(vbn, &block));
        ctx->Emit(block.data);
        event.disk_reads.push_back(vbn);
        ++present;
      }
      rec.present_count = present;
      rec.data_crc = Crc32c(
          std::span(stream).subspan(record_offset + kDumpRecordSize));
      BKUP_ASSIGN_OR_RETURN(std::vector<uint8_t> hdr, rec.Serialize());
      std::ranges::copy(hdr, stream.begin() + static_cast<long>(record_offset));
      ctx->Index(rec.type, inum, record_offset);

      event.stream_end = stream.size();
      event.cpu.push_back({CpuCost::kHeaderFormat, 1});
      event.cpu.push_back({CpuCost::kLogicalBlock, present});
      ctx->out.stats.data_blocks += present;

      fbn += map_count;
      first = false;
    } while (fbn < total_blocks);
    ctx->out.stats.files_dumped++;
  }
  return Status::Ok();
}

// Sizes the stream before its first byte: the tape header, both inode maps,
// each dumped directory's record and padded payload, each dumped file's
// records and present blocks, and the end record. The file terms come from
// the pointer maps, loaded here once for Phase IV: present blocks are the
// map's nonzero entries, never an inode's `size`, capped at the volume's
// block count; the record count follows the map's length, which PointerMap
// bounds at kMaxFileBlocks.
Result<uint64_t> SizeStream(DumpContext* ctx) {
  const FsReader& reader = *ctx->reader;
  uint64_t bytes = 2 * kDumpRecordSize +  // tape header, end record
                   2 * (kDumpRecordSize +
                        InodeMapStreamBytes(reader.max_inodes()));
  for (const auto& [inum, entries] : ctx->dirs) {
    if (ctx->dumped.Test(inum)) {
      bytes += kDumpRecordSize +
               DirectoryStreamBytes(DumpDirectoryBytes(entries));
    }
  }
  uint64_t present = 0;
  for (const auto& [inum, inode] : ctx->file_inodes) {
    if (!ctx->dumped.Test(inum)) {
      continue;
    }
    BKUP_ASSIGN_OR_RETURN(std::vector<uint32_t> ptrs,
                          reader.PointerMap(inode));
    const uint64_t records = std::max<uint64_t>(
        1, (ptrs.size() + kMapBitsPerRecord - 1) / kMapBitsPerRecord);
    bytes += records * kDumpRecordSize;
    present += ptrs.size() - static_cast<uint64_t>(std::ranges::count(ptrs, 0));
    ctx->dumped_files.push_back({inum, &inode, std::move(ptrs)});
  }
  return bytes +
         std::min<uint64_t>(present, reader.volume()->num_blocks()) *
             kBlockSize;
}

// Readability pre-scan for skip_unreadable, between the mapping phase and
// the header emit: probe every block of every selected file and drop the
// unreadable ones from the dumped map while it has not been serialized yet,
// so the stream's maps stay consistent with what Phase IV actually writes.
Status SkipUnreadableFiles(DumpContext* ctx) {
  const FsReader& reader = *ctx->reader;
  Block block;
  for (const auto& [inum, inode] : ctx->file_inodes) {
    if (!ctx->dumped.Test(inum)) {
      continue;
    }
    bool readable = true;
    Result<std::vector<uint32_t>> ptrs = reader.PointerMap(inode);
    if (!ptrs.ok()) {
      readable = false;
    } else {
      for (uint32_t vbn : *ptrs) {
        if (vbn != 0 && !reader.volume()->ReadBlock(vbn, &block).ok()) {
          readable = false;
          break;
        }
      }
    }
    if (!readable) {
      ctx->dumped.Clear(inum);
      ctx->out.stats.files_skipped++;
    }
  }
  ctx->out.stats.inodes_dumped =
      static_cast<uint32_t>(ctx->dumped.CountOnes());
  return Status::Ok();
}

}  // namespace

Result<LogicalDumpOutput> RunLogicalDump(const FsReader& reader,
                                         const LogicalDumpOptions& options) {
  if (options.level < 0 || options.level > kMaxDumpLevel) {
    return InvalidArgument("dump level out of range");
  }
  DumpContext ctx;
  ctx.reader = &reader;
  ctx.options = &options;
  ctx.catalog_writer = TapeCatalogWriter(kCatalogCheckpointEvery);

  BKUP_RETURN_IF_ERROR(MapPhase(&ctx));
  if (options.skip_unreadable) {
    BKUP_RETURN_IF_ERROR(SkipUnreadableFiles(&ctx));
  }
  BKUP_ASSIGN_OR_RETURN(const uint64_t stream_bytes, SizeStream(&ctx));
  ReserveBytes(&ctx.out.stream, stream_bytes);
  BKUP_RETURN_IF_ERROR(EmitHeaders(&ctx));
  BKUP_RETURN_IF_ERROR(DumpDirectories(&ctx));
  BKUP_RETURN_IF_ERROR(DumpFiles(&ctx));

  DumpRecord end;
  end.type = DumpRecordType::kEnd;
  BKUP_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, end.Serialize());
  ctx.Emit(bytes);
  IoEvent& event = ctx.Event(JobPhase::kDumpFiles);
  event.cpu.push_back({CpuCost::kHeaderFormat, 1});

  ctx.out.stats.stream_bytes = ctx.out.stream.size();
  ctx.catalog_writer.Finish();
  ctx.out.catalog_image = ctx.catalog_writer.TakeImage();
  return std::move(ctx.out);
}

}  // namespace bkup
