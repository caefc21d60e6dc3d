#include "src/image/image_dump.h"

#include <optional>

#include "src/util/checksum.h"

namespace bkup {

namespace {

// Blocks per trace event / extent flush; sized like a track-buffer.
constexpr uint64_t kChunkBlocks = 64;

}  // namespace

Result<ImageDumpOutput> RunImageDump(Volume* volume,
                                     const ImageDumpOptions& options) {
  if (options.part_count == 0 || options.part_index >= options.part_count) {
    return InvalidArgument("bad part numbering");
  }
  ImageDumpOutput out;

  // Meta-data pass: fsinfo + block map, through the raw volume.
  std::vector<Vbn> meta_reads;
  meta_reads.push_back(kFsInfoPrimary);
  BKUP_ASSIGN_OR_RETURN(FsInfo fsinfo, ReadFsInfoFromVolume(volume));
  BKUP_ASSIGN_OR_RETURN(BlockMap map,
                        LoadBlockMapFromVolume(volume, fsinfo, &meta_reads));

  std::optional<int> base_plane;
  ImageHeader header;
  header.volume_name = volume->name();
  header.volume_blocks = volume->num_blocks();
  header.generation = fsinfo.generation;
  header.dump_time = options.dump_time;
  header.snapshot_name = options.snapshot_name;
  if (!options.base_snapshot.empty()) {
    BKUP_ASSIGN_OR_RETURN(int plane,
                          SnapshotPlaneOf(fsinfo, options.base_snapshot));
    base_plane = plane;
    header.incremental = true;
    header.base_snapshot = options.base_snapshot;
    for (const SnapshotInfo& s : fsinfo.snapshots) {
      if (s.name == options.base_snapshot) {
        header.base_generation = s.generation;
      }
    }
  }

  const Bitmap full_set = ComputeImageBlockSet(map, base_plane);
  out.block_set.Resize(full_set.size());  // this part's blocks, filled below
  header.part_index = options.part_index;
  header.part_count = options.part_count;

  // This part's extents, in ascending vbn order. Extents break at
  // discontinuities and at kChunkBlocks (which also bounds the size of one
  // trace event, so the replay pipelines at track-buffer grain). Chunk
  // indices are assigned over the full set so the parts of a striped
  // multi-tape dump partition it deterministically.
  std::vector<ImageExtent> extents;
  uint64_t stream_bytes = kBlockSize + ImageTrailer::kEncodedSize;
  uint64_t chunk_index = 0;
  for (Vbn v = full_set.FindFirstSet(); v != Bitmap::npos;
       ++chunk_index) {
    Vbn end = v;
    while (end + 1 < map.num_blocks() && full_set.Test(end + 1) &&
           end + 1 - v < kChunkBlocks) {
      ++end;
    }
    if (chunk_index % options.part_count == options.part_index) {
      extents.push_back({.start = v,
                         .count = static_cast<uint32_t>(end - v + 1),
                         .data_crc = 0});
      stream_bytes += ImageExtent::kEncodedSize +
                      uint64_t{extents.back().count} * kBlockSize;
    }
    v = full_set.FindFirstSet(end + 1);
  }
  out.stream.reserve(stream_bytes);

  BKUP_ASSIGN_OR_RETURN(Block header_block, header.Serialize());
  out.stream.insert(out.stream.end(), header_block.data.begin(),
                    header_block.data.end());
  {
    IoEvent& event = out.trace.events.emplace_back();
    event.phase = JobPhase::kDumpBlocks;
    event.disk_reads = meta_reads;
    event.cpu.push_back({CpuCost::kHeaderFormat, 1});
    event.stream_end = out.stream.size();
    out.stats.meta_reads = meta_reads.size();
  }

  Block block;
  std::vector<uint8_t> data;
  data.reserve(kChunkBlocks * kBlockSize);
  for (ImageExtent& extent : extents) {
    IoEvent& event = out.trace.events.emplace_back();
    event.phase = JobPhase::kDumpBlocks;
    data.clear();
    for (Vbn b = extent.start; b < extent.start + extent.count; ++b) {
      out.block_set.Set(b);
      BKUP_RETURN_IF_ERROR(volume->ReadBlock(b, &block));
      data.insert(data.end(), block.data.begin(), block.data.end());
      event.disk_reads.push_back(b);
    }
    extent.data_crc = Crc32c(data);
    extent.EncodeTo(&out.stream);
    out.stream.insert(out.stream.end(), data.begin(), data.end());

    event.cpu.push_back({CpuCost::kPhysicalBlock, extent.count});
    event.stream_end = out.stream.size();
    out.stats.blocks_dumped += extent.count;
    out.stats.extents++;
  }

  // Trailer: the fsinfo exactly as on disk at dump time.
  ImageTrailer trailer;
  trailer.block_count = out.stats.blocks_dumped;
  BKUP_RETURN_IF_ERROR(volume->ReadBlock(kFsInfoPrimary, &trailer.fsinfo));
  BKUP_ASSIGN_OR_RETURN(std::vector<uint8_t> tbytes, trailer.Serialize());
  out.stream.insert(out.stream.end(), tbytes.begin(), tbytes.end());
  {
    IoEvent& event = out.trace.events.emplace_back();
    event.phase = JobPhase::kDumpBlocks;
    event.disk_reads.push_back(kFsInfoPrimary);
    event.cpu.push_back({CpuCost::kHeaderFormat, 1});
    event.stream_end = out.stream.size();
  }
  out.stats.stream_bytes = out.stream.size();
  return out;
}

Result<ImageRestoreOutput> RunImageRestore(Volume* volume,
                                           std::span<const uint8_t> stream) {
  if (stream.size() < kBlockSize) {
    return Corruption("image stream too short");
  }
  ImageRestoreOutput out;
  Block header_block;
  header_block.CopyFrom(stream.first(kBlockSize));
  BKUP_ASSIGN_OR_RETURN(out.header, ImageHeader::Parse(header_block));

  // Physical restore's fundamental portability limitation, enforced.
  if (out.header.volume_blocks != volume->num_blocks()) {
    return Unsupported(
        "image restore requires a volume with the exact source geometry (" +
        std::to_string(out.header.volume_blocks) + " blocks)");
  }
  if (out.header.incremental) {
    // The target must hold the chain this increment extends: its current
    // fsinfo must list the base snapshot at the recorded generation.
    Result<FsInfo> current = ReadFsInfoFromVolume(volume);
    if (!current.ok()) {
      return FailedPrecondition(
          "incremental image restore onto an empty volume; restore the "
          "level-0 image first");
    }
    bool base_ok = false;
    for (const SnapshotInfo& s : current->snapshots) {
      if (s.name == out.header.base_snapshot &&
          s.generation == out.header.base_generation) {
        base_ok = true;
      }
    }
    if (!base_ok) {
      return FailedPrecondition(
          "target volume does not hold base snapshot '" +
          out.header.base_snapshot + "'");
    }
  }

  size_t pos = kBlockSize;
  Block block;
  while (true) {
    if (pos + ImageTrailer::kEncodedSize > stream.size()) {
      return Corruption("image stream ended without a trailer");
    }
    // Trailer or extent?
    Result<ImageTrailer> trailer =
        ImageTrailer::Parse(stream.subspan(pos, ImageTrailer::kEncodedSize));
    if (trailer.ok()) {
      if (trailer->block_count != out.stats.blocks_restored) {
        return Corruption("image stream block count mismatch");
      }
      // Install the dumped fsinfo last: the restored volume becomes valid
      // atomically, at both redundant locations.
      IoEvent& event = out.trace.events.emplace_back();
      event.phase = JobPhase::kRestoreBlocks;
      BKUP_RETURN_IF_ERROR(
          volume->WriteBlock(kFsInfoPrimary, trailer->fsinfo));
      BKUP_RETURN_IF_ERROR(volume->WriteBlock(kFsInfoBackup, trailer->fsinfo));
      event.blocks_written = 2;
      event.cpu.push_back({CpuCost::kRestorePhysicalBlock, 2});
      event.stream_end = pos + ImageTrailer::kEncodedSize;
      return out;
    }
    BKUP_ASSIGN_OR_RETURN(
        ImageExtent extent,
        ImageExtent::Decode(stream.subspan(pos, ImageExtent::kEncodedSize)));
    pos += ImageExtent::kEncodedSize;
    const uint64_t data_bytes =
        static_cast<uint64_t>(extent.count) * kBlockSize;
    if (pos + data_bytes > stream.size()) {
      return Corruption("image extent data truncated");
    }
    const auto data = stream.subspan(pos, data_bytes);
    if (Crc32c(data) != extent.data_crc) {
      // Physical restore has no per-file containment: damage here dooms the
      // whole restore, which is exactly the robustness asymmetry the paper
      // describes for block-based streams.
      return Corruption("image extent data checksum mismatch at vbn " +
                        std::to_string(extent.start));
    }
    IoEvent& event = out.trace.events.emplace_back();
    event.phase = JobPhase::kRestoreBlocks;
    event.disk_writes.reserve(extent.count);
    for (uint32_t i = 0; i < extent.count; ++i) {
      block.CopyFrom(data.subspan(i * kBlockSize, kBlockSize));
      BKUP_RETURN_IF_ERROR(volume->WriteBlock(extent.start + i, block));
      event.disk_writes.push_back(extent.start + i);
    }
    pos += data_bytes;
    event.blocks_written = extent.count;
    event.cpu.push_back({CpuCost::kRestorePhysicalBlock, extent.count});
    event.stream_end = pos;
    out.stats.blocks_restored += extent.count;
    out.stats.extents++;
  }
}

}  // namespace bkup
