// The image (physical) dump stream format.
//
// A physical dump is "the movement of all data from one raw device to
// another", refined as in §4 of the paper: the block map is interpreted just
// enough to know which blocks are in use, each block's address is recorded
// so restore can put the data back where it belongs, and nothing else about
// the file system is interpreted. The stream is:
//
//   [header block][extent: (start,count) + raw blocks]...[trailer block]
//
// The trailer carries the volume's fsinfo explicitly; restore writes it
// last, so a restored volume becomes valid atomically. Runs of consecutive
// vbns coalesce into extents — the reason physical dump runs at device
// speed is precisely that this stream is generated in ascending block
// order.
#ifndef BKUP_IMAGE_IMAGE_FORMAT_H_
#define BKUP_IMAGE_IMAGE_FORMAT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/block/block.h"
#include "src/util/status.h"

namespace bkup {

inline constexpr uint32_t kImageMagic = 0x1BA6E999;  // image stream, 1999
inline constexpr uint32_t kImageFormatVersion = 1;

struct ImageHeader {
  std::string volume_name;
  uint64_t volume_blocks = 0;
  uint64_t generation = 0;       // fs generation at dump time
  int64_t dump_time = 0;
  bool incremental = false;
  std::string base_snapshot;     // name of the base (incremental only)
  uint64_t base_generation = 0;  // generation the base snapshot captured
  std::string snapshot_name;     // snapshot quiescing this dump
  // Reserved, always 0: the trailer's block_count is the authority.
  uint64_t block_count = 0;
  // Multi-tape striping: this stream carries every chunk with
  // index % part_count == part_index. All parts together form the dump.
  uint32_t part_index = 0;
  uint32_t part_count = 1;

  // One 4 KB block with trailing CRC.
  Result<Block> Serialize() const;
  static Result<ImageHeader> Parse(const Block& block);
};

struct ImageExtent {
  Vbn start = 0;
  uint32_t count = 0;
  uint32_t data_crc = 0;  // CRC-32C of the extent's raw blocks

  // Fixed 32-byte on-stream encoding.
  static constexpr size_t kEncodedSize = 32;
  void EncodeTo(std::vector<uint8_t>* out) const;
  static Result<ImageExtent> Decode(std::span<const uint8_t> bytes);
};

struct ImageTrailer {
  uint64_t block_count = 0;  // data blocks in the stream
  Block fsinfo;  // raw fsinfo block, written to vbn 0/1 by restore

  // Two 4 KB blocks: marker+count, then the fsinfo block itself.
  Result<std::vector<uint8_t>> Serialize() const;
  static Result<ImageTrailer> Parse(std::span<const uint8_t> bytes);
  static constexpr size_t kEncodedSize = 2 * kBlockSize;
};

}  // namespace bkup

#endif  // BKUP_IMAGE_IMAGE_FORMAT_H_
