// Content pipeline: composable byte-stream stages on the backup data path
// (DESIGN.md §16).
//
// A dump stream leaves the functional engines as *raw* bytes in raw stream
// coordinates — the coordinates every IoTrace event, TapeCatalog offset and
// resume checkpoint is stated in. When a job's StreamEndpoint enables
// content stages, the stream is encoded once, functionally, into a *wire*
// image:
//
//     raw stream --ChunkStage--> chunks --DedupStage--> literal/ref frames
//                --CompressStage--> smaller literal payloads
//                --CrcStage--> per-frame checksums
//
// and it is the wire image that tapes store, links carry, QoS throttles
// pace and acked floors resume from. The exact inverse pipeline rebuilds
// the raw stream byte-identically on restore, verifying every frame it
// reconstructs from the ChunkIndex — a corrupt store entry fails loudly
// with kCorruption, never silently dedups wrong.
//
// The simulation twist: workload file contents are seeded random bytes,
// which no real compressor shrinks. CompressStage therefore *models*
// compression as a content-addressed store: each literal frame's wire
// payload is a deterministic filler of ceil(raw_len / ratio) bytes while
// the chunk's raw bytes live in the ChunkIndex keyed by their content hash.
// The byte buffers the timed devices move are genuinely smaller — tape
// capacity, link framing, throttling and reconnect resume all operate on
// real (post-stage) byte counts — and decode reconstructs the exact raw
// bytes from the store under hash + CRC verification. With compression and
// dedup both off, literal frames carry the raw bytes verbatim and the wire
// image is self-contained.
//
// FrameMap is the coordinate bridge: a monotone piecewise-linear raw<->wire
// mapping built from the frame boundaries (and rebuildable by scanning a
// wire image), exact at frame boundaries, used to translate producer
// chunks, reader watermarks and catalog byte ranges between the two
// coordinate systems.
#ifndef BKUP_CONTENT_CONTENT_H_
#define BKUP_CONTENT_CONTENT_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/dump/catalog.h"  // StreamRange
#include "src/util/status.h"
#include "src/util/units.h"

namespace bkup {

// In-memory chunk store: content hash -> raw chunk bytes. Backups insert
// the chunks they store; later backups dedup against it; restores of
// compressed or dedup'd media reconstruct from it.
class ChunkIndex {
 public:
  // Inserts if absent. Returns true when the chunk was new (unique).
  bool Insert(uint64_t hash, std::span<const uint8_t> bytes);
  // The stored bytes for `hash`; null when the hash is unknown.
  const std::vector<uint8_t>* Find(uint64_t hash) const;

  size_t size() const { return map_.size(); }
  uint64_t stored_bytes() const { return stored_bytes_; }

  // Test hook: XORs the middle byte of the stored entry for `hash` with
  // 0x5a (a second call undoes it), so decode-side verification can be
  // exercised. Returns false when the hash is unknown.
  bool CorruptEntryForTest(uint64_t hash);

 private:
  std::unordered_map<uint64_t, std::vector<uint8_t>> map_;
  uint64_t stored_bytes_ = 0;
};

// Which stages run, their parameters, and their per-MB CPU prices. Lives on
// StreamEndpoint (local and remote jobs alike).
// Default: every stage off — the pre-content behaviour, raw bytes end to
// end.
struct ContentConfig {
  bool chunk = false;     // content-defined chunking (vs fixed-size)
  bool dedup = false;     // literal-or-reference frames against `index`
  bool compress = false;  // ratio-modeled literal payload shrink
  bool crc = false;       // per-frame Crc32c sealed and verified

  // Modeled compression ratio (raw/wire) for literal payloads; > 1.0.
  double compress_ratio = 2.0;

  // Content-defined chunk bounds. avg must be a power of two (it is the
  // rolling-hash boundary mask); with `chunk` off, fixed avg-sized chunks.
  uint32_t min_chunk_bytes = 2 * kKiB;
  uint32_t avg_chunk_bytes = 8 * kKiB;
  uint32_t max_chunk_bytes = 64 * kKiB;

  // Seeds the rolling-hash table and the literal filler generator.
  uint64_t seed = 0x626b6370;  // "bkcp"

  // Chunk store; required when compress or dedup is enabled (their decode
  // reconstructs from it). Shared across jobs for cross-night dedup.
  ChunkIndex* index = nullptr;

  // Per-MB CPU prices (simulated us per 10^6 raw bytes), charged at the
  // replay's QoS priority class while the stream moves.
  static constexpr SimDuration kChunkCpuUsPerMb = 150;
  static constexpr SimDuration kDedupCpuUsPerMb = 250;
  static constexpr SimDuration kCompressCpuUsPerMb = 1000;
  static constexpr SimDuration kCrcCpuUsPerMb = 150;
  static constexpr SimDuration kDecodeCpuUsPerMb = 500;  // lookup + inflate

  bool enabled() const { return chunk || dedup || compress || crc; }

  // Encode-side CPU per raw MB: the sum of the enabled stages' prices.
  SimDuration EncodeCpuPerMb() const;
  // Decode-side CPU per raw MB: CRC verification plus reconstruction.
  SimDuration DecodeCpuPerMb() const;

  Status Validate() const;
};

// What the stages did to one stream; accumulated into JobReport.content.
struct ContentStats {
  uint64_t raw_bytes = 0;     // engine-side stream size
  uint64_t wire_bytes = 0;    // post-stage image size (tape/link bytes)
  uint64_t unique_bytes = 0;  // raw bytes newly stored in the ChunkIndex
  uint64_t chunks = 0;        // frames emitted (literal + ref)
  uint64_t dedup_hits = 0;    // ref frames (chunk already in the index)
  uint64_t crc_checks = 0;    // frame verifications performed on decode
  // Simulated CPU the stages charged during replay, microseconds.
  uint64_t encode_cpu_us = 0;
  uint64_t decode_cpu_us = 0;

  bool any() const {
    return raw_bytes + wire_bytes + unique_bytes + chunks + dedup_hits +
               crc_checks + encode_cpu_us + decode_cpu_us >
           0;
  }
  void Add(const ContentStats& o);
  bool operator==(const ContentStats&) const = default;
};

// Monotone piecewise-linear raw<->wire coordinate mapping of one encoded
// stream, exact at frame boundaries and floor-interpolated within a frame
// (so contiguous chunk translations stay contiguous and exhaustive).
class FrameMap {
 public:
  struct Frame {
    uint64_t raw_begin = 0;
    uint64_t wire_begin = 0;
    uint32_t raw_len = 0;
    uint32_t wire_len = 0;  // frame header + payload
  };

  // W(r): wire offset of raw offset `r`. W(0) == 0 (the stream header rides
  // with the first chunk), W(raw_total) == wire_total.
  uint64_t WireOf(uint64_t raw) const;
  // Largest raw offset fully decodable once wire bytes [0, wire) arrived:
  // the inverse of WireOf, same interpolation, monotone.
  uint64_t RawAvailable(uint64_t wire) const;
  // Frame-aligned wire cover of a raw range: every frame overlapping
  // [r.begin, r.end) in full. The first cover also includes the stream
  // header. Input ranges must ascend; overlapping covers are coalesced.
  std::vector<StreamRange> WireRangesOf(std::span<const StreamRange> raw,
                                        bool include_header = true) const;
  // Raw bytes represented by frame-aligned wire ranges (for decode-CPU and
  // bounded-replay accounting).
  uint64_t RawSizeOfWireRange(const StreamRange& wire) const;

  uint64_t raw_total() const { return raw_total_; }
  uint64_t wire_total() const { return wire_total_; }
  const std::vector<Frame>& frames() const { return frames_; }

  // Rebuilds the map by scanning a wire image's headers (restore side).
  static Result<FrameMap> FromWire(std::span<const uint8_t> wire);

 private:
  friend class StagePipeline;
  std::vector<Frame> frames_;
  uint64_t raw_total_ = 0;
  uint64_t wire_total_ = 0;
};

struct EncodeResult {
  std::vector<uint8_t> wire;
  FrameMap map;
  ContentStats stats;  // sizes and counts; CPU fields stay 0 until replay
};

// The composable stage pipeline. Encode and Decode are exact inverses for
// every stage combination; both are functional (instantaneous) — the replay
// layer charges the CPU the stats price out.
class StagePipeline {
 public:
  explicit StagePipeline(ContentConfig config) : cfg_(config) {}

  const ContentConfig& config() const { return cfg_; }

  // raw -> wire image + coordinate map. Inserts literal chunks into
  // cfg.index when compression or dedup needs the store.
  Result<EncodeResult> Encode(std::span<const uint8_t> raw) const;

  // wire image -> raw bytes, verifying every reconstructed frame. The wire
  // header's stage flags are authoritative (a restore does not need to know
  // how the backup was configured — only to share its ChunkIndex).
  Result<std::vector<uint8_t>> Decode(std::span<const uint8_t> wire,
                                      ContentStats* stats = nullptr) const;

  // Content-defined chunk end offsets of `raw` (ascending, last == size).
  // Exposed for the chunking-locality property tests.
  std::vector<uint64_t> ChunkBoundaries(std::span<const uint8_t> raw) const;

 private:
  ContentConfig cfg_;
};

// 64-bit content hash of a chunk (FNV-1a with a finalizing mix). Encode
// verifies bytes on hash match before emitting a ref, so a collision can
// cost a missed dedup but never a wrong one.
uint64_t ContentHash(std::span<const uint8_t> bytes);

// out[i] = ContentHash(pieces[i]) for every piece (out.size() must equal
// pieces.size()). FNV-1a is one serial multiply chain per byte, so this
// splits the pieces into four contiguous runs of about equal bytes and
// advances the runs in lockstep on independent chains.
void ContentHashes(std::span<const std::span<const uint8_t>> pieces,
                   std::span<uint64_t> out);

// Wire-format constants, exposed for tests and the map scanner.
inline constexpr uint32_t kContentMagic = 0x424B4354;  // "BKCT"
inline constexpr size_t kContentStreamHeaderBytes = 40;
inline constexpr size_t kContentFrameHeaderBytes = 24;

}  // namespace bkup

#endif  // BKUP_CONTENT_CONTENT_H_
