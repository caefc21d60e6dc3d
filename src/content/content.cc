#include "src/content/content.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "src/util/checksum.h"
#include "src/util/random.h"
#include "src/util/serdes.h"

namespace bkup {

namespace {

// Wire frame types and flags.
constexpr uint8_t kFrameLiteral = 1;
constexpr uint8_t kFrameRef = 2;
// Literal payload is the raw chunk verbatim (compression off, or a store
// fallback); otherwise the payload is modeled-compressed filler and the raw
// bytes live in the ChunkIndex.
constexpr uint8_t kFlagVerbatim = 1;

constexpr uint16_t kWireVersion = 1;
constexpr uint16_t kStageChunk = 1 << 0;
constexpr uint16_t kStageDedup = 1 << 1;
constexpr uint16_t kStageCompress = 1 << 2;
constexpr uint16_t kStageCrc = 1 << 3;

constexpr size_t kRollWindow = 48;

uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

struct RollTable {
  uint64_t t[256];
};

RollTable MakeRollTable(uint64_t seed) {
  RollTable table;
  uint64_t state = seed ^ 0x636e6b74;  // "cnkt"
  for (uint64_t& v : table.t) {
    v = SplitMix64(state);
  }
  return table;
}

uint64_t RotL(uint64_t v, int s) { return (v << s) | (v >> (64 - s)); }

uint16_t StageFlags(const ContentConfig& cfg) {
  uint16_t flags = 0;
  if (cfg.chunk) flags |= kStageChunk;
  if (cfg.dedup) flags |= kStageDedup;
  if (cfg.compress) flags |= kStageCompress;
  if (cfg.crc) flags |= kStageCrc;
  return flags;
}

uint32_t RatioMilli(double ratio) {
  return static_cast<uint32_t>(ratio * 1000.0 + 0.5);
}

// Deterministic modeled-compressed payload for a stored chunk: content is
// irrelevant to decode (the store holds the raw bytes) but must be stable
// across runs, resumes and hosts so the tape image is byte-identical. Each
// SplitMix64 draw fills eight bytes, little-endian whatever the host order.
void FillCompressed(std::vector<uint8_t>* out, uint64_t hash, uint64_t seed,
                    size_t n) {
  uint64_t state = hash ^ Mix64(seed);
  const size_t done = out->size();
  out->resize(done + n);
  uint8_t* p = out->data() + done;
  for (; n >= 8; n -= 8, p += 8) {
    const uint64_t v = SplitMix64(state);
    for (int i = 0; i < 8; ++i) {
      p[i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }
  uint64_t v = n > 0 ? SplitMix64(state) : 0;
  for (size_t i = 0; i < n; ++i, v >>= 8) {
    p[i] = static_cast<uint8_t>(v);
  }
}

struct WireHeader {
  uint16_t flags = 0;
  uint32_t ratio_milli = 1000;
  uint64_t raw_total = 0;
};

void PutStreamHeader(std::vector<uint8_t>* wire, const ContentConfig& cfg,
                     uint64_t raw_total) {
  ByteWriter w(wire);
  w.PutU32(kContentMagic);
  w.PutU16(kWireVersion);
  w.PutU16(StageFlags(cfg));
  w.PutU32(RatioMilli(cfg.compress_ratio));
  w.PutU32(cfg.min_chunk_bytes);
  w.PutU32(cfg.avg_chunk_bytes);
  w.PutU32(cfg.max_chunk_bytes);
  w.PutU64(raw_total);
  w.PutU32(Crc32c(std::span<const uint8_t>(*wire).first(32)));
  w.PadTo(kContentStreamHeaderBytes);
}

Result<WireHeader> ParseStreamHeader(std::span<const uint8_t> wire) {
  if (wire.size() < kContentStreamHeaderBytes) {
    return Corruption("content stream shorter than its header");
  }
  ByteReader r(wire);
  WireHeader h;
  BKUP_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  if (magic != kContentMagic) {
    return Corruption("bad content stream magic");
  }
  BKUP_ASSIGN_OR_RETURN(uint16_t version, r.ReadU16());
  if (version != kWireVersion) {
    return Corruption("unknown content stream version");
  }
  BKUP_ASSIGN_OR_RETURN(h.flags, r.ReadU16());
  BKUP_ASSIGN_OR_RETURN(h.ratio_milli, r.ReadU32());
  BKUP_ASSIGN_OR_RETURN(uint32_t min_chunk, r.ReadU32());
  BKUP_ASSIGN_OR_RETURN(uint32_t avg_chunk, r.ReadU32());
  BKUP_ASSIGN_OR_RETURN(uint32_t max_chunk, r.ReadU32());
  (void)min_chunk;
  (void)avg_chunk;
  (void)max_chunk;
  BKUP_ASSIGN_OR_RETURN(h.raw_total, r.ReadU64());
  BKUP_ASSIGN_OR_RETURN(uint32_t crc, r.ReadU32());
  if (crc != Crc32c(wire.first(32))) {
    return Corruption("content stream header checksum mismatch");
  }
  return h;
}

struct FrameHeader {
  uint8_t type = 0;
  uint8_t flags = 0;
  uint32_t raw_len = 0;
  uint32_t payload_len = 0;
  uint64_t hash = 0;
  uint32_t crc = 0;
};

void PutFrameHeader(std::vector<uint8_t>* wire, const FrameHeader& f) {
  ByteWriter w(wire);
  w.PutU8(f.type);
  w.PutU8(f.flags);
  w.PutU16(0);
  w.PutU32(f.raw_len);
  w.PutU32(f.payload_len);
  w.PutU64(f.hash);
  w.PutU32(f.crc);
}

Result<FrameHeader> ReadFrameHeader(ByteReader* r) {
  FrameHeader f;
  BKUP_ASSIGN_OR_RETURN(f.type, r->ReadU8());
  BKUP_ASSIGN_OR_RETURN(f.flags, r->ReadU8());
  BKUP_ASSIGN_OR_RETURN(uint16_t reserved, r->ReadU16());
  if (reserved != 0) {
    return Corruption("content frame has nonzero reserved field");
  }
  BKUP_ASSIGN_OR_RETURN(f.raw_len, r->ReadU32());
  BKUP_ASSIGN_OR_RETURN(f.payload_len, r->ReadU32());
  BKUP_ASSIGN_OR_RETURN(f.hash, r->ReadU64());
  BKUP_ASSIGN_OR_RETURN(f.crc, r->ReadU32());
  if (f.type != kFrameLiteral && f.type != kFrameRef) {
    return Corruption("unknown content frame type");
  }
  return f;
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;  // FNV-1a 64
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

uint64_t Fnv1a(uint64_t h, const uint8_t* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * kFnvPrime;
  }
  return h;
}

}  // namespace

uint64_t ContentHash(std::span<const uint8_t> bytes) {
  return Mix64(Fnv1a(kFnvBasis, bytes.data(), bytes.size()));
}

void ContentHashes(std::span<const std::span<const uint8_t>> pieces,
                   std::span<uint64_t> out) {
  // A lane hashes one contiguous run of pieces, about a quarter of the bytes.
  struct Lane {
    size_t piece = 0;             // current piece
    size_t end = 0;               // one past the lane's last piece
    const uint8_t* at = nullptr;  // next unhashed byte of the current piece
    size_t left = 0;              // its unhashed bytes
    uint64_t h = kFnvBasis;
  };
  constexpr size_t kLanes = 4;
  uint64_t total = 0;
  for (std::span<const uint8_t> p : pieces) {
    total += p.size();
  }
  std::array<Lane, kLanes> lanes;
  size_t next = 0;
  uint64_t taken = 0;
  for (size_t k = 0; k < kLanes; ++k) {
    lanes[k].piece = next;
    const uint64_t quota = total * (k + 1) / kLanes;
    while (next < pieces.size() && (k + 1 == kLanes || taken < quota)) {
      taken += pieces[next++].size();
    }
    lanes[k].end = next;
  }
  // Points a lane at its next nonempty piece, finishing empty ones on the way.
  auto load = [&](Lane& l) {
    for (; l.piece < l.end && pieces[l.piece].empty(); ++l.piece) {
      out[l.piece] = Mix64(kFnvBasis);
    }
    if (l.piece < l.end) {
      l.at = pieces[l.piece].data();
      l.left = pieces[l.piece].size();
      l.h = kFnvBasis;
    }
  };
  auto busy = [](const Lane& l) { return l.piece < l.end; };
  for (Lane& l : lanes) {
    load(l);
  }
  // Advance all four lanes by the shortest unhashed remainder on four
  // independent multiply chains, then finish the pieces that ended.
  while (std::all_of(lanes.begin(), lanes.end(), busy)) {
    size_t n = lanes[0].left;
    for (const Lane& l : lanes) {
      n = std::min(n, l.left);
    }
    const uint8_t* p0 = lanes[0].at;
    const uint8_t* p1 = lanes[1].at;
    const uint8_t* p2 = lanes[2].at;
    const uint8_t* p3 = lanes[3].at;
    uint64_t h0 = lanes[0].h, h1 = lanes[1].h, h2 = lanes[2].h,
             h3 = lanes[3].h;
    for (size_t i = 0; i < n; ++i) {
      h0 = (h0 ^ p0[i]) * kFnvPrime;
      h1 = (h1 ^ p1[i]) * kFnvPrime;
      h2 = (h2 ^ p2[i]) * kFnvPrime;
      h3 = (h3 ^ p3[i]) * kFnvPrime;
    }
    lanes[0].h = h0;
    lanes[1].h = h1;
    lanes[2].h = h2;
    lanes[3].h = h3;
    for (Lane& l : lanes) {
      l.at += n;
      l.left -= n;
      if (l.left == 0) {
        out[l.piece++] = Mix64(l.h);
        load(l);
      }
    }
  }
  // Once one lane runs dry, the others finish on their own chains.
  for (const Lane& l : lanes) {
    if (!busy(l)) {
      continue;
    }
    out[l.piece] = Mix64(Fnv1a(l.h, l.at, l.left));
    for (size_t i = l.piece + 1; i < l.end; ++i) {
      out[i] = ContentHash(pieces[i]);
    }
  }
}

// ------------------------------------------------------------ ChunkIndex ---

bool ChunkIndex::Insert(uint64_t hash, std::span<const uint8_t> bytes) {
  const bool inserted =
      map_.try_emplace(hash, bytes.begin(), bytes.end()).second;
  if (inserted) {
    stored_bytes_ += bytes.size();
  }
  return inserted;
}

const std::vector<uint8_t>* ChunkIndex::Find(uint64_t hash) const {
  auto it = map_.find(hash);
  return it == map_.end() ? nullptr : &it->second;
}

bool ChunkIndex::CorruptEntryForTest(uint64_t hash) {
  auto it = map_.find(hash);
  if (it == map_.end() || it->second.empty()) {
    return false;
  }
  it->second[it->second.size() / 2] ^= 0x5a;
  return true;
}

// ---------------------------------------------------------- ContentConfig ---

SimDuration ContentConfig::EncodeCpuPerMb() const {
  SimDuration us = 0;
  if (chunk) us += kChunkCpuUsPerMb;
  if (dedup) us += kDedupCpuUsPerMb;
  if (compress) us += kCompressCpuUsPerMb;
  if (crc) us += kCrcCpuUsPerMb;
  return us;
}

SimDuration ContentConfig::DecodeCpuPerMb() const {
  SimDuration us = 0;
  if (crc) us += kCrcCpuUsPerMb;
  if (compress || dedup) us += kDecodeCpuUsPerMb;
  return us;
}

Status ContentConfig::Validate() const {
  if (!enabled()) {
    return Status::Ok();
  }
  if (avg_chunk_bytes == 0 ||
      (avg_chunk_bytes & (avg_chunk_bytes - 1)) != 0) {
    return InvalidArgument("avg_chunk_bytes must be a power of two");
  }
  if (min_chunk_bytes < kRollWindow + 1) {
    return InvalidArgument("min_chunk_bytes below the rolling-hash window");
  }
  if (min_chunk_bytes > avg_chunk_bytes || avg_chunk_bytes > max_chunk_bytes) {
    return InvalidArgument("chunk bounds must satisfy min <= avg <= max");
  }
  if (compress && compress_ratio <= 1.0) {
    return InvalidArgument("compress_ratio must exceed 1.0");
  }
  if ((compress || dedup) && index == nullptr) {
    return InvalidArgument(
        "compression and dedup need a ChunkIndex (their decode reconstructs "
        "from the store)");
  }
  return Status::Ok();
}

void ContentStats::Add(const ContentStats& o) {
  raw_bytes += o.raw_bytes;
  wire_bytes += o.wire_bytes;
  unique_bytes += o.unique_bytes;
  chunks += o.chunks;
  dedup_hits += o.dedup_hits;
  crc_checks += o.crc_checks;
  encode_cpu_us += o.encode_cpu_us;
  decode_cpu_us += o.decode_cpu_us;
}

// --------------------------------------------------------------- FrameMap ---

uint64_t FrameMap::WireOf(uint64_t raw) const {
  if (raw >= raw_total_) {
    return wire_total_;
  }
  if (raw == 0) {
    return 0;  // the stream header rides with the first chunk
  }
  // Last frame with raw_begin <= raw.
  auto it = std::upper_bound(
      frames_.begin(), frames_.end(), raw,
      [](uint64_t r, const Frame& f) { return r < f.raw_begin; });
  const Frame& f = *(it - 1);
  const uint64_t off = raw - f.raw_begin;
  return f.wire_begin + off * f.wire_len / f.raw_len;
}

uint64_t FrameMap::RawAvailable(uint64_t wire) const {
  if (wire >= wire_total_) {
    return raw_total_;
  }
  if (frames_.empty() || wire <= frames_.front().wire_begin) {
    return 0;
  }
  auto it = std::upper_bound(
      frames_.begin(), frames_.end(), wire,
      [](uint64_t w, const Frame& f) { return w < f.wire_begin; });
  const Frame& f = *(it - 1);
  const uint64_t off = wire - f.wire_begin;
  const uint64_t partial = off * f.raw_len / f.wire_len;
  return f.raw_begin + std::min<uint64_t>(partial, f.raw_len);
}

std::vector<StreamRange> FrameMap::WireRangesOf(
    std::span<const StreamRange> raw, bool include_header) const {
  std::vector<StreamRange> out;
  for (const StreamRange& r : raw) {
    if (r.begin >= r.end || frames_.empty()) {
      continue;
    }
    // First frame overlapping r (raw_begin + raw_len > r.begin).
    auto first = std::upper_bound(
        frames_.begin(), frames_.end(), r.begin,
        [](uint64_t v, const Frame& f) { return v < f.raw_begin + f.raw_len; });
    // One past the last frame overlapping r (raw_begin < r.end).
    auto last = std::lower_bound(
        frames_.begin(), frames_.end(), r.end,
        [](const Frame& f, uint64_t v) { return f.raw_begin < v; });
    if (first >= last) {
      continue;
    }
    StreamRange w{first->wire_begin,
                  (last - 1)->wire_begin + (last - 1)->wire_len};
    if (include_header && first == frames_.begin()) {
      w.begin = 0;
    }
    if (!out.empty() && w.begin <= out.back().end) {
      out.back().end = std::max(out.back().end, w.end);
    } else {
      out.push_back(w);
    }
  }
  return out;
}

uint64_t FrameMap::RawSizeOfWireRange(const StreamRange& wire) const {
  return RawAvailable(wire.end) - RawAvailable(wire.begin);
}

Result<FrameMap> FrameMap::FromWire(std::span<const uint8_t> wire) {
  BKUP_ASSIGN_OR_RETURN(WireHeader header, ParseStreamHeader(wire));
  FrameMap map;
  map.wire_total_ = wire.size();
  uint64_t raw = 0;
  ByteReader r(wire.subspan(kContentStreamHeaderBytes));
  while (!r.exhausted()) {
    const uint64_t wire_begin = kContentStreamHeaderBytes + r.position();
    BKUP_ASSIGN_OR_RETURN(FrameHeader f, ReadFrameHeader(&r));
    BKUP_RETURN_IF_ERROR(r.Skip(f.payload_len));
    Frame frame;
    frame.raw_begin = raw;
    frame.wire_begin = wire_begin;
    frame.raw_len = f.raw_len;
    frame.wire_len =
        static_cast<uint32_t>(kContentFrameHeaderBytes) + f.payload_len;
    map.frames_.push_back(frame);
    raw += f.raw_len;
  }
  map.raw_total_ = raw;
  if (raw != header.raw_total) {
    return Corruption("content frame chain does not cover the raw stream");
  }
  return map;
}

// ---------------------------------------------------------- StagePipeline ---

std::vector<uint64_t> StagePipeline::ChunkBoundaries(
    std::span<const uint8_t> raw) const {
  std::vector<uint64_t> ends;
  if (raw.empty()) {
    return ends;
  }
  const uint64_t min_len = cfg_.min_chunk_bytes;
  const uint64_t max_len = std::max<uint64_t>(cfg_.max_chunk_bytes, 1);
  if (!cfg_.chunk) {
    // Fixed-size chunking fallback: avg-sized pieces.
    const uint64_t avg_len = std::max<uint64_t>(cfg_.avg_chunk_bytes, 1);
    for (uint64_t pos = 0; pos < raw.size();) {
      pos = std::min<uint64_t>(pos + avg_len, raw.size());
      ends.push_back(pos);
    }
    return ends;
  }
  const RollTable table = MakeRollTable(cfg_.seed);
  // Rolling a byte in and the oldest one out is
  //   RotL(h ^ RotL(t[old], 47), 1) ^ t[new]
  //     == RotL(h, 1) ^ (RotL(t[old], 48) ^ t[new]),
  // so with the outgoing term tabled the chain is one rotate and one xor.
  RollTable outgoing;
  for (size_t b = 0; b < 256; ++b) {
    outgoing.t[b] = RotL(table.t[b], static_cast<int>(kRollWindow));
  }
  const uint64_t mask = cfg_.avg_chunk_bytes - 1;
  // A cut depends only on the trailing kRollWindow bytes, and none is legal
  // before min_len (Validate() keeps min_len > kRollWindow), so each chunk's
  // hash starts kRollWindow bytes before its first legal cut.
  const uint64_t skip = min_len > kRollWindow ? min_len - kRollWindow : 0;
  uint64_t start = 0;
  while (start < raw.size()) {
    const uint64_t limit = std::min<uint64_t>(start + max_len, raw.size());
    uint64_t pos = std::min<uint64_t>(start + skip, limit);
    const uint64_t filled = std::min<uint64_t>(pos + kRollWindow, limit);
    uint64_t h = 0;
    for (; pos < filled; ++pos) {
      h = RotL(h, 1) ^ table.t[raw[pos]];
    }
    while (pos < limit && (h & mask) != mask) {
      // Cancelling the oldest byte keeps the hash a function of the
      // trailing window only, which is what makes an edit local.
      h = RotL(h, 1) ^ (outgoing.t[raw[pos - kRollWindow]] ^ table.t[raw[pos]]);
      ++pos;
    }
    ends.push_back(pos);
    start = pos;
  }
  return ends;
}

Result<EncodeResult> StagePipeline::Encode(
    std::span<const uint8_t> raw) const {
  BKUP_RETURN_IF_ERROR(cfg_.Validate());
  const std::vector<uint64_t> ends = ChunkBoundaries(raw);
  std::vector<std::span<const uint8_t>> chunks;
  chunks.reserve(ends.size());
  uint64_t begin = 0;
  for (uint64_t end : ends) {
    chunks.push_back(raw.subspan(begin, end - begin));
    begin = end;
  }
  std::vector<uint64_t> hashes(chunks.size());
  ContentHashes(chunks, hashes);

  EncodeResult out;
  out.stats.raw_bytes = raw.size();
  out.map.raw_total_ = raw.size();
  // Frame every chunk (and fill the index) first, so the wire image is
  // sized once before any byte of it is written.
  const bool store_backed = cfg_.compress || cfg_.dedup;
  const uint32_t ratio_milli = RatioMilli(cfg_.compress_ratio);
  std::vector<FrameHeader> headers(chunks.size());
  out.map.frames_.resize(chunks.size());
  uint64_t raw_begin = 0;
  uint64_t wire_begin = kContentStreamHeaderBytes;
  for (size_t i = 0; i < chunks.size(); ++i) {
    const std::span<const uint8_t> chunk = chunks[i];
    FrameHeader& f = headers[i];
    f.raw_len = static_cast<uint32_t>(chunk.size());
    f.hash = hashes[i];
    f.crc = Crc32c(chunk);

    const std::vector<uint8_t>* hit =
        cfg_.dedup ? cfg_.index->Find(f.hash) : nullptr;
    // Never dedup on hash alone: the bytes must really match. A collision
    // (or a same-hash chunk stored with different bytes) costs a missed
    // dedup, never a wrong one.
    const bool dedup_hit = hit != nullptr && hit->size() == chunk.size() &&
                           std::memcmp(hit->data(), chunk.data(),
                                       chunk.size()) == 0;
    if (dedup_hit) {
      f.type = kFrameRef;
      f.payload_len = 0;
      ++out.stats.dedup_hits;
    } else {
      f.type = kFrameLiteral;
      bool stored = false;
      if (store_backed) {
        if (cfg_.index->Insert(f.hash, chunk)) {
          out.stats.unique_bytes += chunk.size();
          stored = true;
        } else {
          // Same hash, different bytes (dedup off or the memcmp above
          // failed): the store slot is taken, so this chunk cannot be
          // reconstructed from it — fall back to a verbatim literal.
          const std::vector<uint8_t>* prev = cfg_.index->Find(f.hash);
          stored = prev != nullptr && prev->size() == chunk.size() &&
                   std::memcmp(prev->data(), chunk.data(), chunk.size()) == 0;
        }
      }
      if (cfg_.compress && stored) {
        f.payload_len = static_cast<uint32_t>(std::max<uint64_t>(
            1, (chunk.size() * 1000 + ratio_milli - 1) / ratio_milli));
      } else {
        f.flags = kFlagVerbatim;
        f.payload_len = f.raw_len;
      }
    }
    FrameMap::Frame& frame = out.map.frames_[i];
    frame.raw_begin = raw_begin;
    frame.wire_begin = wire_begin;
    frame.raw_len = f.raw_len;
    frame.wire_len =
        static_cast<uint32_t>(kContentFrameHeaderBytes) + f.payload_len;
    raw_begin += f.raw_len;
    wire_begin += frame.wire_len;
  }

  out.wire.reserve(wire_begin);
  PutStreamHeader(&out.wire, cfg_, raw.size());
  for (size_t i = 0; i < chunks.size(); ++i) {
    const FrameHeader& f = headers[i];
    PutFrameHeader(&out.wire, f);
    if ((f.flags & kFlagVerbatim) != 0) {
      ByteWriter(&out.wire).PutBytes(chunks[i]);
    } else if (f.type == kFrameLiteral) {
      FillCompressed(&out.wire, f.hash, cfg_.seed, f.payload_len);
    }
  }
  out.stats.chunks = chunks.size();
  out.map.wire_total_ = out.wire.size();
  out.stats.wire_bytes = out.wire.size();
  return out;
}

Result<std::vector<uint8_t>> StagePipeline::Decode(
    std::span<const uint8_t> wire, ContentStats* stats) const {
  BKUP_ASSIGN_OR_RETURN(WireHeader header, ParseStreamHeader(wire));
  const bool verify_verbatim = (header.flags & kStageCrc) != 0;
  ContentStats local;
  local.wire_bytes = wire.size();

  // raw_total is untrusted: reserve no more than the frames could rebuild.
  // Every frame spends at least a header on the wire and yields at most one
  // chunk, so a crafted header cannot force a huge allocation.
  const uint64_t max_frames =
      (wire.size() - kContentStreamHeaderBytes) / kContentFrameHeaderBytes;
  std::vector<uint8_t> raw;
  raw.reserve(std::min<uint64_t>(header.raw_total,
                                 max_frames * cfg_.max_chunk_bytes));
  // Store-backed frames' entries and the hashes their frames claim.
  std::vector<std::span<const uint8_t>> stored;
  std::vector<uint64_t> want;
  ByteReader r(wire.subspan(kContentStreamHeaderBytes));
  while (!r.exhausted()) {
    BKUP_ASSIGN_OR_RETURN(FrameHeader f, ReadFrameHeader(&r));
    BKUP_ASSIGN_OR_RETURN(std::span<const uint8_t> payload,
                          r.ReadSpan(f.payload_len));
    ++local.chunks;
    if (f.type == kFrameLiteral && (f.flags & kFlagVerbatim) != 0) {
      if (payload.size() != f.raw_len) {
        return Corruption("verbatim literal frame length mismatch");
      }
      if (verify_verbatim) {
        ++local.crc_checks;
        if (Crc32c(payload) != f.crc) {
          return Corruption("literal frame failed its CRC");
        }
      }
      raw.insert(raw.end(), payload.begin(), payload.end());
      continue;
    }
    // Ref frame or store-backed literal: reconstruct from the ChunkIndex,
    // verifying length and CRC here and the content hash after the loop —
    // the dedup safety contract.
    if (cfg_.index == nullptr) {
      return FailedPrecondition(
          "decoding a store-backed content stream needs the backup's "
          "ChunkIndex");
    }
    if (f.type == kFrameRef) {
      ++local.dedup_hits;
    }
    const std::vector<uint8_t>* entry = cfg_.index->Find(f.hash);
    if (entry == nullptr) {
      return Corruption("chunk index is missing a referenced chunk");
    }
    ++local.crc_checks;
    if (entry->size() != f.raw_len || Crc32c(*entry) != f.crc) {
      return Corruption("chunk index entry failed verification");
    }
    stored.push_back(*entry);
    want.push_back(f.hash);
    raw.insert(raw.end(), entry->begin(), entry->end());
  }
  // Every store-backed frame's content hash, in one batched pass.
  std::vector<uint64_t> got(stored.size());
  ContentHashes(stored, got);
  if (got != want) {
    return Corruption("chunk index entry failed its content hash");
  }
  if (raw.size() != header.raw_total) {
    return Corruption("content stream truncated");
  }
  local.raw_bytes = raw.size();
  if (stats != nullptr) {
    stats->Add(local);
  }
  return raw;
}

}  // namespace bkup
