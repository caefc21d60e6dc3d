// Property battery for the content pipeline (DESIGN.md §16): round-trip
// identity across every stage combination, chunking locality, adversarial
// inputs, dedup safety under hash collision, and the ChunkIndex journal's
// torn-tail contract. Everything here is functional — no simulation clock —
// which is what lets the identity property run 64 seeds in one test.
#include "src/content/content.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <set>
#include <tuple>
#include <vector>

#include "src/util/checksum.h"
#include "src/util/random.h"

namespace bkup {
namespace {

// `BKUP_CONTENT_SEED_OFFSET` shifts the whole 64-seed block so
// tools/seed_sweep.py can cover fresh streams/geometries without recompiling.
uint64_t SeedOffset() {
  const char* env = std::getenv("BKUP_CONTENT_SEED_OFFSET");
  return env != nullptr ? std::strtoull(env, nullptr, 10) * 64 : 0;
}

// Seeded pseudo-random stream with deliberate self-similarity: every fourth
// 4 KiB block repeats an earlier block, so dedup and compression both have
// something to find while the rest stays incompressible-random.
std::vector<uint8_t> MakeStream(uint64_t seed, size_t n) {
  std::vector<uint8_t> out(n);
  uint64_t state = seed * 0x9e3779b97f4a7c15ull + 1;
  const size_t block = 4096;
  for (size_t b = 0; b * block < n; ++b) {
    const size_t begin = b * block;
    const size_t len = std::min(block, n - begin);
    if (b >= 4 && b % 4 == 0) {
      const size_t src = (b / 4 - 1) * block;
      std::memcpy(&out[begin], &out[src], len);
      continue;
    }
    for (size_t i = begin; i < begin + len; ++i) {
      out[i] = static_cast<uint8_t>(SplitMix64(state));
    }
  }
  return out;
}

ContentConfig ComboConfig(int combo, ChunkIndex* index) {
  ContentConfig cfg;
  cfg.chunk = (combo & 1) != 0;
  cfg.dedup = (combo & 2) != 0;
  cfg.compress = (combo & 4) != 0;
  cfg.crc = (combo & 8) != 0;
  cfg.index = (cfg.dedup || cfg.compress) ? index : nullptr;
  return cfg;
}

// ------------------------------------------------------- round-trip identity

// The tentpole property: Encode then Decode is the identity for every stage
// combination and several chunk geometries, over 64 seeds. Each seed also
// cross-checks FrameMap::FromWire against the map Encode built — the restore
// side must recover the exact coordinate system by scanning the wire image.
TEST(ContentRoundTripTest, SixtyFourSeedsAllStageCombos) {
  struct Bounds {
    uint32_t min, avg, max;
  };
  const Bounds kBounds[] = {
      {64, 256, 1024},
      {512, 2048, 8192},
      {2048, 8192, 65536},
      {49, 64, 64},  // min at the rolling-window floor, max forces every cut
  };
  const uint64_t offset = SeedOffset();
  for (uint64_t s = 0; s < 64; ++s) {
    const uint64_t seed = offset + s;
    ChunkIndex index;
    ContentConfig cfg = ComboConfig(static_cast<int>(seed % 16), &index);
    const Bounds& b = kBounds[(seed / 16) % 4];
    cfg.min_chunk_bytes = b.min;
    cfg.avg_chunk_bytes = b.avg;
    cfg.max_chunk_bytes = b.max;
    cfg.seed = 0x626b6370 + seed;
    cfg.compress_ratio = 1.5 + static_cast<double>(seed % 5);

    const size_t n = 16 * 1024 + static_cast<size_t>(seed) * 4093;
    const std::vector<uint8_t> raw = MakeStream(seed, n);
    StagePipeline pipe(cfg);

    auto encoded = pipe.Encode(raw);
    ASSERT_TRUE(encoded.ok()) << "seed " << seed << ": "
                              << encoded.status().ToString();
    EXPECT_EQ(encoded->stats.raw_bytes, raw.size());
    EXPECT_EQ(encoded->stats.wire_bytes, encoded->wire.size());
    EXPECT_EQ(encoded->map.raw_total(), raw.size());
    EXPECT_EQ(encoded->map.wire_total(), encoded->wire.size());

    ContentStats decode_stats;
    auto decoded = pipe.Decode(encoded->wire, &decode_stats);
    ASSERT_TRUE(decoded.ok()) << "seed " << seed << ": "
                              << decoded.status().ToString();
    ASSERT_EQ(decoded->size(), raw.size()) << "seed " << seed;
    EXPECT_TRUE(std::equal(decoded->begin(), decoded->end(), raw.begin()))
        << "seed " << seed << " failed byte identity";
    EXPECT_EQ(decode_stats.chunks, encoded->stats.chunks);
    EXPECT_EQ(decode_stats.dedup_hits, encoded->stats.dedup_hits);

    // The restore side rebuilds the same coordinate map by scanning.
    auto scanned = FrameMap::FromWire(encoded->wire);
    ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
    ASSERT_EQ(scanned->frames().size(), encoded->map.frames().size());
    for (size_t i = 0; i < scanned->frames().size(); ++i) {
      EXPECT_EQ(scanned->frames()[i].raw_begin,
                encoded->map.frames()[i].raw_begin);
      EXPECT_EQ(scanned->frames()[i].wire_begin,
                encoded->map.frames()[i].wire_begin);
      EXPECT_EQ(scanned->frames()[i].raw_len,
                encoded->map.frames()[i].raw_len);
      EXPECT_EQ(scanned->frames()[i].wire_len,
                encoded->map.frames()[i].wire_len);
    }
  }
}

// A second encode of the same stream against the same index refs everything:
// the repeat-full-backup property the dedup bench gates at system level.
TEST(ContentRoundTripTest, SecondPassDedupsEverything) {
  ChunkIndex index;
  ContentConfig cfg;
  cfg.chunk = cfg.dedup = cfg.crc = true;
  cfg.index = &index;
  const std::vector<uint8_t> raw = MakeStream(7, 256 * 1024);
  StagePipeline pipe(cfg);

  auto first = pipe.Encode(raw);
  ASSERT_TRUE(first.ok());
  auto second = pipe.Encode(raw);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.dedup_hits, second->stats.chunks);
  EXPECT_EQ(second->stats.unique_bytes, 0u);
  EXPECT_LT(second->wire.size(), first->wire.size());
  // Ref frames are header-only, so the repeat pass is pure framing.
  EXPECT_EQ(second->wire.size(),
            kContentStreamHeaderBytes +
                second->stats.chunks * kContentFrameHeaderBytes);

  auto decoded = pipe.Decode(second->wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(std::equal(decoded->begin(), decoded->end(), raw.begin()));
}

// Modeled compression really shrinks the wire image by ~the ratio.
TEST(ContentRoundTripTest, CompressionShrinksWire) {
  ChunkIndex index;
  ContentConfig cfg;
  cfg.chunk = cfg.compress = true;
  cfg.compress_ratio = 2.0;
  cfg.index = &index;
  const std::vector<uint8_t> raw = MakeStream(11, 512 * 1024);
  auto encoded = StagePipeline(cfg).Encode(raw);
  ASSERT_TRUE(encoded.ok());
  const double observed =
      static_cast<double>(raw.size()) / static_cast<double>(encoded->wire.size());
  EXPECT_GT(observed, 1.7) << "wire " << encoded->wire.size();
  EXPECT_LT(observed, 2.1) << "wire " << encoded->wire.size();
}

// ----------------------------------------------------------- batched hash

void ExpectBatchMatchesSerial(
    const std::vector<std::span<const uint8_t>>& pieces) {
  std::vector<uint64_t> got(pieces.size(), 0);
  ContentHashes(pieces, got);
  for (size_t i = 0; i < pieces.size(); ++i) {
    ASSERT_EQ(got[i], ContentHash(pieces[i]))
        << "piece " << i << " of " << pieces.size() << ", "
        << pieces[i].size() << " bytes";
  }
}

// ContentHashes is ContentHash per piece, however the pieces fall into its
// lanes: 0-9 pieces of every length 0-300 (empty pieces included), random
// mixes, one long piece among short ones (lanes that run dry at different
// times), and one 1 MiB piece at every position among tiny ones.
TEST(ContentHashTest, BatchedHashesMatchContentHashPerPiece) {
  Rng rng(0x66e7a1);
  std::vector<uint8_t> buf(kMiB + 4096);
  rng.Fill(buf);
  auto piece = [&buf](size_t offset, size_t len) {
    return std::span<const uint8_t>(buf).subspan(offset, len);
  };
  for (size_t count = 0; count <= 9; ++count) {
    for (size_t len = 0; len <= 300; ++len) {
      std::vector<std::span<const uint8_t>> pieces;
      for (size_t j = 0; j < count; ++j) {
        pieces.push_back(piece(j * 301, (len + j * 37) % 301));
      }
      ExpectBatchMatchesSerial(pieces);
    }
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<std::span<const uint8_t>> pieces;
      for (size_t j = 0; j < count; ++j) {
        const size_t len = rng.Chance(0.2) ? 0 : rng.Below(301);
        pieces.push_back(piece(rng.Below(buf.size() - 300), len));
      }
      ExpectBatchMatchesSerial(pieces);
    }
    for (size_t at = 0; at < count; ++at) {
      std::vector<std::span<const uint8_t>> uneven, huge;
      for (size_t j = 0; j < count; ++j) {
        uneven.push_back(piece(j, j == at ? 300 : j % 3));
        huge.push_back(j == at ? piece(0, kMiB) : piece(kMiB + j, j % 8));
      }
      ExpectBatchMatchesSerial(uneven);
      ExpectBatchMatchesSerial(huge);
    }
  }
}

// ---------------------------------------------------------- wire identity

// Encode's wire image is a tape format: the same stream, config and index
// state must produce the same bytes on every build and host. These CRCs pin
// a cold encode (empty index) and a warm one (a churned copy of the stream
// against the index the cold pass filled) for four stage combos, so a speed
// change to hashing, chunking or payload filling cannot move a byte.
TEST(ContentWireTest, EncodeWireImagesArePinned) {
  struct Combo {
    bool chunk, dedup, compress, crc;
  };
  const Combo kCombos[] = {
      {true, true, false, true},   // verbatim literals and refs
      {false, false, true, false}, // fixed-size chunks, filler payloads
      {true, false, true, true},   // filler payloads under content cuts
      {true, true, true, true},    // every stage
  };
  // {cold, warm} per (seed, combo), captured from the serial-hash encoder.
  const uint32_t kWant[2][4][2] = {
      {{0x2c280f66, 0xe2d03f57},
       {0x545cda9c, 0xb8feeab4},
       {0xfa817745, 0xbb5c67ab},
       {0x1f55f563, 0xd0b2f91a}},
      {{0x51cd94a5, 0xc1bdf2a0},
       {0x5c26b46a, 0x0ab63805},
       {0xe1b0dddd, 0x129ceb12},
       {0xf6003234, 0xde6d129e}},
  };
  for (uint64_t s = 0; s < 2; ++s) {
    const std::vector<uint8_t> raw = MakeStream(101 + s, 256 * 1024 + 333);
    std::vector<uint8_t> churned = raw;
    for (size_t at = 5000; at < churned.size(); at += 61 * 1024) {
      churned[at] ^= 0xa5;
    }
    for (size_t c = 0; c < 4; ++c) {
      ChunkIndex index;
      ContentConfig cfg;
      cfg.chunk = kCombos[c].chunk;
      cfg.dedup = kCombos[c].dedup;
      cfg.compress = kCombos[c].compress;
      cfg.crc = kCombos[c].crc;
      cfg.compress_ratio = 2.0 + static_cast<double>(s);
      cfg.seed = 0x626b6370 + s;
      cfg.index = &index;
      const StagePipeline pipe(cfg);
      auto cold = pipe.Encode(raw);
      ASSERT_TRUE(cold.ok()) << cold.status().ToString();
      auto warm = pipe.Encode(churned);
      ASSERT_TRUE(warm.ok()) << warm.status().ToString();
      EXPECT_EQ(Crc32c(cold->wire), kWant[s][c][0])
          << "seed " << s << " combo " << c << " cold";
      EXPECT_EQ(Crc32c(warm->wire), kWant[s][c][1])
          << "seed " << s << " combo " << c << " warm";
    }
  }
}

// ------------------------------------------------------- chunking locality

// A 1-byte edit must re-chunk O(1) chunks: boundaries outside the edited
// chunk's rolling-hash reach are byte-for-byte identical, so an incremental
// against the same index re-ships only a handful of chunks.
TEST(ContentChunkingTest, OneByteEditRechunksO1Chunks) {
  ContentConfig cfg;
  cfg.chunk = true;
  StagePipeline pipe(cfg);
  std::vector<uint8_t> raw = MakeStream(3, 256 * 1024);

  const std::vector<uint64_t> before = pipe.ChunkBoundaries(raw);
  ASSERT_GT(before.size(), 8u);
  raw[raw.size() / 2] ^= 0xff;
  const std::vector<uint64_t> after = pipe.ChunkBoundaries(raw);

  // Compare as boundary sets: the edit may split/merge chunks near the
  // flipped byte, but everything else must be untouched.
  std::set<uint64_t> a(before.begin(), before.end());
  std::set<uint64_t> b(after.begin(), after.end());
  std::vector<uint64_t> gone, born;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(gone));
  std::set_difference(b.begin(), b.end(), a.begin(), a.end(),
                      std::back_inserter(born));
  EXPECT_LE(gone.size() + born.size(), 4u)
      << gone.size() << " boundaries lost, " << born.size() << " gained";
  // Every changed boundary sits within max_chunk_bytes of the edit.
  const uint64_t edit = raw.size() / 2;
  for (uint64_t v : gone) {
    EXPECT_LT(v > edit ? v - edit : edit - v, 2ull * cfg.max_chunk_bytes);
  }
  for (uint64_t v : born) {
    EXPECT_LT(v > edit ? v - edit : edit - v, 2ull * cfg.max_chunk_bytes);
  }
}

// ...and the dedup consequence: re-encoding the edited stream against the
// original index re-ships only the chunks the edit touched.
TEST(ContentChunkingTest, OneByteEditReshipsO1UniqueBytes) {
  ChunkIndex index;
  ContentConfig cfg;
  cfg.chunk = cfg.dedup = true;
  cfg.index = &index;
  StagePipeline pipe(cfg);
  std::vector<uint8_t> raw = MakeStream(5, 256 * 1024);

  auto first = pipe.Encode(raw);
  ASSERT_TRUE(first.ok());
  raw[raw.size() / 2] ^= 0xff;
  auto second = pipe.Encode(raw);
  ASSERT_TRUE(second.ok());
  EXPECT_GE(second->stats.dedup_hits + 4, second->stats.chunks)
      << "edit re-shipped " << second->stats.chunks - second->stats.dedup_hits
      << " chunks";
  EXPECT_LE(second->stats.unique_bytes, 4ull * cfg.max_chunk_bytes);
}

// Chunk boundaries respect the configured bounds.
TEST(ContentChunkingTest, BoundariesRespectMinAvgMax) {
  ContentConfig cfg;
  cfg.chunk = true;
  cfg.min_chunk_bytes = 512;
  cfg.avg_chunk_bytes = 2048;
  cfg.max_chunk_bytes = 8192;
  StagePipeline pipe(cfg);
  const std::vector<uint8_t> raw = MakeStream(9, 300 * 1024);
  const std::vector<uint64_t> ends = pipe.ChunkBoundaries(raw);
  ASSERT_FALSE(ends.empty());
  EXPECT_EQ(ends.back(), raw.size());
  uint64_t prev = 0;
  for (size_t i = 0; i < ends.size(); ++i) {
    const uint64_t len = ends[i] - prev;
    EXPECT_LE(len, cfg.max_chunk_bytes);
    if (i + 1 < ends.size()) {  // the tail chunk may be short
      EXPECT_GE(len, cfg.min_chunk_bytes);
    }
    prev = ends[i];
  }
}

// Reference chunker: the cut rule read literally, rolling the hash over
// every byte of every chunk. The production chunker must match it cut for
// cut.
std::vector<uint64_t> ReferenceChunkBoundaries(const ContentConfig& cfg,
                                               std::span<const uint8_t> raw) {
  constexpr uint64_t kRollWindow = 48;
  uint64_t t[256];
  uint64_t state = cfg.seed ^ 0x636e6b74;
  for (uint64_t& v : t) {
    v = SplitMix64(state);
  }
  auto rotl = [](uint64_t v, int s) { return (v << s) | (v >> (64 - s)); };
  std::vector<uint64_t> ends;
  if (raw.empty()) {
    return ends;
  }
  const uint64_t min_len = cfg.min_chunk_bytes;
  const uint64_t max_len = cfg.max_chunk_bytes;
  const uint64_t mask = cfg.avg_chunk_bytes - 1;
  uint64_t start = 0;
  uint64_t h = 0;
  uint64_t pos = 0;
  while (pos < raw.size()) {
    const uint8_t in = raw[pos];
    h = rotl(h, 1) ^ t[in];
    if (pos - start >= kRollWindow) {
      h ^= rotl(t[raw[pos - kRollWindow]], static_cast<int>(kRollWindow & 63));
    }
    ++pos;
    const uint64_t len = pos - start;
    if ((len >= min_len && (h & mask) == mask) || len >= max_len) {
      ends.push_back(pos);
      start = pos;
      h = 0;
    }
  }
  if (ends.empty() || ends.back() != raw.size()) {
    ends.push_back(raw.size());
  }
  return ends;
}

// Cut points depend only on the trailing 48-byte window, so starting each
// chunk's hash 48 bytes before its first legal cut moves no cut. Checked
// against the reference over seeded geometries and inputs, including the
// edges: the smallest legal min (49), min == avg, inputs shorter than min or
// exactly max, constant bytes (every cut at max), a 2-bit alphabet and the
// perfbench default bounds.
TEST(ContentChunkingTest, SkippingChunkerMatchesReference) {
  Rng rng(0x63686b72);
  auto random_config = [&rng] {
    ContentConfig cfg;
    cfg.chunk = true;
    cfg.seed = rng.Next();
    cfg.min_chunk_bytes = static_cast<uint32_t>(rng.Range(49, 4096));
    uint32_t avg = 64;
    while (avg < cfg.min_chunk_bytes) {
      avg <<= 1;
    }
    avg <<= rng.Below(4);
    cfg.avg_chunk_bytes = avg;
    cfg.max_chunk_bytes = static_cast<uint32_t>(rng.Range(avg, 4 * avg));
    return cfg;
  };
  std::vector<ContentConfig> configs;
  for (auto [min, avg, max] : {std::tuple{49u, 64u, 128u},
                               std::tuple{49u, 64u, 49u * 3},
                               std::tuple{64u, 64u, 64u},
                               std::tuple{512u, 512u, 4096u},
                               std::tuple{2048u, 8192u, 65536u}}) {
    ContentConfig cfg;
    cfg.chunk = true;
    cfg.min_chunk_bytes = min;
    cfg.avg_chunk_bytes = avg;
    cfg.max_chunk_bytes = max;
    configs.push_back(cfg);
  }
  for (int i = 0; i < 60; ++i) {
    configs.push_back(random_config());
  }

  size_t cuts = 0;
  for (const ContentConfig& cfg : configs) {
    ASSERT_TRUE(cfg.Validate().ok());
    const StagePipeline pipe(cfg);
    const std::vector<size_t> sizes = {
        1,
        cfg.min_chunk_bytes - 1u,
        cfg.min_chunk_bytes,
        cfg.max_chunk_bytes,
        cfg.max_chunk_bytes + 1u,
        static_cast<size_t>(rng.Range(1, 256 * 1024))};
    for (size_t n : sizes) {
      std::vector<uint8_t> random_bytes(n);
      rng.Fill(random_bytes);
      std::vector<uint8_t> two_bit(n);
      for (uint8_t& b : two_bit) {
        b = static_cast<uint8_t>(rng.Below(4));
      }
      std::vector<uint8_t> constant(n, 0x5a);
      std::vector<uint8_t> stream = MakeStream(rng.Next(), n);
      for (const std::vector<uint8_t>* raw :
           {&random_bytes, &two_bit, &constant, &stream}) {
        const std::vector<uint64_t> want = ReferenceChunkBoundaries(cfg, *raw);
        ASSERT_EQ(pipe.ChunkBoundaries(*raw), want)
            << "min " << cfg.min_chunk_bytes << " avg " << cfg.avg_chunk_bytes
            << " max " << cfg.max_chunk_bytes << " seed " << cfg.seed
            << " size " << n;
        cuts += want.size();
      }
    }
  }
  EXPECT_GT(cuts, 10000u);
}

// With every stage off Validate() checks no geometry, so avg may be 0:
// fixed-size chunking then cuts one-byte pieces instead of never returning.
TEST(ContentChunkingTest, FixedSizeChunkingWithZeroAvgTerminates) {
  ContentConfig cfg;
  cfg.avg_chunk_bytes = 0;
  const std::vector<uint8_t> raw = MakeStream(37, 100);
  const StagePipeline pipe(cfg);
  const std::vector<uint64_t> ends = pipe.ChunkBoundaries(raw);
  ASSERT_EQ(ends.size(), raw.size());
  EXPECT_EQ(ends.front(), 1u);
  EXPECT_EQ(ends.back(), raw.size());
  auto encoded = pipe.Encode(raw);
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
  auto decoded = pipe.Decode(encoded->wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, raw);
}

// ------------------------------------------------------- adversarial inputs

TEST(ContentAdversarialTest, ZeroLengthStreamRoundTrips) {
  for (int combo = 0; combo < 16; ++combo) {
    ChunkIndex index;
    StagePipeline pipe(ComboConfig(combo, &index));
    auto encoded = pipe.Encode({});
    ASSERT_TRUE(encoded.ok()) << "combo " << combo;
    EXPECT_EQ(encoded->wire.size(), kContentStreamHeaderBytes);
    EXPECT_EQ(encoded->map.raw_total(), 0u);
    auto decoded = pipe.Decode(encoded->wire);
    ASSERT_TRUE(decoded.ok()) << "combo " << combo;
    EXPECT_TRUE(decoded->empty());
    auto scanned = FrameMap::FromWire(encoded->wire);
    ASSERT_TRUE(scanned.ok());
    EXPECT_TRUE(scanned->frames().empty());
  }
}

// All-identical bytes: content-defined chunking never finds a boundary (the
// rolling hash is constant), so every chunk is max-sized and, with dedup,
// all but the first (and a short tail) collapse to refs.
TEST(ContentAdversarialTest, AllIdenticalBytesCollapseUnderDedup) {
  ChunkIndex index;
  ContentConfig cfg;
  cfg.chunk = cfg.dedup = cfg.crc = true;
  cfg.index = &index;
  std::vector<uint8_t> raw(128 * 1024 + 777, 0xab);
  StagePipeline pipe(cfg);
  auto encoded = pipe.Encode(raw);
  ASSERT_TRUE(encoded.ok());
  // One unique max-sized chunk plus the odd-sized tail; everything else refs.
  EXPECT_EQ(encoded->stats.dedup_hits, encoded->stats.chunks - 2);
  EXPECT_EQ(encoded->stats.unique_bytes, cfg.max_chunk_bytes + 777u);
  auto decoded = pipe.Decode(encoded->wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(std::equal(decoded->begin(), decoded->end(), raw.begin()));
}

// Raw ranges that straddle frame boundaries translate to frame-aligned wire
// covers that fully contain them, and the watermark inverse stays monotone
// and consistent at every offset.
TEST(ContentAdversarialTest, BoundaryStraddlingRangesAndWatermarks) {
  ChunkIndex index;
  ContentConfig cfg;
  cfg.chunk = cfg.compress = cfg.crc = true;
  cfg.min_chunk_bytes = 64;
  cfg.avg_chunk_bytes = 256;
  cfg.max_chunk_bytes = 1024;
  cfg.index = &index;
  const std::vector<uint8_t> raw = MakeStream(13, 64 * 1024);
  auto encoded = StagePipeline(cfg).Encode(raw);
  ASSERT_TRUE(encoded.ok());
  const FrameMap& map = encoded->map;
  ASSERT_GT(map.frames().size(), 3u);

  // A range straddling the 2nd/3rd frame boundary.
  const FrameMap::Frame& f1 = map.frames()[1];
  const FrameMap::Frame& f2 = map.frames()[2];
  StreamRange straddle{f1.raw_begin + f1.raw_len / 2,
                       f2.raw_begin + f2.raw_len / 2};
  auto covers = map.WireRangesOf(std::span(&straddle, 1));
  ASSERT_EQ(covers.size(), 1u);
  EXPECT_LE(covers[0].begin, f1.wire_begin);
  EXPECT_EQ(covers[0].end, f2.wire_begin + f2.wire_len);
  // The cover holds at least the straddled raw bytes.
  EXPECT_GE(map.RawSizeOfWireRange(covers[0]),
            straddle.end - straddle.begin);

  // WireOf / RawAvailable: monotone, mutually consistent, exact at edges.
  EXPECT_EQ(map.WireOf(0), 0u);
  EXPECT_EQ(map.WireOf(map.raw_total()), map.wire_total());
  EXPECT_EQ(map.RawAvailable(map.wire_total()), map.raw_total());
  uint64_t prev_wire = 0;
  for (uint64_t r = 0; r <= map.raw_total(); r += 97) {
    const uint64_t w = map.WireOf(r);
    EXPECT_GE(w, prev_wire);
    prev_wire = w;
    EXPECT_LE(map.RawAvailable(w), r);  // never claims undecodable bytes
  }
  uint64_t prev_raw = 0;
  for (uint64_t w = 0; w <= map.wire_total(); w += 101) {
    const uint64_t r = map.RawAvailable(w);
    EXPECT_GE(r, prev_raw);
    prev_raw = r;
  }
}

// A corrupted ChunkIndex entry must fail restore loudly with kCorruption —
// never hand back wrong bytes.
TEST(ContentAdversarialTest, CorruptedIndexEntryFailsDecodeLoudly) {
  ChunkIndex index;
  ContentConfig cfg;
  cfg.chunk = cfg.dedup = cfg.compress = cfg.crc = true;
  cfg.index = &index;
  const std::vector<uint8_t> raw = MakeStream(17, 64 * 1024);
  StagePipeline pipe(cfg);
  auto encoded = pipe.Encode(raw);
  ASSERT_TRUE(encoded.ok());

  const std::vector<uint64_t> ends = pipe.ChunkBoundaries(raw);
  ASSERT_FALSE(ends.empty());
  const uint64_t h =
      ContentHash(std::span(raw).first(static_cast<size_t>(ends[0])));
  ASSERT_TRUE(index.CorruptEntryForTest(h));

  auto decoded = pipe.Decode(encoded->wire);
  ASSERT_FALSE(decoded.ok()) << "decode served corrupt store bytes";
  EXPECT_EQ(decoded.status().code(), ErrorCode::kCorruption);
}

// Decode checks the content hash of every store-backed frame, wherever it
// falls in the batched hash's lanes. Each case turns one frame's store
// entry into a same-length imposter and re-seals the frame's CRC to match
// it, so length and CRC pass and only the hash check can catch it. Every
// frame gets its turn (the first, the first of each lane, the last), as a
// literal on the cold pass and as a ref on the warm one.
TEST(ContentAdversarialTest, HashCheckCatchesImposterAtEveryFrame) {
  ChunkIndex index;
  ContentConfig cfg;
  cfg.chunk = cfg.dedup = cfg.compress = cfg.crc = true;
  cfg.min_chunk_bytes = 64;
  cfg.avg_chunk_bytes = 256;
  cfg.max_chunk_bytes = 1024;
  cfg.index = &index;
  std::vector<uint8_t> raw(48 * 1024);
  Rng(31).Fill(raw);
  const StagePipeline pipe(cfg);
  auto literals = pipe.Encode(raw);
  ASSERT_TRUE(literals.ok());
  auto refs = pipe.Encode(raw);
  ASSERT_TRUE(refs.ok());
  ASSERT_EQ(refs->stats.dedup_hits, refs->stats.chunks);
  // Random bytes repeat no chunk, so each frame owns its store entry.
  ASSERT_EQ(index.size(), literals->stats.chunks);

  for (const EncodeResult* encoded : {&*literals, &*refs}) {
    const std::vector<FrameMap::Frame>& frames = encoded->map.frames();
    ASSERT_GT(frames.size(), 16u);
    for (size_t i = 0; i < frames.size(); ++i) {
      const FrameMap::Frame& frame = frames[i];
      std::vector<uint8_t> wire = encoded->wire;
      uint64_t hash = 0;
      for (int b = 0; b < 8; ++b) {
        hash |= uint64_t{wire[frame.wire_begin + 12 + b]} << (8 * b);
      }
      std::vector<uint8_t> imposter(
          raw.begin() + static_cast<ptrdiff_t>(frame.raw_begin),
          raw.begin() + static_cast<ptrdiff_t>(frame.raw_begin + frame.raw_len));
      imposter[imposter.size() / 2] ^= 0x5a;  // what CorruptEntryForTest does
      const uint32_t crc = Crc32c(imposter);
      for (int b = 0; b < 4; ++b) {
        wire[frame.wire_begin + 20 + b] = static_cast<uint8_t>(crc >> (8 * b));
      }
      ASSERT_TRUE(index.CorruptEntryForTest(hash));
      auto decoded = pipe.Decode(wire);
      ASSERT_TRUE(index.CorruptEntryForTest(hash));  // undo
      ASSERT_FALSE(decoded.ok()) << "frame " << i << " of " << frames.size()
                                 << ": decode served an imposter chunk";
      EXPECT_EQ(decoded.status().code(), ErrorCode::kCorruption);
    }
    auto clean = pipe.Decode(encoded->wire);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    EXPECT_TRUE(std::equal(clean->begin(), clean->end(), raw.begin()));
  }
}

// Decoding a store-backed stream without the backup's index is a usage
// error, reported as such (not corruption, not silence).
TEST(ContentAdversarialTest, StoreBackedDecodeWithoutIndexFails) {
  ChunkIndex index;
  ContentConfig cfg;
  cfg.compress = true;
  cfg.index = &index;
  const std::vector<uint8_t> raw = MakeStream(19, 16 * 1024);
  auto encoded = StagePipeline(cfg).Encode(raw);
  ASSERT_TRUE(encoded.ok());
  ContentConfig no_index;  // stages off, no store
  auto decoded = StagePipeline(no_index).Decode(encoded->wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), ErrorCode::kFailedPrecondition);
}

// Truncated and bit-flipped wire images fail loudly too.
TEST(ContentAdversarialTest, DamagedWireImageIsCorruption) {
  ChunkIndex index;
  ContentConfig cfg;
  cfg.chunk = cfg.crc = true;
  const std::vector<uint8_t> raw = MakeStream(23, 32 * 1024);
  StagePipeline pipe(cfg);
  auto encoded = pipe.Encode(raw);
  ASSERT_TRUE(encoded.ok());

  std::vector<uint8_t> torn = encoded->wire;
  torn.resize(torn.size() - 100);
  auto decoded = pipe.Decode(torn);
  ASSERT_FALSE(decoded.ok());

  std::vector<uint8_t> flipped = encoded->wire;
  flipped[kContentStreamHeaderBytes + kContentFrameHeaderBytes + 7] ^= 0x01;
  decoded = pipe.Decode(flipped);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), ErrorCode::kCorruption);

  std::vector<uint8_t> bad_header = encoded->wire;
  bad_header[5] ^= 0x80;
  decoded = pipe.Decode(bad_header);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), ErrorCode::kCorruption);

  // A header claiming raw_total = 2^62 under a valid re-sealed header CRC:
  // the decoder must not trust the size for its allocation.
  std::vector<uint8_t> huge_total = encoded->wire;
  const uint64_t claimed = uint64_t{1} << 62;
  for (int i = 0; i < 8; ++i) {
    huge_total[24 + i] = static_cast<uint8_t>(claimed >> (8 * i));
  }
  const uint32_t crc = Crc32c(std::span<const uint8_t>(huge_total).first(32));
  for (int i = 0; i < 4; ++i) {
    huge_total[32 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  decoded = pipe.Decode(huge_total);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), ErrorCode::kCorruption);
}

// -------------------------------------------------------------- dedup safety

// A hash collision (same ContentHash, different bytes) never dedups wrong:
// encode detects the mismatch, falls back to a verbatim literal, and the
// stream still round-trips byte-identically.
TEST(ContentDedupSafetyTest, HashCollisionFallsBackToVerbatim) {
  ChunkIndex index;
  ContentConfig cfg;
  cfg.chunk = cfg.dedup = cfg.compress = cfg.crc = true;
  cfg.index = &index;
  StagePipeline pipe(cfg);
  const std::vector<uint8_t> raw = MakeStream(29, 64 * 1024);

  // Poison the store: the first chunk's hash slot holds different bytes,
  // simulating a collision with an earlier backup's chunk.
  const std::vector<uint64_t> ends = pipe.ChunkBoundaries(raw);
  const uint64_t h =
      ContentHash(std::span(raw).first(static_cast<size_t>(ends[0])));
  const std::vector<uint8_t> imposter(100, 0x77);
  ASSERT_TRUE(index.Insert(h, imposter));

  auto encoded = pipe.Encode(raw);
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(encoded->stats.dedup_hits, 0u)
      << "collision chunk must not dedup against different bytes";
  auto decoded = pipe.Decode(encoded->wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(std::equal(decoded->begin(), decoded->end(), raw.begin()))
      << "collision fallback must still round-trip";
}

// -------------------------------------------------------------- config/CPU

TEST(ContentConfigTest, ValidateRejectsBadGeometry) {
  ContentConfig cfg;
  cfg.chunk = true;
  cfg.avg_chunk_bytes = 3000;  // not a power of two
  EXPECT_EQ(cfg.Validate().code(), ErrorCode::kInvalidArgument);

  cfg = {};
  cfg.chunk = true;
  cfg.min_chunk_bytes = 16;  // below the rolling window
  cfg.avg_chunk_bytes = 64;
  cfg.max_chunk_bytes = 128;
  EXPECT_EQ(cfg.Validate().code(), ErrorCode::kInvalidArgument);

  cfg = {};
  cfg.compress = true;  // store-backed stages need an index
  EXPECT_EQ(cfg.Validate().code(), ErrorCode::kInvalidArgument);

  cfg = {};
  ChunkIndex index;
  cfg.compress = true;
  cfg.index = &index;
  cfg.compress_ratio = 1.0;
  EXPECT_EQ(cfg.Validate().code(), ErrorCode::kInvalidArgument);

  cfg = {};
  EXPECT_TRUE(cfg.Validate().ok()) << "all-off config is always valid";
}

TEST(ContentConfigTest, CpuPricesSumEnabledStages) {
  ChunkIndex index;
  ContentConfig cfg;
  cfg.chunk = cfg.dedup = cfg.compress = cfg.crc = true;
  cfg.index = &index;
  EXPECT_EQ(cfg.EncodeCpuPerMb(),
            ContentConfig::kChunkCpuUsPerMb + ContentConfig::kDedupCpuUsPerMb +
                ContentConfig::kCompressCpuUsPerMb +
                ContentConfig::kCrcCpuUsPerMb);
  EXPECT_EQ(cfg.DecodeCpuPerMb(),
            ContentConfig::kCrcCpuUsPerMb + ContentConfig::kDecodeCpuUsPerMb);
  ContentConfig off;
  EXPECT_EQ(off.EncodeCpuPerMb(), 0);
  EXPECT_EQ(off.DecodeCpuPerMb(), 0);
}

}  // namespace
}  // namespace bkup
