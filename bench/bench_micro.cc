// Micro-benchmarks (google-benchmark) for the hot inner loops of the
// backup paths: checksums, bitmap algebra (the Table 1 computation), block
// map plane operations, dump record serialization, the write allocator,
// RAID parity math, filling a stream buffer with and without huge page
// advice, the content stages (chunking, encode, decode) and the two dump
// engines end to end.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "src/block/block.h"
#include "src/content/content.h"
#include "src/dump/format.h"
#include "src/dump/logical_dump.h"
#include "src/fs/blockmap.h"
#include "src/image/image_dump.h"
#include "src/util/bitmap.h"
#include "src/util/checksum.h"
#include "src/util/random.h"
#include "src/util/stream_buffer.h"
#include "src/workload/population.h"

namespace bkup {
namespace {

void BM_Crc32c4K(benchmark::State& state) {
  Block block;
  Rng rng(1);
  rng.Fill(block.bytes());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(block.bytes()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          kBlockSize);
}
BENCHMARK(BM_Crc32c4K);

void BM_Adler32_4K(benchmark::State& state) {
  Block block;
  Rng rng(2);
  rng.Fill(block.bytes());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Adler32(block.bytes()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          kBlockSize);
}
BENCHMARK(BM_Adler32_4K);

void BM_BitmapDifference(benchmark::State& state) {
  const size_t bits = static_cast<size_t>(state.range(0));
  Bitmap a(bits), b(bits);
  Rng rng(3);
  for (size_t i = 0; i < bits / 3; ++i) {
    a.Set(rng.Below(bits));
    b.Set(rng.Below(bits));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Bitmap::Difference(b, a));
  }
}
BENCHMARK(BM_BitmapDifference)->Arg(1 << 16)->Arg(1 << 20);

void BM_BlockMapCopyPlane(benchmark::State& state) {
  BlockMap map(static_cast<uint64_t>(state.range(0)));
  Rng rng(4);
  for (Vbn v = 0; v < map.num_blocks(); v += 3) {
    map.Set(kActivePlane, v);
  }
  for (auto _ : state) {
    map.CopyPlane(kActivePlane, 5);
    benchmark::DoNotOptimize(map.word(0));
  }
}
BENCHMARK(BM_BlockMapCopyPlane)->Arg(1 << 16)->Arg(1 << 20);

void BM_ImageBlockSetScan(benchmark::State& state) {
  BlockMap map(static_cast<uint64_t>(state.range(0)));
  Rng rng(5);
  for (Vbn v = 0; v < map.num_blocks(); ++v) {
    if (rng.Chance(0.6)) {
      map.Set(kActivePlane, v);
    }
    if (rng.Chance(0.5)) {
      map.Set(1, v);
    }
  }
  for (auto _ : state) {
    Bitmap set(map.num_blocks());
    for (Vbn v = 0; v < map.num_blocks(); ++v) {
      if (map.word(v) != 0 && !map.Test(1, v)) {
        set.Set(v);
      }
    }
    benchmark::DoNotOptimize(set.CountOnes());
  }
}
BENCHMARK(BM_ImageBlockSetScan)->Arg(1 << 16)->Arg(1 << 20);

void BM_DumpRecordSerialize(benchmark::State& state) {
  DumpRecord rec;
  rec.type = DumpRecordType::kInode;
  rec.inum = 1234;
  rec.attrs = {InodeType::kFile, 0644, 1, 100, 100, 1 << 20, 1, 2, 3, 4};
  rec.total_blocks = 256;
  rec.map_count = 256;
  rec.present_count = 200;
  rec.block_map.assign(32, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rec.Serialize());
  }
}
BENCHMARK(BM_DumpRecordSerialize);

void BM_DumpRecordParse(benchmark::State& state) {
  DumpRecord rec;
  rec.type = DumpRecordType::kInode;
  rec.inum = 1234;
  rec.total_blocks = 256;
  rec.map_count = 256;
  rec.present_count = 200;
  rec.block_map.assign(32, 0xAB);
  const auto bytes = rec.Serialize().value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(DumpRecord::Parse(bytes));
  }
}
BENCHMARK(BM_DumpRecordParse);

void BM_AllocatorSequential(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    BlockMap map(1 << 16);
    WriteAllocator alloc(&map);
    state.ResumeTiming();
    for (int i = 0; i < 10000; ++i) {
      benchmark::DoNotOptimize(alloc.Allocate());
    }
  }
}
BENCHMARK(BM_AllocatorSequential);

void BM_RaidParityXor(benchmark::State& state) {
  Block a, b;
  Rng rng(6);
  rng.Fill(a.bytes());
  rng.Fill(b.bytes());
  for (auto _ : state) {
    a.XorWith(b);
    benchmark::DoNotOptimize(a.data[0]);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          kBlockSize);
}
BENCHMARK(BM_RaidParityXor);

// A 32 MiB stream buffer reserved at its final size and filled a block at a
// time, as the dump engines fill theirs. Arg 0 reserves it plainly, so the
// host faults in one 4 KiB page per block; arg 1 reserves it through
// ReserveBytes, so huge pages can back it (when THP is not `never`).
void BM_StreamBufferFill(benchmark::State& state) {
  constexpr size_t kStreamBytes = 32 * kMiB;
  const bool advised = state.range(0) != 0;
  Block block;
  Rng(8).Fill(block.bytes());
  for (auto _ : state) {
    std::vector<uint8_t> stream;
    if (advised) {
      ReserveBytes(&stream, kStreamBytes);
    } else {
      stream.reserve(kStreamBytes);
    }
    while (stream.size() < kStreamBytes) {
      stream.insert(stream.end(), block.data.begin(), block.data.end());
    }
    benchmark::DoNotOptimize(stream.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kStreamBytes));
}
BENCHMARK(BM_StreamBufferFill)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The content benchmarks run every stage, as remote backups do, over one
// seeded 8 MiB stream.
constexpr size_t kContentStreamBytes = 8 * kMiB;

std::vector<uint8_t> ContentStream() {
  std::vector<uint8_t> raw(kContentStreamBytes);
  Rng(7).Fill(raw);
  return raw;
}

ContentConfig AllStages(ChunkIndex* index) {
  ContentConfig cfg;
  cfg.chunk = cfg.dedup = cfg.compress = cfg.crc = true;
  cfg.index = index;
  return cfg;
}

void BM_ChunkBoundaries(benchmark::State& state) {
  const std::vector<uint8_t> raw = ContentStream();
  const StagePipeline pipe(AllStages(nullptr));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipe.ChunkBoundaries(raw));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(raw.size()));
}
BENCHMARK(BM_ChunkBoundaries);

// Arg 0: a cold index (every chunk is stored); 1: a warm one (every chunk
// is a ref).
void BM_ContentEncode(benchmark::State& state) {
  const std::vector<uint8_t> raw = ContentStream();
  const bool warm = state.range(0) != 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto index = std::make_unique<ChunkIndex>();
    const StagePipeline pipe(AllStages(index.get()));
    if (warm) {
      (void)pipe.Encode(raw);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(pipe.Encode(raw));
    state.PauseTiming();
    index.reset();
    state.ResumeTiming();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(raw.size()));
}
BENCHMARK(BM_ContentEncode)->Arg(0)->Arg(1);

void BM_ContentDecode(benchmark::State& state) {
  const std::vector<uint8_t> raw = ContentStream();
  ChunkIndex index;
  const StagePipeline pipe(AllStages(&index));
  const std::vector<uint8_t> wire = pipe.Encode(raw).value().wire;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipe.Decode(wire));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(raw.size()));
}
BENCHMARK(BM_ContentDecode);

// The dump engines run over one seeded volume populated with 32 MiB and
// snapshotted; bytes processed are stream bytes.
struct DumpVolume {
  DumpVolume() {
    VolumeGeometry geom;
    geom.num_raid_groups = 2;
    geom.disks_per_group = 4;
    geom.blocks_per_disk = 4096;
    volume = Volume::Create(&env, "bench", geom);
    fs = std::move(Filesystem::Format(volume.get(), &env)).value();
    WorkloadParams params;
    params.target_bytes = 32 * kMiB;
    (void)PopulateFilesystem(fs.get(), params).value();
    (void)fs->CreateSnapshot("bench");
  }
  SimEnvironment env;
  std::unique_ptr<Volume> volume;
  std::unique_ptr<Filesystem> fs;
};

void BM_LogicalDump(benchmark::State& state) {
  DumpVolume v;
  const FsReader reader = v.fs->SnapshotReader("bench").value();
  int64_t bytes = 0;
  for (auto _ : state) {
    const LogicalDumpOutput out =
        RunLogicalDump(reader, LogicalDumpOptions{}).value();
    bytes += static_cast<int64_t>(out.stream.size());
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_LogicalDump)->Unit(benchmark::kMillisecond);

void BM_ImageDump(benchmark::State& state) {
  DumpVolume v;
  int64_t bytes = 0;
  for (auto _ : state) {
    const ImageDumpOutput out =
        RunImageDump(v.volume.get(), ImageDumpOptions{}).value();
    bytes += static_cast<int64_t>(out.stream.size());
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_ImageDump)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bkup

BENCHMARK_MAIN();
