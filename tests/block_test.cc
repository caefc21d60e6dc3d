// Tests for the simulated devices: disk data + timing model, tape drives,
// tape library.
#include <gtest/gtest.h>

#include <limits>

#include "src/block/block.h"
#include "src/block/disk.h"
#include "src/block/tape.h"
#include "src/block/tape_library.h"
#include "src/util/random.h"

namespace bkup {
namespace {

Block MakeBlock(uint8_t fill) {
  Block b;
  b.data.fill(fill);
  return b;
}

// ----------------------------------------------------------------- Block ---

TEST(BlockTest, ZeroAndIsZero) {
  Block b = MakeBlock(7);
  EXPECT_FALSE(b.IsZero());
  b.Zero();
  EXPECT_TRUE(b.IsZero());
}

TEST(BlockTest, XorWithIsInvolution) {
  Rng rng(1);
  Block a, b;
  rng.Fill(a.bytes());
  rng.Fill(b.bytes());
  Block c = a;
  c.XorWith(b);
  EXPECT_NE(c, a);
  c.XorWith(b);
  EXPECT_EQ(c, a);
}

TEST(BlockTest, CopyFromPartial) {
  Block b;
  std::vector<uint8_t> src = {1, 2, 3};
  b.CopyFrom(src, 100);
  EXPECT_EQ(b.data[100], 1);
  EXPECT_EQ(b.data[102], 3);
  EXPECT_EQ(b.data[103], 0);
}

// ------------------------------------------------------------------ Disk ---

TEST(DiskTest, ReadUnwrittenIsZeros) {
  SimEnvironment env;
  Disk d(&env, "d0", 1000);
  Block b = MakeBlock(0xFF);
  ASSERT_TRUE(d.ReadData(42, &b).ok());
  EXPECT_TRUE(b.IsZero());
}

TEST(DiskTest, WriteReadRoundTrip) {
  SimEnvironment env;
  Disk d(&env, "d0", 1000);
  Block w = MakeBlock(0xAB);
  ASSERT_TRUE(d.WriteData(7, w).ok());
  Block r;
  ASSERT_TRUE(d.ReadData(7, &r).ok());
  EXPECT_EQ(r, w);
}

TEST(DiskTest, StoredBlockIsTheWrittenBlockInPlace) {
  SimEnvironment env;
  Disk d(&env, "d0", 1000);
  EXPECT_EQ(d.StoredBlock(7), nullptr);
  EXPECT_EQ(d.StoredBlock(5000), nullptr);
  const Block w = MakeBlock(0xAB);
  ASSERT_TRUE(d.WriteData(7, w).ok());
  Block* stored = d.StoredBlock(7);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(*stored, w);
  stored->data[1] = 0x11;
  Block r;
  ASSERT_TRUE(d.ReadData(7, &r).ok());
  EXPECT_EQ(r.data[0], 0xAB);
  EXPECT_EQ(r.data[1], 0x11);
}

TEST(DiskTest, OutOfRangeRejected) {
  SimEnvironment env;
  Disk d(&env, "d0", 10);
  Block b;
  EXPECT_EQ(d.ReadData(10, &b).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(d.WriteData(11, b).code(), ErrorCode::kInvalidArgument);
}

TEST(DiskTest, FailedDiskErrorsAllIo) {
  SimEnvironment env;
  Disk d(&env, "d0", 10);
  Block b;
  ASSERT_TRUE(d.WriteData(3, MakeBlock(1)).ok());
  d.Fail();
  EXPECT_EQ(d.ReadData(3, &b).code(), ErrorCode::kIoError);
  EXPECT_EQ(d.WriteData(3, b).code(), ErrorCode::kIoError);
  d.ReplaceWithBlank();
  ASSERT_TRUE(d.ReadData(3, &b).ok());
  EXPECT_TRUE(b.IsZero()) << "replacement drive must be blank";
}

TEST(DiskTest, SequentialAccessIsTransferOnly) {
  SimEnvironment env;
  DiskTiming t;
  t.transfer_mb_per_s = 10.0;
  Disk d(&env, "d0", 1u << 20, t);
  // Head at 0, read 256 blocks at 0: 1 MiB at 10 MB/s ~= 104.8 ms.
  const SimDuration seq = d.AccessTime(0, 256);
  EXPECT_NEAR(static_cast<double>(seq), 104.8 * kMillisecond,
              1.0 * kMillisecond);
}

TEST(DiskTest, RandomAccessPaysSeekAndRotation) {
  SimEnvironment env;
  Disk d(&env, "d0", 1u << 20);
  const SimDuration near = d.AccessTime(0, 1);
  const SimDuration far = d.AccessTime(1u << 19, 1);
  EXPECT_GT(far, near + 5 * kMillisecond);
}

TEST(DiskTest, SeekCostGrowsWithDistance) {
  SimEnvironment env;
  Disk d(&env, "d0", 1u << 20);
  const SimDuration mid = d.AccessTime(1u << 16, 1);
  const SimDuration far = d.AccessTime(1u << 19, 1);
  EXPECT_GT(far, mid);
}

Task DoAccess(Disk* d, Dbn dbn, uint64_t count) {
  co_await d->TimedAccess(dbn, count);
}

TEST(DiskTest, TimedAccessMovesHeadAndCountsBytes) {
  SimEnvironment env;
  Disk d(&env, "d0", 1u << 20);
  env.Spawn(DoAccess(&d, 100, 8));
  env.Run();
  EXPECT_EQ(d.head_position(), 108u);
  EXPECT_EQ(d.bytes_transferred(), 8 * kBlockSize);
  EXPECT_GT(d.arm().BusyIntegral(), 0);
}

Task DoTimedAccess(Disk* d, Dbn dbn, uint64_t count, Status* st) {
  co_await d->TimedAccess(dbn, count, st);
}

Task FailAt(SimEnvironment* env, Disk* d, SimDuration when) {
  co_await env->Delay(when);
  d->Fail();
}

TEST(DiskTest, FailDuringInFlightAccessSurfacesIoError) {
  SimEnvironment env;
  Disk d(&env, "d0", 1u << 20);
  // A long transfer (4096 blocks ~ 1.7 s) with a Fail() landing mid-flight:
  // the waiting job must see kIoError, and the head/byte counters must not
  // pretend the access completed.
  Status st;
  env.Spawn(DoTimedAccess(&d, 0, 4096, &st));
  env.Spawn(FailAt(&env, &d, 100 * kMillisecond));
  env.Run();
  EXPECT_EQ(st.code(), ErrorCode::kIoError);
  EXPECT_EQ(d.head_position(), 0u);
  EXPECT_EQ(d.bytes_transferred(), 0u);
}

TEST(DiskTest, SequentialScanFasterThanRandomScan) {
  // The asymmetry that drives the whole paper: N blocks sequentially vs the
  // same N blocks scattered.
  SimEnvironment env;
  Disk seq_disk(&env, "seq", 1u << 20);
  Disk rnd_disk(&env, "rnd", 1u << 20);
  constexpr int kN = 64;

  for (int i = 0; i < kN; ++i) {
    env.Spawn(DoAccess(&seq_disk, static_cast<Dbn>(i) * 8, 8));
  }
  const SimTime t0 = env.now();
  env.Run();
  const SimDuration seq_time = env.now() - t0;

  Rng rng(5);
  const SimTime t1 = env.now();
  for (int i = 0; i < kN; ++i) {
    env.Spawn(DoAccess(&rnd_disk, rng.Below(1u << 20), 8));
  }
  env.Run();
  const SimDuration rnd_time = env.now() - t1;
  EXPECT_GT(rnd_time, 3 * seq_time);
}

// ------------------------------------------------------------------ Tape ---

TEST(TapeTest, WriteReadRoundTrip) {
  SimEnvironment env;
  Tape media("t0", 1 * kGiB);
  TapeDrive drive(&env, "dlt0");
  drive.LoadMedia(&media);
  std::vector<uint8_t> data = {1, 2, 3, 4, 5};
  ASSERT_TRUE(drive.WriteData(data).ok());
  EXPECT_EQ(drive.position(), 5u);
  drive.Rewind();
  std::vector<uint8_t> back(5);
  ASSERT_TRUE(drive.ReadData(back).ok());
  EXPECT_EQ(back, data);
}

TEST(TapeTest, NoMediaFails) {
  SimEnvironment env;
  TapeDrive drive(&env, "dlt0");
  std::vector<uint8_t> data(10);
  EXPECT_EQ(drive.WriteData(data).code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(drive.ReadData(data).code(), ErrorCode::kFailedPrecondition);
}

TEST(TapeTest, EndOfTapeIsNoSpace) {
  SimEnvironment env;
  Tape media("t0", 100);
  TapeDrive drive(&env, "dlt0");
  drive.LoadMedia(&media);
  std::vector<uint8_t> data(101);
  EXPECT_EQ(drive.WriteData(data).code(), ErrorCode::kNoSpace);
}

TEST(TapeTest, ReadPastRecordedDataIsCorruption) {
  SimEnvironment env;
  Tape media("t0", 1000);
  TapeDrive drive(&env, "dlt0");
  drive.LoadMedia(&media);
  std::vector<uint8_t> data(10);
  ASSERT_TRUE(drive.WriteData(data).ok());
  drive.Rewind();
  std::vector<uint8_t> big(11);
  EXPECT_EQ(drive.ReadData(big).code(), ErrorCode::kCorruption);
}

TEST(TapeTest, MidTapeWriteTruncates) {
  SimEnvironment env;
  Tape media("t0", 1000);
  TapeDrive drive(&env, "dlt0");
  drive.LoadMedia(&media);
  std::vector<uint8_t> data(100, 0xEE);
  ASSERT_TRUE(drive.WriteData(data).ok());
  ASSERT_TRUE(drive.SeekTo(40).ok());
  std::vector<uint8_t> patch(10, 0x11);
  ASSERT_TRUE(drive.WriteData(patch).ok());
  EXPECT_EQ(media.size(), 50u) << "serpentine write truncates the tail";
}

TEST(TapeTest, CorruptionFlipsBits) {
  Tape media("t0", 1000);
  media.mutable_bytes().assign(100, 0x00);
  ASSERT_TRUE(media.CorruptRange(10, 5).ok());
  EXPECT_EQ(media.contents()[9], 0x00);
  EXPECT_EQ(media.contents()[10], 0x5A);
  EXPECT_EQ(media.contents()[14], 0x5A);
  EXPECT_EQ(media.contents()[15], 0x00);
}

TEST(TapeTest, CorruptRangeRejectsAndClampsOutOfBounds) {
  Tape media("t0", 1000);
  media.mutable_bytes().assign(100, 0x00);
  // Starting beyond the recorded data is an error and must not write.
  EXPECT_EQ(media.CorruptRange(100, 5).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(media.CorruptRange(500, 1).code(), ErrorCode::kInvalidArgument);
  for (uint8_t b : media.contents()) {
    EXPECT_EQ(b, 0x00);
  }
  // A range running off the end of the data clamps (the defect extends
  // into blank media) — no overflow, no out-of-bounds write.
  ASSERT_TRUE(media.CorruptRange(98, std::numeric_limits<uint64_t>::max())
                  .ok());
  EXPECT_EQ(media.contents()[97], 0x00);
  EXPECT_EQ(media.contents()[98], 0x5A);
  EXPECT_EQ(media.contents()[99], 0x5A);
  EXPECT_EQ(media.size(), 100u);
}

Task DoTapeWrite(TapeDrive* drive, std::span<const uint8_t> data,
                 Status* status) {
  co_await drive->TimedWrite(data, status);
}

TEST(TapeTest, StreamingRateGovernsTimedWrites) {
  SimEnvironment env;
  Tape media("t0", 1 * kGiB);
  TapeTiming t;
  t.stream_mb_per_s = 10.0;
  TapeDrive drive(&env, "dlt0", t);
  drive.LoadMedia(&media);
  std::vector<uint8_t> chunk(1'000'000);
  Status st;
  env.Spawn(DoTapeWrite(&drive, chunk, &st));
  env.Run();
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(env.now(), SecondsToSim(0.1));
  EXPECT_EQ(drive.repositions(), 0u);
}

Task GappyWriter(SimEnvironment* env, TapeDrive* drive, SimDuration gap,
                 Status* status) {
  std::vector<uint8_t> chunk(100'000);
  for (int i = 0; i < 3; ++i) {
    co_await drive->TimedWrite(chunk, status);
    co_await env->Delay(gap);
  }
}

TEST(TapeTest, UnderrunCausesRepositioning) {
  SimEnvironment env;
  Tape media("t0", 1 * kGiB);
  TapeDrive drive(&env, "dlt0");
  drive.LoadMedia(&media);
  Status st;
  env.Spawn(GappyWriter(&env, &drive, 2 * kSecond, &st));
  env.Run();
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(drive.repositions(), 2u) << "every post-gap write repositions";

  // A back-to-back writer on the same timing never repositions.
  Tape media2("t1", 1 * kGiB);
  TapeDrive drive2(&env, "dlt1");
  drive2.LoadMedia(&media2);
  env.Spawn(GappyWriter(&env, &drive2, 0, &st));
  env.Run();
  EXPECT_EQ(drive2.repositions(), 0u);
}

TEST(TapeTest, TimedRewindAndLoadAdvanceClock) {
  SimEnvironment env;
  Tape media("t0", 1 * kGiB);
  TapeDrive drive(&env, "dlt0");
  auto proc = [](TapeDrive* d, Tape* m) -> Task {
    co_await d->TimedLoadMedia(m);
    co_await d->TimedRewind();
  };
  env.Spawn(proc(&drive, &media));
  env.Run();
  EXPECT_EQ(env.now(),
            drive.timing().load_time + drive.timing().rewind_time);
  EXPECT_TRUE(drive.loaded());
}

// ---------------------------------------------------------------- Library ---

TEST(TapeLibraryTest, SlotsAndLabels) {
  TapeLibrary lib("stacker0", 10 * kMiB, 4);
  EXPECT_EQ(lib.num_slots(), 4u);
  ASSERT_NE(lib.TapeInSlot(2), nullptr);
  EXPECT_EQ(lib.TapeInSlot(2)->label(), "stacker0.2");
  EXPECT_EQ(lib.TapeInSlot(9), nullptr);
  EXPECT_EQ(*lib.SlotOfLabel("stacker0.3"), 3u);
  EXPECT_EQ(lib.SlotOfLabel("nope").status().code(), ErrorCode::kNotFound);
}

TEST(TapeLibraryTest, LoadSwapsMedia) {
  SimEnvironment env;
  TapeLibrary lib("stacker0", 10 * kMiB, 2);
  TapeDrive drive(&env, "dlt0");
  ASSERT_TRUE(lib.LoadSlot(&drive, 0).ok());
  EXPECT_EQ(drive.tape()->label(), "stacker0.0");
  std::vector<uint8_t> data(10, 1);
  ASSERT_TRUE(drive.WriteData(data).ok());
  ASSERT_TRUE(lib.LoadSlot(&drive, 1).ok());
  EXPECT_EQ(drive.tape()->label(), "stacker0.1");
  EXPECT_EQ(drive.position(), 0u);
  // Tape 0 kept its contents while out of the drive.
  EXPECT_EQ(lib.TapeInSlot(0)->size(), 10u);
  EXPECT_EQ(lib.LoadSlot(&drive, 7).code(), ErrorCode::kInvalidArgument);
}

TEST(TapeLibraryTest, AddBlankTape) {
  TapeLibrary lib("stacker0", 10 * kMiB, 1);
  const size_t slot = lib.AddBlankTape("extra");
  EXPECT_EQ(slot, 1u);
  EXPECT_EQ(lib.TapeInSlot(slot)->label(), "extra");
  EXPECT_EQ(lib.TapeInSlot(slot)->size(), 0u);
}

}  // namespace
}  // namespace bkup
