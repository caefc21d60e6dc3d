// Unit tests for src/util: status, bitmap, checksum, serdes, stats, units.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/util/bitmap.h"
#include "src/util/checksum.h"
#include "src/util/random.h"
#include "src/util/serdes.h"
#include "src/util/status.h"
#include "src/util/units.h"

namespace bkup {
namespace {

// ---------------------------------------------------------------- Status ---

TEST(StatusTest, OkIsOk) {
  Status s = Status::Ok();
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFound("no such snapshot 'nightly.3'");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: no such snapshot 'nightly.3'");
}

TEST(StatusTest, AllConstructorsProduceDistinctCodes) {
  EXPECT_EQ(InvalidArgument("x").code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(AlreadyExists("x").code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(NoSpace("x").code(), ErrorCode::kNoSpace);
  EXPECT_EQ(IoError("x").code(), ErrorCode::kIoError);
  EXPECT_EQ(Corruption("x").code(), ErrorCode::kCorruption);
  EXPECT_EQ(NotADirectory("x").code(), ErrorCode::kNotADirectory);
  EXPECT_EQ(IsADirectory("x").code(), ErrorCode::kIsADirectory);
  EXPECT_EQ(NotEmpty("x").code(), ErrorCode::kNotEmpty);
  EXPECT_EQ(Permission("x").code(), ErrorCode::kPermission);
  EXPECT_EQ(FailedPrecondition("x").code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(Unsupported("x").code(), ErrorCode::kUnsupported);
  EXPECT_EQ(Exhausted("x").code(), ErrorCode::kExhausted);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = IoError("disk 7 dead");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kIoError);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) {
    return InvalidArgument("odd");
  }
  return x / 2;
}

Result<int> QuarterEven(int x) {
  BKUP_ASSIGN_OR_RETURN(int half, HalveEven(x));
  return HalveEven(half);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*QuarterEven(8), 2);
  EXPECT_EQ(QuarterEven(6).status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(QuarterEven(5).status().code(), ErrorCode::kInvalidArgument);
}

// ---------------------------------------------------------------- Bitmap ---

TEST(BitmapTest, SetTestClear) {
  Bitmap b(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_FALSE(b.Test(63));
  b.Set(63);
  b.Set(64);
  b.Set(99);
  EXPECT_TRUE(b.Test(63));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(99));
  EXPECT_EQ(b.CountOnes(), 3u);
  b.Clear(64);
  EXPECT_FALSE(b.Test(64));
  EXPECT_EQ(b.CountOnes(), 2u);
}

TEST(BitmapTest, SetAllRespectsSize) {
  Bitmap b(70);
  b.SetAll();
  EXPECT_EQ(b.CountOnes(), 70u);
}

TEST(BitmapTest, FindFirstSetScansAcrossWords) {
  Bitmap b(300);
  EXPECT_EQ(b.FindFirstSet(), Bitmap::npos);
  b.Set(200);
  b.Set(250);
  EXPECT_EQ(b.FindFirstSet(), 200u);
  EXPECT_EQ(b.FindFirstSet(201), 250u);
  EXPECT_EQ(b.FindFirstSet(251), Bitmap::npos);
}

TEST(BitmapTest, FindFirstClearScansAcrossWords) {
  Bitmap b(130);
  b.SetAll();
  EXPECT_EQ(b.FindFirstClear(), Bitmap::npos);
  b.Clear(128);
  EXPECT_EQ(b.FindFirstClear(), 128u);
  EXPECT_EQ(b.FindFirstClear(129), Bitmap::npos);
}

TEST(BitmapTest, DifferenceMatchesTable1Semantics) {
  // Table 1: incremental dump includes blocks in B but not in A.
  Bitmap a(256);
  Bitmap b(256);
  a.Set(1);            // deleted since full dump: in A only -> excluded
  a.Set(2);
  b.Set(2);            // unchanged: in both -> excluded
  b.Set(3);            // newly written: in B only -> included
  Bitmap incr = Bitmap::Difference(b, a);
  EXPECT_FALSE(incr.Test(0));  // in neither
  EXPECT_FALSE(incr.Test(1));
  EXPECT_FALSE(incr.Test(2));
  EXPECT_TRUE(incr.Test(3));
  EXPECT_EQ(incr.CountOnes(), 1u);
}

TEST(BitmapTest, CountOnesInRange) {
  Bitmap b(512);
  for (size_t i = 0; i < 512; i += 3) {
    b.Set(i);
  }
  size_t brute = 0;
  for (size_t i = 100; i < 400; ++i) {
    brute += b.Test(i) ? 1 : 0;
  }
  EXPECT_EQ(b.CountOnesInRange(100, 300), brute);
  EXPECT_EQ(b.CountOnesInRange(0, 512), b.CountOnes());
  EXPECT_EQ(b.CountOnesInRange(7, 0), 0u);
}

TEST(BitmapTest, SerializeRoundTrip) {
  Bitmap b(1000);
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    b.Set(rng.Below(1000));
  }
  std::vector<uint8_t> bytes = b.Serialize();
  EXPECT_EQ(bytes.size(), 125u);
  Bitmap back = Bitmap::Deserialize(bytes, 1000);
  EXPECT_EQ(b, back);
}

TEST(BitmapTest, ForEachSetAscendingOrder) {
  Bitmap b(200);
  b.Set(5);
  b.Set(64);
  b.Set(65);
  b.Set(199);
  std::vector<size_t> seen;
  b.ForEachSet([&](size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<size_t>{5, 64, 65, 199}));
}

TEST(BitmapTest, DisjointWith) {
  Bitmap a(64), b(64);
  a.Set(3);
  b.Set(4);
  EXPECT_TRUE(a.DisjointWith(b));
  b.Set(3);
  EXPECT_FALSE(a.DisjointWith(b));
}

TEST(BitmapTest, SetAlgebra) {
  Bitmap a(64), b(64);
  a.Set(1);
  a.Set(2);
  b.Set(2);
  b.Set(3);
  Bitmap o = a;
  o.OrWith(b);
  EXPECT_EQ(o.CountOnes(), 3u);
  Bitmap n = a;
  n.AndWith(b);
  EXPECT_EQ(n.CountOnes(), 1u);
  EXPECT_TRUE(n.Test(2));
  Bitmap x = a;
  x.XorWith(b);
  EXPECT_TRUE(x.Test(1));
  EXPECT_FALSE(x.Test(2));
  EXPECT_TRUE(x.Test(3));
}

// A property sweep: Difference(b, a) must equal bit-by-bit subtraction for
// random bitmaps of many sizes (including non-word-aligned tails).
class BitmapPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BitmapPropertyTest, DifferenceMatchesBruteForce) {
  const size_t n = GetParam();
  Rng rng(n * 977 + 13);
  Bitmap a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Chance(0.4)) {
      a.Set(i);
    }
    if (rng.Chance(0.4)) {
      b.Set(i);
    }
  }
  Bitmap d = Bitmap::Difference(b, a);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(d.Test(i), b.Test(i) && !a.Test(i)) << "bit " << i;
  }
  // |B - A| + |B & A| == |B|
  Bitmap both = a;
  both.AndWith(b);
  EXPECT_EQ(d.CountOnes() + both.CountOnes(), b.CountOnes());
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitmapPropertyTest,
                         ::testing::Values(1, 63, 64, 65, 127, 128, 1000,
                                           4096, 10007));

// -------------------------------------------------------------- Checksum ---

TEST(ChecksumTest, Crc32cKnownVector) {
  // "123456789" -> 0xE3069283 (CRC-32C check value).
  const char* s = "123456789";
  const auto data = std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(s), 9);
  EXPECT_EQ(Crc32c(data), 0xE3069283u);
}

TEST(ChecksumTest, Crc32cEmptyIsZero) {
  EXPECT_EQ(Crc32c({}), 0u);
}

TEST(ChecksumTest, Crc32cIncrementalMatchesOneShot) {
  std::vector<uint8_t> data(10000);
  Rng rng(3);
  rng.Fill(data);
  const uint32_t whole = Crc32c(data);
  Crc32cAccumulator acc;
  acc.Update(std::span(data).subspan(0, 1234));
  acc.Update(std::span(data).subspan(1234, 5000));
  acc.Update(std::span(data).subspan(6234));
  EXPECT_EQ(acc.value(), whole);
}

TEST(ChecksumTest, Adler32KnownVector) {
  // Adler-32 of "Wikipedia" is 0x11E60398.
  const char* s = "Wikipedia";
  const auto data = std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(s), 9);
  EXPECT_EQ(Adler32(data), 0x11E60398u);
}

TEST(ChecksumTest, DifferentDataDifferentCrc) {
  std::vector<uint8_t> a(4096, 0xAA);
  std::vector<uint8_t> b(4096, 0xAA);
  b[2048] ^= 1;
  EXPECT_NE(Crc32c(a), Crc32c(b));
}

// Bitwise CRC-32C reference (reflected polynomial 0x82F63B78), one bit per
// step, with the same seed convention as Crc32c.
uint32_t BitwiseCrc32c(std::span<const uint8_t> data, uint32_t seed = 0) {
  uint32_t crc = ~seed;
  for (uint8_t byte : data) {
    crc ^= byte;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
  }
  return ~crc;
}

// Every length 0-300 at every start offset 0-7, so each alignment of the
// 8-byte body and every tail length is checked against the reference.
TEST(ChecksumPropertyTest, EveryLengthAndOffsetMatchesReference) {
  std::vector<uint8_t> buf(8 + 300);
  Rng rng(11);
  rng.Fill(buf);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 300; ++len) {
      const auto data = std::span<const uint8_t>(buf).subspan(offset, len);
      ASSERT_EQ(Crc32c(data), BitwiseCrc32c(data))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(ChecksumPropertyTest, RandomSeedsMatchReference) {
  std::vector<uint8_t> buf(300);
  Rng rng(12);
  rng.Fill(buf);
  for (int i = 0; i < 200; ++i) {
    const uint32_t seed = static_cast<uint32_t>(rng.Range(1, 0xFFFFFFFF));
    const size_t offset = rng.Below(8);
    const size_t len = rng.Below(buf.size() - offset + 1);
    const auto data = std::span<const uint8_t>(buf).subspan(offset, len);
    ASSERT_EQ(Crc32c(data, seed), BitwiseCrc32c(data, seed))
        << "seed " << seed << " offset " << offset << " length " << len;
  }
}

TEST(ChecksumPropertyTest, OneMebibyteMatchesReference) {
  std::vector<uint8_t> buf(1 << 20);
  Rng rng(13);
  rng.Fill(buf);
  EXPECT_EQ(Crc32c(buf), BitwiseCrc32c(buf));
}

TEST(ChecksumPropertyTest, SeedChainsAtEverySplit) {
  std::vector<uint8_t> buf(64);
  Rng rng(14);
  rng.Fill(buf);
  const uint32_t whole = Crc32c(buf);
  for (size_t split = 0; split <= buf.size(); ++split) {
    const auto data = std::span<const uint8_t>(buf);
    EXPECT_EQ(Crc32c(data.subspan(split), Crc32c(data.first(split))), whole)
        << "split " << split;
  }
}

// ---------------------------------------------------------------- Serdes ---

TEST(SerdesTest, RoundTripAllTypes) {
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  w.PutU8(0xAB);
  w.PutU16(0x1234);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutI64(-42);
  w.PutString("inode file");
  w.PadTo(64);
  EXPECT_EQ(buf.size() % 64, 0u);

  ByteReader r(buf);
  EXPECT_EQ(*r.ReadU8(), 0xAB);
  EXPECT_EQ(*r.ReadU16(), 0x1234);
  EXPECT_EQ(*r.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.ReadU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(*r.ReadI64(), -42);
  EXPECT_EQ(*r.ReadString(), "inode file");
  EXPECT_TRUE(r.AlignTo(64).ok());
  EXPECT_TRUE(r.exhausted());
}

TEST(SerdesTest, LittleEndianOnMedia) {
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  w.PutU32(0x01020304);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 0x04);
  EXPECT_EQ(buf[3], 0x01);
}

TEST(SerdesTest, TruncationIsCorruptionNotUB) {
  std::vector<uint8_t> buf = {0x01, 0x02};
  ByteReader r(buf);
  EXPECT_EQ(r.ReadU64().status().code(), ErrorCode::kCorruption);
  // Reader did not advance past a failed read of the first byte pair.
  EXPECT_EQ(*r.ReadU16(), 0x0201);
  EXPECT_EQ(r.ReadU8().status().code(), ErrorCode::kCorruption);
}

TEST(SerdesTest, ReadSpanViewsWithoutCopy) {
  std::vector<uint8_t> buf = {1, 2, 3, 4, 5};
  ByteReader r(buf);
  auto view = r.ReadSpan(3);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->data(), buf.data());
  EXPECT_EQ(r.remaining(), 2u);
  EXPECT_EQ(r.ReadSpan(3).status().code(), ErrorCode::kCorruption);
}

TEST(SerdesTest, SkipAndAlign) {
  std::vector<uint8_t> buf(100);
  ByteReader r(buf);
  EXPECT_TRUE(r.Skip(10).ok());
  EXPECT_TRUE(r.AlignTo(16).ok());
  EXPECT_EQ(r.position(), 16u);
  EXPECT_EQ(r.Skip(1000).code(), ErrorCode::kCorruption);
}

// ----------------------------------------------------------------- Units ---

TEST(UnitsTest, Conversions) {
  EXPECT_EQ(SecondsToSim(1.5), 1500000);
  EXPECT_DOUBLE_EQ(SimToSeconds(2 * kSecond), 2.0);
  EXPECT_DOUBLE_EQ(SimToHours(90 * kMinute), 1.5);
  EXPECT_DOUBLE_EQ(BytesPerSecToMBps(5e6), 5.0);
  EXPECT_NEAR(BytesPerSecToGBph(7.3e6), 26.28, 0.01);
}

TEST(UnitsTest, Formatting) {
  EXPECT_EQ(FormatSize(512), "512 B");
  EXPECT_EQ(FormatSize(4096), "4.00 KiB");
  EXPECT_EQ(FormatSize(188ull * kGiB), "188.00 GiB");
  EXPECT_EQ(FormatDuration(90 * kMinute), "1.50 h");
  EXPECT_EQ(FormatDuration(30 * kSecond), "30.0 s");
  EXPECT_EQ(FormatPercent(0.873), "87.3%");
}

// ---------------------------------------------------------------- Random ---

TEST(RandomTest, Deterministic) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += a.Next() == b.Next() ? 1 : 0;
  }
  EXPECT_LT(same, 3);
}

TEST(RandomTest, BelowRespectsBound) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(RandomTest, RangeInclusive) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.Range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RandomTest, FillIsDeterministicAndCoversPartialWords) {
  std::vector<uint8_t> a(13), b(13);
  Rng ra(5), rb(5);
  ra.Fill(a);
  rb.Fill(b);
  EXPECT_EQ(a, b);
  // A fresh RNG with another seed produces different bytes.
  std::vector<uint8_t> c(13);
  Rng rc(6);
  rc.Fill(c);
  EXPECT_NE(a, c);
}

TEST(RandomTest, LogNormalIsPositive) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(rng.LogNormal(9.0, 2.0), 0.0);
  }
}

TEST(RandomTest, NameHasRequestedLength) {
  Rng rng(8);
  EXPECT_EQ(rng.Name(12).size(), 12u);
}

}  // namespace
}  // namespace bkup
