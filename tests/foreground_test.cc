// Tests for the live-foreground-load machinery (DESIGN.md §15): the
// two-class priority Resource, the BackupThrottle token bucket, the
// vbn-reporting file-system read path, and — the heart of the suite — the
// determinism contracts of the ForegroundLoad generator: the same seed
// must produce an identical op trace across reruns (with and without a
// concurrent dump), and the op *mix* must not change when a dump runs.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/backup/jobs.h"
#include "src/sim/throttle.h"
#include "src/workload/foreground.h"
#include "src/workload/population.h"

namespace bkup {
namespace {

// ------------------------------------------------------ resource priority ---

Task HoldThenRelease(SimEnvironment* env, Resource* res, int id, int priority,
                     SimDuration hold, std::vector<int>* order,
                     CountdownLatch* done) {
  co_await res->Acquire(1, priority);
  order->push_back(id);
  co_await env->Delay(hold);
  res->Release();
  done->CountDown();
}

TEST(ResourcePriorityTest, ForegroundOvertakesParkedBackground) {
  SimEnvironment env;
  Resource res(&env, 1, "arm");
  std::vector<int> order;
  CountdownLatch done(&env, 3);
  // 1 (background) grabs the unit; 2 (background) parks first; 3
  // (foreground) parks after it — and must still be served first.
  env.Spawn(HoldThenRelease(&env, &res, 1, kPriorityBackground, 10 * kSecond,
                            &order, &done));
  env.Spawn(HoldThenRelease(&env, &res, 2, kPriorityBackground, 1 * kSecond,
                            &order, &done));
  env.Spawn(HoldThenRelease(&env, &res, 3, kPriorityForeground, 1 * kSecond,
                            &order, &done));
  env.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(ResourcePriorityTest, BackgroundProceedsWhenUncontended) {
  SimEnvironment env;
  Resource res(&env, 1, "arm");
  std::vector<int> order;
  CountdownLatch done(&env, 1);
  env.Spawn(HoldThenRelease(&env, &res, 1, kPriorityBackground, kSecond,
                            &order, &done));
  env.Run();
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(env.now(), kSecond);
}

// ---------------------------------------------------------------- throttle ---

Task AcquireRepeatedly(BackupThrottle* throttle, uint64_t bytes, int times,
                       CountdownLatch* done) {
  for (int i = 0; i < times; ++i) {
    co_await throttle->Acquire(bytes);
  }
  done->CountDown();
}

TEST(BackupThrottleTest, EnforcesConfiguredRate) {
  SimEnvironment env;
  // 1 MB/s with a 1-byte burst: the bucket is effectively always empty, so
  // 4 x 250 KB must take ~1 simulated second.
  BackupThrottle throttle(&env, 1e6, /*burst_bytes=*/1);
  CountdownLatch done(&env, 1);
  env.Spawn(AcquireRepeatedly(&throttle, 250'000, 4, &done));
  env.Run();
  EXPECT_NEAR(SimToSeconds(env.now()), 1.0, 0.01);
  EXPECT_EQ(throttle.stats().requests, 4u);
  EXPECT_EQ(throttle.stats().bytes, 1'000'000u);
  EXPECT_EQ(throttle.stats().throttled_requests, 4u);
}

TEST(BackupThrottleTest, DisabledThrottleIsFree) {
  SimEnvironment env;
  BackupThrottle throttle(&env, /*bytes_per_s=*/0.0);
  CountdownLatch done(&env, 1);
  env.Spawn(AcquireRepeatedly(&throttle, 10 * kMiB, 8, &done));
  env.Run();
  EXPECT_EQ(env.now(), 0);
  EXPECT_EQ(throttle.stats().throttled_requests, 0u);
}

TEST(BackupThrottleTest, RequestLargerThanBurstIsLegal) {
  SimEnvironment env;
  BackupThrottle throttle(&env, 1e6, /*burst_bytes=*/1000);
  CountdownLatch done(&env, 1);
  env.Spawn(AcquireRepeatedly(&throttle, 3'001'000, 1, &done));
  env.Run();
  // Burst covers 1000 bytes; the remaining 3 MB drains at 1 MB/s.
  EXPECT_NEAR(SimToSeconds(env.now()), 3.0, 0.01);
}

// ------------------------------------------------------------ fs vbn read ---

TEST(FilesystemVbnTest, ReadReportsVolumeBlocksAndSkipsDirty) {
  SimEnvironment env;
  VolumeGeometry geom;
  geom.num_raid_groups = 1;
  geom.disks_per_group = 3;
  geom.blocks_per_disk = 2048;
  auto volume = Volume::Create(&env, "v", geom);
  auto fs = std::move(Filesystem::Format(volume.get(), &env)).value();

  auto inum = fs->Create("/a", 0644);
  ASSERT_TRUE(inum.ok());
  const std::vector<uint8_t> data(3 * kBlockSize, 0xAB);
  ASSERT_TRUE(fs->Write(*inum, 0, data).ok());
  ASSERT_TRUE(fs->ConsistencyPoint().ok());

  // Clean file: every block read comes off a real volume block.
  std::vector<uint8_t> out;
  std::vector<Vbn> vbns;
  ASSERT_TRUE(fs->Read(*inum, 0, data.size(), &out, &vbns).ok());
  EXPECT_EQ(vbns.size(), 3u);
  for (Vbn v : vbns) {
    EXPECT_NE(v, 0u);
  }

  // Dirty the middle block: it is now served from memory, so only the two
  // clean blocks report vbns.
  const std::vector<uint8_t> patch(16, 0xCD);
  ASSERT_TRUE(fs->Write(*inum, kBlockSize, patch).ok());
  vbns.clear();
  ASSERT_TRUE(fs->Read(*inum, 0, data.size(), &out, &vbns).ok());
  EXPECT_EQ(vbns.size(), 2u);
}

// -------------------------------------------------- foreground determinism ---

VolumeGeometry FgGeometry() {
  VolumeGeometry geom;
  geom.num_raid_groups = 2;
  geom.disks_per_group = 4;
  geom.blocks_per_disk = 4096;
  return geom;
}

// Snapshot bookkeeping shrunk so a dump's stream phase dominates inside a
// short test window.
FilerModel FastSnapshotModel() {
  FilerModel model = FilerModel::F630();
  model.snapshot_create_time = 2 * kSecond;
  model.snapshot_delete_time = 2 * kSecond;
  return model;
}

struct FgRunResult {
  uint32_t trace_crc = 0;
  uint32_t mix_crc = 0;
  uint64_t total_ops = 0;
  uint64_t errors = 0;
  LatencySummary latency;
  SimDuration dump_elapsed = 0;
  Status dump_status;
};

enum class DumpMode { kNone, kLogical, kImage };

Task DelayedDump(SimEnvironment* env, Filer* filer, Filesystem* fs,
                 TapeDrive* drive, DumpMode mode, BackupQos qos,
                 SimDuration delay, FgRunResult* out, CountdownLatch* done) {
  co_await env->Delay(delay);
  CountdownLatch inner(env, 1);
  if (mode == DumpMode::kLogical) {
    auto result = std::make_unique<LogicalBackupJobResult>();
    LogicalDumpOptions opt;
    opt.volume_name = "home";
    env->Spawn(RunJob(filer,
                      {.fs = fs,
                       .endpoints = {{.drive = drive, .qos = qos}},
                       .logical_dump = opt},
                      result.get(), &inner));
    co_await inner.Wait();
    out->dump_elapsed = result->report.elapsed();
    out->dump_status = result->report.status;
  } else {
    auto result = std::make_unique<ImageBackupJobResult>();
    env->Spawn(RunJob(filer,
                      {.fs = fs, .endpoints = {{.drive = drive, .qos = qos}}},
                      result.get(), &inner));
    co_await inner.Wait();
    out->dump_elapsed = result->report.elapsed();
    out->dump_status = result->report.status;
  }
  done->CountDown();
}

// One full scenario from scratch: fresh environment, volume, population,
// load — optionally with a dump starting 2 s in. Everything simulated, so
// two calls with equal arguments must produce byte-identical results.
FgRunResult RunScenario(uint64_t seed, DumpMode mode,
                        double throttle_mb_per_s = 0.0,
                        int io_priority = kPriorityForeground) {
  SimEnvironment env;
  Filer filer(&env, FastSnapshotModel());
  auto volume = Volume::Create(&env, "home", FgGeometry());
  auto fs = std::move(Filesystem::Format(volume.get(), &env)).value();
  WorkloadParams wp;
  wp.seed = 11;
  wp.target_bytes = 8 * kMiB;
  EXPECT_TRUE(PopulateFilesystem(fs.get(), wp).ok());

  Tape tape("t0", 4ull * kGiB);
  TapeDrive drive(&env, "dlt0");
  drive.LoadMedia(&tape);

  ForegroundParams fp;
  fp.seed = seed;
  fp.num_clients = 4;
  // Count-based termination: the op stream is a fixed-length function of the
  // seed, so a concurrent dump stretches the run instead of clipping it.
  fp.ops_per_client = 1200;
  ForegroundLoad load(&filer, fs.get(), fp);

  std::unique_ptr<BackupThrottle> throttle;
  if (throttle_mb_per_s > 0) {
    throttle = std::make_unique<BackupThrottle>(&env, throttle_mb_per_s * 1e6);
  }
  BackupQos qos{throttle.get(), io_priority};

  FgRunResult r;
  const int jobs = mode == DumpMode::kNone ? 1 : 2;
  CountdownLatch done(&env, jobs);
  env.Spawn(load.Run(&done));
  if (mode != DumpMode::kNone) {
    env.Spawn(DelayedDump(&env, &filer, fs.get(), &drive, mode, qos,
                          2 * kSecond, &r, &done));
  }
  env.Run();

  EXPECT_TRUE(r.dump_status.ok()) << r.dump_status.ToString();
  r.trace_crc = load.TraceCrc();
  r.mix_crc = load.OpMixCrc();
  r.total_ops = load.stats().total_ops();
  r.errors = load.stats().errors;
  r.latency = load.Summarize();
  return r;
}

TEST(ForegroundDeterminismTest, SameSeedSameTraceWithoutDump) {
  const FgRunResult a = RunScenario(42, DumpMode::kNone);
  const FgRunResult b = RunScenario(42, DumpMode::kNone);
  EXPECT_GT(a.total_ops, 100u);
  EXPECT_EQ(a.errors, 0u);
  EXPECT_EQ(a.trace_crc, b.trace_crc);
  EXPECT_EQ(a.mix_crc, b.mix_crc);
  EXPECT_EQ(a.total_ops, b.total_ops);
}

TEST(ForegroundDeterminismTest, SameSeedSameTraceWithConcurrentLogicalDump) {
  const FgRunResult a = RunScenario(42, DumpMode::kLogical);
  const FgRunResult b = RunScenario(42, DumpMode::kLogical);
  EXPECT_EQ(a.errors, 0u);
  EXPECT_EQ(a.trace_crc, b.trace_crc);
  EXPECT_EQ(a.mix_crc, b.mix_crc);
  EXPECT_EQ(a.dump_elapsed, b.dump_elapsed);
}

TEST(ForegroundDeterminismTest, SameSeedSameTraceWithConcurrentImageDump) {
  const FgRunResult a = RunScenario(42, DumpMode::kImage);
  const FgRunResult b = RunScenario(42, DumpMode::kImage);
  EXPECT_EQ(a.trace_crc, b.trace_crc);
  EXPECT_EQ(a.dump_elapsed, b.dump_elapsed);
}

TEST(ForegroundDeterminismTest, DumpChangesTimingButNotOpMix) {
  const FgRunResult solo = RunScenario(42, DumpMode::kNone);
  const FgRunResult logical = RunScenario(42, DumpMode::kLogical);
  const FgRunResult image = RunScenario(42, DumpMode::kImage);
  // The op parameter stream is interleaving-independent by construction.
  EXPECT_EQ(solo.mix_crc, logical.mix_crc);
  EXPECT_EQ(solo.mix_crc, image.mix_crc);
  EXPECT_EQ(solo.total_ops, logical.total_ops);
}

TEST(ForegroundDeterminismTest, DifferentSeedsDifferentTraces) {
  const FgRunResult a = RunScenario(42, DumpMode::kNone);
  const FgRunResult b = RunScenario(43, DumpMode::kNone);
  EXPECT_NE(a.mix_crc, b.mix_crc);
}

TEST(ForegroundQosTest, ThrottledBackgroundDumpRunsLongerButHurtsLess) {
  const FgRunResult unthrottled = RunScenario(42, DumpMode::kLogical);
  const FgRunResult throttled =
      RunScenario(42, DumpMode::kLogical, /*throttle_mb_per_s=*/4.0,
                  kPriorityBackground);
  // The throttle caps the stream below the drive's rate, so the dump
  // elongates; the demotion + cap keep foreground latency no worse.
  EXPECT_GT(throttled.dump_elapsed, unthrottled.dump_elapsed);
  EXPECT_LE(throttled.latency.p99_us, unthrottled.latency.p99_us * 1.001);
}

}  // namespace
}  // namespace bkup
