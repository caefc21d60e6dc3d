// Tests for the simulated network transport (src/net) and the remote
// backup/restore data path (RunJob over an endpoint with a link): MTU
// framing, sliding-window backpressure, checksum rejection and retransmission, deterministic link
// fault injection, and a supervised mid-stream outage recovered by reconnect
// with a byte-identical restore at the end.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/backup/jobs.h"
#include "src/backup/supervisor.h"
#include "src/faults/fault_injector.h"
#include "src/fs/filesystem.h"
#include "src/net/link.h"
#include "src/net/stream_conn.h"
#include "src/net/tape_server.h"
#include "src/workload/population.h"

namespace bkup {
namespace {

std::vector<uint8_t> PatternStream(size_t n) {
  std::vector<uint8_t> stream(n);
  for (size_t i = 0; i < n; ++i) {
    stream[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  return stream;
}

// One whole stream through one connection: send, drain, close.
Task SendAll(StreamConn* conn, std::span<const uint8_t> stream, Status* st) {
  co_await conn->SendRange(stream, 0, stream.size(), /*tag=*/0, st);
  co_await conn->Drain(st);
  conn->CloseSend();
}

// Collects delivered frames; optional per-frame delay models a slow
// receiver; optionally samples the sender's worst run-ahead.
Task RecvAll(SimEnvironment* env, StreamConn* conn,
             std::vector<StreamFrame>* frames, SimDuration per_frame_delay,
             uint64_t* max_run_ahead) {
  while (true) {
    std::optional<StreamFrame> f = co_await conn->frames().Recv();
    if (!f.has_value()) {
      break;
    }
    frames->push_back(*f);
    if (max_run_ahead != nullptr) {
      *max_run_ahead =
          std::max(*max_run_ahead,
                   conn->stats().frames_sent - conn->stats().frames_delivered);
    }
    if (per_frame_delay > 0) {
      co_await env->Delay(per_frame_delay);
    }
  }
}

// ------------------------------------------------------------- framing ---

TEST(StreamConnTest, MtuFramingRoundTrip) {
  SimEnvironment env;
  LinkParams params;
  params.mtu_bytes = 64 * kKiB;
  NetLink link(&env, "lan", params);
  StreamConn conn(&link, "s0");

  // A size that does not divide the MTU: the tail frame is short.
  const std::vector<uint8_t> stream = PatternStream(1 * kMiB + 12345);
  const uint64_t expect_frames =
      (stream.size() + params.mtu_bytes - 1) / params.mtu_bytes;

  Status st;
  std::vector<StreamFrame> frames;
  env.Spawn(SendAll(&conn, stream, &st));
  env.Spawn(RecvAll(&env, &conn, &frames, 0, nullptr));
  env.Run();

  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(frames.size(), expect_frames);
  uint64_t cursor = 0;
  for (size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].seq, i);
    EXPECT_EQ(frames[i].begin, cursor) << "frames must arrive in order";
    EXPECT_LE(frames[i].end - frames[i].begin, params.mtu_bytes);
    EXPECT_EQ(frames[i].wire_crc, frames[i].crc) << "clean link, clean crc";
    cursor = frames[i].end;
  }
  EXPECT_EQ(cursor, stream.size());
  EXPECT_EQ(conn.acked(), stream.size());
  EXPECT_EQ(conn.stats().frames_sent, expect_frames);
  EXPECT_EQ(conn.stats().frames_delivered, expect_frames);
  EXPECT_EQ(conn.stats().bytes_delivered, stream.size());
  EXPECT_EQ(conn.stats().retransmits, 0u);
  EXPECT_EQ(conn.stats().frames_dropped, 0u);
  EXPECT_EQ(link.bytes_transferred(),
            stream.size() + expect_frames * kFrameHeaderBytes);
}

// ------------------------------------------------------- backpressure ---

TEST(StreamConnTest, WindowStallsSenderBehindSlowReceiver) {
  SimEnvironment env;
  LinkParams params;
  params.mtu_bytes = 16 * kKiB;
  params.window_frames = 2;
  NetLink link(&env, "lan", params);
  StreamConn conn(&link, "s0");

  // 64 frames, receiver 10 ms/frame — far slower than the wire, so the
  // window (not bandwidth) must gate the sender.
  const std::vector<uint8_t> stream = PatternStream(64 * params.mtu_bytes);
  Status st;
  std::vector<StreamFrame> frames;
  uint64_t max_run_ahead = 0;
  env.Spawn(SendAll(&conn, stream, &st));
  env.Spawn(RecvAll(&env, &conn, &frames, 10 * kMillisecond, &max_run_ahead));
  env.Run();

  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(frames.size(), 64u) << "the stalled sender must still finish";
  EXPECT_EQ(conn.acked(), stream.size());
  // Sender run-ahead is bounded by the window plus the conn's two
  // window-sized internal buffers — never the whole stream.
  EXPECT_LE(max_run_ahead, 3 * params.window_frames + 1);
  EXPECT_GT(max_run_ahead, 0u);
}

// -------------------------------------------- corruption and rejection ---

TEST(StreamConnTest, ChecksumRejectionTriggersRetransmit) {
  SimEnvironment env;
  LinkParams params;
  params.mtu_bytes = 64 * kKiB;
  NetLink link(&env, "lan", params);

  // Every frame offered in the first 30 ms arrives corrupt; the retransmit
  // timeout (20 ms) pushes the retries past the window, where they succeed.
  FaultPlan plan;
  plan.seed = 7;
  plan.LinkCorrupt("lan", 1.0, 0, 30 * kMillisecond);
  FaultInjector injector(&env, plan);
  injector.Arm(&link);

  StreamConn conn(&link, "s0");
  const std::vector<uint8_t> stream = PatternStream(256 * kKiB);
  Status st;
  std::vector<StreamFrame> frames;
  env.Spawn(SendAll(&conn, stream, &st));
  env.Spawn(RecvAll(&env, &conn, &frames, 0, nullptr));
  env.Run();

  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_GE(conn.stats().checksum_rejections, 1u);
  EXPECT_GE(conn.stats().retransmits, 1u);
  EXPECT_EQ(conn.stats().frames_dropped, 0u) << "corrupt, not lost";
  EXPECT_EQ(conn.acked(), stream.size());
  uint64_t cursor = 0;
  for (const StreamFrame& f : frames) {
    EXPECT_EQ(f.begin, cursor) << "delivery stays in order across retries";
    EXPECT_EQ(f.wire_crc, f.crc) << "only intact copies are delivered";
    cursor = f.end;
  }
  EXPECT_EQ(cursor, stream.size());
  EXPECT_GE(injector.stats().link_faults_injected, 1u);
}

// ----------------------------------------------- deterministic faults ---

struct FlakyRunResult {
  ConnStats conn;
  FaultInjectorStats injector;
  Status status;
  uint64_t acked = 0;
};

FlakyRunResult RunFlakyStream() {
  SimEnvironment env;
  LinkParams params;
  params.mtu_bytes = 16 * kKiB;
  NetLink link(&env, "wan", params);
  FaultPlan plan;
  plan.seed = 42;
  plan.LinkFlaky("wan", 0.3);
  FaultInjector injector(&env, plan);
  injector.Arm(&link);

  StreamConn conn(&link, "s0");
  const std::vector<uint8_t> stream = PatternStream(1 * kMiB);
  FlakyRunResult result;
  std::vector<StreamFrame> frames;
  env.Spawn(SendAll(&conn, stream, &result.status));
  env.Spawn(RecvAll(&env, &conn, &frames, 0, nullptr));
  env.Run();
  result.conn = conn.stats();
  result.injector = injector.stats();
  result.acked = conn.acked();
  return result;
}

TEST(StreamConnTest, FlakyLinkIsDeterministicUnderFixedSeed) {
  const FlakyRunResult a = RunFlakyStream();
  const FlakyRunResult b = RunFlakyStream();
  EXPECT_GE(a.conn.frames_dropped, 1u) << "p=0.3 over 64 frames must drop";
  EXPECT_GE(a.conn.retransmits, 1u);
  EXPECT_TRUE(a.status.ok()) << a.status.ToString();
  EXPECT_EQ(a.acked, 1 * kMiB);
  EXPECT_EQ(a.conn, b.conn) << "same seed, same wire history";
  EXPECT_EQ(a.injector.link_faults_injected, b.injector.link_faults_injected);
}

// --------------------------------------------------------- tape server ---

TEST(TapeServerTest, OwnsDrivesAndLoadsFromLibrary) {
  SimEnvironment env;
  TapeServer bare(&env, "vault");
  EXPECT_EQ(bare.AddDrive("dlt0")->name(), "vault.dlt0");
  EXPECT_EQ(bare.num_drives(), 1u);
  EXPECT_EQ(bare.LoadSlot(0, 0).code(), ErrorCode::kFailedPrecondition)
      << "no library attached";

  TapeLibrary library("stacker", 32 * kMiB, 0);
  library.AddBlankTape("night.0");
  TapeServer server(&env, "vault2", &library);
  TapeDrive* drive = server.AddDrive("dlt0");
  ASSERT_TRUE(server.LoadSlot(0, 0).ok());
  ASSERT_TRUE(drive->loaded());
  EXPECT_EQ(drive->tape()->label(), "night.0");
}

// ------------------------------------------------ remote job round trip ---

VolumeGeometry Geometry() {
  VolumeGeometry geom;
  geom.num_raid_groups = 2;
  geom.disks_per_group = 4;
  geom.blocks_per_disk = 2048;
  return geom;
}

struct RemoteFixture {
  explicit RemoteFixture(LinkParams params = {})
      : link(&env, "wan", params), server(&env, "vault") {
    volume = Volume::Create(&env, "home", Geometry());
    fs = std::move(Filesystem::Format(volume.get(), &env)).value();
    WorkloadParams wparams;
    wparams.target_bytes = 6 * kMiB;
    EXPECT_TRUE(PopulateFilesystem(fs.get(), wparams).ok());
    filer = std::make_unique<Filer>(&env, FilerModel::F630());
    drive = server.AddDrive("dlt0");
    media = std::make_unique<Tape>("night.0", 32 * kMiB);
    drive->LoadMedia(media.get());
  }

  StreamEndpoint Target(const SupervisionPolicy* policy = nullptr) {
    return {.link = &link,
            .server = &server,
            .drive = drive,
            .supervision = policy};
  }

  SimEnvironment env;
  NetLink link;
  TapeServer server;
  std::unique_ptr<Volume> volume;
  std::unique_ptr<Filesystem> fs;
  std::unique_ptr<Filer> filer;
  TapeDrive* drive = nullptr;
  std::unique_ptr<Tape> media;
};

TEST(RemoteJobTest, LogicalBackupAndRestoreRoundTripOverCleanLink) {
  RemoteFixture f;
  auto sums = ChecksumTree(f.fs->LiveReader()).value();

  LogicalBackupJobResult backup;
  CountdownLatch done(&f.env, 1);
  f.env.Spawn(RunJob(f.filer.get(),
                     {.fs = f.fs.get(), .endpoints = {f.Target()}},
                     &backup, &done));
  f.env.Run();
  ASSERT_TRUE(backup.report.status.ok()) << backup.report.status.ToString();
  EXPECT_FALSE(backup.report.faults.any());
  EXPECT_EQ(backup.report.total_net_bytes(), backup.report.stream_bytes)
      << "every stream byte crossed the link exactly once";
  EXPECT_EQ(backup.report.total_tape_bytes(), backup.report.stream_bytes);
  EXPECT_GT(backup.report.NetMBps(), 0.0);

  // Rewind the server drive and restore over the same link into a fresh
  // file system.
  ASSERT_TRUE(f.drive->SeekTo(0).ok());
  auto rvolume = Volume::Create(&f.env, "r", Geometry());
  auto rfs = std::move(Filesystem::Format(rvolume.get(), &f.env)).value();
  LogicalRestoreJobResult restore;
  CountdownLatch rdone(&f.env, 1);
  f.env.Spawn(RunJob(f.filer.get(),
                     {.fs = rfs.get(), .endpoints = {f.Target()}},
                     &restore, &rdone));
  f.env.Run();
  ASSERT_TRUE(restore.report.status.ok()) << restore.report.status.ToString();
  EXPECT_EQ(restore.report.total_net_bytes(), restore.report.stream_bytes);
  EXPECT_EQ(ChecksumTree(rfs->LiveReader()).value(), sums);
}

// The network-label acceptance scenario: a mid-stream outage longer than
// any frame's retransmit budget kills the connection; the supervisor
// reconnects after backoff and resumes from the acked watermark; the final
// media restores byte-identically.
struct OutageRunResult {
  FaultCounters faults;
  Status status;
  std::map<std::string, uint32_t> sums;
  bool restored_ok = false;
};

OutageRunResult RunOutageScenario() {
  RemoteFixture f;
  OutageRunResult result;
  result.sums = ChecksumTree(f.fs->LiveReader()).value();

  // Cable pull over the start of the streaming phase (the 30 s snapshot
  // quiesce precedes it): every frame in the window is lost. The per-frame
  // budget (6 retransmits x 20 ms) dies inside it; the supervisor's
  // reconnect backoffs (0.5, 1, 2 s...) outlast it.
  FaultPlan plan;
  plan.seed = 11;
  plan.LinkDown("wan", 30 * kSecond, 33 * kSecond);
  FaultInjector injector(&f.env, plan);
  injector.Arm(&f.link);

  SupervisionPolicy policy;
  ImageBackupJobResult backup;
  CountdownLatch done(&f.env, 1);
  f.env.Spawn(RunJob(f.filer.get(),
                     {.fs = f.fs.get(), .endpoints = {f.Target(&policy)}},
                     &backup, &done));
  f.env.Run();
  result.faults = backup.report.faults;
  result.status = backup.report.status;
  if (!result.status.ok()) {
    return result;
  }

  // Rewind, then remote-restore the server-side media (the outage window
  // is past).
  if (!f.drive->SeekTo(0).ok()) {
    result.status = IoError("rewind failed");
    return result;
  }
  auto rvolume = Volume::Create(&f.env, "r", Geometry());
  ImageRestoreJobResult restore;
  CountdownLatch rdone(&f.env, 1);
  f.env.Spawn(RunJob(f.filer.get(),
                     {.volume = rvolume.get(),
                      .endpoints = {f.Target(&policy)}},
                     &restore, &rdone));
  f.env.Run();
  if (!restore.report.status.ok()) {
    result.status = restore.report.status;
    return result;
  }
  auto mounted = Filesystem::Mount(rvolume.get(), &f.env);
  if (!mounted.ok()) {
    result.status = mounted.status();
    return result;
  }
  result.restored_ok =
      ChecksumTree((*mounted)->LiveReader()).value() == result.sums;
  return result;
}

TEST(RemoteJobTest, SupervisorRecoversMidStreamOutage) {
  const OutageRunResult run = RunOutageScenario();
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_GE(run.faults.link_errors, 1u) << "the outage must kill a conn";
  EXPECT_GE(run.faults.link_reconnects, 1u);
  EXPECT_GT(run.faults.link_bytes_resent, 0u)
      << "resume must replay the unacked tail";
  EXPECT_GE(run.faults.link_retransmits, 1u);
  EXPECT_TRUE(run.restored_ok) << "restore must be byte-identical";
}

TEST(RemoteJobTest, OutageRecoveryIsDeterministic) {
  const OutageRunResult a = RunOutageScenario();
  const OutageRunResult b = RunOutageScenario();
  ASSERT_TRUE(a.status.ok());
  EXPECT_EQ(a.faults, b.faults)
      << "same plan, same seed: identical recovery history";
}

}  // namespace
}  // namespace bkup
