// Chaos soak for crash-resumable recovery: restores are killed at seeded
// random points (by applied-entry count, by stream offset, by per-record
// coin flip, singly and in multi-kill chains), the target "reboots" from
// its last consistency point, and the catalog-driven resume must
//
//   (a) converge on a byte-identical tree for every workload x kill point,
//   (b) replay strictly fewer bytes than a from-scratch re-run (bounded
//       replay: the consumed ranges are the prologue + missing suffix only),
//   (c) behave deterministically — the same seed produces the same kills,
//       the same attempt count, the same ranges, the same bytes.
//
// `BKUP_RECOVERY_SEED_OFFSET` shifts the whole seed block so
// tools/seed_sweep.py can soak fresh workloads without a recompile. One
// block is 8 workloads x 8 kill plans = 64 kill-point runs (each run twice
// for the determinism check), plus the supervised-job and remote
// single-file scenarios.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/backup/jobs.h"
#include "src/backup/supervisor.h"
#include "src/dump/catalog.h"
#include "src/dump/logical_dump.h"
#include "src/dump/logical_restore.h"
#include "src/content/content.h"
#include "src/faults/crash.h"
#include "src/faults/fault_injector.h"
#include "src/fs/filesystem.h"
#include "src/net/link.h"
#include "src/net/tape_server.h"
#include "src/obs/json.h"
#include "src/util/checksum.h"
#include "src/workload/population.h"
#include "tests/media_invariants.h"

namespace bkup {
namespace {

constexpr int kWorkloadSeeds = 8;
constexpr int kKillPlansPerSeed = 8;

uint64_t SeedOffset() {
  const char* env = std::getenv("BKUP_RECOVERY_SEED_OFFSET");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 0;
}

VolumeGeometry Geometry() {
  VolumeGeometry geom;
  geom.num_raid_groups = 1;
  geom.disks_per_group = 4;
  geom.blocks_per_disk = 2048;
  return geom;
}

// One seeded workload, dumped once; every kill plan for the seed restores
// the same stream with the same catalog.
struct DumpedWorkload {
  explicit DumpedWorkload(uint64_t seed) {
    src_volume = Volume::Create(&env, "src", Geometry());
    src = std::move(Filesystem::Format(src_volume.get(), &env)).value();
    WorkloadParams params;
    params.seed = seed;
    params.target_bytes = 3 * kMiB;
    EXPECT_TRUE(PopulateFilesystem(src.get(), params).ok());
    // Advance time so restore-created inodes get mtimes that cannot collide
    // with the dumped ones (the resume diff depends on that mismatch).
    env.Spawn([](SimEnvironment* e) -> Task { co_await e->Delay(kSecond); }(
        &env));
    env.Run();

    EXPECT_TRUE(src->CreateSnapshot("snap").ok());
    auto reader = src->SnapshotReader("snap").value();
    LogicalDumpOptions opt;
    opt.volume_name = "src";
    opt.dump_time = env.now();
    auto out = RunLogicalDump(reader, opt);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    dump = std::move(out).value();
    EXPECT_TRUE(src->DeleteSnapshot("snap").ok());

    auto loaded = TapeCatalog::Load(dump.catalog_image);
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    catalog = std::move(loaded).value();
    source_sums = ChecksumTree(src->LiveReader()).value();
  }

  SimEnvironment env;
  std::unique_ptr<Volume> src_volume;
  std::unique_ptr<Filesystem> src;
  LogicalDumpOutput dump;
  TapeCatalog catalog;
  std::map<std::string, uint32_t> source_sums;
};

// What one kill-and-resume sequence did, compared across reruns for the
// determinism property.
struct ChaosOutcome {
  bool converged = false;
  uint32_t attempts = 0;
  uint64_t total_bytes_replayed = 0;   // across every incarnation
  uint64_t final_bytes_replayed = 0;   // the attempt that completed
  uint64_t final_bytes_skipped = 0;
  uint32_t files_already_complete = 0;
  std::vector<StreamRange> final_ranges;
  std::map<std::string, uint32_t> sums;
};

// Runs restore attempts against a fresh target until one completes,
// remounting the volume (crash-reboot) after every kill.
ChaosOutcome RunChaos(DumpedWorkload* w, const CrashPlan& plan,
                      uint32_t checkpoint_every, const std::string& tag) {
  ChaosOutcome out;
  auto volume = Volume::Create(&w->env, "chaos-" + tag, Geometry());
  auto fs = std::move(Filesystem::Format(volume.get(), &w->env)).value();
  CrashInjector injector(plan);
  LogicalRestoreOptions opt;
  opt.catalog = &w->catalog;
  opt.checkpoint_every = checkpoint_every;
  opt.kill = &injector;
  constexpr uint32_t kMaxAttempts = 10;
  for (uint32_t attempt = 0; attempt < kMaxAttempts; ++attempt) {
    opt.resume = attempt > 0;
    auto res = RunLogicalRestore(fs.get(), w->dump.stream, opt);
    if (!res.ok()) {
      ADD_FAILURE() << tag << ": attempt " << attempt << " failed: "
                    << res.status().ToString();
      return out;
    }
    ++out.attempts;
    out.total_bytes_replayed += res->stats.bytes_replayed;
    if (!res->interrupted) {
      out.converged = true;
      out.final_bytes_replayed = res->stats.bytes_replayed;
      out.final_bytes_skipped = res->stats.bytes_skipped;
      out.files_already_complete = res->stats.files_already_complete;
      out.final_ranges = res->consumed_ranges;
      break;
    }
    // Crash-reboot: drop the in-memory state, remount the last CP.
    fs.reset();
    auto mounted = Filesystem::Mount(volume.get(), &w->env);
    if (!mounted.ok()) {
      ADD_FAILURE() << tag << ": remount failed: "
                    << mounted.status().ToString();
      return out;
    }
    fs = std::move(*mounted);
  }
  if (out.converged) {
    out.sums = ChecksumTree(fs->LiveReader()).value();
  }
  return out;
}

// A kill plan for slot `k` of a seed block: a deterministic mix of offset
// kills, entry kills, coin-flip kills and multi-kill chains.
CrashPlan PlanFor(uint64_t seed, int k, uint64_t dir_end,
                  uint64_t stream_end) {
  CrashPlan plan;
  plan.seed = seed * 100 + static_cast<uint64_t>(k);
  const uint64_t files_span = stream_end - dir_end;
  switch (k % 4) {
    case 0:  // die at a fixed point of the file section
      plan.KillAtOffset(dir_end + files_span * (k + 1) /
                        (kKillPlansPerSeed + 1));
      break;
    case 1:  // die after a fixed number of applied records
      plan.KillAtEntry(5 + static_cast<uint64_t>(k) * 11);
      break;
    case 2:  // die on a per-record coin flip inside the file phase
      plan.KillRandomIn(RestorePhase::kFiles, 0.02);
      break;
    default:  // die three times: twice mid-files, once at random
      plan.KillAtOffset(dir_end + files_span / 4)
          .KillAtOffset(dir_end + files_span / 2)
          .KillRandom(0.01);
      break;
  }
  return plan;
}

TEST(RecoveryChaosTest, KilledRestoresConvergeEverywhere) {
  const uint64_t offset = SeedOffset();
  int runs = 0, killed_runs = 0, resumed_with_skips = 0;
  for (int s = 0; s < kWorkloadSeeds; ++s) {
    const uint64_t seed = 1000 * (offset + 1) + static_cast<uint64_t>(s);
    DumpedWorkload w(seed);
    ASSERT_FALSE(w.catalog.empty());
    const uint64_t dir_end = w.catalog.directory_end();
    const uint64_t stream_end = w.catalog.stream_end();
    ASSERT_LT(dir_end, stream_end);

    // Baseline: an uninterrupted from-scratch restore of the same stream.
    CrashPlan no_kills;
    ChaosOutcome baseline =
        RunChaos(&w, no_kills, 0, "base-" + std::to_string(s));
    ASSERT_TRUE(baseline.converged);
    ASSERT_EQ(baseline.attempts, 1u);
    ASSERT_EQ(baseline.sums, w.source_sums) << "seed " << seed;
    const uint64_t full_bytes = baseline.final_bytes_replayed;

    for (int k = 0; k < kKillPlansPerSeed; ++k) {
      const CrashPlan plan = PlanFor(seed, k, dir_end, stream_end);
      const uint32_t cp_every = 1 + static_cast<uint32_t>(k % 4) * 3;
      const std::string tag =
          std::to_string(s) + "." + std::to_string(k);
      ChaosOutcome a = RunChaos(&w, plan, cp_every, tag + "a");
      ++runs;
      ASSERT_TRUE(a.converged) << tag;
      EXPECT_EQ(a.sums, w.source_sums)
          << tag << ": resumed tree differs from the source";
      if (a.attempts > 1) {
        ++killed_runs;
        // Bounded replay: the completing attempt moved strictly fewer bytes
        // than a from-scratch run would have. A kill that fired before the
        // first file became durable legitimately resumes from zero complete
        // files, so the skip assertions apply only once the diff kept
        // something.
        EXPECT_LT(a.final_bytes_replayed, full_bytes) << tag;
        if (a.files_already_complete > 0) {
          ++resumed_with_skips;
          EXPECT_GT(a.final_bytes_skipped, 0u) << tag;
          EXPECT_LT(a.final_bytes_replayed + a.final_bytes_skipped,
                    full_bytes + w.dump.stream.size())
              << tag << ": skip accounting ran past the stream";
        }
      }

      // Determinism: the same plan over the same stream runs the same way.
      ChaosOutcome b = RunChaos(&w, plan, cp_every, tag + "b");
      EXPECT_EQ(a.attempts, b.attempts) << tag;
      EXPECT_EQ(a.total_bytes_replayed, b.total_bytes_replayed) << tag;
      EXPECT_EQ(a.final_bytes_replayed, b.final_bytes_replayed) << tag;
      EXPECT_EQ(a.final_ranges, b.final_ranges) << tag;
      EXPECT_EQ(a.sums, b.sums) << tag;
    }
  }
  EXPECT_EQ(runs, kWorkloadSeeds * kKillPlansPerSeed);
  // The soak is vacuous if the kill plans rarely fire or if resumes never
  // actually fast-forward past durable work.
  EXPECT_GE(killed_runs, runs * 3 / 4)
      << "most kill plans must actually interrupt a run";
  EXPECT_GE(resumed_with_skips, killed_runs / 2)
      << "most resumes must skip already-complete files";
}

// The timed-world twin: a supervised logical restore job with a kill hook
// takes two kills, restarts on the restart schedule, replays only the
// missing suffix off the tape, and reports the resume accounting in its
// JSON job report.
TEST(RecoveryChaosTest, SupervisedResumableJobSurvivesKills) {
  DumpedWorkload w(4242 + SeedOffset());
  Filer filer(&w.env, FilerModel::F630());
  Tape media("night.0", 32 * kMiB);
  TapeDrive drive(&w.env, "dlt0");
  drive.LoadMedia(&media);
  SupervisionPolicy policy;

  LogicalBackupJobResult backup;
  CountdownLatch done(&w.env, 1);
  w.env.Spawn(RunJob(&filer,
                     {.fs = w.src.get(),
                      .endpoints = {{.drive = &drive, .supervision = &policy}}},
                     &backup, &done));
  w.env.Run();
  ASSERT_TRUE(backup.report.status.ok()) << backup.report.status.ToString();
  ExpectReportMatchesMedia(backup.report, {&media}, backup.dump.stream);
  auto catalog = TapeCatalog::Load(backup.dump.catalog_image);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();

  const uint64_t dir_end = catalog->directory_end();
  const uint64_t stream_end = catalog->stream_end();
  CrashPlan plan;
  plan.seed = 77;
  plan.KillAtOffset(dir_end + (stream_end - dir_end) / 3)
      .KillAtOffset(dir_end + 2 * (stream_end - dir_end) / 3);
  CrashInjector injector(plan);

  auto volume = Volume::Create(&w.env, "r", Geometry());
  auto fs = std::move(Filesystem::Format(volume.get(), &w.env)).value();
  JobSpec spec{.fs = fs.get(),
               .endpoints = {{.drive = &drive, .supervision = &policy}}};
  spec.logical_restore.catalog = &*catalog;
  spec.logical_restore.kill = &injector;
  spec.logical_restore.checkpoint_every = 8;
  LogicalRestoreJobResult result;
  CountdownLatch rdone(&w.env, 1);
  w.env.Spawn(RunJob(&filer, spec, &result, &rdone));
  w.env.Run();

  ASSERT_TRUE(result.report.status.ok()) << result.report.status.ToString();
  EXPECT_EQ(result.attempts, 3u) << "two kills = three incarnations";
  EXPECT_FALSE(result.restore.interrupted);
  EXPECT_EQ(result.report.resume.resumes, 2u);
  EXPECT_GT(result.report.resume.bytes_skipped, 0u);
  EXPECT_GT(result.report.resume.checkpoints, 0u);
  ASSERT_NE(result.remounted, nullptr) << "a restart remounts the volume";
  EXPECT_EQ(result.remounted->volume(), volume.get());
  EXPECT_EQ(ChecksumTree(result.remounted->LiveReader()).value(),
            w.source_sums);

  JsonWriter jw;
  result.report.WriteJson(&jw);
  auto parsed = ParseJson(jw.Take());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ((*parsed)["resume"]["resumes"].int_value(), 2);
  EXPECT_GT((*parsed)["resume"]["bytes_skipped"].int_value(), 0);
}

// The remote twin: a restore across a link, killed twice, resumes through
// the same RunJob. Each incarnation pulls only what it resumes over the
// link, and the remounted tree is byte-identical to the source.
TEST(RecoveryChaosTest, KilledRemoteRestoreResumesThroughRunJob) {
  DumpedWorkload w(4243 + SeedOffset());
  NetLink link(&w.env, "wan", LinkParams{});
  TapeServer server(&w.env, "vault");
  TapeDrive* drive = server.AddDrive("dlt0");
  Tape media("vault.0", 32 * kMiB);
  drive->LoadMedia(&media);
  Filer filer(&w.env, FilerModel::F630());
  SupervisionPolicy policy;
  const StreamEndpoint target{.link = &link,
                              .server = &server,
                              .drive = drive,
                              .supervision = &policy};

  LogicalBackupJobResult backup;
  CountdownLatch done(&w.env, 1);
  w.env.Spawn(
      RunJob(&filer, {.fs = w.src.get(), .endpoints = {target}}, &backup,
             &done));
  w.env.Run();
  ASSERT_TRUE(backup.report.status.ok()) << backup.report.status.ToString();
  ExpectReportMatchesMedia(backup.report, {&media}, backup.dump.stream);
  auto catalog = TapeCatalog::Load(backup.dump.catalog_image);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();

  const uint64_t dir_end = catalog->directory_end();
  const uint64_t stream_end = catalog->stream_end();
  CrashPlan plan;
  plan.seed = 78;
  plan.KillAtOffset(dir_end + (stream_end - dir_end) / 3)
      .KillAtOffset(dir_end + 2 * (stream_end - dir_end) / 3);
  CrashInjector injector(plan);

  auto volume = Volume::Create(&w.env, "r", Geometry());
  auto fs = std::move(Filesystem::Format(volume.get(), &w.env)).value();
  JobSpec spec{.fs = fs.get(), .endpoints = {target}};
  spec.logical_restore.catalog = &*catalog;
  spec.logical_restore.kill = &injector;
  spec.logical_restore.checkpoint_every = 8;
  LogicalRestoreJobResult result;
  CountdownLatch rdone(&w.env, 1);
  w.env.Spawn(RunJob(&filer, spec, &result, &rdone));
  w.env.Run();

  ASSERT_TRUE(result.report.status.ok()) << result.report.status.ToString();
  EXPECT_EQ(result.attempts, 3u) << "two kills = three incarnations";
  EXPECT_FALSE(result.restore.interrupted);
  EXPECT_EQ(result.report.resume.resumes, 2u);
  EXPECT_GT(result.report.resume.bytes_skipped, 0u);
  EXPECT_GT(result.report.total_net_bytes(), 0u) << "the restore crossed the link";
  EXPECT_LT(result.report.stream_bytes, 2 * backup.dump.stream.size())
      << "each incarnation pulls only what it resumes";
  ASSERT_NE(result.remounted, nullptr) << "a restart remounts the volume";
  EXPECT_EQ(ChecksumTree(result.remounted->LiveReader()).value(),
            w.source_sums)
      << "a resumed remote restore must be byte-identical";
}

// A parallel restore's parts write one file system, so one part's kill
// cannot be survived by remounting it under the others: the kill hook is
// refused before any part starts.
TEST(RecoveryChaosTest, ParallelRestoreRefusesKillHook) {
  SimEnvironment env;
  Filer filer(&env, FilerModel::F630());
  TapeDrive d0(&env, "dlt0"), d1(&env, "dlt1");
  auto volume = Volume::Create(&env, "r", Geometry());
  auto fs = std::move(Filesystem::Format(volume.get(), &env)).value();
  CrashPlan plan;
  plan.KillAtEntry(1);
  CrashInjector injector(plan);
  JobSpec spec{.fs = fs.get(),
               .endpoints = {{.drive = &d0}, {.drive = &d1}},
               .trees = {"/a", "/b"}};
  spec.logical_restore.kill = &injector;
  ParallelJobResult<LogicalRestoreJobResult> result;
  CountdownLatch done(&env, 1);
  env.Spawn(RunJob(&filer, spec, &result, &done));
  env.Run();
  ASSERT_TRUE(done.done());
  EXPECT_EQ(result.merged.status.code(), ErrorCode::kInvalidArgument)
      << result.merged.status.ToString();
  EXPECT_TRUE(result.parts.empty());
  EXPECT_FALSE(fs->LookupPath("/a").ok()) << "no part may start";
}

// Catalog-driven remote single-file restore: one file off the vault costs
// O(file) link bytes, not O(stream), and the LinkBudget can veto the
// transfer before anything moves.
TEST(RecoveryChaosTest, RemoteSingleFileRestoreCostsOFile) {
  SimEnvironment env;
  NetLink link(&env, "wan", LinkParams{});
  TapeServer server(&env, "vault");
  TapeDrive* drive = server.AddDrive("dlt0");
  Tape media("vault.0", 32 * kMiB);
  drive->LoadMedia(&media);
  Filer filer(&env, FilerModel::F630());

  auto src_volume = Volume::Create(&env, "src", Geometry());
  auto src = std::move(Filesystem::Format(src_volume.get(), &env)).value();
  WorkloadParams params;
  params.seed = 11 + SeedOffset();
  params.target_bytes = 3 * kMiB;
  ASSERT_TRUE(PopulateFilesystem(src.get(), params).ok());
  // A known needle to fish back out.
  ASSERT_TRUE(src->Mkdir("/known", 0755).ok());
  auto needle = src->Create("/known/needle.dat", 0644);
  ASSERT_TRUE(needle.ok());
  Rng rng(3);
  std::vector<uint8_t> needle_data(5 * kBlockSize);
  rng.Fill(needle_data);
  ASSERT_TRUE(src->Write(*needle, 0, needle_data).ok());

  const StreamEndpoint target{
      .link = &link, .server = &server, .drive = drive};

  LogicalBackupJobResult backup;
  CountdownLatch done(&env, 1);
  env.Spawn(RunJob(&filer, {.fs = src.get(), .endpoints = {target}},
                   &backup, &done));
  env.Run();
  ASSERT_TRUE(backup.report.status.ok()) << backup.report.status.ToString();
  ASSERT_EQ(media.contents().size(), backup.dump.stream.size());
  ASSERT_EQ(Crc32c(media.contents()), Crc32c(backup.dump.stream))
      << "tape image must be the dump stream byte for byte";
  ExpectReportMatchesMedia(backup.report, {&media}, backup.dump.stream);
  auto catalog = TapeCatalog::Load(backup.dump.catalog_image);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();

  // The needle alone, through the catalog, gated on `budget`.
  auto restore_needle = [&](Filesystem* fs, LinkBudget* budget,
                            LogicalRestoreJobResult* out) {
    JobSpec spec{.fs = fs, .endpoints = {target}, .budget = budget};
    spec.logical_restore.select = {"/known/needle.dat"};
    spec.logical_restore.catalog = &*catalog;
    CountdownLatch restored(&env, 1);
    env.Spawn(RunJob(&filer, spec, out, &restored));
    env.Run();
  };

  // A budget too small for even the ranged reads refuses up front.
  auto tiny_volume = Volume::Create(&env, "tiny", Geometry());
  auto tiny_fs =
      std::move(Filesystem::Format(tiny_volume.get(), &env)).value();
  LinkBudget tiny_budget(&link, 2 * kDumpRecordSize);
  LogicalRestoreJobResult rejected;
  restore_needle(tiny_fs.get(), &tiny_budget, &rejected);
  EXPECT_EQ(rejected.report.status.code(), ErrorCode::kExhausted)
      << rejected.report.status.ToString();
  EXPECT_EQ(rejected.report.stream_bytes, 0u);
  EXPECT_EQ(tiny_budget.consumed(), 0u);

  // With a real allowance the file comes back for O(file) link bytes: the
  // restore's stream bytes are what crossed the link, and the budget
  // settles to exactly that.
  auto rvolume = Volume::Create(&env, "r", Geometry());
  auto rfs = std::move(Filesystem::Format(rvolume.get(), &env)).value();
  LinkBudget budget(&link, 8 * kMiB);
  LogicalRestoreJobResult result;
  restore_needle(rfs.get(), &budget, &result);
  ASSERT_TRUE(result.report.status.ok()) << result.report.status.ToString();
  EXPECT_EQ(result.restore.stats.files_restored, 1u);
  const uint64_t link_bytes = result.report.stream_bytes;
  EXPECT_GT(link_bytes, 0u);
  EXPECT_LT(link_bytes, backup.dump.stream.size() / 10)
      << "one file must cost well under a tenth of the stream";
  EXPECT_EQ(budget.consumed(), link_bytes);

  // The estimate is exact: the budget prices the catalog plan the engine
  // reads by, so an allowance of exactly the bytes moved admits the
  // restore and one byte less refuses it.
  for (const uint64_t allowance : {link_bytes, link_bytes - 1}) {
    auto volume = Volume::Create(&env, "exact", Geometry());
    auto fs = std::move(Filesystem::Format(volume.get(), &env)).value();
    LinkBudget exact(&link, allowance);
    LogicalRestoreJobResult out;
    restore_needle(fs.get(), &exact, &out);
    if (allowance == link_bytes) {
      EXPECT_TRUE(out.report.status.ok()) << out.report.status.ToString();
      EXPECT_EQ(out.report.stream_bytes, link_bytes);
      EXPECT_EQ(exact.consumed(), link_bytes);
    } else {
      EXPECT_EQ(out.report.status.code(), ErrorCode::kExhausted)
          << out.report.status.ToString();
      EXPECT_EQ(out.report.stream_bytes, 0u);
      EXPECT_EQ(exact.consumed(), 0u);
    }
  }

  auto got = rfs->LookupPath("/known/needle.dat");
  ASSERT_TRUE(got.ok());
  std::vector<uint8_t> got_data;
  ASSERT_TRUE(
      rfs->Read(*got, 0, needle_data.size() + 16, &got_data).ok());
  ASSERT_EQ(got_data.size(), needle_data.size());
  EXPECT_EQ(Crc32c(got_data), Crc32c(needle_data));
}

// One read rule for every restore: a ranged single-file restore through a
// flaky drive retries each failed chunk read in place, whether the drive
// hangs off the filer or sits on a tape server across a link. The same
// seeded plan therefore costs the same errors, retries and repositions on
// both; unsupervised, the first failed read fails the restore on both.
// The needle spans many chunks, so one range sees several failed reads.
TEST(RecoveryChaosTest, FlakyRangedRestoreRetriesLocalAndRemoteAlike) {
  SimEnvironment env;
  NetLink link(&env, "wan", LinkParams{});
  TapeServer server(&env, "vault");
  Filer filer(&env, FilerModel::F630());

  auto src_volume = Volume::Create(&env, "src", Geometry());
  auto src = std::move(Filesystem::Format(src_volume.get(), &env)).value();
  WorkloadParams params;
  params.seed = 5;
  params.target_bytes = 2 * kMiB;
  ASSERT_TRUE(PopulateFilesystem(src.get(), params).ok());
  ASSERT_TRUE(src->Mkdir("/known", 0755).ok());
  auto needle = src->Create("/known/needle.dat", 0644);
  ASSERT_TRUE(needle.ok());
  Rng rng(3);
  std::vector<uint8_t> needle_data(3 * kMiB);
  rng.Fill(needle_data);
  ASSERT_TRUE(src->Write(*needle, 0, needle_data).ok());

  Tape media("vault.0", 32 * kMiB);
  TapeDrive writer(&env, "writer");
  writer.LoadMedia(&media);
  LogicalBackupJobResult backup;
  CountdownLatch done(&env, 1);
  env.Spawn(RunJob(&filer,
                   {.fs = src.get(), .endpoints = {{.drive = &writer}}},
                   &backup, &done));
  env.Run();
  ASSERT_TRUE(backup.report.status.ok()) << backup.report.status.ToString();
  ExpectReportMatchesMedia(backup.report, {&media}, backup.dump.stream);
  auto catalog = TapeCatalog::Load(backup.dump.catalog_image);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();

  FaultPlan plan;
  plan.seed = 21;
  plan.TapeFlaky("vault.dlt0", 0.3);
  const SupervisionPolicy policy;
  struct Run {
    LogicalRestoreJobResult result;
    uint64_t repositions = 0;
    bool identical = false;
  };
  // A fresh drive named like the server's, armed with the same plan, so
  // both endpoints draw the same faults read for read.
  auto restore_needle = [&](bool remote, bool supervised) {
    Run run;
    TapeDrive local(&env, "vault.dlt0");
    TapeDrive* drive = remote ? server.AddDrive("dlt0") : &local;
    drive->LoadMedia(&media);
    FaultInjector injector(&env, plan);
    injector.Arm(drive);
    auto volume = Volume::Create(&env, "r", Geometry());
    auto fs = std::move(Filesystem::Format(volume.get(), &env)).value();
    JobSpec spec{.fs = fs.get(),
                 .endpoints = {{.link = remote ? &link : nullptr,
                                .server = remote ? &server : nullptr,
                                .drive = drive,
                                .supervision =
                                    supervised ? &policy : nullptr}}};
    spec.logical_restore.select = {"/known/needle.dat"};
    spec.logical_restore.catalog = &*catalog;
    CountdownLatch restored(&env, 1);
    env.Spawn(RunJob(&filer, spec, &run.result, &restored));
    env.Run();
    injector.Disarm(drive);
    run.repositions = drive->repositions();
    auto got = fs->LookupPath("/known/needle.dat");
    std::vector<uint8_t> got_data;
    run.identical = got.ok() &&
                    fs->Read(*got, 0, needle_data.size(), &got_data).ok() &&
                    got_data == needle_data;
    return run;
  };

  const Run local = restore_needle(false, true);
  const Run remote = restore_needle(true, true);
  ASSERT_TRUE(local.result.report.status.ok())
      << local.result.report.status.ToString();
  ASSERT_TRUE(remote.result.report.status.ok())
      << remote.result.report.status.ToString();
  EXPECT_TRUE(local.identical);
  EXPECT_TRUE(remote.identical);
  const FaultCounters& lf = local.result.report.faults;
  const FaultCounters& rf = remote.result.report.faults;
  EXPECT_GT(lf.tape_retries, 0u);
  EXPECT_EQ(lf.tape_errors, rf.tape_errors);
  EXPECT_EQ(lf.tape_retries, rf.tape_retries);
  EXPECT_EQ(local.repositions, remote.repositions);
  EXPECT_LT(remote.result.report.stream_bytes, backup.dump.stream.size());

  const Run bare_local = restore_needle(false, false);
  const Run bare_remote = restore_needle(true, false);
  EXPECT_FALSE(bare_local.result.report.status.ok());
  EXPECT_FALSE(bare_remote.result.report.status.ok());
}

// ----------------------------------------- kills inside an active pipeline

// One compressed+dedup'd remote dump, optionally through a mid-stream link
// outage, then a remote restore of the wire media with the same ChunkIndex.
struct ContentOutageRun {
  Status backup_status;
  Status restore_status;
  FaultCounters faults;
  ContentStats content;
  uint64_t raw_stream_bytes = 0;
  uint64_t media_bytes = 0;
  uint32_t media_crc = 0;
  bool restored_identical = false;
};

ContentOutageRun RunCompressedRemoteDump(bool outage) {
  SimEnvironment env;
  NetLink link(&env, "wan", LinkParams{});
  TapeServer server(&env, "vault");
  TapeDrive* drive = server.AddDrive("dlt0");
  Tape media("night.0", 32 * kMiB);
  drive->LoadMedia(&media);
  Filer filer(&env, FilerModel::F630());

  auto volume = Volume::Create(&env, "src", Geometry());
  auto fs = std::move(Filesystem::Format(volume.get(), &env)).value();
  WorkloadParams params;
  params.seed = 808 + SeedOffset();
  params.target_bytes = 3 * kMiB;
  EXPECT_TRUE(PopulateFilesystem(fs.get(), params).ok());
  const auto source_sums = ChecksumTree(fs->LiveReader()).value();

  ChunkIndex index;
  ContentConfig content;
  content.chunk = content.dedup = content.compress = content.crc = true;
  content.index = &index;

  SupervisionPolicy policy;
  const StreamEndpoint target{.link = &link,
                              .server = &server,
                              .drive = drive,
                              .supervision = &policy,
                              .content = content};

  // Cable pull over the start of the streaming phase (after the 30 s
  // snapshot quiesce), long enough to exhaust every frame's retransmit
  // budget: the session dies mid-pipeline and the supervisor reconnects,
  // resuming the *wire* stream from the receiver's acked floor.
  FaultPlan plan;
  plan.seed = 11;
  plan.LinkDown("wan", 30 * kSecond, 33 * kSecond);
  FaultInjector injector(&env, plan);
  if (outage) {
    injector.Arm(&link);
  }

  ContentOutageRun run;
  LogicalBackupJobResult backup;
  CountdownLatch done(&env, 1);
  env.Spawn(RunJob(&filer, {.fs = fs.get(), .endpoints = {target}},
                   &backup, &done));
  env.Run();
  run.backup_status = backup.report.status;
  if (!run.backup_status.ok()) {
    return run;
  }
  // The media hold the wire image, which the test does not rebuild.
  ExpectReportMatchesMedia(backup.report, {&media});
  run.faults = backup.report.faults;
  run.content = backup.report.content;
  run.raw_stream_bytes = backup.dump.stream.size();
  run.media_bytes = media.contents().size();
  run.media_crc = Crc32c(media.contents());

  if (!drive->SeekTo(0).ok()) {
    run.restore_status = IoError("rewind failed");
    return run;
  }
  auto rvolume = Volume::Create(&env, "r", Geometry());
  auto rfs = std::move(Filesystem::Format(rvolume.get(), &env)).value();
  LogicalRestoreJobResult restore;
  CountdownLatch rdone(&env, 1);
  env.Spawn(RunJob(&filer, {.fs = rfs.get(), .endpoints = {target}},
                   &restore, &rdone));
  env.Run();
  run.restore_status = restore.report.status;
  if (run.restore_status.ok()) {
    run.restored_identical =
        ChecksumTree(rfs->LiveReader()).value() == source_sums;
  }
  return run;
}

// A link outage that kills the session mid-pipeline must not change what
// the stages produced or charged: the reconnect resends already-encoded
// wire bytes from the session buffer, so the outage run pays the same
// encode CPU, ships the same wire image, and restores byte-identically.
TEST(RecoveryChaosTest, CompressedRemoteDumpOutageNeverDoubleChargesEncode) {
  const ContentOutageRun clean = RunCompressedRemoteDump(/*outage=*/false);
  ASSERT_TRUE(clean.backup_status.ok()) << clean.backup_status.ToString();
  ASSERT_TRUE(clean.restore_status.ok()) << clean.restore_status.ToString();
  EXPECT_EQ(clean.faults.link_reconnects, 0u);
  EXPECT_TRUE(clean.restored_identical);
  EXPECT_GT(clean.content.encode_cpu_us, 0u);
  EXPECT_LT(clean.media_bytes, clean.raw_stream_bytes)
      << "the tape must hold the (smaller) wire image, not raw bytes";
  EXPECT_EQ(clean.media_bytes, clean.content.wire_bytes);

  const ContentOutageRun hurt = RunCompressedRemoteDump(/*outage=*/true);
  ASSERT_TRUE(hurt.backup_status.ok()) << hurt.backup_status.ToString();
  ASSERT_TRUE(hurt.restore_status.ok()) << hurt.restore_status.ToString();
  EXPECT_GE(hurt.faults.link_reconnects, 1u) << "the outage must kill a conn";
  EXPECT_GT(hurt.faults.link_bytes_resent, 0u);
  EXPECT_TRUE(hurt.restored_identical)
      << "restore after mid-pipeline kill must be byte-identical";

  // The property under test: resending wire bytes is not re-encoding.
  EXPECT_EQ(hurt.content.encode_cpu_us, clean.content.encode_cpu_us)
      << "reconnect resend must not re-charge stage CPU";
  EXPECT_EQ(hurt.content.raw_bytes, clean.content.raw_bytes);
  EXPECT_EQ(hurt.content.wire_bytes, clean.content.wire_bytes);
  EXPECT_EQ(hurt.content.dedup_hits, clean.content.dedup_hits);
  EXPECT_EQ(hurt.media_crc, clean.media_crc)
      << "the wire image on the vault must not depend on the outage";
}

// Crash-resumable restore of a compressed tape: the acked floor and the
// catalog's offsets live in raw coordinates while the media holds wire
// bytes; each incarnation must translate its bounded replay through the
// FrameMap, converge on a byte-identical tree, and pay decode CPU only for
// the wire it actually moved (strictly less than attempts x a full decode).
TEST(RecoveryChaosTest, CompressedTapeResumableRestoreSurvivesKills) {
  DumpedWorkload w(4242 + SeedOffset());
  Filer filer(&w.env, FilerModel::F630());
  Tape media("night.0", 32 * kMiB);
  TapeDrive drive(&w.env, "dlt0");
  drive.LoadMedia(&media);
  SupervisionPolicy policy;

  ChunkIndex index;
  ContentConfig content;
  content.chunk = content.dedup = content.compress = content.crc = true;
  content.index = &index;

  LogicalBackupJobResult backup;
  CountdownLatch done(&w.env, 1);
  w.env.Spawn(RunJob(&filer,
                     {.fs = w.src.get(),
                      .endpoints = {{.drive = &drive,
                                     .supervision = &policy,
                                     .content = content}}},
                     &backup, &done));
  w.env.Run();
  ASSERT_TRUE(backup.report.status.ok()) << backup.report.status.ToString();
  ASSERT_LT(media.contents().size(), backup.dump.stream.size())
      << "compressed backup must write wire bytes to tape";
  ExpectReportMatchesMedia(backup.report, {&media});
  auto catalog = TapeCatalog::Load(backup.dump.catalog_image);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();

  const uint64_t dir_end = catalog->directory_end();
  const uint64_t stream_end = catalog->stream_end();
  CrashPlan plan;
  plan.seed = 77;
  plan.KillAtOffset(dir_end + (stream_end - dir_end) / 3)
      .KillAtOffset(dir_end + 2 * (stream_end - dir_end) / 3);
  CrashInjector injector(plan);

  auto volume = Volume::Create(&w.env, "r", Geometry());
  auto fs = std::move(Filesystem::Format(volume.get(), &w.env)).value();
  JobSpec spec{.fs = fs.get(),
               .endpoints = {{.drive = &drive,
                              .supervision = &policy,
                              .content = content}}};
  spec.logical_restore.catalog = &*catalog;
  spec.logical_restore.kill = &injector;
  spec.logical_restore.checkpoint_every = 8;
  LogicalRestoreJobResult result;
  CountdownLatch rdone(&w.env, 1);
  w.env.Spawn(RunJob(&filer, spec, &result, &rdone));
  w.env.Run();

  ASSERT_TRUE(result.report.status.ok()) << result.report.status.ToString();
  EXPECT_EQ(result.attempts, 3u) << "two kills = three incarnations";
  EXPECT_FALSE(result.restore.interrupted);
  EXPECT_EQ(result.report.resume.resumes, 2u);
  ASSERT_NE(result.remounted, nullptr) << "a restart remounts the volume";
  EXPECT_EQ(ChecksumTree(result.remounted->LiveReader()).value(),
            w.source_sums)
      << "resumed restore of compressed media must be byte-identical";

  // Bounded decode: a full-stream decode costs DecodeCpuPerMb() x raw MB;
  // three incarnations that each replayed everything would pay 3x that.
  const uint64_t full_decode_us =
      content.DecodeCpuPerMb() * backup.dump.stream.size() / 1000000;
  EXPECT_GT(result.report.content.decode_cpu_us, 0u);
  EXPECT_LT(result.report.content.decode_cpu_us,
            result.attempts * full_decode_us)
      << "bounded replay must not pay decode CPU for skipped wire";
}

}  // namespace
}  // namespace bkup
