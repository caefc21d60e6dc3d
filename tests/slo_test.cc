// SloMonitor unit tests: progress/ETA/deadline-risk math on the simulated
// clock, registration and completion semantics, breach accounting, and the
// JSON shape the scheduler embeds as night_health. A final integration case
// runs a real (tiny) night with deliberately tight deadlines and asserts
// every miss was flagged while the night was still live.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/backup/scheduler.h"
#include "src/fs/filesystem.h"
#include "src/obs/json.h"
#include "src/obs/slo.h"
#include "src/sim/environment.h"
#include "src/util/units.h"
#include "src/workload/population.h"

namespace bkup {
namespace {

constexpr uint64_t kMB = 1'000'000;  // the monitor's MB (10^6 bytes)

TEST(SloMonitorTest, QueuedObjectiveProjectsWithPlanningRate) {
  SimEnvironment env;
  SloMonitor monitor(&env);
  monitor.Register("queued", /*deadline=*/100 * kSecond,
                   /*total_bytes=*/10 * kMB);
  monitor.Register("tight", /*deadline=*/1 * kSecond,
                   /*total_bytes=*/10 * kMB);

  // No planning rate, no bytes moved: the ETA is unknown, nothing at risk.
  {
    const SloHealthSample& s = monitor.Sample();
    ASSERT_EQ(s.entries.size(), 2u);
    EXPECT_EQ(s.entries[0].eta, -1);
    EXPECT_FALSE(s.entries[0].at_risk);
  }

  // With a 5 MB/s planning rate the queued volume projects a 2 s finish —
  // fine for the 100 s deadline, past the 1 s one.
  monitor.set_default_rate_mb_s(5.0);
  const SloHealthSample& s = monitor.Sample();
  EXPECT_EQ(s.entries[0].eta, 2 * kSecond);
  EXPECT_FALSE(s.entries[0].at_risk);
  EXPECT_EQ(s.entries[1].eta, 2 * kSecond);
  EXPECT_TRUE(s.entries[1].at_risk);
  EXPECT_FALSE(s.entries[1].breached);
  EXPECT_TRUE(monitor.WasFlaggedLive("tight"));
  EXPECT_FALSE(monitor.WasFlaggedLive("queued"));
}

TEST(SloMonitorTest, ObservedRateDrivesEtaAndBurn) {
  SimEnvironment env;
  SloMonitor monitor(&env);
  monitor.Register("home", /*deadline=*/100 * kSecond,
                   /*total_bytes=*/100 * kMB);

  // 10 MB in 10 s: rate 1 MB/s, 90 MB to go, ETA lands exactly on the
  // deadline (not past it), burn = (10% of budget) / (10% of work) = 1.
  env.RunUntil(10 * kSecond);
  monitor.ReportProgress("home", 10 * kMB);
  const SloHealthSample& s = monitor.Sample();
  ASSERT_EQ(s.entries.size(), 1u);
  EXPECT_DOUBLE_EQ(s.entries[0].progress, 0.1);
  EXPECT_DOUBLE_EQ(s.entries[0].rate_mb_s, 1.0);
  EXPECT_EQ(s.entries[0].eta, 100 * kSecond);
  EXPECT_DOUBLE_EQ(s.entries[0].burn, 1.0);
  EXPECT_FALSE(s.entries[0].at_risk);
  EXPECT_FALSE(monitor.WasFlaggedLive("home"));
}

TEST(SloMonitorTest, SlowStreamIsFlaggedAtRiskBeforeTheDeadline) {
  SimEnvironment env;
  SloMonitor monitor(&env);
  monitor.Register("home", /*deadline=*/100 * kSecond,
                   /*total_bytes=*/100 * kMB);

  // 10 MB in 20 s: half speed. The 200 s projection overshoots the
  // deadline with 80 s still on the clock — flagged at-risk, not breached.
  env.RunUntil(20 * kSecond);
  monitor.ReportProgress("home", 10 * kMB);
  const SloHealthSample& s = monitor.Sample();
  EXPECT_DOUBLE_EQ(s.entries[0].rate_mb_s, 0.5);
  EXPECT_EQ(s.entries[0].eta, 200 * kSecond);
  EXPECT_TRUE(s.entries[0].at_risk);
  EXPECT_FALSE(s.entries[0].breached);
  EXPECT_DOUBLE_EQ(s.entries[0].burn, 2.0);
  EXPECT_TRUE(monitor.WasFlaggedLive("home"));
  EXPECT_EQ(monitor.breaches(), 0u);
}

TEST(SloMonitorTest, ProgressIsMonotoneAndCappedAtTotal) {
  SimEnvironment env;
  SloMonitor monitor(&env);
  monitor.Register("v", SloMonitor::kNoDeadline, /*total_bytes=*/100);

  monitor.ReportProgress("v", 50);
  monitor.ReportProgress("v", 30);  // stale reading must not regress
  env.RunUntil(1 * kSecond);
  EXPECT_DOUBLE_EQ(monitor.Sample().entries[0].progress, 0.5);

  monitor.ReportProgress("v", 1000);  // overshoot clamps to 1
  EXPECT_DOUBLE_EQ(monitor.Sample().entries[0].progress, 1.0);

  monitor.Complete("v", /*ok=*/true);
  monitor.ReportProgress("v", 0);  // ignored after completion
  const SloHealthSample::Entry& e = monitor.Sample().entries[0];
  EXPECT_TRUE(e.done);
  EXPECT_DOUBLE_EQ(e.progress, 1.0);
}

TEST(SloMonitorTest, BreachedThenCompletedVolumeStaysABreach) {
  SimEnvironment env;
  SloMonitor monitor(&env);
  monitor.Register("late", /*deadline=*/10 * kSecond, /*total_bytes=*/0);

  env.RunUntil(15 * kSecond);
  {
    const SloHealthSample::Entry& e = monitor.Sample().entries[0];
    EXPECT_TRUE(e.breached);
    EXPECT_TRUE(e.at_risk);  // breached while still running
    EXPECT_FALSE(e.done);
  }
  EXPECT_TRUE(monitor.WasFlaggedLive("late"));
  EXPECT_EQ(monitor.breaches(), 1u);

  // Completing (even successfully) after the deadline is still a breach,
  // but the finished volume is no longer "at risk".
  monitor.Complete("late", /*ok=*/true);
  env.RunUntil(20 * kSecond);
  const SloHealthSample::Entry& e = monitor.Sample().entries[0];
  EXPECT_TRUE(e.done);
  EXPECT_TRUE(e.breached);
  EXPECT_FALSE(e.at_risk);
  EXPECT_EQ(e.eta, 15 * kSecond);  // ETA of a finished volume = finish time
  EXPECT_EQ(monitor.breaches(), 1u);
}

TEST(SloMonitorTest, FailedCompletionCountsAsBreachEvenInsideDeadline) {
  SimEnvironment env;
  SloMonitor monitor(&env);
  monitor.Register("bad", /*deadline=*/100 * kSecond, /*total_bytes=*/1);
  monitor.Complete("bad", /*ok=*/false);
  EXPECT_EQ(monitor.breaches(), 1u);
}

TEST(SloMonitorTest, ReRegisteringResetsTheObjective) {
  SimEnvironment env;
  SloMonitor monitor(&env);
  monitor.Register("v", /*deadline=*/10 * kSecond, /*total_bytes=*/100);
  monitor.ReportProgress("v", 50);
  env.RunUntil(5 * kSecond);

  monitor.Register("v", /*deadline=*/20 * kSecond, /*total_bytes=*/200);
  const SloHealthSample& s = monitor.Sample();
  ASSERT_EQ(s.entries.size(), 1u);  // replaced in place, not appended
  EXPECT_DOUBLE_EQ(s.entries[0].progress, 0.0);
  EXPECT_FALSE(s.entries[0].breached);
}

TEST(SloMonitorTest, WriteJsonCarriesSamplesObjectivesAndLatency) {
  SimEnvironment env;
  SloMonitor monitor(&env);
  monitor.Register("home", /*deadline=*/100 * kSecond,
                   /*total_bytes=*/100 * kMB);
  env.RunUntil(20 * kSecond);
  monitor.ReportProgress("home", 10 * kMB);
  monitor.Sample();
  monitor.Complete("home", /*ok=*/true);
  monitor.Sample();

  JsonWriter w;
  monitor.WriteJson(&w);
  auto parsed = ParseJson(w.Take());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& doc = *parsed;

  ASSERT_TRUE(doc["samples"].is_array());
  ASSERT_EQ(doc["samples"].array().size(), 2u);
  const JsonValue& first = doc["samples"].array()[0];
  EXPECT_DOUBLE_EQ(first["t_s"].number(), 20.0);
  ASSERT_EQ(first["volumes"].array().size(), 1u);
  const JsonValue& vol = first["volumes"].array()[0];
  EXPECT_EQ(vol["name"].string_value(), "home");
  EXPECT_DOUBLE_EQ(vol["progress"].number(), 0.1);
  EXPECT_DOUBLE_EQ(vol["rate_mb_s"].number(), 0.5);
  EXPECT_TRUE(vol["at_risk"].bool_value());
  EXPECT_FALSE(vol["done"].bool_value());

  ASSERT_EQ(doc["objectives"].array().size(), 1u);
  const JsonValue& obj = doc["objectives"].array()[0];
  EXPECT_EQ(obj["name"].string_value(), "home");
  EXPECT_TRUE(obj["done"].bool_value());
  EXPECT_TRUE(obj["ok"].bool_value());
  EXPECT_TRUE(obj["flagged_live"].bool_value());
}

// ----------------------------------------------------- night integration ---

// A one-drive, two-volume night where every volume gets a deadline far
// tighter than the workload: the scheduler's own monitor must publish a
// non-empty night_health series and every missed deadline must have been
// flagged while that volume was still running (the bench-gate invariant,
// exercised here at unit scale).
TEST(SloSchedulerTest, NightReportPublishesLiveHealthSeries) {
  SimEnvironment env;
  Filer filer(&env, FilerModel::F630());
  TapeLibrary library("fleet", 64 * kMiB, 0);
  SupervisionPolicy policy;

  VolumeGeometry geom;
  geom.num_raid_groups = 1;
  geom.disks_per_group = 4;
  geom.blocks_per_disk = 2048;

  std::vector<std::unique_ptr<Volume>> volumes;
  std::vector<std::unique_ptr<Filesystem>> filesystems;
  std::vector<VolumeSpec> specs;
  for (int i = 0; i < 2; ++i) {
    const std::string name = "vol" + std::to_string(i);
    volumes.push_back(Volume::Create(&env, name, geom));
    auto fs = std::move(Filesystem::Format(volumes.back().get(), &env)).value();
    WorkloadParams params;
    params.seed = 42;
    params.target_bytes = 4 * kMiB;
    ASSERT_TRUE(PopulateFilesystem(fs.get(), params).status().ok());
    filesystems.push_back(std::move(fs));

    VolumeSpec spec;
    spec.name = name;
    spec.fs = filesystems.back().get();
    spec.mode = BackupMode::kImage;
    spec.estimated_bytes = 4 * kMiB;
    spec.deadline = 2 * kMinute;
    specs.push_back(std::move(spec));
  }

  TapeDrive drive(&env, "d0");
  FleetConfig config;
  config.drives.push_back(&drive);
  config.library = &library;
  config.supervision = &policy;

  NightlyScheduler scheduler(&filer, config, std::move(specs));
  NightReport report;
  CountdownLatch done(&env, 1);
  env.Spawn(scheduler.Run(&report, &done));
  env.Run();
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();

  EXPECT_FALSE(report.night_health.empty());
  EXPECT_GT(report.deadline_misses, 0u);
  EXPECT_EQ(report.slo_breaches, report.deadline_misses);
  for (const VolumeOutcome& v : report.volumes) {
    if (!v.deadline_met) {
      EXPECT_TRUE(v.slo_flagged_live)
          << v.name << " missed its deadline without ever being flagged";
    }
  }
  // Samples are time-ordered and every entry stays inside [0, 1] progress.
  SimTime prev = -1;
  for (const SloHealthSample& s : report.night_health) {
    EXPECT_GE(s.t, prev);
    prev = s.t;
    ASSERT_EQ(s.entries.size(), report.volumes.size());
    for (const SloHealthSample::Entry& e : s.entries) {
      EXPECT_GE(e.progress, 0.0);
      EXPECT_LE(e.progress, 1.0);
    }
  }
}

}  // namespace
}  // namespace bkup
