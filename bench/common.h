// Shared setup for the paper-reproduction benchmarks.
//
// Every bench simulates the paper's testbed "eliot", a NetApp F630 (§5):
// 500 MHz Alpha, FC-AL disks in RAID groups, DLT-7000 drives on dedicated
// adapters. The `home` volume keeps the paper's shape — 3 RAID groups,
// ~31 drives — with scaled-down drive capacity so a run finishes in
// seconds; throughput (MB/s, GB/h) and utilization are steady-state
// quantities and do not depend on the scale factor. Reports also project
// elapsed time to the paper's 188 GB to ease side-by-side reading.
#ifndef BKUP_BENCH_COMMON_H_
#define BKUP_BENCH_COMMON_H_

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/backup/jobs.h"
#include "src/obs/json.h"
#include "src/workload/aging.h"
#include "src/workload/population.h"

namespace bkup {
namespace bench {

inline constexpr double kPaperHomeGB = 188.0;  // the paper's home volume

struct SetupOptions {
  uint64_t data_bytes = 96 * kMiB;
  uint32_t quota_trees = 4;
  bool aged = true;  // "mature" data set, per the paper's footnote 1
  uint32_t num_tapes = 4;
  size_t num_raid_groups = 3;
  size_t disks_per_group = 10;      // ~31 drives, as on eliot
  uint64_t blocks_per_disk = 2048;  // scaled capacity: 8 MiB per drive
  DiskTiming disk_timing;           // per-spindle model (paper-era default)
  uint64_t seed = 1999;
};

struct Bench {
  explicit Bench(const SetupOptions& options) {
    VolumeGeometry geom;
    geom.num_raid_groups = options.num_raid_groups;
    geom.disks_per_group = options.disks_per_group;
    geom.blocks_per_disk = options.blocks_per_disk;
    geom.disk_timing = options.disk_timing;
    home = Volume::Create(&env, "home", geom);
    filer = std::make_unique<Filer>(&env, FilerModel::F630());
    fs = std::move(Filesystem::Format(home.get(), &env)).value();

    WorkloadParams params;
    params.seed = options.seed;
    params.target_bytes = options.data_bytes;
    params.quota_trees = options.quota_trees;
    workload = std::move(PopulateFilesystem(fs.get(), params)).value();
    if (options.aged) {
      AgingParams aging;
      aging.seed = options.seed + 1;
      aging.rounds = 3;
      aging.churn_fraction = 0.3;
      Result<AgingStats> aged_stats = AgeFilesystem(fs.get(), aging);
      if (!aged_stats.ok()) {
        std::fprintf(stderr, "aging failed: %s\n",
                     aged_stats.status().ToString().c_str());
        std::abort();
      }
    }
    for (uint32_t i = 0; i < options.num_tapes; ++i) {
      tapes.push_back(
          std::make_unique<Tape>("tape" + std::to_string(i), 8ull * kGiB));
      drives.push_back(std::make_unique<TapeDrive>(
          &env, "dlt" + std::to_string(i)));
      drives.back()->LoadMedia(tapes.back().get());
    }
  }

  // A fresh volume with the same geometry, for restores.
  std::unique_ptr<Volume> FreshVolume(const std::string& name) {
    return Volume::Create(&env, name, home->geometry());
  }

  void RewindAll() {
    for (auto& d : drives) {
      d->Rewind();
    }
  }

  // One local endpoint per drive, for the first `n` drives.
  std::vector<StreamEndpoint> Endpoints(uint32_t n) {
    std::vector<StreamEndpoint> out;
    for (uint32_t i = 0; i < n; ++i) {
      out.push_back({.drive = drives[i].get()});
    }
    return out;
  }

  SimEnvironment env;
  std::unique_ptr<Filer> filer;
  std::unique_ptr<Volume> home;
  std::unique_ptr<Filesystem> fs;
  std::vector<std::unique_ptr<Tape>> tapes;
  std::vector<std::unique_ptr<TapeDrive>> drives;
  WorkloadStats workload;
};

// ------------------------------------------------------------- reporting ---

inline void PrintBanner(const char* title, const char* paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("Reproduces: %s\n", paper_ref);
  std::printf("================================================================\n");
}

inline void PrintSummaryHeader() {
  std::printf("%-24s %12s %10s %10s %14s\n", "Operation", "Elapsed", "MB/s",
              "GB/h", "@188GB (proj.)");
}

// Prints a Table-2 style row plus the elapsed time this throughput would
// give on the paper's 188 GB volume.
inline void PrintSummaryRow(const JobReport& report) {
  const double mbps = report.MBps();
  const double hours_188 =
      mbps > 0 ? (kPaperHomeGB * 1e3 / mbps +
                  SimToSeconds(report.SnapshotOverhead())) / 3600.0
               : 0.0;
  std::printf("%-24s %12s %10.2f %10.1f %11.1f h\n", report.name.c_str(),
              FormatDuration(report.elapsed()).c_str(), mbps, report.GBph(),
              hours_188);
}

// Runs the paper's basic single-tape suite (Tables 2 and 3): logical
// backup, logical restore, physical backup, physical restore, one DLT
// drive each, on the bench's mature home volume.
struct BasicSuite {
  JobReport logical_backup;
  JobReport logical_restore;
  JobReport physical_backup;
  JobReport physical_restore;
};

inline void CheckStatus(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL: %s: %s\n", what, status.ToString().c_str());
    std::abort();
  }
}

inline BasicSuite RunBasicSuite(Bench* b) {
  BasicSuite suite;

  // Logical backup to one tape.
  {
    LogicalBackupJobResult r;
    CountdownLatch done(&b->env, 1);
    LogicalDumpOptions opt;
    opt.volume_name = "home";
    b->env.Spawn(RunJob(b->filer.get(),
                        {.fs = b->fs.get(),
                         .endpoints = {{.drive = b->drives[0].get()}},
                         .logical_dump = opt},
                        &r, &done));
    b->env.Run();
    CheckStatus(r.report.status, "logical backup");
    r.report.name = "Logical Backup";
    suite.logical_backup = r.report;
  }
  // Logical restore onto a fresh file system.
  {
    auto volume = b->FreshVolume("lrestore");
    auto fs = std::move(Filesystem::Format(volume.get(), &b->env)).value();
    b->drives[0]->Rewind();
    LogicalRestoreJobResult r;
    CountdownLatch done(&b->env, 1);
    b->env.Spawn(RunJob(b->filer.get(),
                        {.fs = fs.get(),
                         .endpoints = {{.drive = b->drives[0].get()}}},
                        &r, &done));
    b->env.Run();
    CheckStatus(r.report.status, "logical restore");
    r.report.name = "Logical Restore";
    suite.logical_restore = r.report;
  }
  // Physical backup to one tape.
  {
    ImageBackupJobResult r;
    CountdownLatch done(&b->env, 1);
    b->env.Spawn(RunJob(b->filer.get(),
                        {.fs = b->fs.get(),
                         .endpoints = {{.drive = b->drives[1].get()}}},
                        &r, &done));
    b->env.Run();
    CheckStatus(r.report.status, "physical backup");
    r.report.name = "Physical Backup";
    suite.physical_backup = r.report;
  }
  // Physical restore onto a fresh volume.
  {
    auto volume = b->FreshVolume("prestore");
    b->drives[1]->Rewind();
    ImageRestoreJobResult r;
    CountdownLatch done(&b->env, 1);
    b->env.Spawn(RunJob(b->filer.get(),
                        {.volume = volume.get(),
                         .endpoints = {{.drive = b->drives[1].get()}}},
                        &r, &done));
    b->env.Run();
    CheckStatus(r.report.status, "physical restore");
    r.report.name = "Physical Restore";
    suite.physical_restore = r.report;
  }
  return suite;
}

// --------------------------------------------------------- observability ---

// Writes a structured BENCH_*.json report: the bench configuration, the
// simulated time the run ended at and every job report (summary, faults,
// per-phase stats).
// `extra`, when set, is called with the writer just before the object closes
// so a bench can append its own top-level sections (the report contract's
// required keys are unaffected).
inline Status WriteBenchJson(
    const std::string& path, const std::string& bench_name,
    const SetupOptions& opts, SimTime elapsed,
    const std::vector<const JobReport*>& reports,
    const std::function<void(JsonWriter*)>& extra = {}) {
  JsonWriter w;
  w.BeginObject();
  w.Field("bench", bench_name);
  w.Field("sim_elapsed_s", SimToSeconds(elapsed));
  w.Key("config")
      .BeginObject()
      .Field("data_bytes", opts.data_bytes)
      .Field("quota_trees", static_cast<uint64_t>(opts.quota_trees))
      .Field("aged", opts.aged)
      .Field("num_tapes", static_cast<uint64_t>(opts.num_tapes))
      .Field("raid_groups", static_cast<uint64_t>(opts.num_raid_groups))
      .Field("disks_per_group", static_cast<uint64_t>(opts.disks_per_group))
      .Field("blocks_per_disk", opts.blocks_per_disk)
      .Field("seed", opts.seed)
      .EndObject();
  w.Key("jobs").BeginArray();
  for (const JobReport* r : reports) {
    r->WriteJson(&w);
  }
  w.EndArray();
  if (extra) {
    extra(&w);
  }
  w.EndObject();

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return IoError("cannot open '" + path + "' for writing");
  }
  const std::string json = w.Take();
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != json.size() || !close_ok) {
    return IoError("short write to '" + path + "'");
  }
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), json.size());
  return Status::Ok();
}

// Parses an optional "--json[=path]" argument; returns the empty string when
// the flag is absent (no report requested).
inline std::string JsonPathFromArgs(int argc, char** argv,
                                    const std::string& default_path) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      return default_path;
    }
    if (arg.rfind("--json=", 0) == 0) {
      const std::string path = arg.substr(7);
      return path.empty() ? default_path : path;
    }
  }
  return {};
}

}  // namespace bench
}  // namespace bkup

#endif  // BKUP_BENCH_COMMON_H_
