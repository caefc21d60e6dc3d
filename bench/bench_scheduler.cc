// Nightly fleet scheduler sweep: drives ∈ {1, 2, 4} × volumes ∈ {4, 8, 16}
// on a uniform image workload (every volume identical), reporting makespan,
// the bin-packing lower bound and per-drive utilization for each cell.
//
// With identical, non-preemptible jobs the lower bound on any M-drive
// schedule is ceil(N / M) sequential jobs; the gate requires the 4-drive
// makespans to land within 15% of it — the scheduler may not leave drives
// idle while work queues. `--json[=path]` writes the 4-drive / 16-volume
// cell as a BENCH_*.json report (validated by tools/check_trace.py).
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/backup/scheduler.h"

namespace bkup {
namespace {

constexpr uint64_t kVolumeBytes = 4 * kMiB;
constexpr uint64_t kPopulateSeed = 42;  // identical data ⇒ identical jobs

VolumeGeometry CellGeometry() {
  VolumeGeometry geom;
  geom.num_raid_groups = 1;
  geom.disks_per_group = 4;
  geom.blocks_per_disk = 2048;
  return geom;
}

struct CellResult {
  int drives = 0;
  int volumes = 0;
  SimDuration makespan = 0;
  double mean_drive_util = 0.0;
};

// Builds and runs one night of `num_volumes` identical image volumes over
// `num_drives` drives. When `json_path` is non-empty the cell also writes
// the structured bench report (jobs and scheduler outcomes).
CellResult RunCell(int num_drives, int num_volumes,
                   const std::string& json_path) {
  SimEnvironment env;
  Filer filer(&env, FilerModel::F630());
  TapeLibrary library("fleet", 64 * kMiB, 0);
  SupervisionPolicy policy;

  std::vector<std::unique_ptr<Volume>> volumes;
  std::vector<std::unique_ptr<Filesystem>> filesystems;
  std::vector<VolumeSpec> specs;
  for (int i = 0; i < num_volumes; ++i) {
    const std::string name = "vol" + std::to_string(i);
    volumes.push_back(Volume::Create(&env, name, CellGeometry()));
    auto fs = std::move(Filesystem::Format(volumes.back().get(), &env)).value();
    WorkloadParams params;
    params.seed = kPopulateSeed;
    params.target_bytes = kVolumeBytes;
    bench::CheckStatus(PopulateFilesystem(fs.get(), params).status(),
                       "populate");
    filesystems.push_back(std::move(fs));

    VolumeSpec spec;
    spec.name = name;
    spec.fs = filesystems.back().get();
    spec.mode = BackupMode::kImage;
    spec.estimated_bytes = kVolumeBytes;
    specs.push_back(std::move(spec));
  }

  std::vector<std::unique_ptr<TapeDrive>> drives;
  FleetConfig config;
  for (int d = 0; d < num_drives; ++d) {
    drives.push_back(
        std::make_unique<TapeDrive>(&env, "d" + std::to_string(d)));
    config.drives.push_back(drives.back().get());
  }
  config.library = &library;
  config.supervision = &policy;

  NightlyScheduler scheduler(&filer, config, std::move(specs));
  NightReport report;
  CountdownLatch done(&env, 1);
  env.Spawn(scheduler.Run(&report, &done));
  env.Run();
  bench::CheckStatus(report.status, "night");
  for (const VolumeOutcome& v : report.volumes) {
    bench::CheckStatus(v.status, v.name.c_str());
  }

  CellResult cell;
  cell.drives = num_drives;
  cell.volumes = num_volumes;
  cell.makespan = report.makespan();
  for (const DriveNightStats& d : report.drives) {
    cell.mean_drive_util += d.utilization;
  }
  cell.mean_drive_util /= static_cast<double>(num_drives);

  if (!json_path.empty()) {
    JsonWriter w;
    w.BeginObject();
    w.Field("bench", "scheduler");
    w.Field("sim_elapsed_s", SimToSeconds(env.now()));
    w.Key("config")
        .BeginObject()
        .Field("drives", static_cast<uint64_t>(num_drives))
        .Field("volumes", static_cast<uint64_t>(num_volumes))
        .Field("bytes_per_volume", kVolumeBytes)
        .Field("seed", kPopulateSeed)
        .EndObject();
    w.Key("jobs").BeginArray();
    for (const VolumeOutcome& v : report.volumes) {
      JobReport r = v.report;
      r.name = v.name;
      r.WriteJson(&w);
    }
    w.EndArray();
    w.Key("scheduler");
    report.WriteJson(&w);
    w.EndObject();

    std::FILE* f = std::fopen(json_path.c_str(), "w");
    bench::CheckStatus(
        f != nullptr ? Status::Ok() : IoError("open " + json_path),
        "json open");
    const std::string json = w.Take();
    const bool ok =
        std::fwrite(json.data(), 1, json.size(), f) == json.size() &&
        std::fclose(f) == 0;
    bench::CheckStatus(ok ? Status::Ok() : IoError("write " + json_path),
                       "json write");
    std::printf("wrote %s (%zu bytes)\n", json_path.c_str(), json.size());
  }
  return cell;
}

int Run(int argc, char** argv) {
  const std::string json_path =
      bench::JsonPathFromArgs(argc, argv, "BENCH_scheduler.json");

  bench::PrintBanner(
      "Nightly scheduler sweep (drives x volumes, uniform fleet)",
      "OSDI'99 paper, Section 5.1 concurrency, generalized to M < N drives");

  // The bound's unit: one volume alone on one drive.
  const SimDuration t_iso = RunCell(1, 1, "").makespan;
  std::printf("isolated single-volume night: %s\n\n",
              FormatDuration(t_iso).c_str());
  std::printf("%7s %8s %14s %14s %7s %10s\n", "drives", "volumes", "makespan",
              "lower bound", "ratio", "drive util");

  bool gate_ok = true;
  for (int num_drives : {1, 2, 4}) {
    for (int num_volumes : {4, 8, 16}) {
      const bool json_cell =
          num_drives == 4 && num_volumes == 16 && !json_path.empty();
      const CellResult cell =
          RunCell(num_drives, num_volumes, json_cell ? json_path : "");
      const int rounds = (num_volumes + num_drives - 1) / num_drives;
      const SimDuration bound = static_cast<SimDuration>(rounds) * t_iso;
      const double ratio = static_cast<double>(cell.makespan) /
                           static_cast<double>(bound);
      std::printf("%7d %8d %14s %14s %6.2fx %9.1f%%\n", cell.drives,
                  cell.volumes, FormatDuration(cell.makespan).c_str(),
                  FormatDuration(bound).c_str(), ratio,
                  cell.mean_drive_util * 100.0);
      if (num_drives == 4 && ratio > 1.15) {
        gate_ok = false;
      }
    }
  }
  std::printf("RESULT: %s\n",
              gate_ok ? "4-drive makespans within 15% of the bin-packing "
                        "bound"
                      : "SHAPE MISMATCH (scheduler left drives idle under "
                        "load)");
  return gate_ok ? 0 : 1;
}

}  // namespace
}  // namespace bkup

int main(int argc, char** argv) { return bkup::Run(argc, argv); }
