// Exporting a backup run as a Perfetto/chrome://tracing timeline.
//
// A tracer is attached to the simulation; a logical backup and a physical
// (image) backup of the same volume then run back to back, each to its own
// DLT drive. Every simulated resource — the filer CPU, every disk arm, both
// tape drive units — is watched as a counter track, each job's phases appear
// as spans on their own track, and tape repositions / fault recoveries show
// up as instant events. The result is written as Chrome trace-event JSON:
// open it at https://ui.perfetto.dev or chrome://tracing and the bottleneck
// structure of both strategies is a picture instead of a table.
//
//   ./build/examples/trace_backup [--out backup.trace.json]
#include <cstdio>
#include <cstring>
#include <string>

#include "src/backup/jobs.h"
#include "src/obs/trace.h"
#include "src/workload/population.h"

using namespace bkup;  // NOLINT: example brevity

namespace {
void Must(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}
}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "backup.trace.json";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) {
      out_path = argv[i + 1];
    }
  }

  SimEnvironment env;
  Filer filer(&env, FilerModel::F630());
  VolumeGeometry geometry;
  geometry.num_raid_groups = 2;
  geometry.disks_per_group = 5;
  geometry.blocks_per_disk = 4096;
  auto volume = Volume::Create(&env, "home", geometry);
  auto fs = std::move(Filesystem::Format(volume.get(), &env)).value();

  WorkloadParams workload;
  workload.target_bytes = 24 * kMiB;
  workload.seed = 7;
  Must(PopulateFilesystem(fs.get(), workload).status(), "populate");

  Tape tape0("tape0", 8ull * kGiB);
  Tape tape1("tape1", 8ull * kGiB);
  TapeDrive drive0(&env, "dlt0");
  TapeDrive drive1(&env, "dlt1");
  drive0.LoadMedia(&tape0);
  drive1.LoadMedia(&tape1);

  // Declared after every resource it watches: the tracer detaches itself on
  // destruction, so it must go first. Counter tracks: one per resource.
  Tracer tracer(&env);
  tracer.WatchResource(&filer.cpu());
  for (const auto& disk : volume->disks()) {
    tracer.WatchResource(&disk->arm());
  }
  tracer.WatchResource(&drive0.unit());
  tracer.WatchResource(&drive1.unit());

  // Logical backup to drive 0.
  LogicalBackupJobResult logical;
  {
    CountdownLatch done(&env, 1);
    LogicalDumpOptions options;
    options.volume_name = "home";
    env.Spawn(RunJob(&filer,
                     {.fs = fs.get(),
                      .endpoints = {{.drive = &drive0}},
                      .logical_dump = options},
                     &logical, &done));
    env.Run();
    Must(logical.report.status, "logical backup");
  }

  // Physical (image) backup of the same volume to drive 1.
  ImageBackupJobResult image;
  {
    CountdownLatch done(&env, 1);
    env.Spawn(RunJob(&filer,
                     {.fs = fs.get(), .endpoints = {{.drive = &drive1}}},
                     &image, &done));
    env.Run();
    Must(image.report.status, "physical backup");
  }

  std::printf("%-18s %10s %8.2f MB/s\n", "logical backup",
              FormatDuration(logical.report.elapsed()).c_str(),
              logical.report.MBps());
  std::printf("%-18s %10s %8.2f MB/s\n", "physical backup",
              FormatDuration(image.report.elapsed()).c_str(),
              image.report.MBps());

  Must(tracer.WriteChromeJson(out_path), "writing trace");
  std::printf("\n%zu events on %zu tracks -> %s\n", tracer.event_count(),
              tracer.track_count(), out_path.c_str());
  std::printf("open it at https://ui.perfetto.dev or chrome://tracing\n");
  return 0;
}
