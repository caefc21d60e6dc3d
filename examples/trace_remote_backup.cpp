// One merged cross-node timeline for a remote backup that survives an
// outage.
//
// A remote image backup streams from the filer over a WAN link to a tape
// server's drive. A cable pull over the start of the streaming phase
// outlasts every frame's retransmit budget, so the connection dies; the
// supervisor reconnects after backoff and resumes from the acked
// watermark. With a tracer attached, both nodes' spans land in ONE
// Chrome/Perfetto trace under one trace id: the filer's job phases on the
// "filer" process row, the server's tape.write span on the "vault" row,
// per-frame flow arrows ("s"/"f") stitching the sender's tx track to the
// receiver's rx track across the link, and the post-outage continuation
// labeled with incarnation 1 — the same causal story, one picture.
//
//   ./build/examples/trace_remote_backup [--out remote_backup.trace.json]
#include <cstdio>
#include <cstring>
#include <string>

#include "src/backup/jobs.h"
#include "src/backup/supervisor.h"
#include "src/faults/fault_injector.h"
#include "src/fs/filesystem.h"
#include "src/net/link.h"
#include "src/net/tape_server.h"
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
  std::string out_path = "remote_backup.trace.json";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) {
      out_path = argv[i + 1];
    }
  }

  SimEnvironment env;
  Filer filer(&env, FilerModel::F630());
  VolumeGeometry geometry;
  geometry.num_raid_groups = 2;
  geometry.disks_per_group = 4;
  geometry.blocks_per_disk = 2048;
  auto volume = Volume::Create(&env, "home", geometry);
  auto fs = std::move(Filesystem::Format(volume.get(), &env)).value();

  WorkloadParams workload;
  workload.target_bytes = 6 * kMiB;
  workload.seed = 7;
  Must(PopulateFilesystem(fs.get(), workload).status(), "populate");

  NetLink link(&env, "wan", LinkParams{});
  TapeServer server(&env, "vault");
  TapeDrive* drive = server.AddDrive("dlt0");
  Tape media("night.0", 32 * kMiB);
  drive->LoadMedia(&media);

  // Cable pull over the start of the streaming phase (the 30 s snapshot
  // quiesce precedes it). The per-frame budget (6 retransmits x 20 ms)
  // dies inside the 3 s window; the supervisor's reconnect backoff
  // outlasts it, so the stream resumes as incarnation 1 of the same trace.
  FaultPlan plan;
  plan.seed = 11;
  plan.LinkDown("wan", 30 * kSecond, 33 * kSecond);
  FaultInjector injector(&env, plan);
  injector.Arm(&link);

  // Declared after every resource it watches (it detaches on destruction).
  Tracer tracer(&env);
  tracer.WatchResource(&filer.cpu());
  tracer.WatchResource(&drive->unit());

  SupervisionPolicy policy;
  const StreamEndpoint target{.link = &link,
                              .server = &server,
                              .drive = drive,
                              .supervision = &policy};

  ImageBackupJobResult backup;
  CountdownLatch done(&env, 1);
  env.Spawn(RunJob(&filer, {.fs = fs.get(), .endpoints = {target}}, &backup,
                   &done));
  env.Run();
  Must(backup.report.status, "remote image backup");

  std::printf("%-20s %10s %8.2f MB/s\n", "remote image backup",
              FormatDuration(backup.report.elapsed()).c_str(),
              backup.report.MBps());
  std::printf("link: %llu conn errors, %llu reconnects, %llu bytes resent\n",
              static_cast<unsigned long long>(backup.report.faults.link_errors),
              static_cast<unsigned long long>(
                  backup.report.faults.link_reconnects),
              static_cast<unsigned long long>(
                  backup.report.faults.link_bytes_resent));

  Must(tracer.WriteChromeJson(out_path), "writing trace");
  std::printf("\n%zu events, %zu tracks, %zu process rows -> %s\n",
              tracer.event_count(), tracer.track_count(),
              tracer.process_count(), out_path.c_str());
  std::printf("open it at https://ui.perfetto.dev or chrome://tracing\n");
  return 0;
}
