// Live foreground load vs. a running backup (DESIGN.md §15): how much does
// a dump hurt the filer's NFS service, and how much of that hurt does the
// backup QoS knob (token-bucket throttle + background I/O class) buy back?
//
// Seven deterministic cells, each on a fresh identically-seeded testbed:
//
//   baseline            foreground load only (the no-backup latency floor)
//   solo_logical/image  the dump alone (the elongation denominator)
//   logical/image x {unthrottled, throttled}
//                       load + concurrent dump, default QoS vs. a stream
//                       cap + background priority
//
// The tape is deliberately fast (80 MB/s) so the unthrottled dump is
// disk-bound and competes head-on with foreground arms; throttled cells cap
// the stream at 6 MB/s and demote every dump charge to the background
// class. Gates (exit non-zero): the unthrottled dumps must show measurable
// foreground interference, the throttled dumps must hold foreground p99
// within 2x the no-backup baseline while still completing, and throttling
// must actually elongate the dump (the cost side of the trade).
// `--json[=path]` writes BENCH_interference.json with an "interference"
// section carrying per-cell foreground percentiles and the derived ratios.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/sim/throttle.h"
#include "src/workload/foreground.h"

namespace bkup {
namespace {

// Foreground latency gates.
constexpr double kMaxThrottledP99Ratio = 2.0;   // QoS promise
constexpr double kMinInterferenceRatio = 1.15;  // unthrottled must hurt
// The throttled dump must pay visibly for the relief.
constexpr double kMinElongation = 1.05;

constexpr double kThrottleMBps = 6.0;
constexpr SimDuration kDumpStart = 5 * kSecond;
constexpr SimDuration kFgWindow = 60 * kSecond;

bench::SetupOptions InterferenceSetup() {
  bench::SetupOptions opts;
  opts.data_bytes = 80 * kMiB;
  opts.quota_trees = 4;
  opts.num_tapes = 1;
  opts.num_raid_groups = 2;
  opts.disks_per_group = 6;
  opts.blocks_per_disk = 4096;  // 2 x 6 x 16 MiB = 192 MiB space
  return opts;
}

// F630 with interactive-scale snapshot bookkeeping, so the measurement
// window is dominated by the stream phase rather than 30 s snapshot waits.
FilerModel InteractiveModel() {
  FilerModel model = FilerModel::F630();
  model.snapshot_create_time = 5 * kSecond;
  model.snapshot_delete_time = 5 * kSecond;
  return model;
}

ForegroundParams FgParams() {
  ForegroundParams fp;
  fp.seed = 2026;
  fp.num_clients = 8;
  fp.duration = kFgWindow;
  fp.flush_interval = 5 * kSecond;
  return fp;
}

enum class DumpMode { kNone, kLogical, kImage };

struct CellSpec {
  const char* name;
  bool foreground;
  DumpMode mode;
  bool throttled;
};

struct CellOut {
  std::string name;
  bool has_fg = false;
  LatencySummary fg;
  // Foreground ops issued while the dump was running — the interference
  // score proper (whole-run percentiles dilute a short dump's impact).
  LatencySummary fg_during_dump;
  ForegroundStats fg_stats;
  bool has_dump = false;
  JobReport dump;
  SimTime sim_end = 0;  // simulated time the cell's run drained at
};

Task DelayedDump(bench::Bench* b, DumpMode mode, BackupQos qos,
                 JobReport* out, CountdownLatch* done) {
  co_await b->env.Delay(kDumpStart);
  CountdownLatch inner(&b->env, 1);
  if (mode == DumpMode::kLogical) {
    auto result = std::make_unique<LogicalBackupJobResult>();
    LogicalDumpOptions opt;
    opt.volume_name = "home";
    b->env.Spawn(RunJob(b->filer.get(),
                        {.fs = b->fs.get(),
                         .endpoints = {{.drive = b->drives[0].get(),
                                        .qos = qos}},
                         .logical_dump = opt},
                        result.get(), &inner));
    co_await inner.Wait();
    *out = result->report;
  } else {
    auto result = std::make_unique<ImageBackupJobResult>();
    b->env.Spawn(RunJob(b->filer.get(),
                        {.fs = b->fs.get(),
                         .endpoints = {{.drive = b->drives[0].get(),
                                        .qos = qos}}},
                        result.get(), &inner));
    co_await inner.Wait();
    *out = result->report;
  }
  done->CountDown();
}

CellOut RunCell(const CellSpec& spec) {
  CellOut out;
  out.name = spec.name;
  bench::Bench b(InterferenceSetup());
  // Swap in the interactive filer model before anything holds a pointer to it.
  b.filer = std::make_unique<Filer>(&b.env, InteractiveModel());
  // Fast tape: the unthrottled dump must be disk-bound, not tape-bound.
  TapeTiming fast;
  fast.stream_mb_per_s = 80.0;
  b.drives[0] = std::make_unique<TapeDrive>(&b.env, "dlt0", fast);
  b.drives[0]->LoadMedia(b.tapes[0].get());

  std::unique_ptr<BackupThrottle> throttle;
  BackupQos qos;
  if (spec.throttled) {
    throttle = std::make_unique<BackupThrottle>(&b.env, kThrottleMBps * 1e6);
    qos.throttle = throttle.get();
    qos.io_priority = kPriorityBackground;
  }

  auto load = std::make_unique<ForegroundLoad>(b.filer.get(), b.fs.get(),
                                               FgParams());
  const int jobs = (spec.foreground ? 1 : 0) + (spec.mode != DumpMode::kNone);
  CountdownLatch done(&b.env, jobs);
  if (spec.foreground) {
    b.env.Spawn(load->Run(&done));
  }
  if (spec.mode != DumpMode::kNone) {
    out.has_dump = true;
    b.env.Spawn(DelayedDump(&b, spec.mode, qos, &out.dump, &done));
  }
  out.sim_end = b.env.Run();

  if (out.has_dump) {
    bench::CheckStatus(out.dump.status, spec.name);
    out.dump.name = spec.name;
  }
  if (spec.foreground) {
    out.has_fg = true;
    out.fg = load->Summarize();
    if (out.has_dump) {
      out.fg_during_dump = load->SummarizeBetween(
          kDumpStart, kDumpStart + out.dump.elapsed());
    }
    out.fg_stats = load->stats();
    if (out.fg_stats.errors != 0) {
      std::fprintf(stderr, "FATAL: %s: %llu foreground errors\n", spec.name,
                   static_cast<unsigned long long>(out.fg_stats.errors));
      std::abort();
    }
  }
  return out;
}

void WriteCellJson(JsonWriter* w, const CellOut& c, double baseline_p99,
                   double solo_elapsed_s) {
  w->BeginObject();
  w->Field("cell", c.name);
  if (c.has_fg) {
    w->Key("foreground")
        .BeginObject()
        .Field("ops", c.fg_stats.total_ops())
        .Field("errors", c.fg_stats.errors)
        .Field("bytes_read", c.fg_stats.bytes_read)
        .Field("bytes_written", c.fg_stats.bytes_written)
        .Field("mean_us", c.fg.mean_us)
        .Field("p50_us", c.fg.p50_us)
        .Field("p95_us", c.fg.p95_us)
        .Field("p99_us", c.fg.p99_us)
        .Field("max_us", c.fg.max_us)
        .EndObject();
    if (baseline_p99 > 0) {
      w->Field("fg_p99_vs_baseline", c.fg.p99_us / baseline_p99);
    }
    if (c.has_dump) {
      w->Key("foreground_during_dump")
          .BeginObject()
          .Field("ops", c.fg_during_dump.count)
          .Field("mean_us", c.fg_during_dump.mean_us)
          .Field("p50_us", c.fg_during_dump.p50_us)
          .Field("p95_us", c.fg_during_dump.p95_us)
          .Field("p99_us", c.fg_during_dump.p99_us)
          .Field("max_us", c.fg_during_dump.max_us)
          .EndObject();
      if (baseline_p99 > 0) {
        w->Field("fg_during_dump_p99_vs_baseline",
                 c.fg_during_dump.p99_us / baseline_p99);
      }
    }
  }
  if (c.has_dump) {
    w->Field("dump_elapsed_s", SimToSeconds(c.dump.elapsed()));
    w->Field("dump_mbps", c.dump.MBps());
    if (solo_elapsed_s > 0) {
      w->Field("dump_elongation_vs_solo",
               SimToSeconds(c.dump.elapsed()) / solo_elapsed_s);
    }
  }
  w->EndObject();
}

int Run(int argc, char** argv) {
  bench::PrintBanner(
      "Foreground interference under live backup (QoS sweep)",
      "section 5 'live file service' + DESIGN.md section 15");

  const CellSpec specs[] = {
      {"baseline", true, DumpMode::kNone, false},
      {"solo_logical", false, DumpMode::kLogical, false},
      {"solo_image", false, DumpMode::kImage, false},
      {"logical_unthrottled", true, DumpMode::kLogical, false},
      {"logical_throttled", true, DumpMode::kLogical, true},
      {"image_unthrottled", true, DumpMode::kImage, false},
      {"image_throttled", true, DumpMode::kImage, true},
  };
  std::vector<CellOut> cells;
  for (const CellSpec& spec : specs) {
    std::printf("running cell %-20s ...\n", spec.name);
    cells.push_back(RunCell(spec));
  }
  const CellOut& baseline = cells[0];
  const CellOut& solo_logical = cells[1];
  const CellOut& solo_image = cells[2];

  auto solo_for = [&](const CellOut& c) -> const CellOut& {
    return c.name.find("logical") != std::string::npos ? solo_logical
                                                       : solo_image;
  };

  std::printf("\n%-22s %10s %10s %12s %12s %12s\n", "Cell", "fg p50",
              "fg p99", "dump p99", "dp99/base", "dump elong");
  for (const CellOut& c : cells) {
    std::string ratio = "-", elong = "-", dp99 = "-";
    char buf[32];
    if (c.has_fg && c.has_dump) {
      std::snprintf(buf, sizeof buf, "%.0fus", c.fg_during_dump.p99_us);
      dp99 = buf;
      std::snprintf(buf, sizeof buf, "%.2fx",
                    c.fg_during_dump.p99_us / baseline.fg.p99_us);
      ratio = buf;
      std::snprintf(buf, sizeof buf, "%.2fx",
                    SimToSeconds(c.dump.elapsed()) /
                        SimToSeconds(solo_for(c).dump.elapsed()));
      elong = buf;
    }
    std::printf("%-22s %9.0fus %9.0fus %12s %12s %12s\n", c.name.c_str(),
                c.has_fg ? c.fg.p50_us : 0.0, c.has_fg ? c.fg.p99_us : 0.0,
                dp99.c_str(), ratio.c_str(), elong.c_str());
  }

  // ------------------------------------------------------------- gates ---
  bool ok = true;
  auto gate = [&](bool cond, const std::string& what) {
    std::printf("%s  %s\n", cond ? "PASS" : "FAIL", what.c_str());
    ok = ok && cond;
  };
  char buf[160];
  for (size_t i = 3; i < cells.size(); ++i) {
    const CellOut& c = cells[i];
    const double ratio = c.fg_during_dump.p99_us / baseline.fg.p99_us;
    if (c.name.find("unthrottled") != std::string::npos) {
      std::snprintf(
          buf, sizeof buf,
          "%s: during-dump fg p99 %.2fx baseline (>= %.2fx: interference is real)",
          c.name.c_str(), ratio, kMinInterferenceRatio);
      gate(ratio >= kMinInterferenceRatio, buf);
    } else {
      std::snprintf(buf, sizeof buf,
                    "%s: during-dump fg p99 %.2fx baseline (<= %.2fx: QoS holds)",
                    c.name.c_str(), ratio, kMaxThrottledP99Ratio);
      gate(ratio <= kMaxThrottledP99Ratio, buf);
      const double elong = SimToSeconds(c.dump.elapsed()) /
                           SimToSeconds(solo_for(c).dump.elapsed());
      std::snprintf(buf, sizeof buf,
                    "%s: dump elongation %.2fx solo (>= %.2fx: cap binds)",
                    c.name.c_str(), elong, kMinElongation);
      gate(elong >= kMinElongation, buf);
    }
    // A throttled or contended dump must still finish inside the window's
    // order of magnitude — completion was already enforced by CheckStatus.
  }
  // Relief must be real: throttled beats unthrottled on fg p99, both modes.
  for (const char* mode : {"logical", "image"}) {
    const CellOut* un = nullptr;
    const CellOut* th = nullptr;
    for (const CellOut& c : cells) {
      if (c.name == std::string(mode) + "_unthrottled") un = &c;
      if (c.name == std::string(mode) + "_throttled") th = &c;
    }
    std::snprintf(buf, sizeof buf,
                  "%s: throttled during-dump fg p99 %.0fus <= unthrottled %.0fus",
                  mode, th->fg_during_dump.p99_us, un->fg_during_dump.p99_us);
    gate(th->fg_during_dump.p99_us <= un->fg_during_dump.p99_us, buf);
  }

  const std::string json_path =
      bench::JsonPathFromArgs(argc, argv, "BENCH_interference.json");
  if (!json_path.empty()) {
    // Representative cell for sim_elapsed_s: the throttled logical dump,
    // the cell the QoS story is about.
    const CellOut& rep = cells[4];
    std::vector<const JobReport*> reports;
    for (const CellOut& c : cells) {
      if (c.has_dump) {
        reports.push_back(&c.dump);
      }
    }
    const Status st = bench::WriteBenchJson(
        json_path, "interference", InterferenceSetup(), rep.sim_end, reports,
        [&](JsonWriter* w) {
          w->Key("interference").BeginArray();
          for (const CellOut& c : cells) {
            WriteCellJson(w, c, baseline.fg.p99_us,
                          c.has_dump && c.has_fg
                              ? SimToSeconds(solo_for(c).dump.elapsed())
                              : 0.0);
          }
          w->EndArray();
        });
    bench::CheckStatus(st, "write json");
  }

  std::printf("\n%s\n", ok ? "ALL GATES PASS" : "GATE FAILURES");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bkup

int main(int argc, char** argv) { return bkup::Run(argc, argv); }
