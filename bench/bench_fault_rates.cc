// Robustness economics: how a rising transient-error rate on the disk
// subsystem taxes logical vs physical backup when both run supervised
// (retry + exponential backoff, per src/backup/supervisor.h).
//
// The paper's §3/§4 robustness discussion is qualitative; this bench puts
// numbers on it: every disk in the volume fails each access with
// probability p, the jobs retry through it, and the table reports the
// throughput and the retry bill at p = 0%, 0.1% and 1%.
#include <cstdio>

#include "bench/common.h"
#include "src/backup/supervisor.h"
#include "src/faults/fault_injector.h"

namespace bkup {
namespace {

struct Row {
  double rate;
  double logical_mbps = 0;
  uint64_t logical_retries = 0;
  double image_mbps = 0;
  uint64_t image_retries = 0;
};

bench::SetupOptions Setup() {
  bench::SetupOptions opts;
  opts.data_bytes = 48 * kMiB;
  opts.aged = false;
  return opts;
}

// Each measurement gets a fresh bench (and so a fresh deterministic access
// sequence) with every disk of the home volume armed at `rate`. `end`, when
// set, receives the simulated time the run finished at.
JobReport RunLogical(double rate, SimTime* end = nullptr) {
  bench::Bench b(Setup());
  FaultPlan plan;
  plan.DiskFlaky("", rate);
  FaultInjector injector(&b.env, plan);
  injector.Arm(b.home.get());
  SupervisionPolicy policy;
  LogicalBackupJobResult r;
  CountdownLatch done(&b.env, 1);
  LogicalDumpOptions opt;
  opt.volume_name = "home";
  b.env.Spawn(RunJob(
      b.filer.get(),
      {.fs = b.fs.get(),
       .endpoints = {{.drive = b.drives[0].get(), .supervision = &policy}},
       .logical_dump = opt},
      &r, &done));
  b.env.Run();
  bench::CheckStatus(r.report.status, "supervised logical backup");
  r.report.name = "Logical Backup";
  if (end != nullptr) {
    *end = b.env.now();
  }
  return r.report;
}

JobReport RunImage(double rate) {
  bench::Bench b(Setup());
  FaultPlan plan;
  plan.DiskFlaky("", rate);
  FaultInjector injector(&b.env, plan);
  injector.Arm(b.home.get());
  SupervisionPolicy policy;
  ImageBackupJobResult r;
  CountdownLatch done(&b.env, 1);
  b.env.Spawn(RunJob(
      b.filer.get(),
      {.fs = b.fs.get(),
       .endpoints = {{.drive = b.drives[1].get(), .supervision = &policy}}},
      &r, &done));
  b.env.Run();
  bench::CheckStatus(r.report.status, "supervised physical backup");
  r.report.name = "Physical Backup";
  return r.report;
}

std::string RateTag(double rate) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), " @%.2f%%", rate * 100.0);
  return buf;
}

int Run(const std::string& json_path) {
  const double kRates[] = {0.0, 0.001, 0.01};
  Row rows[3];
  std::vector<JobReport> reports;
  // The report's sim_elapsed_s is the highest-rate logical run's.
  SimTime elapsed = 0;
  for (int i = 0; i < 3; ++i) {
    rows[i].rate = kRates[i];
    JobReport logical = RunLogical(kRates[i], i == 2 ? &elapsed : nullptr);
    rows[i].logical_mbps = logical.MBps();
    rows[i].logical_retries = logical.faults.disk_retries;
    JobReport image = RunImage(kRates[i]);
    rows[i].image_mbps = image.MBps();
    rows[i].image_retries = image.faults.disk_retries;
    logical.name += RateTag(kRates[i]);
    image.name += RateTag(kRates[i]);
    reports.push_back(std::move(logical));
    reports.push_back(std::move(image));
  }

  bench::PrintBanner(
      "Transient disk error rate vs supervised backup throughput",
      "OSDI'99 paper, Sections 3-4 (robustness discussion), quantified");
  std::printf("%-12s %14s %16s %14s %16s\n", "error rate", "logical MB/s",
              "logical retries", "image MB/s", "image retries");
  for (const Row& row : rows) {
    std::printf("%10.2f%% %14.2f %16llu %14.2f %16llu\n", row.rate * 100.0,
                row.logical_mbps, (unsigned long long)row.logical_retries,
                row.image_mbps, (unsigned long long)row.image_retries);
  }

  // Logical dump's disk path sits on the critical path, so its throughput
  // pays for every backoff; the image dump is tape-bound and absorbs disk
  // retries behind the streaming drive.
  const bool ok = rows[0].logical_retries == 0 && rows[0].image_retries == 0 &&
                  rows[2].logical_retries > 0 && rows[2].image_retries > 0 &&
                  rows[1].logical_retries <= rows[2].logical_retries &&
                  rows[1].image_retries <= rows[2].image_retries &&
                  rows[2].logical_mbps < rows[0].logical_mbps &&
                  rows[2].image_mbps <= rows[0].image_mbps * 1.001;
  std::printf("RESULT: %s\n",
              ok ? "both strategies absorb transient errors; the retry bill "
                   "grows with the error rate and only the disk-bound "
                   "logical dump slows down"
                 : "SHAPE MISMATCH");

  if (!json_path.empty()) {
    std::vector<const JobReport*> report_ptrs;
    for (const JobReport& r : reports) {
      report_ptrs.push_back(&r);
    }
    bench::CheckStatus(bench::WriteBenchJson(json_path, "fault_rates", Setup(),
                                             elapsed, report_ptrs),
                       "writing JSON report");
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bkup

int main(int argc, char** argv) {
  return bkup::Run(
      bkup::bench::JsonPathFromArgs(argc, argv, "BENCH_fault_rates.json"));
}
