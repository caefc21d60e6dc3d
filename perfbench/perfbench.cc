// perfbench: the repository benchmark.
//
//   perfbench --workload <local_tables|remote_dedup|live_fleet> --seed <n>
//             --seconds <s> --trace <0|1> [--corrupt-tape] [--git <sha>]
//             [--trace-out <path>]
//   perfbench --spec     # workloads and metrics, as BENCHMARK.json has them
//
// Each workload builds its volumes from the seed, runs its backup and
// restore jobs closed loop (one after another, or as the nightly scheduler
// dispatches them) on one thread, and checks every output: logical streams
// pass VerifyDumpStream, restored trees match their source by ChecksumTree,
// content Decode round-trips, and foreground load reports no errors. A
// workload iteration repeats until --seconds of host time have been
// measured; a host-time metric sums each step's median over iterations.
//
// Host time is measured from outside the simulator by timing calls into
// its public layers (perfbench/ledger.h). With --trace 1 the iterations
// alternate traced and untraced: traced ones record spans, additionally
// time each job's functional engines standalone on the same input, and
// yield the per-layer metrics; the tracing overhead is the traced iteration
// time, less that standalone work, minus the untraced iteration time. The
// last stdout line is the result as one JSON object.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/ledger.h"
#include "src/backup/jobs.h"
#include "src/backup/parallel.h"
#include "src/backup/remote.h"
#include "src/backup/scheduler.h"
#include "src/content/content.h"
#include "src/dump/verify.h"
#include "src/obs/json.h"
#include "src/util/checksum.h"
#include "src/util/random.h"
#include "src/workload/aging.h"
#include "src/workload/foreground.h"
#include "src/workload/population.h"

namespace perfbench {
namespace {

using namespace bkup;  // NOLINT(google-build-using-namespace)

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Self-test: flip one byte of the logical backup's tape before it is
  // restored (local_tables); the run must report a failed op, not abort.
  bool corrupt_tape = false;
  std::string git = "unknown";
  std::string trace_out;
};

// ------------------------------------------------------------ iteration ---

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

using TreeSums = std::map<std::string, uint32_t>;

// One workload iteration: its verdicts, simulated-result digest, and the
// host and simulated totals its metrics are computed from.
struct Iteration {
  Iteration(Ledger* l, uint32_t run_id, bool is_traced)
      : ledger(l), run(run_id), traced(is_traced) {}

  void Op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: FAILED op: %s\n", what.c_str());
    }
  }

  void Digest(uint64_t v) {
    uint8_t bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<uint8_t>(v >> (8 * i));
    }
    digest.Update(bytes);
  }
  void Digest(const std::string& text) {
    digest.Update(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t*>(text.data()), text.size()));
  }

  // A backup job's simulated result: raw stream bytes, bytes it put on its
  // medium (post content stages), and its streaming time (job elapsed
  // minus snapshot create/delete, the denominator of Table 2's MB/s).
  void RecordBackup(const std::string& what, const JobReport& r) {
    const uint64_t raw = r.stream_bytes;
    const uint64_t wire = r.content.any() ? r.content.wire_bytes : raw;
    backup_raw += raw;
    backup_wire += wire;
    backup_sim += r.StreamElapsed();
    AddJobLine(what, raw, wire, r.StreamElapsed());
    Digest(static_cast<uint64_t>(r.elapsed()));
    Digest(static_cast<uint64_t>(r.StreamElapsed()));
    Digest(raw);
    Digest(wire);
    Digest(r.content.dedup_hits);
  }
  void RecordRestore(const std::string& what, const JobReport& r,
                     uint64_t raw) {
    restore_raw += raw;
    restore_sim += r.StreamElapsed();
    AddJobLine(what, raw, raw, r.StreamElapsed());
    Digest(static_cast<uint64_t>(r.elapsed()));
    Digest(raw);
  }

  void AddJobLine(const std::string& what, uint64_t raw, uint64_t wire,
                  SimDuration sim) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-28s %10.3f %10.3f %10.3f %9.3f",
                  what.c_str(), raw / 1e6, wire / 1e6, SimToSeconds(sim),
                  Ratio(raw / 1e6, SimToSeconds(sim)));
    job_lines.push_back(line);
  }

  Ledger* ledger;
  uint32_t run;
  bool traced;
  std::vector<std::string> job_lines;  // per job: raw/wire MB, sim s, MB/s

  uint64_t attempted = 0;
  uint64_t failed = 0;
  Crc32cAccumulator digest;

  // Host seconds of the set-up steps, backup jobs and restore jobs, in the
  // order the iteration ran them. Iterations are deterministic, so position
  // k is the same step in every iteration.
  std::vector<double> setup_s;
  std::vector<double> backup_host_s;
  std::vector<double> restore_host_s;
  uint64_t backup_raw = 0;
  uint64_t backup_wire = 0;
  uint64_t restore_raw = 0;
  SimDuration backup_sim = 0;
  SimDuration restore_sim = 0;
  SimDuration makespan = 0;
  double sim_host_s = 0.0;  // host seconds inside SimEnvironment::Run
  uint64_t events = 0;
  // Standalone engine time for the jobs' own inputs (traced iterations).
  double engine_s = 0.0;
  // Host time of the work only traced iterations do (standalone engine
  // re-runs, standalone chunking, the CRC probe), so that the tracing
  // overhead can leave it out.
  double standalone_s = 0.0;
  // Per-layer counts and ratios that are not span times.
  std::map<std::string, double> layer;
};

// Runs whatever is spawned on `env` to completion inside span `span`.
double RunSim(Iteration* it, SimEnvironment* env, const std::string& span) {
  const double s = it->ledger->Time(span, [env] { env->Run(); });
  it->sim_host_s += s;
  return s;
}

// Spawns one job (built by `make` around a fresh latch), runs it, and
// appends its host seconds to `host_s`.
void RunJob(Iteration* it, SimEnvironment* env, std::vector<double>* host_s,
            const std::string& span,
            const std::function<Task(CountdownLatch*)>& make) {
  CountdownLatch done(env, 1);
  env->Spawn(make(&done));
  host_s->push_back(RunSim(it, env, span));
}

// --------------------------------------------------------------- checks ---

bool VerifyLogical(Iteration* it, std::span<const uint8_t> stream) {
  bool ok = false;
  it->ledger->Time("dump.verify", [&] {
    Result<DumpVerifyReport> report = VerifyDumpStream(stream);
    ok = report.ok() && report.value().readable;
  });
  return ok;
}

bool Sums(Iteration* it, const FsReader& reader, TreeSums* out) {
  bool ok = false;
  it->ledger->Time("workload.checksum_tree", [&] {
    Result<TreeSums> sums = ChecksumTree(reader);
    ok = sums.ok();
    if (ok) {
      *out = std::move(sums.value());
    }
  });
  return ok;
}

bool SameTree(Iteration* it, const TreeSums& want, const Filesystem& fs) {
  TreeSums got;
  return Sums(it, fs.LiveReader(), &got) && got == want && !want.empty();
}

// Mounts an image-restored volume and compares its tree with the source.
bool MountedTreeMatches(Iteration* it, const TreeSums& want, Volume* volume,
                        SimEnvironment* env) {
  Result<std::unique_ptr<Filesystem>> fs = Filesystem::Mount(volume, env);
  return fs.ok() && SameTree(it, want, *fs.value());
}

bool SameBytes(std::span<const uint8_t> a, std::span<const uint8_t> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

// Decodes a wire image and checks it round-trips to the raw stream. When
// the image is also a restore job's input, the decode is that job's
// standalone engine work.
bool DecodeMatches(Iteration* it, const ContentConfig& content,
                   std::span<const uint8_t> wire,
                   std::span<const uint8_t> raw, bool restore_input) {
  bool ok = false;
  const double s = it->ledger->Time("content.decode", [&] {
    Result<std::vector<uint8_t>> decoded = StagePipeline(content).Decode(wire);
    ok = decoded.ok() && SameBytes(decoded.value(), raw);
  });
  if (restore_input) {
    it->engine_s += s;
  }
  return ok;
}

// -------------------------------------------- standalone engine timings ---
// Traced iterations only, after the simulated work they shadow has run (or
// on inputs nothing later changes), so they never perturb simulated state.
// Each adds its time to standalone_s, and an engine's time to engine_s.

// Times one standalone engine call.
void Engine(Iteration* it, const std::string& span,
            const std::function<void()>& fn) {
  const double s = it->ledger->Time(span, fn);
  it->engine_s += s;
  it->standalone_s += s;
}

void StandaloneLogicalDump(Iteration* it, const FsReader& reader,
                           const LogicalDumpOptions& options) {
  Engine(it, "dump.logical_dump",
         [&] { (void)RunLogicalDump(reader, options); });
}

void StandaloneLogicalRestore(Iteration* it, SimEnvironment* env,
                              const VolumeGeometry& geom,
                              std::span<const uint8_t> stream) {
  auto volume = Volume::Create(env, "standalone.lrestore", geom);
  Result<std::unique_ptr<Filesystem>> fs = Filesystem::Format(volume.get(), env);
  if (!fs.ok()) {
    return;
  }
  Engine(it, "dump.logical_restore", [&] {
    (void)RunLogicalRestore(fs.value().get(), stream, LogicalRestoreOptions{});
  });
}

void StandaloneImageDump(Iteration* it, Volume* volume, uint32_t parts) {
  for (uint32_t k = 0; k < parts; ++k) {
    ImageDumpOptions options;
    options.part_index = k;
    options.part_count = parts;
    Engine(it, "image.dump", [&] { (void)RunImageDump(volume, options); });
  }
}

void StandaloneImageRestore(Iteration* it, SimEnvironment* env,
                            const VolumeGeometry& geom,
                            std::span<const uint8_t> stream) {
  auto volume = Volume::Create(env, "standalone.irestore", geom);
  Engine(it, "image.restore",
         [&] { (void)RunImageRestore(volume.get(), stream); });
}

// Chunking and encoding of one backup's raw stream, against `scratch`: a
// private index fed the same streams in the same order as the real one.
// Chunking is part of Encode, so only Encode counts as engine time.
void StandaloneContent(Iteration* it, ContentConfig content,
                       ChunkIndex* scratch, std::span<const uint8_t> raw) {
  content.index = scratch;
  const StagePipeline pipeline(content);
  it->standalone_s += it->ledger->Time(
      "content.chunk", [&] { (void)pipeline.ChunkBoundaries(raw); });
  Engine(it, "content.encode", [&] { (void)pipeline.Encode(raw); });
}

uint32_t g_crc_sink = 0;

// Crc32c over the run's own dump stream, repeated to at least 64 MiB.
void MeasureCrc(Iteration* it, std::span<const uint8_t> stream) {
  if (stream.empty()) {
    return;
  }
  uint64_t bytes = 0;
  const double s = it->ledger->Time("util.crc32c", [&] {
    while (bytes < 64 * kMiB) {
      g_crc_sink ^= Crc32c(stream);
      bytes += stream.size();
    }
  });
  it->standalone_s += s;
  it->layer["util.crc32c_MBps"] =
      BytesPerSecToMBps(static_cast<double>(bytes) / s);
}

void CountDevices(Iteration* it, const std::vector<TapeDrive*>& drives,
                  const std::vector<const Volume*>& volumes,
                  const NetLink* link) {
  for (const TapeDrive* d : drives) {
    it->layer["block.tape_repositions"] += static_cast<double>(d->repositions());
    it->layer["block.tape_MB"] += static_cast<double>(d->bytes_transferred()) / 1e6;
  }
  for (const Volume* v : volumes) {
    for (const auto& disk : v->disks()) {
      it->layer["block.disk_MB"] +=
          static_cast<double>(disk->bytes_transferred()) / 1e6;
    }
  }
  if (link != nullptr) {
    it->layer["net.link_MB"] +=
        static_cast<double>(link->bytes_transferred()) / 1e6;
    it->layer["net.frames"] += static_cast<double>(link->frames_transferred());
  }
}

// ------------------------------------------------------- volume building ---

// The paper's home volume shape: 3 RAID groups of 10 drives.
VolumeGeometry HomeGeometry() {
  VolumeGeometry geom;
  geom.num_raid_groups = 3;
  geom.disks_per_group = 10;
  geom.blocks_per_disk = 2048;
  return geom;
}

VolumeGeometry FleetGeometry() {
  VolumeGeometry geom;
  geom.num_raid_groups = 1;
  geom.disks_per_group = 4;
  geom.blocks_per_disk = 2048;
  return geom;
}

// Formats `volume` and populates it; the returned file system is null on
// failure.
std::unique_ptr<Filesystem> Populate(Iteration* it, SimEnvironment* env,
                                     Volume* volume,
                                     const WorkloadParams& params,
                                     WorkloadStats* stats) {
  std::unique_ptr<Filesystem> fs;
  it->setup_s.push_back(it->ledger->Time("workload.populate", [&] {
    Result<std::unique_ptr<Filesystem>> formatted =
        Filesystem::Format(volume, env);
    if (!formatted.ok()) {
      return;
    }
    Result<WorkloadStats> populated =
        PopulateFilesystem(formatted.value().get(), params);
    if (populated.ok()) {
      *stats = populated.value();
      fs = std::move(formatted.value());
    }
  }));
  return fs;
}

bool Age(Iteration* it, Filesystem* fs, const AgingParams& params) {
  bool ok = false;
  it->setup_s.push_back(it->ledger->Time("workload.age", [&] {
    ok = AgeFilesystem(fs, params).ok();
  }));
  return ok;
}

// Overwrites one block in place in exactly round(fraction * files) files,
// drawn by seed: a night's edit traffic. A fixed count keeps how much two
// nights share the same from seed to seed.
bool Churn(Iteration* it, Filesystem* fs, double fraction, uint64_t seed) {
  bool ok = true;
  it->setup_s.push_back(it->ledger->Time("workload.churn", [&] {
    std::vector<std::pair<std::string, uint64_t>> files;
    ok = WalkTree(fs->LiveReader(), "/",
                  [&files](const std::string& path, Inum,
                           const InodeData& inode) {
                    if (inode.type == InodeType::kFile) {
                      files.emplace_back(path, inode.size);
                    }
                  })
             .ok();
    Rng rng(seed);
    const size_t count = static_cast<size_t>(
        fraction * static_cast<double>(files.size()) + 0.5);
    for (size_t i = 0; i < count; ++i) {  // partial Fisher-Yates
      std::swap(files[i], files[i + rng.Below(files.size() - i)]);
    }
    files.resize(count);
    std::vector<uint8_t> patch(kBlockSize);
    for (const auto& [path, size] : files) {
      if (!ok) {
        break;
      }
      Result<Inum> inum = fs->LookupPath(path);
      if (!inum.ok()) {
        ok = false;
        continue;
      }
      rng.Fill(patch);
      const uint64_t offset =
          size > kBlockSize ? rng.Below(size / kBlockSize) * kBlockSize : 0;
      ok = fs->Write(inum.value(), offset, patch).ok();
    }
    ok = ok && fs->ConsistencyPoint().ok();
  }));
  return ok;
}

struct LocalDrives {
  LocalDrives(SimEnvironment* env, int n) {
    for (int i = 0; i < n; ++i) {
      tapes.push_back(
          std::make_unique<Tape>("tape" + std::to_string(i), 8 * kGiB));
      drives.push_back(
          std::make_unique<TapeDrive>(env, "dlt" + std::to_string(i)));
      drives.back()->LoadMedia(tapes.back().get());
    }
  }
  // Fresh media in every drive.
  void Reset() {
    for (size_t i = 0; i < drives.size(); ++i) {
      tapes[i]->Erase();
      drives[i]->LoadMedia(tapes[i].get());
    }
  }
  std::vector<TapeDrive*> Ptrs() const {
    std::vector<TapeDrive*> out;
    for (const auto& d : drives) {
      out.push_back(d.get());
    }
    return out;
  }
  std::vector<std::unique_ptr<Tape>> tapes;
  std::vector<std::unique_ptr<TapeDrive>> drives;
};

WorkloadParams Population(uint64_t seed, uint64_t bytes, uint32_t trees) {
  WorkloadParams params;
  params.seed = seed;
  params.target_bytes = bytes;
  params.quota_trees = trees;
  return params;
}

uint64_t SeedFor(const Options& opt, uint64_t stream) {
  return opt.seed * 1000003 + stream;
}

// -------------------------------------------------------- local_tables ---
// Tables 2-3 on one DLT drive (logical backup and restore, image backup
// and restore) and Table 5's 4-drive parallel backups, on an aged
// 4-quota-tree home volume with content stages off.

constexpr uint64_t kLocalDataBytes = 32 * kMiB;
constexpr uint32_t kLocalQuotaTrees = 4;

void RunLocalTables(const Options& opt, Iteration* it) {
  SimEnvironment env;
  Filer filer(&env, FilerModel::F630());
  const VolumeGeometry geom = HomeGeometry();
  auto home = Volume::Create(&env, "home", geom);
  const WorkloadParams params =
      Population(SeedFor(opt, 1), kLocalDataBytes, kLocalQuotaTrees);
  WorkloadStats stats;
  std::unique_ptr<Filesystem> fs =
      Populate(it, &env, home.get(), params, &stats);
  AgingParams aging;
  aging.seed = SeedFor(opt, 2);
  aging.rounds = 3;
  aging.churn_fraction = 0.3;
  TreeSums source;
  const bool setup_ok = fs != nullptr && Age(it, fs.get(), aging) &&
                        Sums(it, fs->LiveReader(), &source);
  it->Op(setup_ok, "local_tables: populate + age");
  if (!setup_ok) {
    return;
  }

  LocalDrives local(&env, kLocalQuotaTrees);
  TapeDrive* d0 = local.drives[0].get();
  TapeDrive* d1 = local.drives[1].get();
  const SimTime t0 = env.now();

  // Logical backup to one drive.
  LogicalDumpOptions dump_opt;
  dump_opt.volume_name = "home";
  LogicalBackupJobResult lb;
  RunJob(it, &env, &it->backup_host_s, "backup.logical_backup",
         [&](CountdownLatch* done) {
           return LogicalBackupJob(&filer, fs.get(), d0, dump_opt, &lb, done);
         });
  it->RecordBackup("logical backup", lb.report);
  it->Op(lb.report.status.ok() &&
             VerifyLogical(it, local.tapes[0]->contents()),
         "logical backup");
  if (opt.corrupt_tape && local.tapes[0]->size() > 0) {
    (void)local.tapes[0]->CorruptRange(local.tapes[0]->size() / 2, 1);
  }

  // Logical restore onto a fresh file system.
  auto lvol = Volume::Create(&env, "lrestore", geom);
  Result<std::unique_ptr<Filesystem>> lfs = Filesystem::Format(lvol.get(), &env);
  if (lfs.ok()) {
    d0->Rewind();
    LogicalRestoreJobResult lr;
    RunJob(it, &env, &it->restore_host_s, "backup.logical_restore",
           [&](CountdownLatch* done) {
             return LogicalRestoreJob(&filer, lfs.value().get(), d0,
                                      LogicalRestoreOptions{}, false, &lr,
                                      done);
           });
    it->RecordRestore("logical restore", lr.report, lb.report.stream_bytes);
    it->Op(lr.report.status.ok() && SameTree(it, source, *lfs.value()),
           "logical restore");
  } else {
    it->Op(false, "logical restore: format target");
  }

  // Image backup to one drive.
  ImageBackupJobResult ib;
  RunJob(it, &env, &it->backup_host_s, "backup.image_backup",
         [&](CountdownLatch* done) {
           return ImageBackupJob(&filer, fs.get(), d1, ImageDumpOptions{},
                                 true, &ib, done);
         });
  it->RecordBackup("image backup", ib.report);
  it->Op(ib.report.status.ok() &&
             SameBytes(local.tapes[1]->contents(), ib.dump.stream),
         "image backup");

  // Image restore onto a fresh volume.
  auto ivol = Volume::Create(&env, "irestore", geom);
  d1->Rewind();
  ImageRestoreJobResult ir;
  RunJob(it, &env, &it->restore_host_s, "backup.image_restore",
         [&](CountdownLatch* done) {
           return ImageRestoreJob(&filer, ivol.get(), d1, &ir, done);
         });
  it->RecordRestore("image restore", ir.report, ib.report.stream_bytes);
  it->Op(ir.report.status.ok() &&
             MountedTreeMatches(it, source, ivol.get(), &env),
         "image restore");

  // Table 5: one logical dump per quota tree, four drives.
  std::vector<std::string> subtrees;
  for (uint32_t k = 0; k < kLocalQuotaTrees; ++k) {
    subtrees.push_back(QuotaTreePath(k));
  }
  local.Reset();
  ParallelLogicalBackupResult plb;
  RunJob(it, &env, &it->backup_host_s, "backup.parallel_logical_backup",
         [&](CountdownLatch* done) {
           return ParallelLogicalBackupJob(&filer, fs.get(), local.Ptrs(),
                                           subtrees, dump_opt, &plb, done);
         });
  it->RecordBackup("parallel logical backup", plb.merged);
  bool parts_ok = plb.merged.status.ok();
  for (const auto& tape : local.tapes) {
    parts_ok = parts_ok && VerifyLogical(it, tape->contents());
  }
  it->Op(parts_ok, "parallel logical backup");

  // Table 5: one image dump striped over four drives.
  local.Reset();
  ParallelImageBackupResult pib;
  RunJob(it, &env, &it->backup_host_s, "backup.parallel_image_backup",
         [&](CountdownLatch* done) {
           return ParallelImageBackupJob(&filer, fs.get(), local.Ptrs(),
                                         ImageDumpOptions{}, true, &pib, done);
         });
  it->RecordBackup("parallel image backup", pib.merged);
  parts_ok = pib.merged.status.ok() && pib.parts.size() == local.tapes.size();
  for (size_t k = 0; parts_ok && k < pib.parts.size(); ++k) {
    parts_ok = SameBytes(local.tapes[k]->contents(), pib.parts[k]->dump.stream);
  }
  it->Op(parts_ok, "parallel image backup");

  it->makespan += env.now() - t0;
  it->events += env.events_processed();
  CountDevices(it, local.Ptrs(), {home.get(), lvol.get(), ivol.get()},
               nullptr);

  if (it->traced) {
    const FsReader reader = fs->LiveReader();
    StandaloneLogicalDump(it, reader, dump_opt);
    for (const std::string& subtree : subtrees) {
      LogicalDumpOptions part = dump_opt;
      part.subtree = subtree;
      StandaloneLogicalDump(it, reader, part);
    }
    StandaloneImageDump(it, home.get(), 1);
    StandaloneImageDump(it, home.get(), kLocalQuotaTrees);
    StandaloneLogicalRestore(it, &env, geom, lb.dump.stream);
    StandaloneImageRestore(it, &env, geom, ib.dump.stream);
    MeasureCrc(it, lb.dump.stream);
  }
}

// -------------------------------------------------------- remote_dedup ---
// Two nights over a NetLink to a TapeServer with chunk+dedup+compress+crc
// sharing one ChunkIndex: a cold-index logical full, ~5% block churn, a
// warm-index logical full plus an image full, then remote restores of
// night 2. Unaged volume.

constexpr uint64_t kRemoteDataBytes = 64 * kMiB;
constexpr double kNightlyChurn = 0.05;

// VTL-class server drives, so the link and the filer, not the media, bound
// the remote stream.
TapeTiming VtlTiming() {
  TapeTiming t;
  t.stream_mb_per_s = 600.0;
  t.stream_tolerance = 50 * kMillisecond;
  t.reposition_penalty = 5 * kMillisecond;
  t.rewind_time = 1 * kSecond;
  t.load_time = 2 * kSecond;
  return t;
}

// A later FC-AL shelf (faster media, shorter seeks, same arm count): with
// paper-era spindles the remote dump is seek-bound and the link and content
// stages would hardly matter.
VolumeGeometry RemoteGeometry() {
  VolumeGeometry geom = HomeGeometry();
  geom.disk_timing.transfer_mb_per_s = 40.0;
  geom.disk_timing.avg_seek_ms = 4.0;
  geom.disk_timing.track_seek_ms = 0.5;
  geom.disk_timing.rotational_ms = 2.0;
  return geom;
}

void RunRemoteDedup(const Options& opt, Iteration* it) {
  SimEnvironment env;
  Filer filer(&env, FilerModel::F630());
  const VolumeGeometry geom = RemoteGeometry();
  auto home = Volume::Create(&env, "home", geom);
  const WorkloadParams params =
      Population(SeedFor(opt, 11), kRemoteDataBytes, 1);
  WorkloadStats stats;
  std::unique_ptr<Filesystem> fs =
      Populate(it, &env, home.get(), params, &stats);
  it->Op(fs != nullptr, "remote_dedup: populate");
  if (fs == nullptr) {
    return;
  }

  NetLink link(&env, "lan");
  TapeServer server(&env, "vault");
  std::vector<std::unique_ptr<Tape>> media;
  std::vector<TapeDrive*> drives;
  for (int i = 0; i < 3; ++i) {
    drives.push_back(server.AddDrive("vtl" + std::to_string(i), VtlTiming()));
    media.push_back(
        std::make_unique<Tape>("vault." + std::to_string(i), 8 * kGiB));
    drives.back()->LoadMedia(media.back().get());
  }
  ChunkIndex index;
  ContentConfig content;
  content.chunk = content.dedup = content.compress = content.crc = true;
  content.index = &index;
  auto target = [&](int k) {
    RemoteTarget t;
    t.link = &link;
    t.server = &server;
    t.drive = drives[k];
    t.content = content;
    return t;
  };
  ChunkIndex scratch;  // standalone-encode twin of `index`
  const SimTime t0 = env.now();
  uint64_t chunks = 0;
  uint64_t hits = 0;
  uint64_t retransmits = 0;
  auto count_content = [&](const JobReport& r) {
    chunks += r.content.chunks;
    hits += r.content.dedup_hits;
    retransmits += r.faults.link_retransmits;
  };

  LogicalDumpOptions dump_opt;
  dump_opt.volume_name = "home";
  auto night = [&](int k, const char* what) {
    LogicalBackupJobResult r;
    RunJob(it, &env, &it->backup_host_s, "backup.remote_logical_backup",
           [&](CountdownLatch* done) {
             return RemoteLogicalBackupJob(&filer, fs.get(), target(k),
                                           dump_opt, &r, done);
           });
    it->RecordBackup(what, r.report);
    count_content(r.report);
    it->Op(r.report.status.ok() &&
               DecodeMatches(it, content, media[k]->contents(), r.dump.stream,
                             /*restore_input=*/k == 1) &&
               VerifyLogical(it, r.dump.stream),
           what);
    if (it->traced) {
      StandaloneLogicalDump(it, fs->LiveReader(), dump_opt);
      StandaloneContent(it, content, &scratch, r.dump.stream);
    }
    return r;
  };

  night(0, "night-1 remote logical full");
  TreeSums source;
  const bool churned = Churn(it, fs.get(), kNightlyChurn, SeedFor(opt, 12)) &&
                       Sums(it, fs->LiveReader(), &source);
  it->Op(churned, "remote_dedup: churn");
  const LogicalBackupJobResult night2 = night(1, "night-2 remote logical full");

  ImageBackupJobResult ib;
  RunJob(it, &env, &it->backup_host_s, "backup.remote_image_backup",
         [&](CountdownLatch* done) {
           return RemoteImageBackupJob(&filer, fs.get(), target(2),
                                       ImageDumpOptions{}, true, &ib, done);
         });
  it->RecordBackup("night-2 remote image full", ib.report);
  count_content(ib.report);
  it->Op(ib.report.status.ok() &&
             DecodeMatches(it, content, media[2]->contents(), ib.dump.stream,
                           /*restore_input=*/true),
         "night-2 remote image full");
  if (it->traced) {
    StandaloneImageDump(it, home.get(), 1);
    StandaloneContent(it, content, &scratch, ib.dump.stream);
  }

  // Restore night 2, logical and image, across the link.
  auto lvol = Volume::Create(&env, "lrestore", geom);
  Result<std::unique_ptr<Filesystem>> lfs = Filesystem::Format(lvol.get(), &env);
  if (lfs.ok()) {
    drives[1]->Rewind();
    LogicalRestoreJobResult lr;
    RunJob(it, &env, &it->restore_host_s, "backup.remote_logical_restore",
           [&](CountdownLatch* done) {
             return RemoteLogicalRestoreJob(&filer, lfs.value().get(),
                                            target(1), LogicalRestoreOptions{},
                                            false, &lr, done);
           });
    it->RecordRestore("remote logical restore", lr.report,
                      night2.report.stream_bytes);
    retransmits += lr.report.faults.link_retransmits;
    it->Op(lr.report.status.ok() && SameTree(it, source, *lfs.value()),
           "remote logical restore");
  } else {
    it->Op(false, "remote logical restore: format target");
  }

  auto ivol = Volume::Create(&env, "irestore", geom);
  drives[2]->Rewind();
  ImageRestoreJobResult ir;
  RunJob(it, &env, &it->restore_host_s, "backup.remote_image_restore",
         [&](CountdownLatch* done) {
           return RemoteImageRestoreJob(&filer, ivol.get(), target(2), &ir,
                                        done);
         });
  it->RecordRestore("remote image restore", ir.report,
                      ib.report.stream_bytes);
  retransmits += ir.report.faults.link_retransmits;
  it->Op(ir.report.status.ok() &&
             MountedTreeMatches(it, source, ivol.get(), &env),
         "remote image restore");

  it->makespan += env.now() - t0;
  it->events += env.events_processed();
  it->Digest(index.size());
  it->Digest(index.stored_bytes());
  it->layer["content.dedup_hit_ratio"] =
      chunks > 0 ? static_cast<double>(hits) / static_cast<double>(chunks)
                 : 0.0;
  it->layer["content.chunks"] = static_cast<double>(chunks);
  it->layer["content.index_MB"] =
      static_cast<double>(index.stored_bytes()) / 1e6;
  it->layer["net.retransmits"] = static_cast<double>(retransmits);
  CountDevices(it, drives, {home.get(), lvol.get(), ivol.get()}, &link);

  if (it->traced) {
    StandaloneLogicalRestore(it, &env, geom, night2.dump.stream);
    StandaloneImageRestore(it, &env, geom, ib.dump.stream);
    MeasureCrc(it, night2.dump.stream);
  }
}

// ---------------------------------------------------------- live_fleet ---
// One NightlyScheduler night: 8 small aged volumes on 2 drives mixing
// logical full, logical incremental, image and remote image, while a
// count-terminated ForegroundLoad serves vol0. Afterwards one logical full
// and one image are restored from the night's media and checked.

constexpr int kFleetVolumes = 8;
constexpr uint64_t kFleetVolumeBytes = 12 * kMiB;
constexpr double kIncrementalChurn = 0.1;
constexpr uint64_t kFgOpsPerClient = 400;

BackupMode FleetMode(int i) {
  static constexpr BackupMode kModes[] = {
      BackupMode::kLogicalFull, BackupMode::kLogicalIncremental,
      BackupMode::kImage, BackupMode::kRemoteImage};
  return kModes[i % 4];
}

bool IsLogical(BackupMode mode) {
  return mode == BackupMode::kLogicalFull ||
         mode == BackupMode::kLogicalIncremental;
}

// The first media of a volume's final attempt, or null.
const Tape* FirstMedia(TapeLibrary* library, const VolumeOutcome& out) {
  if (out.part_media.empty() || out.part_media[0].empty()) {
    return nullptr;
  }
  Result<size_t> slot = library->SlotOfLabel(out.part_media[0][0]);
  return slot.ok() ? library->TapeInSlot(slot.value()) : nullptr;
}

void RunLiveFleet(const Options& opt, Iteration* it) {
  SimEnvironment env;
  Filer filer(&env, FilerModel::F630());
  TapeLibrary library("fleet", 64 * kMiB, 0);
  SupervisionPolicy policy;
  NetLink link(&env, "wan");
  TapeServer server(&env, "vault", &library);
  const VolumeGeometry geom = FleetGeometry();

  std::vector<std::unique_ptr<Volume>> volumes;
  std::vector<std::unique_ptr<Filesystem>> filesystems;
  std::vector<uint64_t> bytes;
  bool setup_ok = true;
  for (int i = 0; i < kFleetVolumes && setup_ok; ++i) {
    volumes.push_back(
        Volume::Create(&env, "vol" + std::to_string(i), geom));
    const WorkloadParams params = Population(
        SeedFor(opt, 100 + static_cast<uint64_t>(i)), kFleetVolumeBytes, 1);
    WorkloadStats stats;
    filesystems.push_back(
        Populate(it, &env, volumes.back().get(), params, &stats));
    bytes.push_back(stats.bytes);
    AgingParams aging;
    aging.seed = SeedFor(opt, 200 + static_cast<uint64_t>(i));
    aging.rounds = 2;
    setup_ok = filesystems.back() != nullptr &&
               Age(it, filesystems.back().get(), aging);
  }
  // An hour later, the incremental volumes see a day's edits.
  env.RunUntil(env.now() + kHour);
  const int64_t base_time = env.now();
  for (int i = 0; i < kFleetVolumes && setup_ok; ++i) {
    if (FleetMode(i) == BackupMode::kLogicalIncremental) {
      setup_ok = Churn(it, filesystems[i].get(), kIncrementalChurn,
                       SeedFor(opt, 300 + static_cast<uint64_t>(i)));
    }
  }
  // Restore checks compare against these trees (vol4: logical full without
  // foreground load; vol2: image).
  constexpr int kLogicalCheck = 4;
  constexpr int kImageCheck = 2;
  TreeSums logical_sums;
  TreeSums image_sums;
  setup_ok = setup_ok &&
             Sums(it, filesystems[kLogicalCheck]->LiveReader(), &logical_sums) &&
             Sums(it, filesystems[kImageCheck]->LiveReader(), &image_sums);
  it->Op(setup_ok, "live_fleet: populate + age + churn");
  if (!setup_ok) {
    return;
  }

  std::vector<VolumeSpec> specs;
  for (int i = 0; i < kFleetVolumes; ++i) {
    VolumeSpec spec;
    spec.name = volumes[i]->name();
    spec.fs = filesystems[i].get();
    spec.mode = FleetMode(i);
    spec.estimated_bytes = bytes[i];
    spec.deadline = 4 * kHour;
    if (spec.mode == BackupMode::kLogicalIncremental) {
      spec.level = 1;
      spec.base_time = base_time;
      spec.estimated_bytes = bytes[i] / 5;
      spec.affinity_drive = (i / 4) % 2;
    }
    specs.push_back(std::move(spec));
  }
  FleetConfig config;
  config.drives = {server.AddDrive("sd0"), server.AddDrive("sd1")};
  config.library = &library;
  config.supervision = &policy;
  config.link = &link;
  config.server = &server;
  NightlyScheduler scheduler(&filer, config, specs);
  NightPlan plan;
  it->ledger->Time("sched.plan", [&] { plan = scheduler.BuildPlan(); });
  it->Digest(plan.Serialize(specs));

  // The standalone engine run for volume i's night job (traced iterations).
  auto standalone_dump = [&](int i) {
    if (IsLogical(specs[i].mode)) {
      LogicalDumpOptions options;
      options.level = specs[i].level;
      options.base_time = specs[i].base_time;
      options.volume_name = specs[i].name;
      StandaloneLogicalDump(it, filesystems[i]->LiveReader(), options);
    } else {
      StandaloneImageDump(it, volumes[i].get(), 1);
    }
  };
  // The foreground load's volume changes during the night, so its engine
  // run takes the tree the night starts from.
  constexpr int kForegroundVolume = 0;
  if (it->traced) {
    standalone_dump(kForegroundVolume);
  }

  ForegroundParams fg_params;
  fg_params.seed = SeedFor(opt, 400);
  fg_params.num_clients = 8;
  fg_params.ops_per_client = kFgOpsPerClient;
  fg_params.mean_think_time = 500 * kMillisecond;
  ForegroundLoad fg(&filer, filesystems[kForegroundVolume].get(), fg_params);

  NightReport night;
  CountdownLatch night_done(&env, 1);
  CountdownLatch fg_done(&env, 1);
  env.Spawn(scheduler.Run(&night, &night_done));
  env.Spawn(fg.Run(&fg_done));
  it->backup_host_s.push_back(RunSim(it, &env, "backup.night"));

  bool night_ok = night.status.ok() &&
                  night.volumes.size() == static_cast<size_t>(kFleetVolumes);
  std::vector<const Tape*> first_media(kFleetVolumes, nullptr);
  for (size_t i = 0; night_ok && i < night.volumes.size(); ++i) {
    const VolumeOutcome& out = night.volumes[i];
    it->RecordBackup(out.name + " " + BackupModeName(out.mode), out.report);
    first_media[i] = FirstMedia(&library, out);
    bool ok = out.status.ok() && first_media[i] != nullptr;
    if (ok && IsLogical(out.mode)) {
      ok = VerifyLogical(it, first_media[i]->contents());
    }
    it->Op(ok, "night volume " + out.name);
  }
  if (!night_ok) {
    it->Op(false, "night: " + night.status.ToString());
    return;
  }
  const ForegroundStats& fgs = fg.stats();
  it->attempted += fgs.total_ops();
  it->failed += fgs.errors;
  const LatencySummary lat = fg.Summarize();
  it->Digest(night.SerializeExecution());
  it->Digest(static_cast<uint64_t>(night.makespan()));
  it->Digest(fg.TraceCrc());
  it->Digest(fg.OpMixCrc());
  it->makespan += night.makespan();
  it->layer["sched.backfills"] = static_cast<double>(night.backfills);
  it->layer["sched.reassignments"] = static_cast<double>(night.reassignments);
  it->layer["workload.fg_ops"] = static_cast<double>(fgs.total_ops());
  it->layer["workload.fg_errors"] = static_cast<double>(fgs.errors);
  it->layer["workload.fg_p99_ms"] = lat.p99_us / 1e3;
  it->layer["workload.fg_samples"] = static_cast<double>(lat.count);
  uint64_t retransmits = 0;
  for (const VolumeOutcome& out : night.volumes) {
    retransmits += out.report.faults.link_retransmits;
  }
  it->layer["net.retransmits"] = static_cast<double>(retransmits);

  // Restore a logical full and an image from the night's media.
  TapeDrive* drive = config.drives[0];
  auto load = [&](int vol) {
    if (first_media[vol] == nullptr) {
      return false;
    }
    Result<size_t> slot =
        library.SlotOfLabel(night.volumes[vol].part_media[0][0]);
    if (!slot.ok() || !library.LoadSlot(drive, slot.value()).ok()) {
      return false;
    }
    drive->Rewind();
    return true;
  };
  auto lvol = Volume::Create(&env, "lrestore", geom);
  Result<std::unique_ptr<Filesystem>> lfs = Filesystem::Format(lvol.get(), &env);
  if (lfs.ok() && load(kLogicalCheck)) {
    LogicalRestoreJobResult lr;
    RunJob(it, &env, &it->restore_host_s, "backup.logical_restore",
           [&](CountdownLatch* done) {
             return LogicalRestoreJob(&filer, lfs.value().get(), drive,
                                      LogicalRestoreOptions{}, false, &lr,
                                      done);
           });
    it->RecordRestore("fleet logical restore", lr.report,
                      night.volumes[kLogicalCheck].report.stream_bytes);
    it->Op(lr.report.status.ok() && SameTree(it, logical_sums, *lfs.value()),
           "fleet logical restore");
  } else {
    it->Op(false, "fleet logical restore: load media");
  }
  auto ivol = Volume::Create(&env, "irestore", geom);
  if (load(kImageCheck)) {
    ImageRestoreJobResult ir;
    RunJob(it, &env, &it->restore_host_s, "backup.image_restore",
           [&](CountdownLatch* done) {
             return ImageRestoreJob(&filer, ivol.get(), drive, &ir, done);
           });
    it->RecordRestore("fleet image restore", ir.report,
                      night.volumes[kImageCheck].report.stream_bytes);
    it->Op(ir.report.status.ok() &&
               MountedTreeMatches(it, image_sums, ivol.get(), &env),
           "fleet image restore");
  } else {
    it->Op(false, "fleet image restore: load media");
  }

  it->events += env.events_processed();
  std::vector<const Volume*> all_volumes = {lvol.get(), ivol.get()};
  for (const auto& v : volumes) {
    all_volumes.push_back(v.get());
  }
  CountDevices(it, config.drives, all_volumes, &link);

  if (it->traced) {
    for (int i = 0; i < kFleetVolumes; ++i) {
      if (i != kForegroundVolume) {
        standalone_dump(i);
      }
    }
    if (first_media[kLogicalCheck] != nullptr &&
        first_media[kImageCheck] != nullptr) {
      StandaloneLogicalRestore(it, &env, geom,
                               first_media[kLogicalCheck]->contents());
      StandaloneImageRestore(it, &env, geom,
                             first_media[kImageCheck]->contents());
      MeasureCrc(it, first_media[kLogicalCheck]->contents());
    }
  }
}

// ------------------------------------------------------------- metrics ---
// The one definition of the workloads and their metrics: result lines carry
// these names and units, and `--spec` prints them for BENCHMARK.json.

struct WorkloadDef {
  const char* name;
  void (*run)(const Options&, Iteration*);
  const char* why;
};

constexpr WorkloadDef kWorkloads[] = {
    {"local_tables", RunLocalTables,
     "Tables 2-3 single-drive logical/image backup and restore plus Table 5 "
     "4-drive backups on an aged home volume: CRC, dump and image engines, "
     "fs; content and net idle"},
    {"remote_dedup", RunRemoteDedup,
     "two remote nights through chunk+dedup+compress+crc over one ChunkIndex "
     "with 5% churn, then remote restores: content stages and net do most of "
     "the work, no aging"},
    {"live_fleet", RunLiveFleet,
     "scheduler night of 8 small aged volumes on 2 drives beside live "
     "foreground load: most jobs, events, fs metadata ops and setup per "
     "byte"},
};

// `bound` is the share of the parent's median by which the metric may
// worsen before a change is rejected.
struct EndToEndDef {
  const char* name;
  const char* unit;
  const char* better;
  double bound;
};

constexpr EndToEndDef kEndToEnd[] = {
    {"setup_s", "s", "lower", 0.25},
    {"backup_host_MBps", "MB/s", "higher", 0.25},
    {"restore_host_MBps", "MB/s", "higher", 0.25},
    {"peak_rss_MB", "MB", "lower", 0.25},
    {"sim_backup_MBps", "MB/s", "higher", 0.25},
    {"sim_restore_MBps", "MB/s", "higher", 0.15},
    {"wire_per_raw", "ratio", "lower", 0.1},
    {"sim_makespan_s", "s", "lower", 0.05},
};

// A per-layer metric with a `span` is the summed host time of the spans of
// that name in one traced iteration; any other is a value PerLayer() or
// Main() computes, or the iteration fills into Iteration::layer (0 where the
// workload has no such layer).
struct PerLayerDef {
  const char* name;
  const char* unit;
  const char* better;
  const char* span = nullptr;
};

constexpr PerLayerDef kPerLayer[] = {
    {"workload.populate_s", "s", "lower", "workload.populate"},
    {"workload.age_s", "s", "lower", "workload.age"},
    {"workload.churn_s", "s", "lower", "workload.churn"},
    {"workload.checksum_tree_s", "s", "lower", "workload.checksum_tree"},
    {"workload.fg_ops", "count", "higher"},
    {"workload.fg_errors", "count", "lower"},
    {"workload.fg_p99_ms", "ms", "lower"},
    {"workload.fg_samples", "count", "higher"},
    {"util.crc32c_MBps", "MB/s", "higher"},
    {"dump.logical_dump_s", "s", "lower", "dump.logical_dump"},
    {"dump.logical_restore_s", "s", "lower", "dump.logical_restore"},
    {"dump.verify_s", "s", "lower", "dump.verify"},
    {"image.dump_s", "s", "lower", "image.dump"},
    {"image.restore_s", "s", "lower", "image.restore"},
    {"content.chunk_s", "s", "lower", "content.chunk"},
    {"content.encode_s", "s", "lower", "content.encode"},
    {"content.decode_s", "s", "lower", "content.decode"},
    {"content.dedup_hit_ratio", "ratio", "higher"},
    {"content.chunks", "count", "lower"},
    {"content.index_MB", "MB", "lower"},
    {"backup.logical_backup.host_s", "s", "lower", "backup.logical_backup"},
    {"backup.logical_restore.host_s", "s", "lower", "backup.logical_restore"},
    {"backup.image_backup.host_s", "s", "lower", "backup.image_backup"},
    {"backup.image_restore.host_s", "s", "lower", "backup.image_restore"},
    {"backup.parallel_logical_backup.host_s", "s", "lower",
     "backup.parallel_logical_backup"},
    {"backup.parallel_image_backup.host_s", "s", "lower",
     "backup.parallel_image_backup"},
    {"backup.remote_logical_backup.host_s", "s", "lower",
     "backup.remote_logical_backup"},
    {"backup.remote_logical_restore.host_s", "s", "lower",
     "backup.remote_logical_restore"},
    {"backup.remote_image_backup.host_s", "s", "lower",
     "backup.remote_image_backup"},
    {"backup.remote_image_restore.host_s", "s", "lower",
     "backup.remote_image_restore"},
    {"backup.night.host_s", "s", "lower", "backup.night"},
    {"backup.replay_self_s", "s", "lower"},
    {"sim.events", "count", "lower"},
    {"sim.events_per_host_s", "1/s", "higher"},
    {"sched.plan_s", "s", "lower", "sched.plan"},
    {"sched.backfills", "count", "higher"},
    {"sched.reassignments", "count", "lower"},
    {"block.tape_repositions", "count", "lower"},
    {"block.tape_MB", "MB", "lower"},
    {"block.disk_MB", "MB", "lower"},
    {"net.link_MB", "MB", "lower"},
    {"net.frames", "count", "lower"},
    {"net.retransmits", "count", "lower"},
    {"trace.standalone_s", "s", "lower"},
    {"trace.overhead_s", "s", "lower"},
};

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Sum(const std::vector<double>& v) {
  double total = 0.0;
  for (double s : v) {
    total += s;
  }
  return total;
}

// Sum over steps of each step's median over iterations: a noise burst in
// one iteration's step does not move the total.
double SumOfMedians(const std::vector<const std::vector<double>*>& runs) {
  double total = 0.0;
  for (size_t k = 0; !runs.empty() && k < runs.front()->size(); ++k) {
    std::vector<double> step;
    for (const std::vector<double>* t : runs) {
      if (k < t->size()) {  // a failed iteration may stop early
        step.push_back((*t)[k]);
      }
    }
    total += Median(step);
  }
  return total;
}

// Host-time metrics over the measured iterations, plus the simulated ones,
// which are identical in every iteration (the digest checks it). The
// caller adds peak_rss_MB.
std::map<std::string, double> EndToEnd(
    const std::vector<std::unique_ptr<Iteration>>& runs) {
  const double mb = 1e6;
  std::vector<const std::vector<double>*> setup;
  std::vector<const std::vector<double>*> backup;
  std::vector<const std::vector<double>*> restore;
  for (const auto& r : runs) {
    setup.push_back(&r->setup_s);
    backup.push_back(&r->backup_host_s);
    restore.push_back(&r->restore_host_s);
  }
  const Iteration& it = *runs.front();
  return {
      {"setup_s", SumOfMedians(setup)},
      {"backup_host_MBps", Ratio(it.backup_raw / mb, SumOfMedians(backup))},
      {"restore_host_MBps", Ratio(it.restore_raw / mb, SumOfMedians(restore))},
      {"sim_backup_MBps",
       Ratio(it.backup_raw / mb, SimToSeconds(it.backup_sim))},
      {"sim_restore_MBps",
       Ratio(it.restore_raw / mb, SimToSeconds(it.restore_sim))},
      {"wire_per_raw", Ratio(static_cast<double>(it.backup_wire),
                             static_cast<double>(it.backup_raw))},
      {"sim_makespan_s", SimToSeconds(it.makespan)},
  };
}

// The per-layer values of one traced iteration; trace.overhead_s spans
// iterations, so Main() adds it.
std::map<std::string, double> PerLayer(const Iteration& it) {
  std::map<std::string, double> out = it.layer;
  double jobs_s = 0.0;
  for (const PerLayerDef& m : kPerLayer) {
    if (m.span != nullptr) {
      out[m.name] = it.ledger->Seconds(it.run, m.span);
      if (std::string_view(m.span).starts_with("backup.")) {
        jobs_s += out[m.name];
      }
    }
  }
  out["backup.replay_self_s"] = jobs_s - it.engine_s;
  out["sim.events"] = static_cast<double>(it.events);
  out["sim.events_per_host_s"] =
      Ratio(static_cast<double>(it.events), it.sim_host_s);
  out["trace.standalone_s"] = it.standalone_s;
  return out;
}

double PeakRssMB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ----------------------------------------------------------------- main ---

// The -fsanitize flags CMake compiled with, or what the compiler reports
// when the flags came from elsewhere.
std::string SanitizerFlags() {
  std::string flags = PERFBENCH_SANITIZE;
#if defined(__SANITIZE_ADDRESS__)
  if (flags.empty()) {
    flags = "address";
  }
#endif
#if defined(__SANITIZE_THREAD__)
  if (flags.empty()) {
    flags = "thread";
  }
#endif
  return flags;
}

std::vector<std::pair<std::string, std::string>> EnvironmentStamp(
    const Options& opt) {
  const std::string sanitizers = SanitizerFlags();
  return {
      {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
      {"compiler", std::string("g++ ") + __VERSION__},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"sanitizers", sanitizers.empty() ? "none" : sanitizers},
      {"git", opt.git},
  };
}

void PrintSpec() {
  JsonWriter w;
  w.BeginObject().Key("workloads").BeginArray();
  for (const WorkloadDef& wl : kWorkloads) {
    w.BeginObject().Field("name", wl.name).Field("why", wl.why).EndObject();
  }
  w.EndArray().Key("end_to_end").BeginArray();
  for (const EndToEndDef& m : kEndToEnd) {
    w.BeginObject()
        .Field("name", m.name)
        .Field("unit", m.unit)
        .Field("better", m.better)
        .Field("bound", m.bound)
        .EndObject();
  }
  w.EndArray().Key("per_layer").BeginArray();
  for (const PerLayerDef& m : kPerLayer) {
    w.BeginObject()
        .Field("name", m.name)
        .Field("unit", m.unit)
        .Field("better", m.better)
        .EndObject();
  }
  w.EndArray().EndObject();
  std::printf("%s\n", w.Take().c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <local_tables|remote_dedup|"
               "live_fleet> --seed <n> --seconds <s> --trace <0|1> "
               "[--corrupt-tape] [--git <sha>] [--trace-out <path>]\n"
               "       perfbench --spec\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--git" && has_value) {
      opt.git = argv[++i];
    } else if (arg == "--trace-out" && has_value) {
      opt.trace_out = argv[++i];
    } else if (arg == "--corrupt-tape") {
      opt.corrupt_tape = true;
    } else if (arg == "--spec" && argc == 2) {
      PrintSpec();
      return 0;
    } else {
      return Usage();
    }
  }
  const WorkloadDef* workload = nullptr;
  for (const WorkloadDef& wl : kWorkloads) {
    if (opt.workload == wl.name) {
      workload = &wl;
    }
  }
  if (workload == nullptr) {
    return Usage();
  }

  const auto stamp = EnvironmentStamp(opt);
  for (const auto& [key, value] : stamp) {
    std::printf("env %s=%s\n", key.c_str(), value.c_str());
  }
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  bool optimized = build_type == "Release" || build_type == "RelWithDebInfo";
#ifndef NDEBUG
  optimized = false;
#endif
  if (!optimized || !SanitizerFlags().empty()) {
    std::fprintf(stderr,
                 "perfbench: refusing to report numbers from a %s build "
                 "(sanitizers: %s)\n",
                 build_type.c_str(), stamp[3].second.c_str());
    return 3;
  }

  // Iteration 0 warms the allocator and caches and is never measured. With
  // tracing, measured iterations alternate traced and untraced.
  Ledger ledger;
  std::vector<std::unique_ptr<Iteration>> measured;
  std::vector<std::map<std::string, double>> layered;
  std::vector<double> traced_net;  // traced wall minus its standalone work
  std::vector<double> untraced_wall;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint32_t digest = 0;
  bool digest_stable = true;
  double measured_s = 0.0;
  for (uint32_t run = 0;; ++run) {
    const bool traced = opt.trace && run % 2 == 1;
    ledger.set_recording(traced);
    ledger.set_run(run);
    auto it = std::make_unique<Iteration>(&ledger, run, traced);
    const double wall =
        ledger.Time("iteration", [&] { workload->run(opt, it.get()); });
    attempted += it->attempted;
    failed += it->failed;
    if (run == 0) {
      digest = it->digest.value();
    } else if (it->digest.value() != digest) {
      digest_stable = false;
      std::fprintf(stderr,
                   "perfbench: simulated digest 0x%08x of iteration %u "
                   "differs from 0x%08x\n",
                   it->digest.value(), run, digest);
    }
    if (run == 0) {
      continue;
    }
    measured_s += wall;
    std::printf("iteration %u%s: %.3f s (setup %.3f, backup %.3f, restore "
                "%.3f)\n",
                run, traced ? " traced" : "", wall, Sum(it->setup_s),
                Sum(it->backup_host_s), Sum(it->restore_host_s));
    if (traced) {
      traced_net.push_back(wall - it->standalone_s);
      layered.push_back(PerLayer(*it));
    } else {
      untraced_wall.push_back(wall);
      measured.push_back(std::move(it));
    }
    constexpr size_t enough = 3;  // measured iterations, at least
    const bool have_enough =
        measured.size() >= enough && (!opt.trace || layered.size() >= enough);
    if (have_enough && measured_s >= opt.seconds) {
      break;
    }
  }

  std::map<std::string, double> e2e = EndToEnd(measured);
  e2e["peak_rss_MB"] = PeakRssMB();
  std::map<std::string, double> per_layer;
  if (opt.trace) {
    for (const PerLayerDef& m : kPerLayer) {
      std::vector<double> values;
      for (const auto& sample : layered) {
        const auto found = sample.find(m.name);
        values.push_back(found == sample.end() ? 0.0 : found->second);
      }
      per_layer[m.name] = Median(values);
    }
    per_layer["trace.overhead_s"] =
        Median(traced_net) - Median(untraced_wall);
  }

  const bool correct = failed == 0 && digest_stable && attempted > 0;
  std::printf("workload %s seed %llu: %zu measured iterations, %.3f s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              measured.size() + layered.size(), measured_s);
  std::printf("sim_digest 0x%08x (%s across iterations)\n", digest,
              digest_stable ? "identical" : "DIFFERS");
  std::printf("ops attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  std::printf("  %-28s %10s %10s %10s %9s\n", "simulated job", "raw MB",
              "wire MB", "stream s", "MB/s");
  const Iteration& first = *measured.front();
  for (const std::string& line : first.job_lines) {
    std::printf("%s\n", line.c_str());
  }
  for (const EndToEndDef& m : kEndToEnd) {
    std::printf("  %-20s %14.6f %s\n", m.name, e2e[m.name], m.unit);
  }
  if (first.layer.count("workload.fg_p99_ms") != 0) {
    // Printed, not in the JSON: only live_fleet has foreground load (the
    // traced run carries it as workload.fg_p99_ms).
    std::printf("  %-20s %14.6f ms (p99 of %.0f foreground ops)\n",
                "sim_fg_p99_ms", first.layer.at("workload.fg_p99_ms"),
                first.layer.at("workload.fg_samples"));
  }
  if (opt.trace) {
    std::printf("tracing overhead: %.6f s per iteration (traced %.6f s "
                "without standalone work, untraced %.6f s, medians)\n",
                per_layer["trace.overhead_s"], Median(traced_net),
                Median(untraced_wall));
    ledger.PrintSelfTimeTable();
    for (const PerLayerDef& m : kPerLayer) {
      std::printf("  %-40s %16.6f %s\n", m.name, per_layer[m.name], m.unit);
    }
    if (!opt.trace_out.empty()) {
      std::vector<std::pair<std::string, double>> counters(per_layer.begin(),
                                                           per_layer.end());
      if (!ledger.WriteChromeTrace(opt.trace_out, "perfbench " + opt.workload,
                                   counters, stamp)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     opt.trace_out.c_str());
        return 1;
      }
      std::printf("wrote %s\n", opt.trace_out.c_str());
    }
  }

  JsonWriter w;
  w.BeginObject()
      .Field("correct", correct)
      .Field("attempted", attempted)
      .Field("failed", failed)
      .Key("metrics")
      .BeginObject();
  const auto emit = [&w](const char* name, double value, const char* unit) {
    w.Key(name).BeginObject().Field("value", value).Field("unit", unit)
        .EndObject();
  };
  if (opt.trace) {
    for (const PerLayerDef& m : kPerLayer) {
      emit(m.name, per_layer[m.name], m.unit);
    }
  } else {
    for (const EndToEndDef& m : kEndToEnd) {
      emit(m.name, e2e[m.name], m.unit);
    }
  }
  w.EndObject().EndObject();
  std::printf("%s\n", w.Take().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
