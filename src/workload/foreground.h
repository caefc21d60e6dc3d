// Live foreground load: deterministic multi-client NFS-like traffic kept
// running while backups execute (DESIGN.md §15).
//
// Each simulated client is one coroutine looping think-time -> operation,
// where an operation is a functional file-system call (instant, like the
// dump engines) plus the simulated charges it would cost a real filer:
// CPU per the FilerModel, NVRAM for logged writes, and disk-arm time for
// the exact volume blocks a read came off. Because those charges run at
// class `kPriorityForeground` against the same `Resource`s a dump replay
// uses, a backup's interference with live traffic — and the relief a
// `BackupQos` throttle/demotion buys — shows up directly in the recorded
// per-op latencies.
//
// Determinism is the design center:
//   * Every random choice comes from per-client Rng streams seeded by
//     (params.seed, client index); clients never share a stream, so the
//     DES interleaving cannot perturb what any client decides to do.
//   * Write offsets are clamped to the target's current size and created
//     files live in per-client directories, so the *parameters* of the op
//     stream are identical whether or not a dump runs concurrently.
//   * `OpMixCrc()` hashes those parameters (per client, combined in client
//     order — execution interleaving cannot reorder it); it must match
//     between a loaded and an unloaded run of the same seed. `TraceCrc()`
//     additionally hashes each op's start time and latency; it must match
//     across reruns of the *same* configuration.
#ifndef BKUP_WORKLOAD_FOREGROUND_H_
#define BKUP_WORKLOAD_FOREGROUND_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/backup/filer.h"
#include "src/fs/filesystem.h"
#include "src/sim/sync.h"
#include "src/util/checksum.h"
#include "src/util/random.h"

namespace bkup {

// Foreground operation classes, the NFS mix of §5's "live file service".
enum class FgOp : uint8_t {
  kLookup = 0,  // path walk + getattr
  kRead,        // random-offset read of a population file
  kWrite,       // random-offset overwrite (NVRAM-logged, write-behind)
  kCreate,      // new file in the client's directory, with initial data
  kDelete,      // unlink of a file the client created
  kCount,
};

const char* FgOpName(FgOp op);

struct ForegroundParams {
  uint64_t seed = 2026;
  uint32_t num_clients = 8;
  // How long the load runs (simulated); clients stop issuing at this point
  // and drain their final operation. Ignored when ops_per_client is set.
  SimDuration duration = 60 * kSecond;
  // When > 0, each client issues exactly this many operations (think-time
  // paced) instead of running for `duration`. Count-based termination is
  // what makes the op stream — and so OpMixCrc() — invariant under a
  // concurrent dump: a time-based window clips a contended run's stream
  // short, so only rerun determinism holds there.
  uint64_t ops_per_client = 0;
  // Exponential think time between a client's operations.
  SimDuration mean_think_time = 20 * kMillisecond;
  // Cadence of the consistency-point flusher, which converts the file
  // system's CP write counters into foreground disk charges (the
  // write-behind half of the WAFL write path). 0 disables the flusher.
  SimDuration flush_interval = 10 * kSecond;
};

// Exact latency summary for one op class (or all ops), microseconds.
// Percentiles are computed from the raw samples, not histogram buckets, so
// bench gates on p99 ratios are not quantized.
struct LatencySummary {
  uint64_t count = 0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};

struct ForegroundStats {
  std::array<uint64_t, static_cast<size_t>(FgOp::kCount)> ops{};
  uint64_t errors = 0;  // unexpected Status failures (should stay 0)
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t cp_blocks_flushed = 0;  // charged by the CP flusher
  uint64_t total_ops() const {
    uint64_t n = 0;
    for (uint64_t c : ops) n += c;
    return n;
  }
};

// The load generator. Construct, then Spawn(Run(&latch)) on the
// environment; the latch counts down when every client has drained and the
// flusher has stopped.
class ForegroundLoad {
 public:
  ForegroundLoad(Filer* filer, Filesystem* fs, ForegroundParams params);

  Task Run(CountdownLatch* done);

  const ForegroundParams& params() const { return params_; }
  const ForegroundStats& stats() const { return stats_; }

  // See the header comment for the two checksums' invariance contracts.
  uint32_t OpMixCrc() const;
  uint32_t TraceCrc() const;

  LatencySummary Summarize() const;
  LatencySummary SummarizeOp(FgOp op) const;
  // Summary over only the ops that *started* in [begin, end) — the
  // interference bench scores foreground service during the dump window
  // rather than diluting it over the whole run.
  LatencySummary SummarizeBetween(SimTime begin, SimTime end) const;

 private:
  struct OwnedFile {
    std::string path;
    Inum inum = 0;
    uint64_t size = 0;
    // Client-local creation index, used as the op-mix hash target instead of
    // the inum: inum allocation order depends on how the DES interleaves
    // clients, so hashing it would break OpMixCrc invariance under load.
    uint64_t id = 0;
  };
  struct Client {
    uint32_t index = 0;
    Rng rng{0};
    std::vector<OwnedFile> owned;
    uint64_t created = 0;  // filename counter
    Crc32cAccumulator mix_crc;
    Crc32cAccumulator trace_crc;
  };

  Task ClientLoop(Client* client, CountdownLatch* latch);
  Task Flusher(CountdownLatch* latch);
  Task RunOp(Client* client, FgOp op);

  Task OpLookup(Client* client);
  Task OpRead(Client* client);
  Task OpWrite(Client* client);
  Task OpCreate(Client* client);
  Task OpDelete(Client* client);

  SimDuration DrawThink(Rng* rng) const;
  // Appends (client, op, target, offset, bytes) to the client's mix CRC and
  // returns the op start time for the trace CRC.
  void HashOp(Client* client, FgOp op, uint64_t target, uint64_t offset,
              uint64_t bytes);
  void RecordLatency(Client* client, FgOp op, SimTime start);
  void CountError(const Status& st);

  Filer* filer_;
  Filesystem* fs_;
  ForegroundParams params_;
  SimTime end_time_ = 0;
  // Fixed population index, collected once at Run start: (path, inum) of
  // regular files outside /fg, breadth-first order.
  std::vector<std::pair<std::string, Inum>> population_;
  std::vector<Client> clients_;
  ForegroundStats stats_;
  std::array<std::vector<double>, static_cast<size_t>(FgOp::kCount)>
      samples_us_;
  // Every op as (start time, latency), for windowed summaries.
  std::vector<std::pair<SimTime, double>> timeline_;
  uint64_t flusher_last_data_ = 0;
  uint64_t flusher_last_meta_ = 0;
  uint32_t clients_running_ = 0;  // lets the flusher outlive a count-based run
};

}  // namespace bkup

#endif  // BKUP_WORKLOAD_FOREGROUND_H_
