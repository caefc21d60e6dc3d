#include "src/workload/foreground.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <deque>

#include "src/backup/charge.h"

namespace bkup {

namespace {

// Relative op-class weights, in FgOp order: lookup, read, write, create,
// delete.
constexpr double kOpWeights[] = {2.0, 6.0, 3.0, 0.5, 0.5};
// I/O size draw: exponential with this mean, capped.
constexpr uint64_t kMeanIoBytes = 16 * kKiB;
constexpr uint64_t kMaxIoBytes = 128 * kKiB;
// At most this many population files are indexed as read/write targets
// (breadth-first over the tree, "/fg" excluded).
constexpr size_t kMaxPopulationFiles = 512;

FgOp PickOp(Rng* rng) {
  double total = 0.0;
  for (double x : kOpWeights) {
    total += x;
  }
  double u = rng->NextDouble() * total;
  for (size_t i = 0; i < std::size(kOpWeights); ++i) {
    u -= kOpWeights[i];
    if (u < 0.0) {
      return static_cast<FgOp>(i);
    }
  }
  return FgOp::kRead;
}

uint64_t DrawIoBytes(Rng* rng) {
  const double u = rng->NextDouble();
  const double mean = static_cast<double>(kMeanIoBytes);
  const uint64_t n =
      1 + static_cast<uint64_t>(-mean * std::log(1.0 - u * 0.999999));
  return std::min<uint64_t>(n, kMaxIoBytes);
}

}  // namespace

const char* FgOpName(FgOp op) {
  switch (op) {
    case FgOp::kLookup:
      return "lookup";
    case FgOp::kRead:
      return "read";
    case FgOp::kWrite:
      return "write";
    case FgOp::kCreate:
      return "create";
    case FgOp::kDelete:
      return "delete";
    case FgOp::kCount:
      break;
  }
  return "?";
}

namespace {

size_t OpIndex(FgOp op) { return static_cast<size_t>(op); }

// Keeps client-local owned-file ids disjoint from population inums in the
// op-mix hash's target space.
constexpr uint64_t kOwnedTargetBit = 1ull << 62;

uint32_t PathComponents(const std::string& path) {
  uint32_t n = 0;
  for (char c : path) {
    if (c == '/') {
      ++n;
    }
  }
  return std::max<uint32_t>(n, 1);
}

// Little-endian field serialization for the checksums: fixed width, so the
// hash is a function of the values alone.
void HashU64(Crc32cAccumulator* crc, uint64_t v) {
  uint8_t buf[8];
  std::memcpy(buf, &v, sizeof(v));
  crc->Update(buf);
}

double ExactPercentile(std::vector<double>* sorted, double fraction) {
  if (sorted->empty()) {
    return 0.0;
  }
  const size_t idx = std::min(
      sorted->size() - 1,
      static_cast<size_t>(fraction * static_cast<double>(sorted->size())));
  return (*sorted)[idx];
}

LatencySummary SummarizeSamples(std::vector<double> samples) {
  LatencySummary s;
  s.count = samples.size();
  if (samples.empty()) {
    return s;
  }
  double sum = 0.0;
  for (double v : samples) {
    sum += v;
  }
  std::sort(samples.begin(), samples.end());
  s.mean_us = sum / static_cast<double>(samples.size());
  s.p50_us = ExactPercentile(&samples, 0.50);
  s.p95_us = ExactPercentile(&samples, 0.95);
  s.p99_us = ExactPercentile(&samples, 0.99);
  s.max_us = samples.back();
  return s;
}

}  // namespace

ForegroundLoad::ForegroundLoad(Filer* filer, Filesystem* fs,
                               ForegroundParams params)
    : filer_(filer), fs_(fs), params_(params) {
  clients_.resize(params_.num_clients);
  for (uint32_t i = 0; i < params_.num_clients; ++i) {
    clients_[i].index = i;
    // SplitMix-spread per-client seeds: client streams must not overlap.
    clients_[i].rng = Rng(params_.seed * 0x9E3779B97F4A7C15ull + i + 1);
  }
}

SimDuration ForegroundLoad::DrawThink(Rng* rng) const {
  const double u = rng->NextDouble();
  const double mean = static_cast<double>(params_.mean_think_time);
  return static_cast<SimDuration>(-mean * std::log(1.0 - u * 0.999999));
}

void ForegroundLoad::HashOp(Client* client, FgOp op, uint64_t target,
                            uint64_t offset, uint64_t bytes) {
  const uint64_t fields[] = {client->index, static_cast<uint64_t>(op), target,
                             offset, bytes};
  for (uint64_t f : fields) {
    HashU64(&client->mix_crc, f);
    HashU64(&client->trace_crc, f);
  }
}

void ForegroundLoad::RecordLatency(Client* client, FgOp op, SimTime start) {
  const SimDuration latency = filer_->env()->now() - start;
  HashU64(&client->trace_crc, static_cast<uint64_t>(start));
  HashU64(&client->trace_crc, static_cast<uint64_t>(latency));
  const double us = static_cast<double>(latency);  // SimDuration is in us
  samples_us_[OpIndex(op)].push_back(us);
  timeline_.emplace_back(start, us);
  ++stats_.ops[OpIndex(op)];
}

void ForegroundLoad::CountError(const Status& st) {
  if (!st.ok()) {
    ++stats_.errors;
  }
}

// ------------------------------------------------------------ operations ---

Task ForegroundLoad::OpLookup(Client* client) {
  const auto& [path, inum] =
      population_[client->rng.Below(population_.size())];
  HashOp(client, FgOp::kLookup, inum, 0, 0);
  const SimTime start = filer_->env()->now();
  const std::vector<CpuCharge> cpu{{CpuCost::kPathLookup,
                                    PathComponents(path)},
                                   {CpuCost::kMapInode, 1}};
  co_await filer_->ChargeCpu(cpu);
  CountError(fs_->GetAttr(inum).status());
  RecordLatency(client, FgOp::kLookup, start);
}

Task ForegroundLoad::OpRead(Client* client) {
  const Inum inum =
      population_[client->rng.Below(population_.size())].second;
  Result<InodeData> attr = fs_->GetAttr(inum);
  if (!attr.ok()) {
    CountError(attr.status());
    co_return;
  }
  const uint64_t size = std::max<uint64_t>(attr->size, 1);
  const uint64_t len = std::min(DrawIoBytes(&client->rng), size);
  const uint64_t offset = size > len ? client->rng.Below(size - len + 1) : 0;
  HashOp(client, FgOp::kRead, inum, offset, len);
  const SimTime start = filer_->env()->now();

  std::vector<uint8_t> data;
  std::vector<Vbn> vbns;
  CountError(fs_->Read(inum, offset, len, &data, &vbns));
  stats_.bytes_read += data.size();
  const std::vector<CpuCharge> cpu{
      {CpuCost::kMapInode, 1},
      {CpuCost::kLogicalBlock, (len + kBlockSize - 1) / kBlockSize}};
  co_await filer_->ChargeCpu(cpu);
  if (!vbns.empty()) {
    co_await ChargeDiskAccess(filer_->env(), fs_->volume(), vbns,
                              /*parity_writes=*/false);
  }
  RecordLatency(client, FgOp::kRead, start);
}

Task ForegroundLoad::OpWrite(Client* client) {
  // Half the writes touch the shared population (sizes stay fixed: the
  // offset is clamped so the write never extends the file), half the
  // client's own files.
  uint64_t inum;
  uint64_t size;
  uint64_t target;  // interleaving-stable id for the mix hash
  const bool own = !client->owned.empty() && client->rng.Chance(0.5);
  if (own) {
    const OwnedFile& f =
        client->owned[client->rng.Below(client->owned.size())];
    inum = f.inum;
    size = f.size;
    target = kOwnedTargetBit | f.id;
  } else {
    const auto& entry = population_[client->rng.Below(population_.size())];
    inum = entry.second;
    target = inum;
    Result<InodeData> attr = fs_->GetAttr(inum);
    if (!attr.ok()) {
      CountError(attr.status());
      co_return;
    }
    size = attr->size;
  }
  size = std::max<uint64_t>(size, 1);
  const uint64_t len = std::min(DrawIoBytes(&client->rng), size);
  const uint64_t offset = size > len ? client->rng.Below(size - len + 1) : 0;
  HashOp(client, FgOp::kWrite, target, offset, len);
  const SimTime start = filer_->env()->now();

  const std::vector<uint8_t> data(
      len, static_cast<uint8_t>(client->index * 31 + 7));
  CountError(fs_->Write(inum, offset, data));
  stats_.bytes_written += len;
  // The WAFL write path: CPU to absorb the op, NVRAM to log it; the dirty
  // blocks reach disk later through the CP flusher.
  const std::vector<CpuCharge> cpu{
      {CpuCost::kMapInode, 1},
      {CpuCost::kLogicalBlock, (len + kBlockSize - 1) / kBlockSize}};
  co_await filer_->ChargeCpu(cpu);
  co_await filer_->ChargeNvram(len);
  RecordLatency(client, FgOp::kWrite, start);
}

Task ForegroundLoad::OpCreate(Client* client) {
  const std::string path = "/fg/c" + std::to_string(client->index) + "/f" +
                           std::to_string(client->created++);
  const uint64_t len = DrawIoBytes(&client->rng);
  HashOp(client, FgOp::kCreate, client->created, 0, len);
  const SimTime start = filer_->env()->now();

  Result<Inum> inum = fs_->Create(path, 0644);
  if (!inum.ok()) {
    CountError(inum.status());
    co_return;
  }
  const std::vector<uint8_t> data(
      len, static_cast<uint8_t>(client->index * 31 + 7));
  CountError(fs_->Write(*inum, 0, data));
  stats_.bytes_written += len;
  client->owned.push_back(OwnedFile{path, *inum, len, client->created});
  const std::vector<CpuCharge> cpu{
      {CpuCost::kPathLookup, PathComponents(path)},
      {CpuCost::kDirEntry, 1},
      {CpuCost::kMapInode, 1},
      {CpuCost::kLogicalBlock, (len + kBlockSize - 1) / kBlockSize}};
  co_await filer_->ChargeCpu(cpu);
  co_await filer_->ChargeNvram(len);
  RecordLatency(client, FgOp::kCreate, start);
}

Task ForegroundLoad::OpDelete(Client* client) {
  if (client->owned.empty()) {
    // Nothing of ours to delete yet; create instead (deterministic: the
    // owned list's emptiness is a pure function of the client's op stream).
    co_await OpCreate(client);
    co_return;
  }
  const size_t pick = client->rng.Below(client->owned.size());
  const OwnedFile target = client->owned[pick];
  client->owned.erase(client->owned.begin() +
                      static_cast<ptrdiff_t>(pick));
  HashOp(client, FgOp::kDelete, kOwnedTargetBit | target.id, 0, 0);
  const SimTime start = filer_->env()->now();

  CountError(fs_->Unlink(target.path));
  const std::vector<CpuCharge> cpu{
      {CpuCost::kPathLookup, PathComponents(target.path)},
      {CpuCost::kDirEntry, 1},
      {CpuCost::kMapInode, 1}};
  co_await filer_->ChargeCpu(cpu);
  co_await filer_->ChargeNvram(64);  // the unlink's NVRAM log record
  RecordLatency(client, FgOp::kDelete, start);
}

Task ForegroundLoad::RunOp(Client* client, FgOp op) {
  switch (op) {
    case FgOp::kLookup:
      co_await OpLookup(client);
      break;
    case FgOp::kRead:
      co_await OpRead(client);
      break;
    case FgOp::kWrite:
      co_await OpWrite(client);
      break;
    case FgOp::kCreate:
      co_await OpCreate(client);
      break;
    case FgOp::kDelete:
      co_await OpDelete(client);
      break;
    case FgOp::kCount:
      break;
  }
}

Task ForegroundLoad::ClientLoop(Client* client, CountdownLatch* latch) {
  SimEnvironment* env = filer_->env();
  if (params_.ops_per_client > 0) {
    // Count-based: the op stream length is fixed, so contention stretches
    // the run instead of clipping it (the OpMixCrc invariance mode).
    for (uint64_t k = 0; k < params_.ops_per_client; ++k) {
      co_await env->Delay(DrawThink(&client->rng));
      co_await RunOp(client, PickOp(&client->rng));
    }
  } else {
    while (env->now() < end_time_) {
      co_await env->Delay(DrawThink(&client->rng));
      if (env->now() >= end_time_) {
        break;
      }
      co_await RunOp(client, PickOp(&client->rng));
    }
  }
  --clients_running_;
  latch->CountDown();
}

Task ForegroundLoad::Flusher(CountdownLatch* latch) {
  SimEnvironment* env = filer_->env();
  while (clients_running_ > 0) {
    co_await env->Delay(params_.flush_interval);
    if (fs_->HasDirtyState()) {
      Result<CpReport> cp = fs_->ConsistencyPoint();
      CountError(cp.status());
    }
    // Charge the write-behind disk time for whatever the CPs (ours and the
    // auto-CPs writes trigger) flushed since the last pass. The counters
    // are monotone unless someone calls MarkCpCounters; re-base if so.
    const uint64_t data = fs_->cp_data_writes_since_mark();
    const uint64_t meta = fs_->cp_meta_writes_since_mark();
    if (data < flusher_last_data_ || meta < flusher_last_meta_) {
      flusher_last_data_ = 0;
      flusher_last_meta_ = 0;
    }
    const uint64_t blocks =
        (data - flusher_last_data_) + (meta - flusher_last_meta_);
    flusher_last_data_ = data;
    flusher_last_meta_ = meta;
    if (blocks > 0) {
      stats_.cp_blocks_flushed += blocks;
      co_await ChargeSequentialWrites(env, fs_->volume(), blocks);
    }
  }
  latch->CountDown();
}

Task ForegroundLoad::Run(CountdownLatch* done) {
  SimEnvironment* env = filer_->env();
  end_time_ = env->now() + params_.duration;

  // Index the population: breadth-first, regular files only, /fg excluded.
  // The order is deterministic (directory entries are stored in creation
  // order), and the index is frozen before any client starts.
  population_.clear();
  std::deque<std::pair<std::string, Inum>> dirs;
  Result<Inum> root = fs_->LookupPath("/");
  if (root.ok()) {
    dirs.emplace_back("", *root);
  }
  while (!dirs.empty() && population_.size() < kMaxPopulationFiles) {
    auto [prefix, dir] = dirs.front();
    dirs.pop_front();
    Result<std::vector<DirEntry>> entries = fs_->ReadDir(dir);
    if (!entries.ok()) {
      continue;
    }
    for (const DirEntry& e : *entries) {
      const std::string path = prefix + "/" + e.name;
      if (path == "/fg") {
        continue;
      }
      if (e.type == InodeType::kDirectory) {
        dirs.emplace_back(path, e.inum);
      } else if (e.type == InodeType::kFile &&
                 population_.size() < kMaxPopulationFiles) {
        population_.push_back({path, e.inum});
      }
    }
  }
  assert(!population_.empty() && "foreground load needs a populated fs");

  // Per-client working directories.
  if (!fs_->LookupPath("/fg").ok()) {
    CountError(fs_->Mkdir("/fg", 0755).status());
  }
  for (uint32_t i = 0; i < params_.num_clients; ++i) {
    const std::string dir = "/fg/c" + std::to_string(i);
    if (!fs_->LookupPath(dir).ok()) {
      CountError(fs_->Mkdir(dir, 0755).status());
    }
  }

  const bool flush = params_.flush_interval > 0;
  CountdownLatch all(env, static_cast<int>(params_.num_clients) +
                              (flush ? 1 : 0));
  clients_running_ = params_.num_clients;
  for (Client& c : clients_) {
    env->Spawn(ClientLoop(&c, &all));
  }
  if (flush) {
    env->Spawn(Flusher(&all));
  }
  co_await all.Wait();
  done->CountDown();
}

// ------------------------------------------------------------- summaries ---

uint32_t ForegroundLoad::OpMixCrc() const {
  Crc32cAccumulator total;
  for (const Client& c : clients_) {
    HashU64(&total, c.mix_crc.value());
  }
  return total.value();
}

uint32_t ForegroundLoad::TraceCrc() const {
  Crc32cAccumulator total;
  for (const Client& c : clients_) {
    HashU64(&total, c.trace_crc.value());
  }
  return total.value();
}

LatencySummary ForegroundLoad::Summarize() const {
  std::vector<double> all;
  for (const auto& v : samples_us_) {
    all.insert(all.end(), v.begin(), v.end());
  }
  return SummarizeSamples(std::move(all));
}

LatencySummary ForegroundLoad::SummarizeOp(FgOp op) const {
  return SummarizeSamples(samples_us_[OpIndex(op)]);
}

LatencySummary ForegroundLoad::SummarizeBetween(SimTime begin,
                                                SimTime end) const {
  std::vector<double> window;
  for (const auto& [start, us] : timeline_) {
    if (start >= begin && start < end) {
      window.push_back(us);
    }
  }
  return SummarizeSamples(std::move(window));
}

}  // namespace bkup
