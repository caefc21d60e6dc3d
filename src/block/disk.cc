#include "src/block/disk.h"

#include <cmath>
#include <cstdlib>

namespace bkup {

Disk::Disk(SimEnvironment* env, std::string name, uint64_t num_blocks,
           DiskTiming timing)
    : env_(env),
      name_(std::move(name)),
      num_blocks_(num_blocks),
      timing_(timing),
      arm_(env, 1, name_ + ".arm") {}

Status Disk::ReadData(Dbn dbn, Block* out) const {
  if (failed_) {
    return IoError(name_ + ": drive failed");
  }
  if (dbn >= num_blocks_) {
    return InvalidArgument(name_ + ": read past end of disk");
  }
  auto it = store_.find(dbn);
  if (it == store_.end()) {
    out->Zero();
  } else {
    *out = *it->second;
  }
  return Status::Ok();
}

Status Disk::WriteData(Dbn dbn, const Block& block) {
  if (failed_) {
    return IoError(name_ + ": drive failed");
  }
  if (dbn >= num_blocks_) {
    return InvalidArgument(name_ + ": write past end of disk");
  }
  auto it = store_.find(dbn);
  if (it == store_.end()) {
    store_.emplace(dbn, std::make_unique<Block>(block));
  } else {
    *it->second = block;
  }
  return Status::Ok();
}

Block* Disk::StoredBlock(Dbn dbn) {
  auto it = store_.find(dbn);
  return it == store_.end() ? nullptr : it->second.get();
}

void Disk::ReplaceWithBlank() {
  store_.clear();
  failed_ = false;
  head_ = 0;
}

SimDuration Disk::AccessTime(Dbn dbn, uint64_t count) const {
  double ms = 0.0;
  const uint64_t distance =
      dbn >= head_ ? dbn - head_ : head_ - dbn;
  if (distance < 16) {
    // Sequential or near-sequential: the drive's read-ahead and track
    // buffer absorb small gaps.
  } else if (distance <= timing_.near_threshold_blocks) {
    ms += timing_.track_seek_ms;
  } else {
    // Seek time grows sublinearly with distance (arm acceleration); scale
    // the average seek by a sqrt profile normalized to a half-disk stroke.
    const double frac =
        static_cast<double>(distance) / static_cast<double>(num_blocks_);
    ms += timing_.track_seek_ms +
          (timing_.avg_seek_ms - timing_.track_seek_ms) *
              std::sqrt(std::min(1.0, frac * 2.0));
    ms += timing_.rotational_ms;
  }
  const double bytes = static_cast<double>(count) * kBlockSize;
  ms += bytes / (timing_.transfer_mb_per_s * 1e6) * 1e3;
  return static_cast<SimDuration>(ms * static_cast<double>(kMillisecond));
}

Task Disk::TimedAccess(Dbn dbn, uint64_t count, Status* status,
                       int priority) {
  co_await arm_.Acquire(1, priority);
  // Compute the access time under the arm so queued requests pay the seek
  // from wherever the previous request left the head.
  const SimDuration t = AccessTime(dbn, count);
  co_await env_->Delay(t);
  Status st = Status::Ok();
  if (fault_hook_ != nullptr) {
    st = fault_hook_->OnDiskAccess(this, count);
  }
  // Re-check after the delay: a Fail() that landed while this access was in
  // flight surfaces to the waiting job instead of silently completing.
  if (st.ok() && failed_) {
    st = IoError(name_ + ": drive failed");
  }
  if (st.ok()) {
    head_ = dbn + count;
    bytes_transferred_ += count * kBlockSize;
  }
  if (status != nullptr) {
    *status = st;
  }
  arm_.Release();
}

}  // namespace bkup
