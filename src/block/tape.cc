#include "src/block/tape.h"

#include <algorithm>
#include <cstring>

#include "src/obs/trace.h"

namespace bkup {

Status Tape::CorruptRange(uint64_t offset, uint64_t length) {
  if (offset >= bytes_.size()) {
    return InvalidArgument(label_ + ": corrupt range [" +
                           std::to_string(offset) + ", +" +
                           std::to_string(length) +
                           ") starts beyond recorded data");
  }
  // Clamp without forming offset+length (which could overflow).
  const uint64_t end = offset + std::min<uint64_t>(length,
                                                   bytes_.size() - offset);
  for (uint64_t i = offset; i < end; ++i) {
    bytes_[i] ^= 0x5A;
  }
  return Status::Ok();
}

TapeDrive::TapeDrive(SimEnvironment* env, std::string name, TapeTiming timing)
    : env_(env),
      name_(std::move(name)),
      timing_(timing),
      unit_(env, 1, name_ + ".unit") {}

void TapeDrive::LoadMedia(Tape* tape) {
  tape_ = tape;
  position_ = 0;
  streaming_until_ = -1;
}

Task TapeDrive::TimedLoadMedia(Tape* tape) {
  co_await unit_.Acquire();
  co_await env_->Delay(timing_.load_time);
  LoadMedia(tape);
  unit_.Release();
}

void TapeDrive::UnloadMedia() {
  tape_ = nullptr;
  position_ = 0;
}

Task TapeDrive::TimedRewind() {
  co_await unit_.Acquire();
  co_await env_->Delay(timing_.rewind_time);
  Rewind();
  streaming_until_ = -1;
  unit_.Release();
}

Status TapeDrive::WriteData(std::span<const uint8_t> data) {
  if (tape_ == nullptr) {
    return FailedPrecondition(name_ + ": no media loaded");
  }
  if (position_ + data.size() > tape_->capacity()) {
    return NoSpace(name_ + ": end of tape");
  }
  auto& bytes = tape_->mutable_bytes();
  // Serpentine media: a write invalidates everything past it.
  bytes.resize(position_);
  bytes.insert(bytes.end(), data.begin(), data.end());
  position_ += data.size();
  return Status::Ok();
}

void TapeDrive::ReserveAhead(uint64_t nbytes) {
  if (tape_ != nullptr && position_ < tape_->capacity()) {
    tape_->mutable_bytes().reserve(
        position_ + std::min(nbytes, tape_->capacity() - position_));
  }
}

Status TapeDrive::ReadData(std::span<uint8_t> out) {
  if (tape_ == nullptr) {
    return FailedPrecondition(name_ + ": no media loaded");
  }
  if (position_ + out.size() > tape_->size()) {
    return Corruption(name_ + ": read past end of recorded data");
  }
  std::memcpy(out.data(), tape_->contents().data() + position_, out.size());
  position_ += out.size();
  return Status::Ok();
}

Status TapeDrive::SeekTo(uint64_t offset) {
  if (tape_ == nullptr) {
    return FailedPrecondition(name_ + ": no media loaded");
  }
  if (offset > tape_->size()) {
    return InvalidArgument(name_ + ": seek past end of data");
  }
  position_ = offset;
  return Status::Ok();
}

SimDuration TapeDrive::TransferTime(uint64_t nbytes) const {
  const double seconds =
      static_cast<double>(nbytes) / (timing_.stream_mb_per_s * 1e6);
  return SecondsToSim(seconds);
}

SimDuration TapeDrive::RepositionPenalty() {
  if (streaming_until_ < 0 ||
      env_->now() <= streaming_until_ + timing_.stream_tolerance) {
    return 0;
  }
  ++repositions_;
  // Shoe-shining is the tape-side symptom of a starved dump; mark each one
  // on the drive's track so stalls line up with the job spans above them.
  TRACE_INSTANT(env_, name_, "reposition");
  return timing_.reposition_penalty;
}

Task TapeDrive::TimedWrite(std::span<const uint8_t> data, Status* status) {
  co_await unit_.Acquire();
  const SimDuration t = TransferTime(data.size()) + RepositionPenalty();
  co_await env_->Delay(t);
  // A fault (e.g. a media defect caught by the drive's read-after-write
  // verify) rejects the transfer before any byte lands.
  Status st = Status::Ok();
  if (fault_hook_ != nullptr) {
    st = fault_hook_->OnTapeWrite(this, position_, data.size());
  }
  *status = st.ok() ? WriteData(data) : st;
  if (status->ok()) {
    bytes_transferred_ += data.size();
  }
  streaming_until_ = env_->now();
  unit_.Release();
}

Task TapeDrive::TimedRead(std::span<uint8_t> out, Status* status) {
  co_await unit_.Acquire();
  const SimDuration t = TransferTime(out.size()) + RepositionPenalty();
  co_await env_->Delay(t);
  Status st = Status::Ok();
  if (fault_hook_ != nullptr) {
    st = fault_hook_->OnTapeRead(this, position_, out.size());
  }
  *status = st.ok() ? ReadData(out) : st;
  if (status->ok()) {
    bytes_transferred_ += out.size();
  }
  streaming_until_ = env_->now();
  unit_.Release();
}

Task TapeDrive::TimedSeekTo(uint64_t offset, Status* status) {
  co_await unit_.Acquire();
  if (offset != position_) {
    // Any jump breaks streaming: one reposition, always.
    ++repositions_;
    TRACE_INSTANT(env_, name_, "reposition");
    co_await env_->Delay(timing_.reposition_penalty);
  }
  *status = SeekTo(offset);
  streaming_until_ = env_->now();
  unit_.Release();
}

}  // namespace bkup
