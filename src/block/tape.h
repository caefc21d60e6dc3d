// Simulated tape media and drives.
//
// A `Tape` is an append-oriented byte stream of real bytes (what dump writes
// is what restore parses). A `TapeDrive` gives it DLT-7000-like behaviour:
// a fixed streaming rate, and a repositioning penalty whenever the host
// fails to keep the drive streaming ("shoe-shining") — which is exactly the
// effect that lets a starved logical dump fall behind a streaming physical
// dump on the same hardware.
#ifndef BKUP_BLOCK_TAPE_H_
#define BKUP_BLOCK_TAPE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/block/fault_hook.h"
#include "src/sim/environment.h"
#include "src/sim/resource.h"
#include "src/sim/task.h"
#include "src/util/status.h"
#include "src/util/units.h"

namespace bkup {

// Removable media: a named byte stream with a capacity.
class Tape {
 public:
  Tape(std::string label, uint64_t capacity_bytes)
      : label_(std::move(label)), capacity_(capacity_bytes) {}

  const std::string& label() const { return label_; }
  uint64_t capacity() const { return capacity_; }
  uint64_t size() const { return bytes_.size(); }

  std::span<const uint8_t> contents() const { return bytes_; }
  std::vector<uint8_t>& mutable_bytes() { return bytes_; }

  // Failure injection: flips bits in [offset, offset+length) to simulate a
  // media defect. Restores must detect this via record checksums. Rejects a
  // range starting beyond the recorded data with InvalidArgument and clamps
  // one that merely runs off its end (the defect extends into blank media).
  Status CorruptRange(uint64_t offset, uint64_t length);

  // Wipes the media (a fresh tape from the stacker).
  void Erase() { bytes_.clear(); }

 private:
  std::string label_;
  uint64_t capacity_;
  std::vector<uint8_t> bytes_;
};

struct TapeTiming {
  // Effective streaming rate. The DLT-7000's native rate is 5 MB/s; with the
  // drive's hardware compression the paper's data streams at ~9 MB/s, which
  // is what its Tables 2-5 reflect, so that is our default.
  double stream_mb_per_s = 9.0;
  // If the host leaves the drive idle longer than this, the drive falls out
  // of streaming and must reposition before the next transfer.
  SimDuration stream_tolerance = 20 * kMillisecond;
  SimDuration reposition_penalty = 150 * kMillisecond;
  SimDuration rewind_time = 90 * kSecond;
  SimDuration load_time = 40 * kSecond;
};

class TapeDrive {
 public:
  TapeDrive(SimEnvironment* env, std::string name,
            TapeTiming timing = TapeTiming());

  const std::string& name() const { return name_; }
  const TapeTiming& timing() const { return timing_; }

  // ------------------------------------------------------------ media ---
  bool loaded() const { return tape_ != nullptr; }
  Tape* tape() { return tape_; }
  void LoadMedia(Tape* tape);     // instantaneous (tests)
  Task TimedLoadMedia(Tape* tape);  // pays load_time
  void UnloadMedia();

  // Byte position of the head from beginning-of-tape.
  uint64_t position() const { return position_; }
  void Rewind() { position_ = 0; }
  Task TimedRewind();

  // ------------------------------------------------------------- data ---

  // Appends/overwrites at the current position and advances. Writing in the
  // middle of a tape invalidates (truncates) everything after it, as on real
  // serpentine media.
  Status WriteData(std::span<const uint8_t> data);

  // Sizes the mounted media for `nbytes` more bytes at the head, clamped at
  // its capacity, so a stream written piecewise grows each media once.
  void ReserveAhead(uint64_t nbytes);

  // Reads exactly `out.size()` bytes at the position; fails with Corruption
  // if the tape ends first.
  Status ReadData(std::span<uint8_t> out);

  Status SeekTo(uint64_t offset);

  // ------------------------------------------------------------ timing ---

  // Awaitable write: acquires the drive, charges streaming time (plus a
  // reposition penalty if the drive fell out of streaming), moves the data.
  Task TimedWrite(std::span<const uint8_t> data, Status* status);
  Task TimedRead(std::span<uint8_t> out, Status* status);

  // Awaitable seek: repositions the head to an absolute byte offset, paying
  // the reposition penalty when the target is off the streaming path. The
  // ranged reads of catalog-driven restores are seek/read ladders.
  Task TimedSeekTo(uint64_t offset, Status* status);

  Resource& unit() { return unit_; }
  const Resource& unit() const { return unit_; }
  uint64_t bytes_transferred() const { return bytes_transferred_; }
  uint64_t repositions() const { return repositions_; }

  // Arms the drive against a fault engine; TimedWrite/TimedRead consult the
  // hook before moving data. Null disarms.
  void set_fault_hook(DeviceFaultHook* hook) { fault_hook_ = hook; }
  DeviceFaultHook* fault_hook() const { return fault_hook_; }

 private:
  SimDuration TransferTime(uint64_t nbytes) const;
  // Charges a reposition if the drive fell out of streaming; returns the
  // penalty (0 when still streaming) and records the count + trace instant.
  SimDuration RepositionPenalty();

  SimEnvironment* env_;
  std::string name_;
  TapeTiming timing_;
  Resource unit_;
  Tape* tape_ = nullptr;
  uint64_t position_ = 0;
  SimTime streaming_until_ = -1;  // sim time the last transfer finished
  uint64_t bytes_transferred_ = 0;
  uint64_t repositions_ = 0;
  DeviceFaultHook* fault_hook_ = nullptr;
};

}  // namespace bkup

#endif  // BKUP_BLOCK_TAPE_H_
