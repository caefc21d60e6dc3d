#include "src/faults/fault_injector.h"

#include <string>

namespace bkup {

namespace {

// Overlap of [a, a+an) and [b, b+bn).
bool Overlaps(uint64_t a, uint64_t an, uint64_t b, uint64_t bn) {
  return an > 0 && bn > 0 && a < b + bn && b < a + an;
}

}  // namespace

FaultInjector::FaultInjector(SimEnvironment* env, FaultPlan plan)
    : env_(env), plan_(std::move(plan)) {
  // One independent stream per spec, split from the plan seed, so adding a
  // spec never perturbs the draws of the others.
  uint64_t sm = plan_.seed;
  state_.reserve(plan_.faults.size());
  for (size_t i = 0; i < plan_.faults.size(); ++i) {
    state_.push_back(SpecState{Rng(SplitMix64(sm))});
  }
}

void FaultInjector::Arm(Volume* volume) {
  for (const auto& disk : volume->disks()) {
    Arm(disk.get());
  }
}

void FaultInjector::Disarm(Volume* volume) {
  for (const auto& disk : volume->disks()) {
    Disarm(disk.get());
  }
}

bool FaultInjector::InWindow(const FaultSpec& spec) const {
  const SimTime now = env_->now();
  return now >= spec.start && now < spec.end;
}

Status FaultInjector::OnDiskAccess(Disk* disk, uint64_t nblocks) {
  Status result = Status::Ok();
  for (size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& spec = plan_.faults[i];
    SpecState& st = state_[i];
    if (!spec.target.empty() && spec.target != disk->name()) {
      continue;
    }
    switch (spec.kind) {
      case FaultKind::kDiskTransient:
        if (InWindow(spec)) {
          ++stats_.disk_faults_injected;
          if (result.ok()) {
            result = IoError(disk->name() + ": injected transient error");
          }
        }
        break;
      case FaultKind::kDiskFlaky:
        // Draw even outside the window so the stream position depends only
        // on the access sequence, not on when the window opens.
        if (st.rng.Chance(spec.probability) && InWindow(spec)) {
          ++stats_.disk_faults_injected;
          if (result.ok()) {
            result = IoError(disk->name() + ": injected flaky error");
          }
        }
        break;
      case FaultKind::kDiskFailure: {
        if (st.fired) {
          break;  // already dead; Disk::failed_ keeps erroring accesses
        }
        st.bytes_seen += nblocks * kBlockSize;
        const bool due = spec.after_bytes > 0
                             ? st.bytes_seen >= spec.after_bytes
                             : env_->now() >= spec.start;
        if (due) {
          st.fired = true;
          disk->Fail();
          ++stats_.disks_killed;
          if (result.ok()) {
            result = IoError(disk->name() + ": injected permanent failure");
          }
        }
        break;
      }
      default:
        break;  // tape kinds never match a disk access
    }
  }
  return result;
}

Status FaultInjector::OnTapeTransfer(TapeDrive* drive, uint64_t position,
                                     uint64_t nbytes, bool is_write) {
  Status result = Status::Ok();
  for (size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& spec = plan_.faults[i];
    SpecState& st = state_[i];
    switch (spec.kind) {
      case FaultKind::kTapeMediaDefect: {
        Tape* tape = drive->tape();
        if (tape == nullptr ||
            (!spec.target.empty() && spec.target != tape->label())) {
          break;
        }
        if (env_->now() < spec.start ||
            !Overlaps(position, nbytes, spec.offset, spec.length)) {
          break;
        }
        // First touch latently corrupts whatever is already recorded in the
        // defect range; reads then return flipped bits for the stream's
        // record CRCs to catch. (Nothing recorded there yet is fine.)
        if (!st.fired) {
          st.fired = true;
          if (spec.offset < tape->size()) {
            (void)tape->CorruptRange(spec.offset, spec.length);
          }
          ++stats_.media_defects_applied;
        }
        if (is_write) {
          // The drive's read-after-write verify rejects the transfer; this
          // repeats for every attempt — a defect does not heal.
          ++stats_.tape_faults_injected;
          if (result.ok()) {
            result = IoError(tape->label() + ": media defect at byte " +
                             std::to_string(spec.offset));
          }
        }
        break;
      }
      case FaultKind::kTapeFlaky:
        if (!spec.target.empty() && spec.target != drive->name()) {
          break;
        }
        if (st.rng.Chance(spec.probability) && InWindow(spec)) {
          ++stats_.tape_faults_injected;
          if (result.ok()) {
            result = IoError(drive->name() + ": injected flaky error");
          }
        }
        break;
      case FaultKind::kTapeDriveFailure: {
        if (!spec.target.empty() && spec.target != drive->name()) {
          break;
        }
        if (!st.fired) {
          st.bytes_seen += nbytes;
          if (spec.after_bytes > 0 && st.bytes_seen >= spec.after_bytes) {
            st.fired = true;
            ++stats_.drives_killed;
          }
        }
        if (st.fired) {
          ++stats_.tape_faults_injected;
          if (result.ok()) {
            result = IoError(drive->name() + ": drive failed permanently");
          }
        }
        break;
      }
      default:
        break;  // disk kinds never match a tape transfer
    }
  }
  return result;
}

LinkFault FaultInjector::OnFrame(NetLink* link, uint64_t offset,
                                 uint64_t nbytes) {
  (void)offset;
  (void)nbytes;
  LinkFault result;
  for (size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& spec = plan_.faults[i];
    SpecState& st = state_[i];
    if (!spec.target.empty() && spec.target != link->name()) {
      continue;
    }
    switch (spec.kind) {
      case FaultKind::kLinkDown:
        if (InWindow(spec)) {
          ++stats_.link_faults_injected;
          result.action = LinkFault::Action::kDrop;
        }
        break;
      case FaultKind::kLinkFlaky:
        // Draw even outside the window so the stream position depends only
        // on the frame sequence, not on when the window opens.
        if (st.rng.Chance(spec.probability) && InWindow(spec)) {
          ++stats_.link_faults_injected;
          result.action = LinkFault::Action::kDrop;
        }
        break;
      case FaultKind::kLinkCorrupt:
        if (st.rng.Chance(spec.probability) && InWindow(spec) &&
            result.action == LinkFault::Action::kDeliver) {
          ++stats_.link_faults_injected;
          result.action = LinkFault::Action::kCorrupt;
        }
        break;
      case FaultKind::kLinkStall:
        if (InWindow(spec)) {
          ++stats_.link_stalls_injected;
          result.stall += spec.stall;
        }
        break;
      default:
        break;  // disk/tape kinds never match a frame
    }
  }
  return result;
}

Status FaultInjector::OnTapeWrite(TapeDrive* drive, uint64_t position,
                                  uint64_t nbytes) {
  return OnTapeTransfer(drive, position, nbytes, /*is_write=*/true);
}

Status FaultInjector::OnTapeRead(TapeDrive* drive, uint64_t position,
                                 uint64_t nbytes) {
  return OnTapeTransfer(drive, position, nbytes, /*is_write=*/false);
}

}  // namespace bkup
