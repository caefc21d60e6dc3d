// A remote tape server: the far end of a NetLink.
//
// The node that NDMP calls the "tape service": it owns drives fed from a
// `TapeLibrary` and sits across the link from the filer. The server is
// structural — drives, media, naming — and runs no coroutine of its own:
// the server-side tape writer and the one media reader that every restore
// uses (whole or ranged, local or remote) live in src/backup/replay.cc and
// run at the server end of a remote stream, which keeps src/net
// independent of the backup layer.
#ifndef BKUP_NET_TAPE_SERVER_H_
#define BKUP_NET_TAPE_SERVER_H_

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/block/tape.h"
#include "src/block/tape_library.h"
#include "src/sim/environment.h"
#include "src/util/status.h"

namespace bkup {

class TapeServer {
 public:
  TapeServer(SimEnvironment* env, std::string name,
             TapeLibrary* library = nullptr)
      : env_(env), name_(std::move(name)), library_(library) {}

  SimEnvironment* env() const { return env_; }
  const std::string& name() const { return name_; }
  TapeLibrary* library() const { return library_; }

  // Adds a drive named "<server>.<name>"; the server owns it.
  TapeDrive* AddDrive(const std::string& name,
                      TapeTiming timing = TapeTiming()) {
    drives_.push_back(
        std::make_unique<TapeDrive>(env_, name_ + "." + name, timing));
    return drives_.back().get();
  }

  size_t num_drives() const { return drives_.size(); }
  TapeDrive* drive(size_t i) { return drives_[i].get(); }

  // Instantaneous library load (tests and setup); jobs pay drive load time
  // through TimedLoadMedia as usual.
  Status LoadSlot(size_t drive_index, size_t slot) {
    if (library_ == nullptr) {
      return FailedPrecondition(name_ + ": no tape library attached");
    }
    return library_->LoadSlot(drive(drive_index), slot);
  }

 private:
  SimEnvironment* env_;
  std::string name_;
  TapeLibrary* library_;
  std::vector<std::unique_ptr<TapeDrive>> drives_;
};

}  // namespace bkup

#endif  // BKUP_NET_TAPE_SERVER_H_
