// Synthetic file-system population, standing in for the paper's 188 GB
// "copies of real file systems from Network Appliance's engineering
// department".
//
// The generator builds a directory tree with lognormally distributed file
// sizes (the classic engineering-home-directory shape: many small files,
// a long tail of large ones), optionally split into N equal "quota trees"
// — the NetApp construct §5.2 uses to parallelize logical dumps. Content is
// deterministic in the seed, so restores can be verified without golden
// copies.
#ifndef BKUP_WORKLOAD_POPULATION_H_
#define BKUP_WORKLOAD_POPULATION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "src/fs/filesystem.h"
#include "src/fs/reader.h"
#include "src/util/status.h"

namespace bkup {

struct WorkloadParams {
  uint64_t seed = 1999;
  // Total user data to create, split evenly across quota trees.
  uint64_t target_bytes = 64 * kMiB;
  // Number of top-level quota trees ("/qt0", "/qt1", ...).
  uint32_t quota_trees = 1;
};

struct WorkloadStats {
  uint32_t files = 0;
  uint32_t directories = 0;
  uint32_t symlinks = 0;
  uint32_t hardlinks = 0;
  uint64_t bytes = 0;
};

// Fills `fs` per the parameters and leaves it at a consistency point.
Result<WorkloadStats> PopulateFilesystem(Filesystem* fs,
                                         const WorkloadParams& params);

// Quota-tree root path ("/qt2").
std::string QuotaTreePath(uint32_t index);

// ------------------------------------------------------------- tree walk ---

// Visits every file/symlink (not directories) under `root_path`, with its
// absolute path and inode.
Status WalkTree(const FsReader& reader, const std::string& root_path,
                const std::function<void(const std::string&,
                                         Inum, const InodeData&)>& fn);

// CRC-32C of every file's content, keyed by path — the standard way the
// tests and examples compare a restored tree against its source.
Result<std::map<std::string, uint32_t>> ChecksumTree(
    const FsReader& reader, const std::string& root_path = "/");

}  // namespace bkup

#endif  // BKUP_WORKLOAD_POPULATION_H_
