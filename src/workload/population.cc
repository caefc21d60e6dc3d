#include "src/workload/population.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "src/util/checksum.h"
#include "src/util/random.h"

namespace bkup {

std::string QuotaTreePath(uint32_t index) {
  return "/qt" + std::to_string(index);
}

namespace {

// Lognormal file size distribution (median and shape), capped.
constexpr double kMedianFileBytes = 24 * 1024;
constexpr double kSigma = 1.4;
constexpr uint64_t kMaxFileBytes = 8 * kMiB;
// Tree shape: the chance each step opens a new directory instead of a file.
constexpr double kSubdirProbability = 0.12;
// Namespace variety.
constexpr double kSymlinkFraction = 0.02;
constexpr double kHardlinkFraction = 0.01;
constexpr double kSparseFraction = 0.02;

// Writes `nbytes` of seeded data in bounded slices (keeps any attached
// NVRAM log from ballooning on huge files).
Status WriteSeededData(Filesystem* fs, Inum inum, uint64_t offset,
                       uint64_t nbytes, Rng* rng) {
  std::vector<uint8_t> chunk;
  uint64_t written = 0;
  while (written < nbytes) {
    const uint64_t n = std::min<uint64_t>(nbytes - written, 512 * kKiB);
    chunk.resize(n);
    rng->Fill(chunk);
    BKUP_RETURN_IF_ERROR(fs->Write(inum, offset + written, chunk));
    written += n;
  }
  return Status::Ok();
}

uint64_t SampleFileSize(Rng* rng) {
  const double mu = std::log(kMedianFileBytes);
  const double size = rng->LogNormal(mu, kSigma);
  return std::clamp<uint64_t>(static_cast<uint64_t>(size), 1, kMaxFileBytes);
}

}  // namespace

Result<WorkloadStats> PopulateFilesystem(Filesystem* fs,
                                         const WorkloadParams& params) {
  if (params.quota_trees == 0) {
    return InvalidArgument("need at least one quota tree");
  }
  Rng rng(params.seed);
  WorkloadStats stats;
  const uint64_t per_tree = params.target_bytes / params.quota_trees;

  for (uint32_t qt = 0; qt < params.quota_trees; ++qt) {
    const std::string root =
        params.quota_trees == 1 ? "" : QuotaTreePath(qt);
    if (!root.empty()) {
      BKUP_RETURN_IF_ERROR(fs->Mkdir(root, 0755).status());
      stats.directories++;
    }
    // Directories we may place files into; bias toward recent ones so the
    // tree grows deep as well as wide.
    std::vector<std::string> dirs{root};
    uint64_t tree_bytes = 0;
    uint32_t file_seq = 0;
    std::string last_file_path;

    while (tree_bytes < per_tree) {
      // Occasionally open a new directory.
      if (rng.Chance(kSubdirProbability)) {
        const std::string parent = dirs[dirs.size() <= 4
                                            ? rng.Below(dirs.size())
                                            : dirs.size() - 1 -
                                                  rng.Below(4)];
        const std::string path =
            parent + "/" + rng.Name(3) + std::to_string(dirs.size());
        BKUP_RETURN_IF_ERROR(fs->Mkdir(path, 0755).status());
        dirs.push_back(path);
        stats.directories++;
        continue;
      }
      const std::string& dir = dirs[rng.Below(dirs.size())];
      const std::string name = rng.Name(6) + std::to_string(file_seq++);
      const std::string path = dir + "/" + name;

      if (!last_file_path.empty() && rng.Chance(kSymlinkFraction)) {
        BKUP_RETURN_IF_ERROR(
            fs->SymlinkAt(last_file_path, path + ".lnk").status());
        stats.symlinks++;
        continue;
      }
      if (!last_file_path.empty() && rng.Chance(kHardlinkFraction)) {
        Status st = fs->Link(last_file_path, path + ".hl");
        if (st.ok()) {
          stats.hardlinks++;
        }
        continue;
      }

      BKUP_ASSIGN_OR_RETURN(Inum inum, fs->Create(path, 0644));
      uint64_t size = SampleFileSize(&rng);
      size = std::min(size, per_tree - tree_bytes);
      if (size == 0) {
        size = 1;
      }
      if (rng.Chance(kSparseFraction) && size > 2 * kBlockSize) {
        // Sparse file: real data only in the final stretch.
        const uint64_t hole = size / 2 / kBlockSize * kBlockSize;
        BKUP_RETURN_IF_ERROR(
            WriteSeededData(fs, inum, hole, size - hole, &rng));
      } else {
        BKUP_RETURN_IF_ERROR(WriteSeededData(fs, inum, 0, size, &rng));
      }
      stats.files++;
      stats.bytes += size;
      tree_bytes += size;
      last_file_path = path;

      // Keep the dirty set bounded, as periodic consistency points would.
      if (stats.files % 64 == 0) {
        BKUP_RETURN_IF_ERROR(fs->ConsistencyPoint().status());
      }
    }
  }
  BKUP_RETURN_IF_ERROR(fs->ConsistencyPoint().status());
  return stats;
}

Status WalkTree(const FsReader& reader, const std::string& root_path,
                const std::function<void(const std::string&, Inum,
                                         const InodeData&)>& fn) {
  BKUP_ASSIGN_OR_RETURN(Inum root, reader.LookupPath(root_path));
  std::deque<std::pair<Inum, std::string>> queue{
      {root, root_path == "/" ? "" : root_path}};
  while (!queue.empty()) {
    auto [dir, path] = queue.front();
    queue.pop_front();
    BKUP_ASSIGN_OR_RETURN(std::vector<DirEntry> entries,
                          reader.ReadDirInum(dir));
    for (const DirEntry& e : entries) {
      const std::string child = path + "/" + e.name;
      if (e.type == InodeType::kDirectory) {
        queue.emplace_back(e.inum, child);
      } else {
        BKUP_ASSIGN_OR_RETURN(InodeData inode, reader.ReadInode(e.inum));
        fn(child, e.inum, inode);
      }
    }
  }
  return Status::Ok();
}

Result<std::map<std::string, uint32_t>> ChecksumTree(
    const FsReader& reader, const std::string& root_path) {
  std::map<std::string, uint32_t> sums;
  Status inner = Status::Ok();
  BKUP_RETURN_IF_ERROR(WalkTree(
      reader, root_path,
      [&](const std::string& path, Inum inum, const InodeData& inode) {
        (void)inum;
        if (!inner.ok()) {
          return;
        }
        std::vector<uint8_t> bytes;
        Status st = reader.ReadFile(inode, 0, inode.size, &bytes);
        if (!st.ok()) {
          inner = st;
          return;
        }
        sums[path] = Crc32c(bytes);
      }));
  BKUP_RETURN_IF_ERROR(inner);
  return sums;
}

}  // namespace bkup
