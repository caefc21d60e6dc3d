#include "src/workload/aging.h"

#include <vector>

#include "src/util/random.h"

namespace bkup {

namespace {

// Fraction of surviving files partially overwritten per round.
constexpr double kOverwriteFraction = 0.1;

}  // namespace

Result<AgingStats> AgeFilesystem(Filesystem* fs, const AgingParams& params) {
  Rng rng(params.seed);
  AgingStats stats;
  std::vector<uint8_t> chunk;

  for (uint32_t round = 0; round < params.rounds; ++round) {
    // Snapshot of the current file population (paths + sizes).
    BKUP_RETURN_IF_ERROR(fs->ConsistencyPoint().status());
    FsReader reader = fs->LiveReader();
    std::vector<std::pair<std::string, uint64_t>> files;
    BKUP_RETURN_IF_ERROR(WalkTree(
        reader, "/",
        [&files](const std::string& path, Inum inum, const InodeData& inode) {
          (void)inum;
          if (inode.type == InodeType::kFile && inode.nlink == 1) {
            files.emplace_back(path, inode.size);
          }
        }));
    if (files.empty()) {
      break;
    }

    uint64_t deleted_bytes = 0;
    for (const auto& [path, size] : files) {
      if (!rng.Chance(params.churn_fraction)) {
        continue;
      }
      BKUP_RETURN_IF_ERROR(fs->Unlink(path));
      deleted_bytes += size;
      stats.deletions++;
    }
    // Partial overwrites of survivors scatter their blocks.
    for (const auto& [path, size] : files) {
      if (size < 2 * kBlockSize || !rng.Chance(kOverwriteFraction)) {
        continue;
      }
      Result<Inum> inum = fs->LookupPath(path);
      if (!inum.ok()) {
        continue;  // deleted above
      }
      const uint64_t offset =
          rng.Below(size / kBlockSize) * kBlockSize;
      chunk.resize(kBlockSize);
      rng.Fill(chunk);
      BKUP_RETURN_IF_ERROR(fs->Write(*inum, offset, chunk));
      stats.overwrites++;
      if (stats.overwrites % 32 == 0) {
        BKUP_RETURN_IF_ERROR(fs->ConsistencyPoint().status());
      }
    }
    BKUP_RETURN_IF_ERROR(fs->ConsistencyPoint().status());

    // Refill roughly the deleted volume with new files in random dirs.
    std::vector<std::string> dirs;
    {
      FsReader fresh = fs->LiveReader();
      std::deque<std::pair<Inum, std::string>> queue{{kRootDirInum, ""}};
      dirs.push_back("");
      while (!queue.empty()) {
        auto [dir, path] = queue.front();
        queue.pop_front();
        BKUP_ASSIGN_OR_RETURN(std::vector<DirEntry> entries,
                              fresh.ReadDirInum(dir));
        for (const DirEntry& e : entries) {
          if (e.type == InodeType::kDirectory) {
            dirs.push_back(path + "/" + e.name);
            queue.emplace_back(e.inum, path + "/" + e.name);
          }
        }
      }
    }
    uint64_t refilled = 0;
    uint32_t seq = 0;
    while (refilled < deleted_bytes) {
      const std::string path = dirs[rng.Below(dirs.size())] + "/aged_r" +
                               std::to_string(round) + "_" +
                               std::to_string(seq++);
      BKUP_ASSIGN_OR_RETURN(Inum inum, fs->Create(path, 0644));
      const uint64_t size = std::min<uint64_t>(
          deleted_bytes - refilled, (rng.Below(16) + 1) * 2 * kBlockSize);
      chunk.resize(size);
      rng.Fill(chunk);
      BKUP_RETURN_IF_ERROR(fs->Write(inum, 0, chunk));
      refilled += size;
      stats.creations++;
      if (stats.creations % 64 == 0) {
        BKUP_RETURN_IF_ERROR(fs->ConsistencyPoint().status());
      }
    }
  }
  BKUP_RETURN_IF_ERROR(fs->ConsistencyPoint().status());
  return stats;
}

Result<FragmentationReport> MeasureFragmentation(const FsReader& reader,
                                                 const std::string& root) {
  FragmentationReport report;
  Status inner = Status::Ok();
  BKUP_RETURN_IF_ERROR(WalkTree(
      reader, root,
      [&](const std::string& path, Inum inum, const InodeData& inode) {
        (void)path;
        (void)inum;
        if (!inner.ok() || inode.type != InodeType::kFile) {
          return;
        }
        Result<std::vector<uint32_t>> ptrs = reader.PointerMap(inode);
        if (!ptrs.ok()) {
          inner = ptrs.status();
          return;
        }
        report.files++;
        uint32_t prev = 0;
        for (uint32_t p : *ptrs) {
          if (p == 0) {
            prev = 0;  // hole breaks a run
            continue;
          }
          report.mapped_blocks++;
          if (prev == 0 || p != prev + 1) {
            report.runs++;
          }
          prev = p;
        }
      }));
  BKUP_RETURN_IF_ERROR(inner);
  return report;
}

}  // namespace bkup
