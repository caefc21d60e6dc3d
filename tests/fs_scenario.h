// Shared file-system scenarios for the fs and NVRAM journal tests: a log
// holding every kind of logged operation, and a path-ordered description of
// a live tree to compare two file systems by.
#ifndef BKUP_TESTS_FS_SCENARIO_H_
#define BKUP_TESTS_FS_SCENARIO_H_

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/fs/filesystem.h"
#include "src/util/checksum.h"
#include "src/util/random.h"

namespace bkup {

// Commits a small tree in one consistency point, then performs each of the
// ten logged operations (create, mkdir, symlink, link, unlink, rmdir,
// rename, write, truncate, setattr) so that the file system's NVRAM log
// holds one record of every kind, eleven in all (two writes). The simulated
// clock is not advanced, so no automatic consistency point intervenes.
inline Status LogEveryOpKind(Filesystem* fs) {
  std::vector<uint8_t> bytes(6000);
  Rng(29).Fill(bytes);
  BKUP_RETURN_IF_ERROR(fs->Mkdir("/d", 0755).status());
  BKUP_ASSIGN_OR_RETURN(Inum a, fs->Create("/d/a", 0644));
  BKUP_RETURN_IF_ERROR(fs->Write(a, 0, bytes));
  BKUP_ASSIGN_OR_RETURN(Inum b, fs->Create("/d/b", 0600));
  BKUP_RETURN_IF_ERROR(fs->Write(b, 0, std::span(bytes).first(100)));
  BKUP_RETURN_IF_ERROR(fs->Mkdir("/d/empty", 0700).status());
  BKUP_RETURN_IF_ERROR(fs->Create("/d/victim", 0644).status());
  BKUP_RETURN_IF_ERROR(fs->ConsistencyPoint().status());

  BKUP_ASSIGN_OR_RETURN(Inum fresh, fs->Create("/d/new", 0640));
  BKUP_RETURN_IF_ERROR(fs->Mkdir("/d/sub", 0711).status());
  BKUP_RETURN_IF_ERROR(fs->SymlinkAt("/d/a", "/d/sub/link").status());
  BKUP_RETURN_IF_ERROR(fs->Link("/d/a", "/d/sub/hard"));
  BKUP_RETURN_IF_ERROR(fs->Unlink("/d/victim"));
  BKUP_RETURN_IF_ERROR(fs->Rmdir("/d/empty"));
  BKUP_RETURN_IF_ERROR(fs->Rename("/d/b", "/d/sub/b2"));
  std::vector<uint8_t> more(9000);
  Rng(30).Fill(more);
  BKUP_RETURN_IF_ERROR(fs->Write(fresh, 1000, more));
  BKUP_RETURN_IF_ERROR(fs->Write(a, 4000, std::span(more).first(3000)));
  BKUP_RETURN_IF_ERROR(fs->Truncate(a, 2500));
  SetAttrRequest attrs;
  attrs.mode = 0600;
  attrs.uid = 42;
  attrs.gid = 7;
  attrs.mtime = 12345;
  return fs->SetAttr(a, attrs);
}

// One line per reachable inode, depth first in name order: path, inum,
// type, attributes and a CRC of the content (or the symlink target).
inline Status DescribeTree(Filesystem* fs, const std::string& path, Inum inum,
                           std::vector<std::string>* out) {
  BKUP_ASSIGN_OR_RETURN(InodeData attr, fs->GetAttr(inum));
  std::string body;
  if (attr.type == InodeType::kSymlink) {
    BKUP_ASSIGN_OR_RETURN(body, fs->ReadSymlink(inum));
  } else if (attr.type == InodeType::kFile) {
    std::vector<uint8_t> bytes;
    BKUP_RETURN_IF_ERROR(fs->Read(inum, 0, attr.size, &bytes));
    body = std::to_string(Crc32c(bytes));
  }
  char line[256];
  std::snprintf(line, sizeof(line),
                " inum=%u type=%d gen=%u nlink=%u mode=%o uid=%u gid=%u "
                "size=%llu mtime=%lld ctime=%lld ",
                inum, static_cast<int>(attr.type), attr.generation,
                attr.nlink, attr.mode, attr.uid, attr.gid,
                static_cast<unsigned long long>(attr.size),
                static_cast<long long>(attr.mtime),
                static_cast<long long>(attr.ctime));
  out->push_back(path + line + body);
  if (attr.type != InodeType::kDirectory) {
    return Status::Ok();
  }
  BKUP_ASSIGN_OR_RETURN(std::vector<DirEntry> entries, fs->ReadDir(inum));
  std::sort(entries.begin(), entries.end(),
            [](const DirEntry& x, const DirEntry& y) { return x.name < y.name; });
  for (const DirEntry& e : entries) {
    BKUP_RETURN_IF_ERROR(DescribeTree(fs, path + "/" + e.name, e.inum, out));
  }
  return Status::Ok();
}

inline Result<std::vector<std::string>> DescribeTree(Filesystem* fs) {
  std::vector<std::string> out;
  BKUP_RETURN_IF_ERROR(DescribeTree(fs, "", kRootDirInum, &out));
  return out;
}

}  // namespace bkup

#endif  // BKUP_TESTS_FS_SCENARIO_H_
