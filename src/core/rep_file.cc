#include "core/rep_file.h"

#include <fstream>
#include <vector>

#include "util/failpoint.h"

#if defined(__unix__) || defined(__APPLE__)
#define CQC_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define CQC_HAVE_MMAP 0
#endif

namespace cqc {

Result<std::shared_ptr<RepFile>> RepFile::Open(const std::string& path,
                                               Mode mode) {
  // "rep_file/open" models the open/stat failing (missing snapshot, bad
  // permissions); "rep_file/mmap" models the mapping itself failing
  // (address-space or memory pressure) — distinct because the cache
  // retry policy treats them identically but chaos tests want to hit the
  // cleanup paths of each.
  CQC_FAILPOINT_RESULT("rep_file/open");
  std::shared_ptr<RepFile> f(new RepFile());
  f->path_ = path;
#if CQC_HAVE_MMAP
  if (mode == Mode::kMap) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return Status::Error("cannot open " + path);
    // The mapping keeps the file alive: the fd is closed on every exit.
    struct FdCloser {
      int fd;
      ~FdCloser() { ::close(fd); }
    } closer{fd};
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0)
      return Status::Error("cannot stat " + path);
    f->size_ = (size_t)st.st_size;
    if (f->size_ == 0) return f;  // empty file: no mapping needed
    CQC_FAILPOINT_RESULT("rep_file/mmap");
    void* map = ::mmap(nullptr, f->size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map == MAP_FAILED) {
      f->size_ = 0;
      return Status::Error("mmap failed for " + path);
    }
    f->map_ = map;
    f->data_ = static_cast<const uint8_t*>(map);
    return f;
  }
#else
  (void)mode;  // no mmap on this platform: every open reads
#endif
  if (Status s = f->ReadIntoHeap(); !s.ok()) return s;
  return f;
}

Status RepFile::ReadIntoHeap() {
  std::ifstream in(path_, std::ios::binary);
  if (!in.is_open()) return Status::Error("cannot open " + path_);
  in.seekg(0, std::ios::end);
  const std::streamoff n = in.tellg();
  if (n < 0) return Status::Error("cannot stat " + path_);
  if (n == 0) return Status::Ok();
  in.seekg(0);
  // Default-initialized lines: the read fills every byte that is ever
  // addressed (size_ bounds all access), so no zeroing pass.
  heap_.reset(new Line[((size_t)n + sizeof(Line) - 1) / sizeof(Line)]);
  if (!in.read(reinterpret_cast<char*>(heap_.get()), n))
    return Status::Error("read failed: " + path_);
  data_ = heap_.get()->bytes;
  size_ = (size_t)n;
  return Status::Ok();
}

RepFile::~RepFile() {
#if CQC_HAVE_MMAP
  if (map_ != nullptr) ::munmap(map_, size_);
#endif
}

size_t RepFile::ResidentBytes() const {
#if CQC_HAVE_MMAP
  if (map_ != nullptr) {
    const size_t page = (size_t)::sysconf(_SC_PAGESIZE);
    const size_t pages = (size_ + page - 1) / page;
    std::vector<unsigned char> vec(pages);
#if defined(__linux__)
    if (::mincore(map_, size_, vec.data()) != 0) return size_;
#else
    if (::mincore(map_, size_, reinterpret_cast<char*>(vec.data())) != 0)
      return size_;
#endif
    size_t resident_pages = 0;
    for (unsigned char v : vec) resident_pages += v & 1;
    // The tail page is partial: charge only the mapped bytes on it.
    size_t bytes = resident_pages * page;
    if (!vec.empty() && (vec.back() & 1) && size_ % page != 0)
      bytes -= page - size_ % page;
    return bytes;
  }
#endif
  return size_;  // a heap buffer is resident in full
}

}  // namespace cqc
