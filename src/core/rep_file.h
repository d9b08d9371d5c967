// RepFile: a read-only handle over a rep container file, the backing of
// every rep load (core/serialization.h, LoadCompressedRep).
//
// Two modes, one interface; the loader borrows its columns straight out of
// data() either way (util/col_store.h):
//   * kMap  — the file is mmap'ed PROT_READ / MAP_PRIVATE and the fd is
//     closed at once (the mapping keeps the file alive). Opening is O(1)
//     regardless of file size and the OS pages data in on demand — a rep
//     larger than RAM serves with the page cache as the eviction policy.
//   * kRead — the file is read into a 64-byte-aligned heap buffer: O(bytes)
//     open, no file dependency afterwards. This one read routine is also
//     what kMap degrades to on platforms without mmap, so callers never
//     need a platform branch.
//
// ResidentBytes() reports the bytes currently resident in physical memory:
// a mincore page sweep over a mapping, the full size of a heap buffer. This
// is what a byte-budgeted cache must charge a mapped entry: the *virtual*
// size of the mapping is the file size, but an untouched mapping costs
// nothing — see plan/rep_cache.h (RepCacheOptions::max_resident_bytes).
//
// Lifetime: structures borrowing from the file hold no reference to it;
// the CompressedRep that owns them keeps the shared_ptr<RepFile> alive for
// as long as any borrowed column can be read.
#ifndef CQC_CORE_REP_FILE_H_
#define CQC_CORE_REP_FILE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "util/status.h"

namespace cqc {

class RepFile {
 public:
  enum class Mode {
    kRead,  // copy into an aligned heap buffer
    kMap,   // zero-copy mapping (kRead where mmap is unavailable)
  };

  /// Opens `path` in `mode`. Fails with a Status error on a missing or
  /// unreadable file; an empty file opens with size() == 0 (the loader
  /// rejects it at the magic check).
  static Result<std::shared_ptr<RepFile>> Open(const std::string& path,
                                               Mode mode);

  ~RepFile();
  RepFile(const RepFile&) = delete;
  RepFile& operator=(const RepFile&) = delete;

  /// The file's bytes; 64-byte-aligned in both modes (page-aligned when
  /// mapped), so 64-byte-aligned blocks can be borrowed in place.
  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  const std::string& path() const { return path_; }
  /// True when the handle is a real mapping (false for a heap buffer).
  bool mapped() const { return map_ != nullptr; }

  /// Bytes currently resident in physical memory (mincore page sweep over
  /// a mapping; a heap buffer, or a platform without mincore, reports the
  /// full size — the conservative charge).
  size_t ResidentBytes() const;

 private:
  RepFile() = default;
  /// The one heap read routine (kRead, and kMap without mmap).
  Status ReadIntoHeap();

  struct alignas(64) Line {
    uint8_t bytes[64];
  };

  std::string path_;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  void* map_ = nullptr;          // non-null iff mmap'ed
  std::unique_ptr<Line[]> heap_;  // kRead storage
};

}  // namespace cqc

#endif  // CQC_CORE_REP_FILE_H_
