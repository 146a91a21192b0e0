// Read-only memory-mapped file with advisory residency control.
//
// A mapped index snapshot is scanned in place: posting-list payload segments
// are 64-byte-aligned in the file, the file is mapped once, and the SIMD
// scan kernels read rows straight out of the mapping — the kernel's page
// cache is the storage tier. MmapFile is the RAII wrapper the tier layer
// builds on: open + map at construction, unmap at destruction, and
// madvise() pass-throughs so the hot-list cache can hint which segments
// should be resident (kWillNeed on admit) or dropped (kDontNeed on evict).
//
// Residency hints are *advisory*: on a read-only file mapping, MADV_DONTNEED
// discards the pages and a later access refaults them from the file, so an
// over-eager eviction is a performance hazard, never a correctness hazard.
// On platforms without mmap the whole file is read into an aligned heap
// block instead (mapped() == false) and the hints become no-ops — every
// consumer works unchanged, it just stops being demand-paged.
//
// The descriptor stays open for the lifetime of the mapping. That gives two
// integrity hooks the tier layer relies on: an advisory LOCK_SH flock held
// while the file is mapped (a writer taking LOCK_EX fails loudly instead of
// rewriting bytes under a live scan), and Pread() — a syscall-path read that
// never touches the mapping, so the scrubber can verify segments without
// SIGBUS risk and without perturbing page residency.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "vecmath/aligned.h"

namespace jdvs {

// Typed failure for open/map errors (missing file, empty file, non-regular
// file, lock conflict, mmap denial).
struct MmapError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class MmapFile {
 public:
  enum class Advice {
    kWillNeed,  // fault these pages in soon (cache admit)
    kDontNeed,  // drop these pages; refault from file on next access (evict)
  };

  MmapFile() = default;

  // Opens `path` read-only and maps it (or heap-reads it on platforms
  // without mmap). Throws MmapError on failure; an empty or non-regular
  // file is an error. With `lock_shared`, takes a non-blocking LOCK_SH
  // flock held until destruction — throws MmapError if a writer holds
  // LOCK_EX (the file is being rewritten).
  static MmapFile Open(const std::string& path, bool lock_shared = false);

  MmapFile(MmapFile&& other) noexcept { *this = std::move(other); }
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;
  ~MmapFile();

  const std::uint8_t* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  bool valid() const noexcept { return data_ != nullptr; }
  // True when the bytes are a real file mapping (demand-paged); false on the
  // heap-read fallback, where Advise is a no-op.
  bool mapped() const noexcept { return mapped_; }
  // True when a LOCK_SH flock is held on the underlying descriptor.
  bool locked() const noexcept { return locked_; }

  // madvise() over [offset, offset+length), widened to page boundaries.
  // Returns false when the hint was not applied (fallback mode or kernel
  // refusal) — callers must treat that as "no hint", not as an error.
  bool Advise(std::size_t offset, std::size_t length, Advice advice) const;

  // Reads [offset, offset+length) through the syscall path (pread on the
  // retained descriptor), never through the mapping — an I/O error comes
  // back as `false`, not SIGBUS. Falls back to a copy from the heap block
  // in fallback mode. Returns false on short read or out-of-range request.
  bool Pread(std::size_t offset, void* out, std::size_t length) const;

 private:
  std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
  bool locked_ = false;
  int fd_ = -1;
  // Heap fallback storage (only set when mapped_ is false).
  AlignedArray<std::uint8_t> heap_;
};

}  // namespace jdvs
