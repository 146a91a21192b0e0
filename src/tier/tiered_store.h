// Hot-list residency cache over an mmap'd index snapshot (index/snapshot.h).
//
// The tiered index keeps the "head" in RAM — coarse quantizer, per-list
// directory, LocalId/norm arrays, attribute filter index — while the big
// per-list payload segments (the padded feature rows) stay in the snapshot
// file and are demand-paged through one read-only mapping
// (SPANN/DiskANN-style head-in-RAM, postings-on-disk). The TieredListStore
// is the residency policy on top of that mapping: an explicit clock
// (second-chance) cache over whole posting lists, sized by
// `resident_bytes_budget`, with madvise hints on admit/evict and a pin
// contract for scans.
//
// Pin contract: a scan calls Pin() with its probe set before touching any
// row; cold lists are faulted in (madvise(WILLNEED) + page touch, timed into
// the fault histogram) and every pinned list is exempt from eviction until
// the returned guard dies. Eviction is *advisory page release* — the data is
// a read-only file mapping, so a dropped page refaults from the file with
// identical bytes; eviction can therefore never corrupt a scan, only slow
// one down, and the pin exists to keep the hot path off that slow refault.
//
// Deadline interaction: Pin() charges accumulated fault time against the
// caller's io budget (micros). Once the budget is exhausted the remaining
// probes are dropped — the query degrades to a reduced effective nprobe
// (the PR 4 degradation ladder's cheapest rung) instead of blowing p99 on a
// string of cold reads. At least one list is always served so a fully cold
// query still returns results.
//
// Integrity: storage is treated as an adversary. The snapshot directory
// carries a CRC32C per list, and a list is verified on its first fault-in
// after load or after re-residency — the page touch that faults the data in
// doubles as the checksum walk, so a warmed hot path pays nothing.
// The touch+verify runs under a scoped SIGBUS guard: an I/O error or a file
// truncated behind the mapping surfaces as a typed TieredIoError for that
// probe instead of process death. A list that fails its checksum or faults
// is *quarantined* (atomic per-list poisoned flag): scans skip it and count
// the skip so the response can be marked degraded, and the control plane
// repairs the replica from a healthy peer when quarantine crosses its
// threshold. ScrubList() verifies a segment through the syscall path
// (pread), so a background scrubber can walk the file without perturbing
// residency and without SIGBUS exposure.
//
// Concurrency: any number of threads may Pin/unpin concurrently (scans are
// lock-free readers of the index itself; the store takes a short mutex per
// list transition). The page-touch walk happens outside the lock; a list
// mid-fault is in a `faulting` state and concurrent pinners wait on it, so
// no scan ever reads a checksummed segment before verification finishes.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/clock.h"
#include "obs/registry.h"
#include "tier/mmap_file.h"

namespace jdvs {

class FaultInjector;

// Typed failure for payload I/O: SIGBUS under the mapping (page loss,
// truncation behind the mapping) or a pread error during scrub. The store
// converts these into quarantine + skip on the query path; the type carries
// the diagnosis into logs and tools.
struct TieredIoError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct TieredStoreConfig {
  // Target resident payload bytes; 0 = unlimited (first touch faults a list
  // in and nothing is ever evicted). The budget is advisory: when every
  // resident list is pinned, admission overshoots rather than failing.
  std::size_t resident_bytes_budget = 0;
  // Drop all payload pages at construction so serving starts genuinely cold
  // (the file was usually just written and is warm in the page cache).
  bool drop_pages_on_load = true;
  obs::Registry* registry = nullptr;  // nullptr = obs::Registry::Default()
  const Clock* clock = nullptr;       // nullptr = MonotonicClock::Instance()
  // Optional deterministic storage-fault injection (tests, chaos bench):
  // fault-ins consult injector->DecideStorage(node_name).
  FaultInjector* fault_injector = nullptr;
  std::string node_name;
};

// Per-query tier accounting, folded into the searcher_io flight stage.
struct TierScanStats {
  std::uint32_t lists_hit = 0;      // probed lists already resident
  std::uint32_t lists_faulted = 0;  // probed lists faulted in
  std::uint32_t probes_dropped = 0; // probes dropped for io budget
  std::uint32_t lists_quarantined = 0;  // probes skipped or newly poisoned
  Micros fault_micros = 0;          // wall time spent faulting
};

// Cumulative store state (statusz section, bench JSON).
struct TieredStoreStats {
  std::size_t num_lists = 0;
  std::size_t resident_lists = 0;
  std::size_t resident_bytes = 0;
  std::size_t budget_bytes = 0;
  std::size_t payload_bytes = 0;  // total on-disk payload across lists
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t probes_dropped = 0;
  bool has_checksums = false;
  std::uint64_t quarantined_lists = 0;  // currently poisoned
  std::uint64_t quarantine_events = 0;  // lists ever poisoned
  std::uint64_t quarantine_skips = 0;   // probes skipped on poisoned lists
  std::uint64_t io_errors = 0;          // SIGBUS/pread failures survived
};

class TieredListStore {
 public:
  // One list's payload segment inside the file.
  struct ListExtent {
    std::uint64_t offset = 0;
    std::uint64_t bytes = 0;
  };

  // Outcome of a scrub pass over one list.
  enum class ScrubStatus {
    kOk,                  // checksum verified
    kEmpty,               // empty segment, nothing to verify
    kNoChecksum,          // store built without checksums
    kAlreadyQuarantined,  // previously poisoned, left alone
    kIoError,             // read failed → quarantined
    kCorrupt,             // checksum mismatch → quarantined
  };

  // Takes ownership of the mapping. `extents[i]` is list i's payload
  // segment; empty lists use bytes == 0. `checksums` (may be empty = no
  // integrity data) is the per-list CRC32C over the exact payload bytes of
  // each segment.
  TieredListStore(MmapFile file, std::vector<ListExtent> extents,
                  std::vector<std::uint32_t> checksums,
                  const TieredStoreConfig& config);
  TieredListStore(MmapFile file, std::vector<ListExtent> extents,
                  const TieredStoreConfig& config)
      : TieredListStore(std::move(file), std::move(extents), {}, config) {}

  TieredListStore(const TieredListStore&) = delete;
  TieredListStore& operator=(const TieredListStore&) = delete;

  // RAII pin over the subset of the Pin() probe set that was actually
  // admitted (quarantined lists are skipped, over-budget tails dropped).
  // While alive, none of the pinned lists can be evicted.
  class PinGuard {
   public:
    PinGuard() = default;
    PinGuard(PinGuard&& other) noexcept { *this = std::move(other); }
    PinGuard& operator=(PinGuard&& other) noexcept;
    PinGuard(const PinGuard&) = delete;
    PinGuard& operator=(const PinGuard&) = delete;
    ~PinGuard();

    // The pinned, scannable lists, in probe order. Not necessarily a prefix
    // of the Pin() argument: a quarantined list mid-set is skipped.
    const std::vector<std::uint32_t>& pinned() const noexcept {
      return pinned_;
    }
    std::size_t num_pinned() const noexcept { return pinned_.size(); }

   private:
    friend class TieredListStore;
    TieredListStore* store_ = nullptr;
    std::vector<std::uint32_t> pinned_;
  };

  // Pins `lists` in order, faulting cold ones. `io_budget_micros` bounds the
  // accumulated fault time: when exceeded, the remaining (coldest-ranked
  // last) probes are dropped and counted, but the first list is always
  // served. 0 = unlimited. Quarantined lists are skipped (never scanned,
  // never fatal). `stats` (optional) receives per-call accounting.
  PinGuard Pin(std::span<const std::uint32_t> lists, Micros io_budget_micros,
               TierScanStats* stats);

  // Verifies one list's payload against its checksum through the syscall
  // path (pread) — no SIGBUS exposure, no residency perturbation. Poisons
  // the list on mismatch or read failure. `elapsed_micros` (optional)
  // receives the wall time so a scrubber can charge an io budget.
  ScrubStatus ScrubList(std::uint32_t list, Micros* elapsed_micros = nullptr);

  // Drops every unpinned resident list and clears verification state, as if
  // the page cache went cold (bench/chaos hook: corruption written to the
  // file at rest is only observable through a re-fault, and re-residency
  // must re-verify).
  void DropResidency();

  TieredStoreStats Stats() const;
  // statusz section body.
  void RenderStatus(std::ostream& os) const;

  const MmapFile& file() const noexcept { return file_; }
  std::size_t num_lists() const noexcept { return states_.size(); }
  bool has_checksums() const noexcept { return !checksums_.empty(); }
  // List i's payload extent; immutable after construction (inspection).
  ListExtent extent(std::size_t list) const { return states_[list].extent; }
  bool poisoned(std::size_t list) const {
    return poisoned_[list].load(std::memory_order_acquire) != 0;
  }
  // Currently quarantined list count (control-plane health signal).
  std::uint64_t quarantined_lists() const {
    return quarantined_now_.load(std::memory_order_relaxed);
  }

 private:
  struct ListState {
    ListExtent extent;
    std::uint32_t pin_count = 0;
    bool resident = false;
    bool ref = false;       // clock second-chance bit
    bool verified = false;  // checksum verified for the current residency
    bool faulting = false;  // fault-in + verification in flight
  };

  // Evicts unpinned resident lists until `need` more bytes fit under the
  // budget (or nothing evictable remains). Appends dropped extents to
  // `dropped` for the caller to madvise outside the lock. Lock held.
  void EvictForLocked(std::size_t need, std::vector<ListExtent>& dropped);
  void Unpin(std::span<const std::uint32_t> lists);
  // Poisons `list` and rolls back its in-flight admission (lock taken
  // inside). `io_error` selects the error counter. Returns the extent so
  // the caller can drop its pages outside the lock.
  void QuarantineFromFault(std::uint32_t list, bool io_error,
                           const char* reason);
  // Poisons `list` from the scrub path; un-residents it when unpinned.
  void QuarantineFromScrub(std::uint32_t list, bool io_error,
                           const char* reason);
  void NotePoisonedLocked(std::uint32_t list, bool io_error,
                          const char* reason);
  // Walks the extent's pages (and computes the CRC when `crc_out` is
  // non-null) under a scoped SIGBUS guard. Returns false when the access
  // faulted — truncated file, lost page, I/O error.
  bool TouchExtentGuarded(const ListExtent& extent,
                          std::uint32_t* crc_out) const;

  MmapFile file_;
  const TieredStoreConfig config_;
  const Clock* clock_;
  std::size_t payload_bytes_ = 0;
  std::vector<std::uint32_t> checksums_;  // empty = no integrity data

  mutable std::mutex mu_;
  std::condition_variable fault_cv_;
  std::vector<ListState> states_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> poisoned_;
  std::size_t resident_bytes_ = 0;
  std::size_t resident_lists_ = 0;
  std::size_t clock_hand_ = 0;

  // Store-local cumulative counters (mirrored into the registry instruments,
  // which may be shared across partitions).
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> probes_dropped_{0};
  std::atomic<std::uint64_t> quarantined_now_{0};
  std::atomic<std::uint64_t> quarantine_events_{0};
  std::atomic<std::uint64_t> quarantine_skips_{0};
  std::atomic<std::uint64_t> io_errors_{0};

  obs::Counter* hits_metric_;
  obs::Counter* misses_metric_;
  obs::Counter* evictions_metric_;
  obs::Counter* probes_dropped_metric_;
  obs::Counter* quarantine_metric_;
  obs::Counter* quarantine_skips_metric_;
  obs::Counter* io_errors_metric_;
  obs::Gauge* resident_bytes_metric_;
  obs::Gauge* budget_bytes_metric_;
  obs::Gauge* quarantine_lists_metric_;
  Histogram* fault_micros_metric_;
};

}  // namespace jdvs
