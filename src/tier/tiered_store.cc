#include "tier/tiered_store.h"

#include <algorithm>
#include <chrono>
#include <csetjmp>
#include <csignal>
#include <cstring>
#include <thread>
#include <utility>

#include "common/crc32c.h"
#include "common/logging.h"
#include "net/fault_injector.h"

namespace jdvs {
namespace {

constexpr std::size_t kTouchStride = 4096;   // conservative page size
constexpr std::size_t kScrubChunk = 1 << 18; // pread buffer for scrub walks

#if defined(__linux__) || defined(__APPLE__)
#define JDVS_HAVE_SIGBUS_GUARD 1
// Scoped SIGBUS recovery for mapped-payload access. The handler is installed
// process-wide exactly once; it only acts when the faulting thread has an
// active guard (thread_local jump buffer), otherwise it restores the default
// disposition and re-raises so an unrelated SIGBUS still dies loudly with
// the right signal. sigsetjmp(.., 1) saves the signal mask so the longjmp
// out of the handler leaves the thread able to take the next SIGBUS.
thread_local sigjmp_buf* tl_sigbus_jmp = nullptr;

void SigbusHandler(int sig) {
  if (tl_sigbus_jmp != nullptr) siglongjmp(*tl_sigbus_jmp, 1);
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

void InstallSigbusHandler() {
  static std::once_flag once;
  std::call_once(once, [] {
    struct sigaction sa {};
    sa.sa_handler = SigbusHandler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    ::sigaction(SIGBUS, &sa, nullptr);
  });
}
#else
#define JDVS_HAVE_SIGBUS_GUARD 0
#endif

}  // namespace

TieredListStore::TieredListStore(MmapFile file,
                                 std::vector<ListExtent> extents,
                                 std::vector<std::uint32_t> checksums,
                                 const TieredStoreConfig& config)
    : file_(std::move(file)),
      config_(config),
      clock_(config.clock != nullptr ? config.clock
                                     : &MonotonicClock::Instance()),
      checksums_(std::move(checksums)) {
  obs::Registry& registry =
      config.registry != nullptr ? *config.registry : obs::Registry::Default();
  hits_metric_ = &registry.GetCounter("jdvs_tier_hits_total");
  misses_metric_ = &registry.GetCounter("jdvs_tier_misses_total");
  evictions_metric_ = &registry.GetCounter("jdvs_tier_evictions_total");
  probes_dropped_metric_ =
      &registry.GetCounter("jdvs_tier_probes_dropped_total");
  quarantine_metric_ = &registry.GetCounter("jdvs_tier_quarantine_total");
  quarantine_skips_metric_ =
      &registry.GetCounter("jdvs_tier_quarantine_skips_total");
  io_errors_metric_ = &registry.GetCounter("jdvs_tier_io_errors_total");
  resident_bytes_metric_ = &registry.GetGauge("jdvs_tier_resident_bytes");
  budget_bytes_metric_ = &registry.GetGauge("jdvs_tier_budget_bytes");
  quarantine_lists_metric_ =
      &registry.GetGauge("jdvs_tier_quarantine_lists");
  fault_micros_metric_ = &registry.GetHistogram("jdvs_tier_fault_micros");
  fault_micros_metric_->EnableExemplars();
  budget_bytes_metric_->Add(
      static_cast<std::int64_t>(config_.resident_bytes_budget));

  states_.reserve(extents.size());
  for (const ListExtent& extent : extents) {
    ListState state;
    state.extent = extent;
    states_.push_back(state);
    payload_bytes_ += extent.bytes;
  }
  if (!checksums_.empty() && checksums_.size() != states_.size()) {
    throw TieredIoError("checksum directory size mismatch: " +
                        std::to_string(checksums_.size()) + " checksums for " +
                        std::to_string(states_.size()) + " lists");
  }
  poisoned_ = std::make_unique<std::atomic<std::uint8_t>[]>(
      states_.empty() ? 1 : states_.size());
  if (config_.drop_pages_on_load) {
    for (const ListState& state : states_) {
      if (state.extent.bytes > 0) {
        file_.Advise(state.extent.offset, state.extent.bytes,
                     MmapFile::Advice::kDontNeed);
      }
    }
  }
}

bool TieredListStore::TouchExtentGuarded(const ListExtent& extent,
                                         std::uint32_t* crc_out) const {
#if JDVS_HAVE_SIGBUS_GUARD
  InstallSigbusHandler();
  sigjmp_buf jmp;
  sigjmp_buf* const prev = tl_sigbus_jmp;
  if (sigsetjmp(jmp, 1) != 0) {
    tl_sigbus_jmp = prev;
    return false;
  }
  tl_sigbus_jmp = &jmp;
#endif
  if (crc_out != nullptr) {
    // The checksum walk reads every byte, which faults the pages in as a
    // side effect — no separate touch pass needed.
    *crc_out = Crc32c(file_.data() + extent.offset,
                      static_cast<std::size_t>(extent.bytes));
  } else {
    const volatile std::uint8_t* base = file_.data() + extent.offset;
    std::uint8_t sink = 0;
    for (std::uint64_t off = 0; off < extent.bytes; off += kTouchStride) {
      sink ^= base[off];
    }
    if (extent.bytes > 0) sink ^= base[extent.bytes - 1];
    (void)sink;
  }
#if JDVS_HAVE_SIGBUS_GUARD
  tl_sigbus_jmp = prev;
#endif
  return true;
}

void TieredListStore::EvictForLocked(std::size_t need,
                                     std::vector<ListExtent>& dropped) {
  if (config_.resident_bytes_budget == 0 || states_.empty()) return;
  const std::size_t budget = config_.resident_bytes_budget;
  // Clock sweep, at most two full revolutions (first clears ref bits, the
  // second evicts). Pinned lists are skipped unconditionally: pin wins.
  std::size_t steps = 2 * states_.size();
  while (steps-- > 0 && resident_bytes_ + need > budget) {
    ListState& s = states_[clock_hand_];
    clock_hand_ = (clock_hand_ + 1) % states_.size();
    if (!s.resident || s.pin_count > 0 || s.faulting) continue;
    if (s.ref) {
      s.ref = false;  // second chance
      continue;
    }
    s.resident = false;
    s.verified = false;  // re-residency must re-verify
    resident_bytes_ -= s.extent.bytes;
    --resident_lists_;
    dropped.push_back(s.extent);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    evictions_metric_->Increment();
    resident_bytes_metric_->Add(-static_cast<std::int64_t>(s.extent.bytes));
  }
}

void TieredListStore::NotePoisonedLocked(std::uint32_t list, bool io_error,
                                         const char* reason) {
  poisoned_[list].store(1, std::memory_order_release);
  quarantined_now_.fetch_add(1, std::memory_order_relaxed);
  quarantine_events_.fetch_add(1, std::memory_order_relaxed);
  quarantine_metric_->Increment();
  quarantine_lists_metric_->Add(1);
  if (io_error) {
    io_errors_.fetch_add(1, std::memory_order_relaxed);
    io_errors_metric_->Increment();
  }
  const TieredIoError err(std::string(reason) + " on list " +
                          std::to_string(list) + " — quarantined");
  JDVS_LOG(kWarning) << "tier: " << err.what();
}

void TieredListStore::QuarantineFromFault(std::uint32_t list, bool io_error,
                                          const char* reason) {
  ListExtent extent;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ListState& s = states_[list];
    extent = s.extent;
    // Roll back the admission made before the fault walk.
    s.faulting = false;
    s.resident = false;
    s.verified = false;
    resident_bytes_ -= s.extent.bytes;
    --resident_lists_;
    resident_bytes_metric_->Add(-static_cast<std::int64_t>(s.extent.bytes));
    if (poisoned_[list].load(std::memory_order_relaxed) == 0) {
      NotePoisonedLocked(list, io_error, reason);
    }
  }
  fault_cv_.notify_all();
  file_.Advise(extent.offset, extent.bytes, MmapFile::Advice::kDontNeed);
}

void TieredListStore::QuarantineFromScrub(std::uint32_t list, bool io_error,
                                          const char* reason) {
  ListExtent dropped{0, 0};
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (poisoned_[list].load(std::memory_order_relaxed) != 0) return;
    ListState& s = states_[list];
    if (s.resident && s.pin_count == 0 && !s.faulting) {
      s.resident = false;
      s.verified = false;
      resident_bytes_ -= s.extent.bytes;
      --resident_lists_;
      resident_bytes_metric_->Add(-static_cast<std::int64_t>(s.extent.bytes));
      dropped = s.extent;
    }
    NotePoisonedLocked(list, io_error, reason);
  }
  if (dropped.bytes > 0) {
    file_.Advise(dropped.offset, dropped.bytes, MmapFile::Advice::kDontNeed);
  }
}

TieredListStore::PinGuard TieredListStore::Pin(
    std::span<const std::uint32_t> lists, Micros io_budget_micros,
    TierScanStats* stats) {
  PinGuard guard;
  guard.store_ = this;
  guard.pinned_.reserve(lists.size());
  Micros fault_total = 0;
  std::vector<ListExtent> dropped;
  for (std::size_t i = 0; i < lists.size(); ++i) {
    const std::uint32_t list = lists[i];
    if (list >= states_.size()) break;  // malformed probe: stop cleanly
    bool fault = false;
    bool verify = false;
    ListExtent extent;
    bool budget_exhausted = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ListState& s = states_[list];
      // Another thread is mid-fault on this list: wait for its verification
      // to settle rather than scanning unverified bytes or double-faulting.
      while (s.faulting) fault_cv_.wait(lock);
      if (poisoned_[list].load(std::memory_order_relaxed) != 0) {
        quarantine_skips_.fetch_add(1, std::memory_order_relaxed);
        quarantine_skips_metric_->Increment();
        if (stats != nullptr) ++stats->lists_quarantined;
        continue;
      }
      if (s.resident || s.extent.bytes == 0) {
        ++s.pin_count;
        s.ref = true;
        hits_.fetch_add(1, std::memory_order_relaxed);
        hits_metric_->Increment();
        if (stats != nullptr) ++stats->lists_hit;
      } else {
        // Cold list: charge it to the io budget before committing. The
        // first list is always served, however cold — a degraded answer
        // still needs at least one probe.
        if (io_budget_micros > 0 && fault_total >= io_budget_micros &&
            !guard.pinned_.empty()) {
          const auto remaining =
              static_cast<std::uint32_t>(lists.size() - i);
          probes_dropped_.fetch_add(remaining, std::memory_order_relaxed);
          probes_dropped_metric_->Increment(remaining);
          if (stats != nullptr) stats->probes_dropped += remaining;
          budget_exhausted = true;
        } else {
          EvictForLocked(s.extent.bytes, dropped);
          // Admission is committed now (bytes reserved against the budget)
          // but the list stays non-resident and `faulting` until the touch
          // + checksum walk outside the lock succeeds — a concurrent pinner
          // must never treat an unverified list as a warm hit.
          s.faulting = true;
          resident_bytes_ += s.extent.bytes;
          ++resident_lists_;
          misses_.fetch_add(1, std::memory_order_relaxed);
          misses_metric_->Increment();
          resident_bytes_metric_->Add(
              static_cast<std::int64_t>(s.extent.bytes));
          fault = true;
          verify = !checksums_.empty() && !s.verified;
          extent = s.extent;
          if (stats != nullptr) ++stats->lists_faulted;
        }
      }
    }
    if (budget_exhausted) break;
    // Page release for evicted lists and the fault walk for this one happen
    // outside the lock. A concurrent re-pin racing the DONTNEED merely
    // refaults the same file bytes — a latency hazard the pin prevents on
    // lists that matter, never a correctness one.
    for (const ListExtent& d : dropped) {
      file_.Advise(d.offset, d.bytes, MmapFile::Advice::kDontNeed);
    }
    dropped.clear();
    if (fault) {
      // Timed from before the injected delay: a degraded disk's extra
      // latency is fault time and counts against the io budget.
      const Stopwatch watch(*clock_);
      FaultInjector::StorageDecision injected;
      if (config_.fault_injector != nullptr) {
        injected = config_.fault_injector->DecideStorage(config_.node_name);
        if (injected.delay_micros > 0) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(injected.delay_micros));
        }
      }
      file_.Advise(extent.offset, extent.bytes, MmapFile::Advice::kWillNeed);
      std::uint32_t crc = 0;
      const bool touched =
          !injected.fail &&
          TouchExtentGuarded(extent, verify ? &crc : nullptr);
      const Micros micros = watch.ElapsedMicros();
      fault_total += micros;
      fault_micros_metric_->RecordWithExemplar(micros, /*trace_id=*/0,
                                               /*ref=*/list);
      if (!touched) {
        QuarantineFromFault(list, /*io_error=*/true,
                            injected.fail ? "injected fault-in failure"
                                          : "I/O error during fault-in");
        if (stats != nullptr) ++stats->lists_quarantined;
        continue;
      }
      if (verify && crc != checksums_[list]) {
        QuarantineFromFault(list, /*io_error=*/false,
                            "payload checksum mismatch");
        if (stats != nullptr) ++stats->lists_quarantined;
        continue;
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        ListState& s = states_[list];
        s.faulting = false;
        s.resident = true;
        s.ref = true;
        if (verify || checksums_.empty()) s.verified = true;
        ++s.pin_count;
      }
      fault_cv_.notify_all();
    }
    guard.pinned_.push_back(list);
  }
  if (stats != nullptr) stats->fault_micros += fault_total;
  return guard;
}

TieredListStore::ScrubStatus TieredListStore::ScrubList(
    std::uint32_t list, Micros* elapsed_micros) {
  if (list >= states_.size()) return ScrubStatus::kEmpty;
  const ListExtent extent = states_[list].extent;  // immutable
  if (poisoned_[list].load(std::memory_order_acquire) != 0) {
    return ScrubStatus::kAlreadyQuarantined;
  }
  if (extent.bytes == 0) return ScrubStatus::kEmpty;
  if (checksums_.empty()) return ScrubStatus::kNoChecksum;

  const Stopwatch watch(*clock_);
  std::uint32_t crc = 0;
  bool io_ok = true;
  std::vector<std::uint8_t> buf(
      static_cast<std::size_t>(std::min<std::uint64_t>(extent.bytes,
                                                       kScrubChunk)));
  for (std::uint64_t off = 0; off < extent.bytes && io_ok;) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(extent.bytes - off, buf.size()));
    io_ok = file_.Pread(static_cast<std::size_t>(extent.offset + off),
                        buf.data(), n);
    if (io_ok) crc = Crc32c(buf.data(), n, crc);
    off += n;
  }
  if (elapsed_micros != nullptr) *elapsed_micros += watch.ElapsedMicros();
  if (!io_ok) {
    QuarantineFromScrub(list, /*io_error=*/true, "scrub read failure");
    return ScrubStatus::kIoError;
  }
  if (crc != checksums_[list]) {
    QuarantineFromScrub(list, /*io_error=*/false, "scrub checksum mismatch");
    return ScrubStatus::kCorrupt;
  }
  // Verification through the syscall path is only durable for the current
  // residency: a resident list's pages are the same page-cache bytes pread
  // just hashed, so mark it verified; a cold list re-verifies at fault-in.
  {
    std::lock_guard<std::mutex> lock(mu_);
    ListState& s = states_[list];
    if (s.resident && !s.faulting) s.verified = true;
  }
  return ScrubStatus::kOk;
}

void TieredListStore::DropResidency() {
  std::vector<ListExtent> dropped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (ListState& s : states_) {
      if (s.resident && s.pin_count == 0 && !s.faulting) {
        s.resident = false;
        s.verified = false;
        resident_bytes_ -= s.extent.bytes;
        --resident_lists_;
        resident_bytes_metric_->Add(
            -static_cast<std::int64_t>(s.extent.bytes));
        dropped.push_back(s.extent);
      }
    }
  }
  for (const ListExtent& d : dropped) {
    file_.Advise(d.offset, d.bytes, MmapFile::Advice::kDontNeed);
  }
}

void TieredListStore::Unpin(std::span<const std::uint32_t> lists) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::uint32_t list : lists) {
    ListState& s = states_[list];
    if (s.pin_count > 0) --s.pin_count;
  }
}

TieredListStore::PinGuard& TieredListStore::PinGuard::operator=(
    PinGuard&& other) noexcept {
  if (this == &other) return *this;
  if (store_ != nullptr && !pinned_.empty()) store_->Unpin(pinned_);
  store_ = std::exchange(other.store_, nullptr);
  pinned_ = std::move(other.pinned_);
  other.pinned_.clear();
  return *this;
}

TieredListStore::PinGuard::~PinGuard() {
  if (store_ != nullptr && !pinned_.empty()) store_->Unpin(pinned_);
}

TieredStoreStats TieredListStore::Stats() const {
  TieredStoreStats stats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.num_lists = states_.size();
    stats.resident_lists = resident_lists_;
    stats.resident_bytes = resident_bytes_;
  }
  stats.budget_bytes = config_.resident_bytes_budget;
  stats.payload_bytes = payload_bytes_;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.probes_dropped = probes_dropped_.load(std::memory_order_relaxed);
  stats.has_checksums = !checksums_.empty();
  stats.quarantined_lists = quarantined_now_.load(std::memory_order_relaxed);
  stats.quarantine_events =
      quarantine_events_.load(std::memory_order_relaxed);
  stats.quarantine_skips = quarantine_skips_.load(std::memory_order_relaxed);
  stats.io_errors = io_errors_.load(std::memory_order_relaxed);
  return stats;
}

void TieredListStore::RenderStatus(std::ostream& os) const {
  const TieredStoreStats s = Stats();
  const double hit_rate =
      (s.hits + s.misses) == 0
          ? 0.0
          : static_cast<double>(s.hits) /
                static_cast<double>(s.hits + s.misses);
  os << "  mapped: " << (file_.mapped() ? "yes" : "no (heap fallback)")
     << "\n  lists: " << s.num_lists << " (" << s.resident_lists
     << " resident)\n  payload bytes: " << s.payload_bytes
     << " on disk, " << s.resident_bytes << " resident, budget "
     << s.budget_bytes << "\n  hits: " << s.hits << "  misses: " << s.misses
     << "  hit rate: " << hit_rate << "\n  evictions: " << s.evictions
     << "  probes dropped (io budget): " << s.probes_dropped
     << "\n  integrity: " << (s.has_checksums ? "crc32c" : "none")
     << "  quarantined: " << s.quarantined_lists << " ("
     << s.quarantine_events << " events, " << s.quarantine_skips
     << " probes skipped, " << s.io_errors << " io errors)\n";
}

}  // namespace jdvs
