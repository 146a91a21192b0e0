// Ablation — lock-free posting-list growth (Section 2.3, Figure 9).
//
// Paper claim: pre-allocated lists that double when full "ensure a
// lock-free and fast index update" — readers are never blocked by growth.
// The paper gets there by copying a full list into a double-size one on a
// background thread and swapping; the served lists (ScanBlock) chain a new
// chunk of double size instead and never move a published one, so there is
// no copy at all.
//
// Harness: both variants start from the same prefilled list, so their
// readers scan lists of the same size; then a single writer appends entries
// while reader threads continuously scan, comparing ScanBlock against a
// mutex-guarded growing std::vector with the same payload per entry.
// Reports writer throughput, aggregate reader scan throughput, and the worst
// single append. A ScanBlock growth allocates its doubled chunk on the
// writer thread, so its worst append is that allocation; the vector's is a
// reallocation under the lock or a wait behind a scanning reader. A mutex does not queue its waiters: a reader that releases it
// takes it straight back, so on a multi-core host the vector's writer can
// starve for as long as readers keep scanning. The window therefore also
// closes by time, and the entries the writer appended in it are printed.
#include <array>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"

namespace {

using namespace jdvs;

// One padded 16-float row per entry. kPrefill + kAppends entries keep each
// variant under ~256 MiB: 144 MiB of chunks for ScanBlock, and a 128 MiB
// payload vector that briefly coexists with its 64 MiB predecessor while it
// reallocates.
constexpr std::size_t kStride = 64;
constexpr std::size_t kPrefill = 1'000'000;
constexpr std::size_t kAppends = 1'000'000;
constexpr Micros kWindowMicros = 5'000'000;
constexpr int kReaders = 4;

// Baseline: the whole list behind one mutex. Readers hold it for a full
// scan; the writer holds it per append, and growth reallocates and copies
// in place while holding it.
class LockedList {
 public:
  void Append(LocalId id, const void* payload, float aux) {
    const auto* bytes = static_cast<const std::uint8_t*>(payload);
    std::lock_guard lock(mu_);
    ids_.push_back(id);
    aux_.push_back(aux);
    payload_.insert(payload_.end(), bytes, bytes + kStride);
  }

  // Same callback shape as ScanBlock::ForEachRun: the whole list is one run.
  template <typename Fn>
  void ForEachRun(Fn&& fn) const {
    std::lock_guard lock(mu_);
    fn(ids_.data(), payload_.data(), aux_.data(), ids_.size());
  }

 private:
  mutable std::mutex mu_;
  std::vector<LocalId> ids_;
  std::vector<float> aux_;
  std::vector<std::uint8_t> payload_;
};

struct RunResult {
  std::size_t appended;
  double writer_appends_per_sec;
  double reader_scans_per_sec;
  Micros worst_append_micros;
};

template <typename List>
RunResult Run(List& list) {
  std::array<std::uint8_t, kStride> payload{};
  const auto append = [&](std::size_t i) {
    payload[0] = static_cast<std::uint8_t>(i);
    list.Append(static_cast<LocalId>(i), payload.data(),
                static_cast<float>(i & 0xff));
  };
  for (std::size_t i = 0; i < kPrefill; ++i) append(i);

  // Readers watch the deadline too: a starved writer is stuck inside
  // Append until they let go of the lock.
  const auto& clock = MonotonicClock::Instance();
  const Stopwatch watch(clock);
  const Micros deadline = clock.NowMicros() + kWindowMicros;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> scans{0};
  std::atomic<std::uint64_t> checksum{0};  // keeps the scans' reads live
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::uint64_t local = 0;
      std::uint64_t sum = 0;
      while (!stop.load(std::memory_order_acquire) &&
             clock.NowMicros() < deadline) {
        // Touch each entry's id, aux rider and first payload line, as a
        // distance scan would.
        list.ForEachRun([&sum](const LocalId* ids, const std::uint8_t* row,
                               const float* aux, std::size_t count) {
          for (std::size_t j = 0; j < count; ++j) {
            sum += ids[j] + row[j * kStride] +
                   static_cast<std::uint64_t>(aux[j]);
          }
        });
        ++local;
      }
      scans.fetch_add(local);
      checksum.fetch_add(sum);
    });
  }
  Micros worst = 0;
  std::size_t appended = 0;
  while (appended < kAppends && clock.NowMicros() < deadline) {
    const Micros start = clock.NowMicros();
    append(kPrefill + appended++);
    worst = std::max(worst, clock.NowMicros() - start);
  }
  const double elapsed = watch.ElapsedSeconds();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  return RunResult{appended, static_cast<double>(appended) / elapsed,
                   static_cast<double>(scans.load()) / elapsed, worst};
}

}  // namespace

int main() {
  using namespace jdvs::bench;
  PrintHeader("Ablation: lock-free list growth vs mutex-guarded list",
              "doubling pre-allocated lists 'ensures a lock-free and fast "
              "index update'");

  std::printf("%zu-byte payload per entry; lists prefilled to %zu entries, "
              "then one writer appends up to %zu more (window closes after "
              "%s) while %d readers scan:\n\n",
              kStride, kPrefill, kAppends,
              FormatMicros(kWindowMicros).c_str(), kReaders);

  // One variant at a time, so each stays within its own memory bound.
  RunResult lf;
  {
    ScanBlock block(kStride);
    lf = Run(block);
  }
  RunResult lk;
  {
    LockedList locked;
    lk = Run(locked);
  }

  std::printf("%-24s %10s %12s %10s %14s\n", "variant", "appended",
              "appends/s", "scans/s", "worst append");
  for (const auto& [name, r] : {std::pair{"ScanBlock (chunk chain)", lf},
                                std::pair{"mutex-guarded vector", lk}}) {
    std::printf("%-24s %10zu %12.0f %10.1f %14s\n", name, r.appended,
                r.writer_appends_per_sec, r.reader_scans_per_sec,
                FormatMicros(r.worst_append_micros).c_str());
  }
  std::printf("\nwriter speedup %.1fx, reader throughput ratio %.1fx "
              "(readers never block on the chunk chain)\n",
              lf.writer_appends_per_sec / lk.writer_appends_per_sec,
              lf.reader_scans_per_sec / lk.reader_scans_per_sec);
  return 0;
}
