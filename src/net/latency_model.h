// Network latency model for the simulated cluster fabric.
//
// The paper's evaluation runs on a real datacenter network; the simulated
// RPC layer charges each hop a lognormal delay (base + jitter) so fan-out
// amplification and tail-latency effects — the phenomena the 3-level
// architecture is designed around — appear at laptop scale.
#pragma once

#include <cstdint>

#include "common/rng.h"

namespace jdvs {

struct LatencyModel {
  // Fixed per-hop cost; 0 with zero sigma disables delays entirely.
  std::int64_t base_micros = 0;
  // Median of the lognormal jitter component (0 => no jitter).
  std::int64_t jitter_median_micros = 0;
  // Lognormal shape parameter of the jitter.
  double sigma = 0.5;

  bool IsZero() const noexcept {
    return base_micros <= 0 && jitter_median_micros <= 0;
  }

  // One-hop delay sample.
  std::int64_t SampleMicros(Rng& rng) const;
};

// Sleeps for one sampled hop delay using a thread-local RNG derived from
// `stream_seed` (per-thread streams keep sampling lock-free). Fault
// injection scales the sampled delay by `multiplier` and extends it by
// `added_micros` (a limping link per net/fault_injector.h); a nonzero
// `added_micros` charges even when the model itself is zero.
void ChargeHop(const LatencyModel& model, std::uint64_t stream_seed,
               double multiplier, std::int64_t added_micros);

}  // namespace jdvs
