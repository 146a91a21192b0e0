#include "net/latency_model.h"

#include <chrono>
#include <cmath>
#include <thread>

#include "common/hash.h"

namespace jdvs {

std::int64_t LatencyModel::SampleMicros(Rng& rng) const {
  std::int64_t total = base_micros > 0 ? base_micros : 0;
  if (jitter_median_micros > 0) {
    const double mu = std::log(static_cast<double>(jitter_median_micros));
    total += static_cast<std::int64_t>(std::exp(mu + sigma * rng.NextGaussian()));
  }
  return total;
}

void ChargeHop(const LatencyModel& model, std::uint64_t stream_seed,
               double multiplier, std::int64_t added_micros) {
  if (model.IsZero() && added_micros <= 0) return;
  std::int64_t delay = added_micros > 0 ? added_micros : 0;
  if (!model.IsZero()) {
    thread_local Rng rng(HashCombine(
        Mix64(stream_seed),
        Mix64(std::hash<std::thread::id>{}(std::this_thread::get_id()))));
    std::int64_t sampled = model.SampleMicros(rng);
    if (multiplier != 1.0 && sampled > 0) {
      sampled = static_cast<std::int64_t>(static_cast<double>(sampled) *
                                          (multiplier > 0.0 ? multiplier : 0.0));
    }
    delay += sampled;
  }
  if (delay > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(delay));
  }
}

}  // namespace jdvs
