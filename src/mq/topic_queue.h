// Topic-based message queue (JMQ stand-in).
//
// Producers publish ProductUpdateMessages to a topic, and every live
// subscription of the topic receives its own copy in a bounded queue
// (fan-out). The cluster keeps one topic per index partition, whose
// subscribers are that partition's replicas, and publishes each update only
// to the topics of the partitions that own one of its product's images.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mpmc_queue.h"
#include "mq/message.h"
#include "obs/gauge.h"
#include "obs/registry.h"

namespace jdvs {

class Subscription {
 public:
  explicit Subscription(std::size_t capacity) : queue_(capacity) {}

  // Blocking pop; nullopt when the topic is closed and drained.
  std::optional<ProductUpdateMessage> Receive() {
    auto message = queue_.Pop();
    if (message && depth_ != nullptr) depth_->Decrement();
    return message;
  }
  std::optional<ProductUpdateMessage> TryReceive() {
    auto message = queue_.TryPop();
    if (message && depth_ != nullptr) depth_->Decrement();
    return message;
  }
  std::size_t pending() const { return queue_.size(); }

  // Unblocks receivers; remaining messages drain, then Receive() returns
  // nullopt. Used by consumers shutting down independently of the topic.
  void Close() { queue_.Close(); }

 private:
  friend class TopicQueue;
  MpmcQueue<ProductUpdateMessage> queue_;
  obs::Gauge* depth_ = nullptr;  // shared queue-depth gauge, set on Subscribe
};

class TopicQueue {
 public:
  explicit TopicQueue(std::size_t per_subscription_capacity = 65536,
                      obs::Registry* registry = nullptr)
      : capacity_(per_subscription_capacity),
        registry_(registry != nullptr ? registry : &obs::Registry::Default()),
        published_(&registry_->GetCounter("jdvs_mq_published_total")),
        depth_(&registry_->GetGauge("jdvs_mq_queue_depth")) {}

  // Creates a new subscription on `topic`. Every message published to the
  // topic after this call is delivered to every live subscription (fan-out).
  std::shared_ptr<Subscription> Subscribe(const std::string& topic);

  // Publishes to all subscriptions of `topic`. Blocks on full subscriber
  // queues (backpressure). Returns the number of subscriptions reached.
  std::size_t Publish(const std::string& topic, ProductUpdateMessage message);

  // Closes a topic: subscribers drain and then see end-of-stream.
  void CloseTopic(const std::string& topic);

  // Closes everything.
  void CloseAll();

 private:
  struct Topic {
    std::vector<std::shared_ptr<Subscription>> subscriptions;
    bool closed = false;
  };

  std::mutex mu_;
  std::unordered_map<std::string, Topic> topics_;
  std::size_t capacity_;
  obs::Registry* registry_;
  obs::Counter* published_;  // jdvs_mq_published_total: one per Publish call
  obs::Gauge* depth_;        // jdvs_mq_queue_depth: delivered, not yet popped
};

}  // namespace jdvs
