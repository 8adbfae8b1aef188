#ifndef ERBIUM_EXEC_EXCHANGE_H_
#define ERBIUM_EXEC_EXCHANGE_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <vector>

#include "common/value.h"

namespace erbium {

/// Merges per-producer bounded batch queues under one mutex: producers
/// wait for space in their own queue, the single consumer waits for any
/// batch. Used by the morsel-parallel GatherOp.
class RowExchange {
 public:
  explicit RowExchange(size_t num_producers, size_t max_queued_per_producer = 4)
      : slots_(num_producers),
        max_queued_per_producer_(max_queued_per_producer) {}

  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  // Returns false when cancelled (the batch is dropped).
  bool Push(size_t producer, std::vector<Row> batch) {
    std::unique_lock<std::mutex> lock(mu_);
    producer_cv_.wait(lock, [&] {
      return cancelled() ||
             slots_[producer].batches.size() < max_queued_per_producer_;
    });
    if (cancelled()) return false;
    slots_[producer].batches.push_back(std::move(batch));
    consumer_cv_.notify_one();
    return true;
  }

  // Returns true if this producer was the last one to finish.
  bool MarkDone(size_t producer) {
    std::lock_guard<std::mutex> lock(mu_);
    slots_[producer].done = true;
    ++done_count_;
    consumer_cv_.notify_one();
    return done_count_ == slots_.size();
  }

  // Blocks for the next batch; false when every producer is done and all
  // queues are drained (or the exchange was cancelled).
  bool PopBatch(std::vector<Row>* out) {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      if (cancelled()) return false;
      for (size_t i = 0; i < slots_.size(); ++i) {
        Slot& slot = slots_[(rr_ + i) % slots_.size()];
        if (!slot.batches.empty()) {
          *out = std::move(slot.batches.front());
          slot.batches.pop_front();
          rr_ = (rr_ + i + 1) % slots_.size();
          producer_cv_.notify_all();
          return true;
        }
      }
      if (done_count_ == slots_.size()) return false;
      consumer_cv_.wait(lock);
    }
  }

  void Cancel() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      cancelled_.store(true, std::memory_order_relaxed);
    }
    producer_cv_.notify_all();
    consumer_cv_.notify_all();
  }

 private:
  struct Slot {
    std::deque<std::vector<Row>> batches;
    bool done = false;
  };

  std::mutex mu_;
  std::condition_variable producer_cv_;
  std::condition_variable consumer_cv_;
  std::vector<Slot> slots_;
  size_t max_queued_per_producer_;
  size_t done_count_ = 0;
  size_t rr_ = 0;
  std::atomic<bool> cancelled_{false};
};

}  // namespace erbium

#endif  // ERBIUM_EXEC_EXCHANGE_H_
