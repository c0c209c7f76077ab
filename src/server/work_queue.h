#ifndef BIX_SERVER_WORK_QUEUE_H_
#define BIX_SERVER_WORK_QUEUE_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "util/check.h"

namespace bix {

// A bounded multi-producer/multi-consumer queue: the admission-control
// point of the query service. Producers either TryPush (reject when full —
// bounded memory under overload, the service returns a rejected status to
// the client) or Push (block for backpressure). Consumers Pop until the
// queue is closed and drained, which gives workers a deterministic
// shutdown path: Close() wakes everyone, remaining items are still handed
// out, and Pop returns nullopt only once the queue is empty.
template <typename T>
class BoundedWorkQueue {
 public:
  explicit BoundedWorkQueue(size_t capacity) : capacity_(capacity) {
    BIX_CHECK(capacity > 0);
  }

  BoundedWorkQueue(const BoundedWorkQueue&) = delete;
  BoundedWorkQueue& operator=(const BoundedWorkQueue&) = delete;

  // Non-blocking admission: false when the queue is full or closed. The
  // item is moved from only on success, so a rejected caller still owns it
  // (the service needs this to resolve the query's promise with a status).
  bool TryPush(T&& item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    consumer_cv_.notify_one();
    return true;
  }

  // Blocking admission (backpressure): waits for a free slot; false when
  // the queue is (or becomes) closed, leaving the item intact.
  bool Push(T&& item) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      producer_cv_.wait(
          lock, [this] { return closed_ || items_.size() < capacity_; });
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    consumer_cv_.notify_one();
    return true;
  }

  enum class PushOutcome { kAccepted, kClosed, kTimedOut };

  // Blocking admission with an absolute deadline: waits for a free slot at
  // most until `deadline`, so a producer with a query deadline can never
  // be parked forever behind a full queue. An already-expired deadline
  // still admits when there is space (the expiry is then handled at
  // dequeue, the shedding point); it only refuses to *wait*. The item is
  // left intact unless kAccepted.
  PushOutcome PushUntil(T&& item,
                        std::chrono::steady_clock::time_point deadline) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      const bool ready = producer_cv_.wait_until(
          lock, deadline,
          [this] { return closed_ || items_.size() < capacity_; });
      if (!ready) return PushOutcome::kTimedOut;
      if (closed_) return PushOutcome::kClosed;
      items_.push_back(std::move(item));
    }
    consumer_cv_.notify_one();
    return PushOutcome::kAccepted;
  }

  // Blocks until an item is available or the queue is closed and empty
  // (then returns nullopt, telling the worker to exit).
  std::optional<T> Pop() {
    std::optional<T> item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      consumer_cv_.wait(lock, [this] { return closed_ || !items_.empty(); });
      if (items_.empty()) return std::nullopt;
      item.emplace(std::move(items_.front()));
      items_.pop_front();
    }
    producer_cv_.notify_one();
    return item;
  }

  // Overload shedding: removes up to `max_items` queued entries, choosing
  // the ones with the *smallest* score first (the service scores by
  // remaining deadline, so the entries least likely to finish in time are
  // shed before entries with slack). Returns the removed items so the
  // caller can resolve their promises with a typed status. `score` is
  // called under the queue lock and must be cheap and non-blocking.
  template <typename ScoreFn>
  std::vector<T> ShedLowestScored(size_t max_items, ScoreFn score) {
    std::vector<T> shed;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const size_t n = items_.size();
      if (max_items == 0 || n == 0) return shed;
      std::vector<std::pair<double, size_t>> scored;
      scored.reserve(n);
      for (size_t i = 0; i < n; ++i) scored.push_back({score(items_[i]), i});
      const size_t count = max_items < n ? max_items : n;
      std::partial_sort(scored.begin(), scored.begin() + count, scored.end());
      // Remove by index, highest first, so earlier removals don't shift
      // the indices still to be removed.
      std::vector<size_t> victims;
      victims.reserve(count);
      for (size_t i = 0; i < count; ++i) victims.push_back(scored[i].second);
      std::sort(victims.begin(), victims.end(), std::greater<size_t>());
      shed.reserve(count);
      for (size_t idx : victims) {
        shed.push_back(std::move(items_[idx]));
        items_.erase(items_.begin() + static_cast<ptrdiff_t>(idx));
      }
    }
    producer_cv_.notify_all();  // freed capacity
    return shed;
  }

  // Rejects all future pushes and wakes blocked producers/consumers.
  // Already-queued items remain poppable.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    consumer_cv_.notify_all();
    producer_cv_.notify_all();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }
  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable consumer_cv_;
  std::condition_variable producer_cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace bix

#endif  // BIX_SERVER_WORK_QUEUE_H_
