#ifndef STHIST_CORE_BOUNDED_QUEUE_H_
#define STHIST_CORE_BOUNDED_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "core/check.h"

namespace sthist {

/// Why TryPush refused an item — the two rejection causes call for different
/// reactions (a full queue is transient backpressure, a closed queue is
/// final), so the queue reports which one happened instead of a bare false.
enum class PushResult {
  kAccepted,
  kFull,    // At capacity; retrying later may succeed.
  kClosed,  // Close() was called; no push will ever succeed again.
};

/// Bounded multi-producer queue with batched consumption, the feedback
/// channel of a serving cell (DESIGN.md §16).
///
/// Neither side ever blocks. When the queue is at capacity `TryPush` refuses
/// the item and the caller decides what to do with the rejection (the fleet
/// counts it as a drop — admission control by shedding the newest feedback,
/// never by stalling a query thread). The consumer — a pool worker that must
/// not park on one shard while others wait — takes up to a whole batch of
/// what is queued per `TryPopBatch`, so a backlogged shard amortizes its
/// lock traffic; whoever pushes is responsible for scheduling a consumer.
///
/// Safe for any number of producers and consumers; the serving layer uses it
/// MPSC (many feedback submitters, one claim-holding refiner at a time).
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {
    STHIST_CHECK(capacity > 0);
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Enqueues `item` unless the queue is full or closed.
  /// Returns kAccepted, or the rejection cause.
  PushResult TryPush(T item) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return PushResult::kClosed;
    if (items_.size() >= capacity_) return PushResult::kFull;
    items_.push_back(std::move(item));
    return PushResult::kAccepted;
  }

  /// Moves up to `max_items` already-queued items into `*out` (cleared
  /// first), oldest first, and returns how many — 0 when the queue is empty.
  size_t TryPopBatch(std::vector<T>* out, size_t max_items) {
    STHIST_CHECK(max_items > 0);
    out->clear();
    std::lock_guard<std::mutex> lock(mutex_);
    const size_t n = std::min(max_items, items_.size());
    for (size_t i = 0; i < n; ++i) {
      out->push_back(std::move(items_.front()));
      items_.pop_front();
    }
    return n;
  }

  /// Closes the queue: subsequent pushes are refused, while items already
  /// queued stay poppable. Idempotent.
  void Close() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }

  /// Instantaneous item count (advisory under concurrency).
  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace sthist

#endif  // STHIST_CORE_BOUNDED_QUEUE_H_
