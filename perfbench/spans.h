#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// Tracing from outside the library: an in-memory span recorder plus wrappers
// that put spans around the library calls the benchmark cannot see directly
// (oracle counts and refines made on the fleet's refiner threads).

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "histogram/histogram.h"
#include "stats.h"

namespace perfbench {

/// One completed span. Spans of one request share `request`; `parent` is
/// the span that was open on the same thread when this one began (0: none).
struct Span {
  const char* name = "";  // Static storage.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  uint32_t thread = 0;
};

/// Keeps spans in memory, one lock-free buffer per recording thread, and
/// hands them out after the run. While no recorder is active every
/// ScopedSpan costs one relaxed load.
class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// The recorder spans go to, or nullptr while tracing is off. Switch only
  /// while no other thread is inside a span.
  static SpanRecorder* Active();
  static void SetActive(SpanRecorder* recorder);

  /// Every span recorded so far. Call only while no thread is recording.
  std::vector<Span> Collect() const;

  /// Writes the spans as CSV (name,thread,id,parent,request,start_ns,end_ns).
  bool WriteCsv(const std::string& path) const;

 private:
  friend class ScopedSpan;
  struct ThreadBuffer {
    uint32_t thread = 0;
    uint64_t next_seq = 0;
    std::vector<uint64_t> open;  // Ids of the spans open on this thread.
    std::vector<Span> spans;
  };

  /// The calling thread's buffer, created on its first span.
  ThreadBuffer* Buffer();

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;  // Guarded by mutex_.
};

/// Records one span from construction to destruction when a recorder is
/// active; does nothing otherwise.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder::ThreadBuffer* buffer_ = nullptr;
  Span span_;
};

/// Tags the spans opened on this thread with a request id while alive.
class RequestScope {
 public:
  explicit RequestScope(uint64_t request);
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  uint64_t previous_;
};

/// Durations of the spans named `name`, and what their direct children
/// named `child` add up to. Self time is a span's duration minus the time
/// all its direct children cover.
struct SpanSummary {
  Samples duration_ns;
  Samples self_ns;
  size_t child_calls = 0;
  double child_ns = 0.0;
};
SpanSummary Summarize(const std::vector<Span>& spans, const char* name,
                      const char* child = "");

/// Oracle that records an "index.kdtree.count" span around every Count,
/// on whichever thread calls it (refiner threads included).
class TracingOracle : public sthist::CardinalityOracle {
 public:
  explicit TracingOracle(const sthist::CardinalityOracle& inner)
      : inner_(inner) {}
  double Count(const sthist::Box& box) const override;

 private:
  const sthist::CardinalityOracle& inner_;
};

/// Histogram handed to the fleet in traced passes: records
/// "histogram.refine" and "histogram.snapshot" spans around the wrapped
/// histogram's Refine and Snapshot. Snapshots are the wrapped histogram's
/// own, so reads never pass through the wrapper.
class TracedHistogram : public sthist::Histogram {
 public:
  explicit TracedHistogram(std::unique_ptr<sthist::Histogram> inner)
      : inner_(std::move(inner)) {}

  double Estimate(const sthist::Box& query) const override {
    return inner_->Estimate(query);
  }
  double EstimateLinear(const sthist::Box& query) const override {
    return inner_->EstimateLinear(query);
  }
  std::unique_ptr<sthist::Histogram> Clone() const override;
  std::shared_ptr<const sthist::Histogram> Snapshot() const override;
  std::string SerializeBinary() const override {
    return inner_->SerializeBinary();
  }
  void Refine(const sthist::Box& query,
              const sthist::CardinalityOracle& oracle) override;
  size_t bucket_count() const override { return inner_->bucket_count(); }
  sthist::RobustnessStats robustness() const override {
    return inner_->robustness();
  }

 private:
  std::unique_ptr<sthist::Histogram> inner_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
