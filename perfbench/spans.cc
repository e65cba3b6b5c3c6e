#include "spans.h"

#include <atomic>
#include <cstdio>
#include <unordered_map>

namespace perfbench {
namespace {

std::atomic<SpanRecorder*> g_active{nullptr};

thread_local const SpanRecorder* tls_owner = nullptr;
thread_local void* tls_buffer = nullptr;
thread_local uint64_t tls_request = 0;

}  // namespace

SpanRecorder* SpanRecorder::Active() {
  return g_active.load(std::memory_order_relaxed);
}

void SpanRecorder::SetActive(SpanRecorder* recorder) {
  g_active.store(recorder, std::memory_order_relaxed);
}

SpanRecorder::ThreadBuffer* SpanRecorder::Buffer() {
  if (tls_owner != this) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->thread = static_cast<uint32_t>(buffers_.size());
    buffer->spans.reserve(1 << 12);
    tls_buffer = buffer.get();
    tls_owner = this;
    buffers_.push_back(std::move(buffer));
  }
  return static_cast<ThreadBuffer*>(tls_buffer);
}

std::vector<Span> SpanRecorder::Collect() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

bool SpanRecorder::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,thread,id,parent,request,start_ns,end_ns\n");
  for (const Span& s : Collect()) {
    std::fprintf(f, "%s,%u,%llu,%llu,%llu,%lld,%lld\n", s.name, s.thread,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char* name) {
  SpanRecorder* recorder = SpanRecorder::Active();
  if (recorder == nullptr) return;
  buffer_ = recorder->Buffer();
  span_.name = name;
  span_.thread = buffer_->thread;
  span_.id = (static_cast<uint64_t>(buffer_->thread) << 40) |
             ++buffer_->next_seq;
  span_.parent = buffer_->open.empty() ? 0 : buffer_->open.back();
  span_.request = tls_request;
  buffer_->open.push_back(span_.id);
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ == nullptr) return;
  span_.end_ns = NowNs();
  buffer_->open.pop_back();
  buffer_->spans.push_back(span_);
}

RequestScope::RequestScope(uint64_t request) : previous_(tls_request) {
  tls_request = request;
}

RequestScope::~RequestScope() { tls_request = previous_; }

SpanSummary Summarize(const std::vector<Span>& spans, const char* name,
                      const char* child) {
  const std::string name_s(name);
  const std::string child_s(child);
  // Time each span's direct children cover, keyed by parent id. Children of
  // one span run on its thread one after another, so their durations add.
  std::unordered_map<uint64_t, double> covered;
  std::unordered_map<uint64_t, std::pair<size_t, double>> named_children;
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    covered[s.parent] += d;
    if (!child_s.empty() && child_s == s.name) {
      auto& [calls, ns] = named_children[s.parent];
      ++calls;
      ns += d;
    }
  }
  SpanSummary out;
  for (const Span& s : spans) {
    if (name_s != s.name) continue;
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    out.duration_ns.Add(d);
    auto it = covered.find(s.id);
    out.self_ns.Add(it == covered.end() ? d : d - it->second);
    auto jt = named_children.find(s.id);
    if (jt != named_children.end()) {
      out.child_calls += jt->second.first;
      out.child_ns += jt->second.second;
    }
  }
  return out;
}

double TracingOracle::Count(const sthist::Box& box) const {
  ScopedSpan span("index.kdtree.count");
  return inner_.Count(box);
}

std::unique_ptr<sthist::Histogram> TracedHistogram::Clone() const {
  std::unique_ptr<sthist::Histogram> inner = inner_->Clone();
  if (inner == nullptr) return nullptr;
  return std::make_unique<TracedHistogram>(std::move(inner));
}

std::shared_ptr<const sthist::Histogram> TracedHistogram::Snapshot() const {
  ScopedSpan span("histogram.snapshot");
  return inner_->Snapshot();
}

void TracedHistogram::Refine(const sthist::Box& query,
                             const sthist::CardinalityOracle& oracle) {
  ScopedSpan span("histogram.refine");
  inner_->Refine(query, oracle);
}

}  // namespace perfbench
