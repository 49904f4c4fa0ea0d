// In-memory spans for the traced run, and the arithmetic over them.
//
// A span records a name, a start and end (steady-clock nanoseconds), the
// index of the span that caused it and the id of the request it belongs
// to. Spans are appended to a deque while the run executes (no copy of
// the whole record on growth, which would stall the traced loop) and
// written out only when it ends.
//
// A span's self time is its duration minus the part of its interval that
// its children cover. Children may nest, overlap each other or stick out
// of the parent; only the union of their intervals clipped to the parent
// is subtracted, so overlapping children are not counted twice.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline constexpr int32_t kNoParent = -1;

struct Span {
  const char* name = "";  // a string literal: names are static
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = kNoParent;
  uint64_t request = 0;
  // A shadow span re-measures, in isolation, work that another span on
  // the same request already contains (e.g. the prefilter inside
  // SubsumptionChecker::Subsumes). It is kept out of layer sums.
  bool shadow = false;

  int64_t duration() const { return end_ns - start_ns; }
};

class SpanRecorder {
 public:
  // Opens a span now and returns its index, to be passed to End() and as
  // the parent of nested spans.
  int32_t Begin(const char* name, uint64_t request,
                int32_t parent = kNoParent, bool shadow = false) {
    spans_.push_back(Span{name, NowNs(), 0, parent, request, shadow});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t index) { spans_[static_cast<size_t>(index)].end_ns = NowNs(); }

  // Records a span whose interval was measured elsewhere.
  int32_t Add(Span span) {
    spans_.push_back(span);
    return static_cast<int32_t>(spans_.size() - 1);
  }

  const std::deque<Span>& spans() const { return spans_; }

  // Writes one tab-separated line per span:
  // index, name, request, parent, start_ns, end_ns, shadow.
  bool WriteTsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%s\t%llu\t%d\t%lld\t%lld\t%d\n", i, s.name,
                   static_cast<unsigned long long>(s.request), s.parent,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.shadow ? 1 : 0);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::deque<Span> spans_;
};

// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint64_t request,
             int32_t parent = kNoParent, bool shadow = false)
      : recorder_(recorder),
        index_(recorder->Begin(name, request, parent, shadow)) {}
  ~ScopedSpan() { recorder_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t index() const { return index_; }

 private:
  SpanRecorder* recorder_;
  int32_t index_;
};

// Length of the union of [start, end) intervals, each clipped to
// [lo, hi).
inline int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                         int64_t lo, int64_t hi) {
  for (auto& [s, e] : intervals) {
    s = std::clamp(s, lo, hi);
    e = std::clamp(e, lo, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t run_start = 0;
  int64_t run_end = 0;
  bool open = false;
  for (const auto& [s, e] : intervals) {
    if (e <= s) continue;
    if (open && s <= run_end) {
      run_end = std::max(run_end, e);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = s;
    run_end = e;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return covered;
}

// The functions below take any random-access sequence of Span.

// Self time of every span, by index.
template <typename Spans>
std::vector<int64_t> SelfTimes(const Spans& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent == kNoParent) continue;
    children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    self[i] = s.duration() - CoveredNs(std::move(children[i]), s.start_ns,
                                       s.end_ns);
  }
  return self;
}

// Span indices grouped by request id, each group in recording order.
template <typename Spans>
std::map<uint64_t, std::vector<size_t>> GroupByRequest(const Spans& spans) {
  std::map<uint64_t, std::vector<size_t>> groups;
  for (size_t i = 0; i < spans.size(); ++i) {
    groups[spans[i].request].push_back(i);
  }
  return groups;
}

// Per request: total self time of its non-shadow spans that have a
// parent, i.e. the sum over the layers the request crossed. The root
// span of a request (parent == kNoParent) is the request itself and is
// not a layer.
template <typename Spans>
std::map<uint64_t, int64_t> LayerSumByRequest(const Spans& spans,
                                              const std::vector<int64_t>& self) {
  std::map<uint64_t, int64_t> sums;
  for (const auto& [request, indices] : GroupByRequest(spans)) {
    int64_t sum = 0;
    for (size_t i : indices) {
      if (spans[i].parent != kNoParent && !spans[i].shadow) sum += self[i];
    }
    sums[request] = sum;
  }
  return sums;
}

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
