// Tests of the traced run's span arithmetic: self time with nested,
// overlapping and protruding children, and grouping by request id.
//
//   perfbench_spans_test   (exits 0 when every check passes)
#include <cstdio>
#include <cstdlib>

#include "spans.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what, long long got, long long want) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "FAIL %s: got %lld, want %lld\n", what, got, want);
}

void ExpectEq(long long got, long long want, const char* what) {
  Expect(got == want, what, got, want);
}

Span Make(const char* name, int64_t start, int64_t end, int32_t parent,
          uint64_t request, bool shadow = false) {
  return Span{name, start, end, parent, request, shadow};
}

void TestLeafSelfIsDuration() {
  std::vector<Span> spans = {Make("leaf", 10, 35, kNoParent, 1)};
  ExpectEq(SelfTimes(spans)[0], 25, "leaf self time");
}

void TestNestedChildren() {
  // root [0,100) > a [10,40) > b [15,25); root > c [50,60).
  std::vector<Span> spans = {
      Make("root", 0, 100, kNoParent, 1),
      Make("a", 10, 40, 0, 1),
      Make("b", 15, 25, 1, 1),
      Make("c", 50, 60, 0, 1),
  };
  std::vector<int64_t> self = SelfTimes(spans);
  ExpectEq(self[0], 100 - 30 - 10, "root self excludes direct children");
  ExpectEq(self[1], 30 - 10, "a self excludes its child b");
  ExpectEq(self[2], 10, "b self");
  ExpectEq(self[3], 10, "c self");
  // Self times of a tree partition the root's interval.
  ExpectEq(self[0] + self[1] + self[2] + self[3], 100, "self times sum");
}

void TestOverlappingChildrenCountOnce() {
  // Two children that overlap on [30,40) cover [20,50): 30, not 40.
  std::vector<Span> spans = {
      Make("root", 0, 100, kNoParent, 1),
      Make("x", 20, 40, 0, 1),
      Make("y", 30, 50, 0, 1),
  };
  ExpectEq(SelfTimes(spans)[0], 70, "overlap counted once");
  // A child fully inside another sibling adds nothing.
  spans.push_back(Make("z", 32, 38, 0, 1));
  ExpectEq(SelfTimes(spans)[0], 70, "contained sibling adds nothing");
}

void TestProtrudingChildrenAreClipped() {
  // Children sticking out of the parent only cover their overlap.
  std::vector<Span> spans = {
      Make("root", 100, 200, kNoParent, 1),
      Make("early", 50, 120, 0, 1),
      Make("late", 190, 260, 0, 1),
      Make("outside", 300, 400, 0, 1),
  };
  ExpectEq(SelfTimes(spans)[0], 100 - 20 - 10, "clipped to the parent");
}

void TestAdjacentChildren() {
  std::vector<Span> spans = {
      Make("root", 0, 10, kNoParent, 1),
      Make("p", 0, 5, 0, 1),
      Make("q", 5, 10, 0, 1),
  };
  ExpectEq(SelfTimes(spans)[0], 0, "adjacent children cover the parent");
}

void TestGroupingAndLayerSums() {
  // Two interleaved requests; the shadow span of request 7 stays out of
  // the layer sum, and each root is not a layer of its own request.
  std::vector<Span> spans = {
      Make("request", 0, 100, kNoParent, 7),
      Make("request", 10, 90, kNoParent, 8),
      Make("wire", 0, 10, 0, 7),
      Make("check", 20, 60, 0, 7),
      Make("engine", 30, 50, 3, 7),
      Make("wire", 10, 15, 1, 8),
      Make("prefilter", 60, 65, 0, 7, /*shadow=*/true),
  };
  auto groups = GroupByRequest(spans);
  ExpectEq(static_cast<long long>(groups.size()), 2, "two requests");
  ExpectEq(static_cast<long long>(groups[7].size()), 5, "spans of request 7");
  ExpectEq(static_cast<long long>(groups[8].size()), 2, "spans of request 8");
  ExpectEq(static_cast<long long>(groups[7][1]), 2, "recording order kept");
  std::vector<int64_t> self = SelfTimes(spans);
  auto sums = LayerSumByRequest(spans, self);
  // wire 10 + check self 20 + engine 20 = 50; the shadow is excluded.
  ExpectEq(sums[7], 50, "layer sum of request 7");
  ExpectEq(sums[8], 5, "layer sum of request 8");
}

void TestRecorderNesting() {
  SpanRecorder recorder;
  {
    ScopedSpan outer(&recorder, "outer", 3);
    ScopedSpan inner(&recorder, "inner", 3, outer.index());
  }
  const auto& spans = recorder.spans();
  ExpectEq(static_cast<long long>(spans.size()), 2, "recorded spans");
  ExpectEq(spans[1].parent, 0, "inner parent");
  Expect(spans[0].start_ns <= spans[1].start_ns &&
             spans[1].end_ns <= spans[0].end_ns,
         "inner within outer", 0, 0);
  std::vector<int64_t> self = SelfTimes(spans);
  ExpectEq(self[0] + self[1], spans[0].duration(), "recorded self sum");
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  TestLeafSelfIsDuration();
  TestNestedChildren();
  TestOverlappingChildrenCountOnce();
  TestProtrudingChildrenAreClipped();
  TestAdjacentChildren();
  TestGroupingAndLayerSums();
  TestRecorderNesting();
  if (failures != 0) {
    std::fprintf(stderr, "%d span check(s) failed\n", failures);
    return 1;
  }
  std::printf("span arithmetic: all checks passed\n");
  return 0;
}
