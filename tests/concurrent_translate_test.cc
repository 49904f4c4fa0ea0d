// Batch checks while the same term factory grows: two threads run
// SubsumesBatch over a view catalog while a third translates query
// classes never translated before into the factory, as a daemon does
// when one worker translates fresh OPTIMIZE queries while another runs
// the engine. The engine reads the factory's per-concept data (nodes,
// paths, the QL flag) without its lock; under TSan this test checks that
// those reads race with no intern.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "base/strings.h"
#include "calculus/subsumption.h"
#include "dl/frontend.h"

namespace oodb::calculus {
namespace {

constexpr int kViews = 12;
constexpr int kChecked = 48;   // query classes translated up front
constexpr int kQueries = 160;  // all query classes in the DL

// A small DL: six classes, four attributes (one with an inverse), and
// query classes with one or two derived paths, every third joined.
std::string MakeDl() {
  std::string src;
  for (int i = 0; i < 6; ++i) {
    src += StrCat("Class C", i);
    if (i > 0) src += StrCat(" isA C", (i - 1) / 2);
    src += " with\nend C" + std::to_string(i) + "\n\n";
  }
  for (int i = 0; i < 4; ++i) {
    src += StrCat("Attribute a", i, " with\n  domain: C", i % 3,
                  "\n  range: C", (i + 2) % 6, "\n");
    if (i == 1) src += "  inverse: inv_a1\n";
    src += StrCat("end a", i, "\n\n");
  }
  const char* steps[] = {"a0", "a1", "a2", "a3", "inv_a1"};
  for (int q = 0; q < kQueries; ++q) {
    auto step = [&](int k) {
      const char* attr = steps[(q * 7 + k * 3) % 5];
      return (q + k) % 2 == 0 ? StrCat("(", attr, ": C", (q + k) % 6, ")")
                              : std::string(attr);
    };
    src += StrCat("QueryClass Q", q, " isA C", q % 6, " with\n  derived\n");
    src += StrCat("    l0: ", step(0), q % 4 == 0 ? "." + step(1) : "", "\n");
    if (q % 3 != 0) src += StrCat("    l1: ", step(2), "\n");
    if (q % 3 == 1) src += "  where\n    l0 = l1\n";
    src += StrCat("end Q", q, "\n\n");
  }
  return src;
}

TEST(ConcurrentTranslate, BatchChecksWhileAnotherThreadTranslates) {
  dl::Frontend front;
  ASSERT_EQ(front.Load(MakeDl()), Status::Ok());
  auto translate = [&](int q) {
    auto c = front.translator->ClassConcept(StrCat("Q", q));
    return c.ok() ? *c : ql::kInvalidConcept;
  };
  std::vector<ql::ConceptId> views;
  for (int q = 0; q < kViews; ++q) views.push_back(translate(q));
  std::vector<ql::ConceptId> queries;
  for (int q = kViews; q < kChecked; ++q) queries.push_back(translate(q));
  for (ql::ConceptId c : views) ASSERT_NE(c, ql::kInvalidConcept);
  for (ql::ConceptId c : queries) ASSERT_NE(c, ql::kInvalidConcept);

  // Every batch runs the engine: no memo.
  SubsumptionChecker::Options options;
  options.memoize = false;
  SubsumptionChecker checker(*front.sigma, options);
  std::vector<std::vector<bool>> expected;
  int subsumed = 0;
  for (ql::ConceptId c : queries) {
    auto verdicts = checker.SubsumesBatch(c, views);
    ASSERT_TRUE(verdicts.ok());
    expected.push_back(*verdicts);
    for (bool v : *verdicts) subsumed += v ? 1 : 0;
  }
  EXPECT_GT(subsumed, 0);  // the catalog answers some queries

  // The checkers keep going until the translator is done, so the two
  // overlap however the threads are scheduled.
  std::atomic<bool> translated{false};
  std::vector<int> mismatches(2, 0);
  std::vector<std::thread> checkers;
  for (int w = 0; w < 2; ++w) {
    checkers.emplace_back([&, w] {
      for (int pass = 0; pass < 2 || !translated.load(); ++pass) {
        for (size_t i = 0; i < queries.size(); ++i) {
          auto verdicts = checker.SubsumesBatch(queries[i], views);
          if (!verdicts.ok() || *verdicts != expected[i]) ++mismatches[w];
        }
      }
    });
  }
  std::vector<ql::ConceptId> fresh;
  std::thread translating([&] {
    for (int q = kChecked; q < kQueries; ++q) fresh.push_back(translate(q));
    translated.store(true);
  });
  for (std::thread& t : checkers) t.join();
  translating.join();

  EXPECT_EQ(mismatches[0], 0);
  EXPECT_EQ(mismatches[1], 0);
  ASSERT_EQ(fresh.size(), static_cast<size_t>(kQueries - kChecked));
  for (ql::ConceptId c : fresh) {
    ASSERT_NE(c, ql::kInvalidConcept);
    EXPECT_TRUE(front.terms->IsQl(c));
  }
  // The views still answer for a query translated during the run.
  EXPECT_TRUE(checker.SubsumesBatch(fresh.back(), views).ok());
}

}  // namespace
}  // namespace oodb::calculus
