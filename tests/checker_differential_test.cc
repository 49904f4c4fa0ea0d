// Differential test of a long-lived checker against fresh ones. A daemon
// session keeps one checker for its lifetime: its term factory grows
// with every query it translates, its ids pass 2^16, and its memo and
// pre-filter signatures fill up. Each query here goes through
// `SubsumesBatch` against a catalog of 64 views twice: on such a
// long-lived checker, which has translated every earlier query, and on a
// fresh checker over a fresh front end of the same source, which has
// translated only the views and this query. The verdicts must be equal.
// The worlds are random `gen::` DL files whose queries join paths with
// `where` 30% of the time.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/strings.h"
#include "calculus/subsumption.h"
#include "dl/frontend.h"
#include "gen/dl_gen.h"

namespace oodb {
namespace {

constexpr size_t kViews = 64;
constexpr size_t kQueries = 300;

// The concepts of query classes [first, first + count) of `dl`.
std::vector<ql::ConceptId> Translate(dl::Frontend& front,
                                     const gen::GeneratedDl& dl, size_t first,
                                     size_t count) {
  std::vector<ql::ConceptId> concepts;
  for (size_t i = first; i < first + count; ++i) {
    auto c = front.translator->ClassConcept(dl.query_names[i]);
    EXPECT_TRUE(c.ok()) << c.status();
    concepts.push_back(c.ok() ? *c : ql::kInvalidConcept);
  }
  return concepts;
}

TEST(CheckerDifferential, LongLivedCheckerAgreesWithFreshCheckers) {
  size_t verdicts = 0;
  size_t subsumed = 0;
  for (uint64_t seed : {21u, 22u, 23u}) {
    SCOPED_TRACE(StrCat("seed ", seed));
    Rng rng(seed);
    gen::DlGenOptions options;
    options.num_classes = 10;
    options.num_attrs = 6;
    options.num_queries = kViews + kQueries;
    options.where_prob = 0.3;
    options.filter_prob = 0.6;
    const gen::GeneratedDl dl = gen::GenerateDlSource(rng, options);

    dl::Frontend live;
    for (int i = 0; i < 70000; ++i) {
      live.terms->Primitive(live.symbols.Intern(StrCat("pad", i)));
    }
    ASSERT_GT(live.terms->num_concepts(), size_t{1} << 16);
    ASSERT_EQ(live.Load(dl.source), Status::Ok());
    calculus::SubsumptionChecker live_checker(*live.sigma);
    const std::vector<ql::ConceptId> live_views =
        Translate(live, dl, 0, kViews);

    for (size_t q = kViews; q < kViews + kQueries; ++q) {
      const std::string& name = dl.query_names[q];
      const ql::ConceptId c = Translate(live, dl, q, 1)[0];
      auto want_live = live_checker.SubsumesBatch(c, live_views);
      ASSERT_TRUE(want_live.ok()) << name << ": " << want_live.status();

      dl::Frontend fresh;
      ASSERT_EQ(fresh.Load(dl.source), Status::Ok());
      calculus::SubsumptionChecker fresh_checker(*fresh.sigma);
      const std::vector<ql::ConceptId> fresh_views =
          Translate(fresh, dl, 0, kViews);
      auto got_fresh = fresh_checker.SubsumesBatch(
          Translate(fresh, dl, q, 1)[0], fresh_views);
      ASSERT_TRUE(got_fresh.ok()) << name << ": " << got_fresh.status();

      EXPECT_EQ(*want_live, *got_fresh) << name;
      verdicts += got_fresh->size();
      for (bool v : *got_fresh) subsumed += v ? 1 : 0;
    }
  }
  std::printf("checker differential: %zu verdicts, %zu subsumed\n", verdicts,
              subsumed);
  EXPECT_EQ(verdicts, 3 * kQueries * kViews);
  // Both kinds of verdict must occur, or the comparison shows nothing.
  EXPECT_GT(subsumed, 0u);
  EXPECT_LT(subsumed, verdicts);
}

}  // namespace
}  // namespace oodb
