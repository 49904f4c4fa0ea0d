// Unit tests for the base utilities: symbols, status, strings, rng, and
// the lock-free id map.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "base/chunked.h"
#include "base/rng.h"
#include "base/status.h"
#include "base/strings.h"
#include "base/symbol.h"

namespace oodb {
namespace {

TEST(Symbol, InterningIsIdempotent) {
  SymbolTable table;
  Symbol a = table.Intern("Person");
  Symbol b = table.Intern("Person");
  EXPECT_EQ(a, b);
  EXPECT_EQ(table.Name(a), "Person");
  EXPECT_EQ(table.size(), 1u);
}

TEST(Symbol, DistinctNamesGetDistinctSymbols) {
  SymbolTable table;
  EXPECT_NE(table.Intern("a"), table.Intern("b"));
}

TEST(Symbol, FindDoesNotIntern) {
  SymbolTable table;
  EXPECT_FALSE(table.Find("missing").valid());
  EXPECT_EQ(table.size(), 0u);
}

TEST(Symbol, InvalidSymbolIsFalsy) {
  Symbol s;
  EXPECT_FALSE(s.valid());
}

TEST(Symbol, SurvivesManyInsertionsWithoutDanglingViews) {
  // Regression: the name index used to key string_views into SSO buffers
  // that moved on vector reallocation.
  SymbolTable table;
  std::vector<Symbol> symbols;
  for (int i = 0; i < 5000; ++i) {
    symbols.push_back(table.Intern(StrCat("sym_", i)));
  }
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(table.Find(StrCat("sym_", i)), symbols[i]);
    EXPECT_EQ(table.Name(symbols[i]), StrCat("sym_", i));
  }
}

TEST(Symbol, FreshNamesNeverCollide) {
  SymbolTable table;
  table.Intern("v#1");
  Symbol fresh = table.Fresh("v");
  EXPECT_NE(table.Name(fresh), "v#1");
  std::set<std::string> seen;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(seen.insert(table.Name(table.Fresh("v"))).second);
  }
}

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = NotFoundError("no such class");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "not_found: no such class");
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(Result, HoldsError) {
  Result<int> r(InvalidArgumentError("bad"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

Status FailIfNegative(int x) {
  if (x < 0) return OutOfRangeError("negative");
  return Status::Ok();
}

Status UseReturnIfError(int x) {
  OODB_RETURN_IF_ERROR(FailIfNegative(x));
  return Status::Ok();
}

TEST(Result, ReturnIfErrorPropagates) {
  EXPECT_TRUE(UseReturnIfError(1).ok());
  EXPECT_EQ(UseReturnIfError(-1).code(), StatusCode::kOutOfRange);
}

Result<int> Double(int x) {
  if (x < 0) return OutOfRangeError("negative");
  return 2 * x;
}

Result<int> UseAssignOrReturn(int x) {
  OODB_ASSIGN_OR_RETURN(int doubled, Double(x));
  return doubled + 1;
}

TEST(Result, AssignOrReturnPropagates) {
  auto ok = UseAssignOrReturn(3);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 7);
  EXPECT_FALSE(UseAssignOrReturn(-3).ok());
}

TEST(Strings, StrCatMixesTypes) {
  EXPECT_EQ(StrCat("x=", 42, ", ok=", true), "x=42, ok=true");
}

TEST(Strings, StrJoin) {
  std::vector<std::string> v = {"a", "b", "c"};
  EXPECT_EQ(StrJoin(v, ", "), "a, b, c");
  EXPECT_EQ(StrJoin(std::vector<std::string>{}, ", "), "");
}

TEST(Strings, SplitKeepsEmptyPieces) {
  auto pieces = StrSplit("a,,b", ',');
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[1], "");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("ar", "bar"));
}

TEST(Rng, DeterministicForFixedSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(0, 1000), b.Uniform(0, 1000));
  }
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(ChunkedIdMap, FindsWhatWasSetAndNothingElse) {
  ChunkedIdMap map;
  EXPECT_EQ(map.Find(0), ChunkedIdMap::kAbsent);
  EXPECT_EQ(map.Find(70000), ChunkedIdMap::kAbsent);
  // Ids on one page, on far pages, and at a page boundary.
  const std::vector<uint32_t> ids = {0, 1, 1023, 1024, 70000, 4000000};
  for (size_t i = 0; i < ids.size(); ++i) {
    map.Set(ids[i], static_cast<uint32_t>(10 * i));
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(map.Find(ids[i]), 10 * i) << ids[i];
  }
  EXPECT_EQ(map.Find(2), ChunkedIdMap::kAbsent);       // same page, unset
  EXPECT_EQ(map.Find(70001), ChunkedIdMap::kAbsent);   // same page, unset
  EXPECT_EQ(map.Find(500000), ChunkedIdMap::kAbsent);  // no page
  EXPECT_EQ(map.Find(UINT32_MAX), ChunkedIdMap::kAbsent);  // out of range
  map.Set(70000, 7);
  EXPECT_EQ(map.Find(70000), 7u);
  // Keys are exact: ids that agree in their low 16 bits stay distinct.
  EXPECT_EQ(map.Find(70000 - 65536), ChunkedIdMap::kAbsent);
  EXPECT_EQ(map.Find(4000000 % 65536), ChunkedIdMap::kAbsent);
  map.Set(5, 1);
  map.Set(5 + 65536, 2);
  EXPECT_EQ(map.Find(5), 1u);
  EXPECT_EQ(map.Find(5 + 65536), 2u);
}

}  // namespace
}  // namespace oodb
