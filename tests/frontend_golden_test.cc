// Pins what LOAD and STATE make of their payloads. The golden test hashes
// the front end's output (the symbol names in id order, the model printed
// back as DL, the analyzer's warnings and, for generated worlds, the
// loaded state), so a change to the lexer, parser or analyzer that keeps
// its digests keeps every Symbol id, model, warning and object. The
// mutation test flips, deletes and inserts bytes at seeded positions of a
// DL source and of a state, loads every mutant, and hashes the outcomes:
// none may crash, and every error text must stay the same. The digests
// were recorded with the front end that lexed the whole source into a
// token vector and copied every name into its syntax tree.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "base/rng.h"
#include "base/strings.h"
#include "db/database.h"
#include "db/instance.h"
#include "dl/frontend.h"
#include "dl/printer.h"
#include "dl_fixture.h"
#include "gen/dl_gen.h"

namespace oodb {
namespace {

// FNV-1a over a sequence of strings, each preceded by its length so that
// the split between them counts.
class Digest {
 public:
  void Add(std::string_view bytes) {
    for (size_t n = bytes.size(), i = 0; i < sizeof n; ++i, n >>= 8) {
      Mix(static_cast<unsigned char>(n));
    }
    for (unsigned char c : bytes) Mix(c);
  }
  std::string Hex() const {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 0; i < 16; ++i) out[15 - i] = kDigits[(hash_ >> (4 * i)) & 15];
    return out;
  }

 private:
  void Mix(unsigned char c) {
    hash_ ^= c;
    hash_ *= 0x100000001b3ULL;
  }
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string Outcome(const Status& status) {
  return StrCat(StatusCodeName(status.code()), ": ", status.message());
}

// The symbol names in id order, the printed model and the warnings.
void AddFrontEnd(const dl::Frontend& front, Digest* digest) {
  for (uint32_t id = 1; id <= front.symbols.size(); ++id) {
    digest->Add(front.symbols.Name(Symbol(id)));
  }
  digest->Add(dl::ModelToSource(*front.model, front.symbols));
  for (const std::string& warning : front.model->warnings()) {
    digest->Add(warning);
  }
}

// Path constants and variables, nested formulas, implicit declarations,
// ignored output attributes and trailing names: what the medical
// fixture and the generator leave out.
constexpr const char* kCornerSource = R"(
Class Person with
  attribute, necessary
    name: String
end
Class Patient isA Person, Insured with
  attribute, single, necessary
    consults: Doctor
end Patient
QueryClass SameDoctor isA Patient with
  attribute
    shown: Person
  derived
    (consults: ?d).(colleague: ?d)
    l1: (consults: {Dr_Who}).knows
    l2: (knows: Doctor).(inv_knows: Patient)
  where
    l1 = l2
  constraint:
    exists x/Person ((this knows x) and not (x = Dr_Who))
      or forall y/Doctor (not (y in Person) or ((this consults y)))
end SameDoctor
Attribute knows with
  domain: Person
  inverse: inv_knows
end knows
Attribute colleague with
  range: Doctor
end
)";

TEST(FrontendGolden, MedicalAndCornerSourcesKeepTheirOutput) {
  Digest digest;
  for (const char* source : {testing::kMedicalDlSource, kCornerSource}) {
    dl::Frontend front;
    ASSERT_TRUE(front.Load(source).ok()) << source;
    AddFrontEnd(front, &digest);
  }
  EXPECT_EQ(digest.Hex(), "64fb54784c231dc2");
}

// 20 seeded worlds with joins, each with a state loaded over it.
TEST(FrontendGolden, GeneratedWorldsKeepTheirOutput) {
  Digest digest;
  Rng rng(2024);
  gen::DlGenOptions options;
  options.where_prob = 0.5;
  options.num_queries = 40;
  for (int world = 0; world < 20; ++world) {
    const gen::GeneratedDl dl = gen::GenerateDlSource(rng, options);
    dl::Frontend front;
    ASSERT_TRUE(front.Load(dl.source).ok()) << dl.source;
    db::Database database(*front.model, &front.symbols);
    const std::string state = gen::GenerateDlState(dl, rng);
    ASSERT_TRUE(db::LoadInstance(state, &database).ok()) << state;
    AddFrontEnd(front, &digest);
    digest.Add(db::DumpInstance(database));
  }
  EXPECT_EQ(digest.Hex(), "dbd2d191aec6cc9a");
}

// The shape of perfbench's plan-cold catalog: 16 classes, 8 attributes
// (some with inverses), and thousands of query classes of one to three
// paths of one or two steps.
TEST(FrontendGolden, PlanColdShapedCatalogKeepsItsOutput) {
  Rng rng(16064);
  gen::DlGenOptions options;
  options.num_classes = 16;
  options.num_attrs = 8;
  options.num_queries = 4000;
  options.where_prob = 0;
  options.filter_prob = 0.6;
  const gen::GeneratedDl dl = gen::GenerateDlSource(rng, options);
  dl::Frontend front;
  ASSERT_TRUE(front.Load(dl.source).ok());
  Digest digest;
  AddFrontEnd(front, &digest);
  EXPECT_EQ(digest.Hex(), "4d847930ee74c9f3");
}

// A byte that mutation inserts or writes: half of the time one that the
// grammar gives a meaning to, otherwise any byte.
char MutantByte(Rng& rng) {
  static constexpr std::string_view kMeaningful = "(){}:,.=/?_ \n\tAz09$#";
  if (rng.Bernoulli(0.5)) return kMeaningful[rng.Index(kMeaningful.size())];
  return static_cast<char>(rng.Index(256));
}

// One to three edits at seeded positions: a flipped bit, a deleted byte
// or an inserted byte.
std::string Mutate(std::string text, Rng& rng) {
  const size_t edits = 1 + rng.Index(3);
  for (size_t e = 0; e < edits; ++e) {
    const size_t at = rng.Index(text.size() + 1);
    const size_t kind = rng.Index(3);
    if (kind == 2) {
      text.insert(at, 1, MutantByte(rng));
    } else if (at < text.size() && kind == 1) {
      text.erase(at, 1);
    } else if (at < text.size()) {
      text[at] = static_cast<char>(text[at] ^ (1 << rng.Index(8)));
    }
  }
  return text;
}

constexpr int kMutants = 2000;

TEST(LoadMutation, DlMutantsLoadOrFailAsBefore) {
  Rng rng(7);
  Digest digest;
  int loaded = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string mutant = Mutate(testing::kMedicalDlSource, rng);
    dl::Frontend front;
    const Status status = front.Load(mutant);
    if (!status.ok()) {
      digest.Add(Outcome(status));
      continue;
    }
    ++loaded;
    digest.Add(dl::ModelToSource(*front.model, front.symbols));
    for (const std::string& warning : front.model->warnings()) {
      digest.Add(warning);
    }
  }
  // Some mutants must load, or the digest would pin errors alone.
  EXPECT_GT(loaded, kMutants / 50);
  EXPECT_EQ(digest.Hex(), "c8917b7d79cc0981");
}

TEST(LoadMutation, StateMutantsLoadOrFailAsBefore) {
  Rng rng(11);
  const gen::GeneratedDl dl = gen::GenerateDlSource(rng);
  const std::string state = gen::GenerateDlState(dl, rng);
  dl::Frontend front;
  ASSERT_TRUE(front.Load(dl.source).ok());
  Digest digest;
  int loaded = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string mutant = Mutate(state, rng);
    db::Database database(*front.model, &front.symbols);
    auto stats = db::LoadInstance(mutant, &database);
    if (!stats.ok()) {
      digest.Add(Outcome(stats.status()));
      continue;
    }
    ++loaded;
    digest.Add(StrCat(stats->objects, " ", stats->memberships, " ",
                      stats->attributes));
    digest.Add(db::DumpInstance(database));
  }
  EXPECT_GT(loaded, kMutants / 50);
  EXPECT_EQ(digest.Hex(), "4779985884ad03be");
}

}  // namespace
}  // namespace oodb
