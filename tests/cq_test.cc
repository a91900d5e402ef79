// Unit tests for the CQ layer: parsing, printing, tableaux, containment
// (Chandra-Merlin), minimization, trivial queries, structural properties.

#include <gtest/gtest.h>

#include "cq/containment.h"
#include "cq/cq.h"
#include "cq/minimize.h"
#include "cq/parse.h"
#include "cq/properties.h"
#include "cq/tableau.h"
#include "cq/trivial.h"
#include "data/database.h"
#include "data/index.h"
#include "eval/engine.h"
#include "eval/naive.h"
#include "eval/service.h"

namespace cqa {
namespace {

VocabularyPtr G() { return Vocabulary::Graph(); }

TEST(ParseTest, BasicQuery) {
  const auto q = ParseQuery(G(), "Q(x, y) :- E(x, y), E(y, z)");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->num_variables(), 3);
  EXPECT_EQ(q->atoms().size(), 2u);
  EXPECT_EQ(q->free_variables().size(), 2u);
  EXPECT_EQ(q->NumJoins(), 1);
  EXPECT_FALSE(q->IsBoolean());
}

TEST(ParseTest, BooleanQuery) {
  const auto q = ParseQuery(G(), "Q() :- E(x, x).");
  ASSERT_TRUE(q.has_value());
  EXPECT_TRUE(q->IsBoolean());
  EXPECT_EQ(q->num_variables(), 1);
}

TEST(ParseTest, RepeatedHeadVariables) {
  const auto q = ParseQuery(G(), "Q(x, x) :- E(x, y)");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->free_variables().size(), 2u);
  EXPECT_EQ(q->free_variables()[0], q->free_variables()[1]);
}

TEST(ParseTest, Errors) {
  std::string error;
  EXPECT_FALSE(ParseQuery(G(), "Q(x)  E(x, y)", &error).has_value());
  EXPECT_FALSE(ParseQuery(G(), "Q(w) :- E(x, y)", &error).has_value());
  EXPECT_FALSE(ParseQuery(G(), "Q() :- F(x, y)", &error).has_value());
  EXPECT_FALSE(ParseQuery(G(), "Q() :- E(x)", &error).has_value());
  EXPECT_FALSE(ParseQuery(G(), "Q() :- ", &error).has_value());
}

TEST(ParseTest, PrintRoundTrip) {
  const ConjunctiveQuery q =
      MustParseQuery(G(), "Q(x) :- E(x, y), E(y, x)");
  const std::string text = PrintQuery(q);
  const ConjunctiveQuery q2 = MustParseQuery(G(), text);
  EXPECT_TRUE(AreEquivalent(q, q2));
}

// E plus a nullary (propositional) symbol P.
VocabularyPtr GraphWithFlag() {
  auto vocab = std::make_shared<Vocabulary>();
  vocab->AddRelation("E", 2);
  vocab->AddRelation("P", 0);
  return vocab;
}

TEST(ParseTest, NullaryAtomRoundTrip) {
  const VocabularyPtr vocab = GraphWithFlag();
  const ConjunctiveQuery q = MustParseQuery(vocab, "Q(x) :- E(x, y), P()");
  ASSERT_EQ(q.atoms().size(), 2u);
  EXPECT_TRUE(q.atoms()[1].vars.empty());
  const std::string text = PrintQuery(q);
  EXPECT_EQ(text, "Q(x) :- E(x, y), P()");
  std::string error;
  const auto reparsed = ParseQuery(vocab, text, &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_TRUE(AreEquivalent(q, *reparsed));
  // Empty arguments are zero variables, not a license for empty names.
  EXPECT_FALSE(ParseQuery(vocab, "Q(x) :- E(x, y), P(x)").has_value());
  EXPECT_FALSE(ParseQuery(vocab, "Q(x) :- E(x, ), P()").has_value());
  EXPECT_FALSE(ParseQuery(vocab, "Q(x) :- E(), P()").has_value());
}

// A nullary atom is a guard: the answers are those of the rest of the query
// while P holds, and empty while it does not — on every engine and through
// the service. A query of guards only answers the empty tuple while they
// hold.
TEST(ParseTest, NullaryAtomEvaluatesLikeNaive) {
  const VocabularyPtr vocab = GraphWithFlag();
  const ConjunctiveQuery guarded =
      MustParseQuery(vocab, "Q(x) :- E(x, y), P()");
  const ConjunctiveQuery flag = MustParseQuery(vocab, "Q() :- P()");
  Database db(vocab, 4);
  db.AddFact(0, {0, 1});
  db.AddFact(0, {2, 3});
  db.AddFact(0, {3, 2});
  const QueryService service;
  for (const bool holds : {false, true}) {
    if (holds) db.AddFact(1, {});
    EXPECT_EQ(EvaluateNaive(guarded, db).size(), holds ? 3u : 0u);
    EXPECT_EQ(EvaluateNaive(flag, db).size(), holds ? 1u : 0u);
    for (const ConjunctiveQuery& q : {guarded, flag}) {
      const AnswerSet want = EvaluateNaive(q, db);
      const IndexedDatabase idb(db);
      for (const EngineKind kind :
           {EngineKind::kNaive, EngineKind::kYannakakis,
            EngineKind::kTreewidth}) {
        const std::unique_ptr<Engine> engine = MakeEngine(kind);
        if (!engine->Supports(q)) continue;
        EXPECT_TRUE(engine->Evaluate(q, db) == want)
            << engine->name() << " " << PrintQuery(q) << " holds=" << holds;
        EXPECT_TRUE(engine->Evaluate(q, idb) == want)
            << engine->name() << " (indexed) " << PrintQuery(q)
            << " holds=" << holds;
      }
      EXPECT_TRUE(service.Evaluate({q, &db}).answers == want)
          << PrintQuery(q) << " holds=" << holds;
    }
  }
}

TEST(CqTest, DuplicateAtomsIgnored) {
  ConjunctiveQuery q(G());
  const int x = q.AddVariable("x");
  const int y = q.AddVariable("y");
  q.AddAtom(0, {x, y});
  q.AddAtom(0, {x, y});
  EXPECT_EQ(q.atoms().size(), 1u);
}

TEST(TableauTest, RoundTrip) {
  const ConjunctiveQuery q =
      MustParseQuery(G(), "Q(x) :- E(x, y), E(y, z), E(z, x)");
  const PointedDatabase t = ToTableau(q);
  EXPECT_EQ(t.db.num_elements(), 3);
  EXPECT_EQ(t.db.NumFacts(), 3);
  EXPECT_EQ(t.distinguished.size(), 1u);
  const ConjunctiveQuery back = FromTableau(t);
  EXPECT_TRUE(AreEquivalent(q, back));
}

TEST(ContainmentTest, PathQueries) {
  // Longer path queries are contained in shorter ones (Boolean).
  const auto p2 = MustParseQuery(G(), "Q() :- E(x, y), E(y, z)");
  const auto p1 = MustParseQuery(G(), "Q() :- E(x, y)");
  EXPECT_TRUE(IsContainedIn(p2, p1));
  EXPECT_FALSE(IsContainedIn(p1, p2));
  EXPECT_TRUE(IsStrictlyContainedIn(p2, p1));
}

TEST(ContainmentTest, ClassicEquivalence) {
  const auto q1 = MustParseQuery(G(), "Q(x) :- E(x, y), E(x, z)");
  const auto q2 = MustParseQuery(G(), "Q(x) :- E(x, y)");
  EXPECT_TRUE(AreEquivalent(q1, q2));
}

TEST(ContainmentTest, FreeVariablesMatter) {
  const auto qxy = MustParseQuery(G(), "Q(x, y) :- E(x, y)");
  const auto qyx = MustParseQuery(G(), "Q(y, x) :- E(x, y)");
  EXPECT_FALSE(IsContainedIn(qxy, qyx));
  EXPECT_FALSE(IsContainedIn(qyx, qxy));
}

TEST(ContainmentTest, CycleIntoLoop) {
  const auto triangle = MustParseQuery(G(), "Q() :- E(x,y), E(y,z), E(z,x)");
  const auto loop = MustParseQuery(G(), "Q() :- E(x, x)");
  EXPECT_TRUE(IsContainedIn(loop, triangle));
  EXPECT_FALSE(IsContainedIn(triangle, loop));
}

TEST(MinimizeTest, RedundantAtomRemoved) {
  const auto q = MustParseQuery(G(), "Q(x) :- E(x, y), E(x, z)");
  const ConjunctiveQuery min = Minimize(q);
  EXPECT_EQ(min.atoms().size(), 1u);
  EXPECT_TRUE(AreEquivalent(q, min));
  EXPECT_TRUE(IsMinimal(min));
  EXPECT_FALSE(IsMinimal(q));
}

TEST(MinimizeTest, CoreQueryUntouched) {
  const auto q = MustParseQuery(G(), "Q() :- E(x,y), E(y,z), E(z,x)");
  EXPECT_TRUE(IsMinimal(q));
  EXPECT_EQ(Minimize(q).atoms().size(), 3u);
}

TEST(MinimizeTest, BipartiteBooleanCollapses) {
  // Boolean 4-cycle with both orientations collapses to K2<->.
  const auto q = MustParseQuery(
      G(), "Q() :- E(a,b), E(b,a), E(b,c), E(c,b), E(c,d), E(d,c)");
  const ConjunctiveQuery min = Minimize(q);
  EXPECT_EQ(min.num_variables(), 2);
  EXPECT_EQ(min.atoms().size(), 2u);
}

TEST(TrivialTest, TrivialContainedInEverything) {
  const ConjunctiveQuery trivial = TrivialQuery(G(), 0);
  const auto q = MustParseQuery(G(), "Q() :- E(x,y), E(y,z), E(z,x)");
  EXPECT_TRUE(IsContainedIn(trivial, q));
  const ConjunctiveQuery trivial2 = TrivialQuery(G(), 2);
  const auto q2 = MustParseQuery(G(), "Q(x, y) :- E(x, y), E(y, z)");
  EXPECT_TRUE(IsContainedIn(trivial2, q2));
}

TEST(TrivialTest, Recognition) {
  EXPECT_TRUE(IsTrivialQuery(TrivialLoopQuery()));
  EXPECT_TRUE(IsTrivialQuery(
      MustParseQuery(G(), "Q() :- E(x,x), E(x,y), E(y,x)")));
  EXPECT_FALSE(IsTrivialQuery(TrivialBipartiteQuery()));
  EXPECT_FALSE(
      IsTrivialQuery(MustParseQuery(G(), "Q() :- E(x, y)")));
}

TEST(TrivialTest, CliqueQueryShape) {
  const ConjunctiveQuery q = TrivialCliqueQuery(3);
  EXPECT_EQ(q.num_variables(), 3);
  EXPECT_EQ(q.atoms().size(), 6u);
}

TEST(PropertiesTest, GraphOfQuery) {
  const auto q = MustParseQuery(Vocabulary::Single("R", 3),
                                "Q() :- R(x, y, z), R(x, v, v)");
  const Digraph g = GraphOfQuery(q);
  // Edges: clique on {x,y,z}, plus {x,v}.
  EXPECT_EQ(g.num_nodes(), 4);
  EXPECT_TRUE(g.HasEdge(0, 1));  // x-y
  EXPECT_TRUE(g.HasEdge(1, 2));  // y-z
  EXPECT_TRUE(g.HasEdge(0, 3));  // x-v
  EXPECT_FALSE(g.HasEdge(1, 3));
}

TEST(PropertiesTest, TreewidthOfQueries) {
  EXPECT_EQ(QueryTreewidth(
                MustParseQuery(G(), "Q() :- E(x,y), E(y,z), E(z,x)")),
            2);
  EXPECT_EQ(QueryTreewidth(MustParseQuery(G(), "Q() :- E(x,y), E(y,z)")),
            1);
  EXPECT_TRUE(IsTreewidthAtMost(
      MustParseQuery(G(), "Q() :- E(x,y), E(y,z)"), 1));
}

TEST(PropertiesTest, AcyclicityOfQueries) {
  EXPECT_TRUE(IsAcyclicQuery(MustParseQuery(G(), "Q() :- E(x,x)")));
  EXPECT_TRUE(IsAcyclicQuery(
      MustParseQuery(G(), "Q() :- E(x,y), E(y,x)")));
  EXPECT_FALSE(IsAcyclicQuery(
      MustParseQuery(G(), "Q() :- E(x,y), E(y,z), E(z,x)")));
  // The covered ternary cycle is acyclic (Example 6.6 / Q3').
  EXPECT_TRUE(IsAcyclicQuery(MustParseQuery(
      Vocabulary::Single("R", 3),
      "Q() :- R(x1,x2,x3), R(x3,x4,x5), R(x5,x6,x1), R(x1,x3,x5)")));
}

TEST(PropertiesTest, GraphQueryDetection) {
  EXPECT_TRUE(IsGraphQuery(MustParseQuery(G(), "Q() :- E(x, y)")));
  EXPECT_FALSE(IsGraphQuery(
      MustParseQuery(Vocabulary::Single("R", 3), "Q() :- R(x, y, z)")));
}

}  // namespace
}  // namespace cqa
