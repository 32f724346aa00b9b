#include "sat/dimacs.hpp"
#include "sat/solver.hpp"

#include <sstream>

#include <gtest/gtest.h>

#include <random>

namespace {

using namespace stps::sat;

lit pos(var v) { return lit{v, false}; }
lit neg(var v) { return lit{v, true}; }

TEST(Sat, EmptyIsSat)
{
  solver s;
  EXPECT_EQ(s.solve(), result::sat);
}

TEST(Sat, UnitClauses)
{
  solver s;
  const var a = s.new_var();
  const var b = s.new_var();
  s.add_clause({pos(a)});
  s.add_clause({neg(b)});
  ASSERT_EQ(s.solve(), result::sat);
  EXPECT_TRUE(s.model_value(a));
  EXPECT_FALSE(s.model_value(b));
}

TEST(Sat, ContradictionIsUnsat)
{
  solver s;
  const var a = s.new_var();
  s.add_clause({pos(a)});
  EXPECT_FALSE(s.add_clause({neg(a)}));
  EXPECT_EQ(s.solve(), result::unsat);
  EXPECT_TRUE(s.in_conflict());
}

TEST(Sat, SimplePropagationChain)
{
  solver s;
  const var a = s.new_var();
  const var b = s.new_var();
  const var c = s.new_var();
  s.add_clause({neg(a), pos(b)});
  s.add_clause({neg(b), pos(c)});
  s.add_clause({pos(a)});
  ASSERT_EQ(s.solve(), result::sat);
  EXPECT_TRUE(s.model_value(a));
  EXPECT_TRUE(s.model_value(b));
  EXPECT_TRUE(s.model_value(c));
}

TEST(Sat, TautologyAndDuplicatesIgnored)
{
  solver s;
  const var a = s.new_var();
  const var b = s.new_var();
  EXPECT_TRUE(s.add_clause({pos(a), neg(a), pos(b)})); // tautology
  EXPECT_TRUE(s.add_clause({pos(a), pos(a), pos(b)})); // duplicate lits
  EXPECT_EQ(s.solve(), result::sat);
}

TEST(Sat, AssumptionsSatAndUnsat)
{
  solver s;
  const var a = s.new_var();
  const var b = s.new_var();
  s.add_clause({pos(a), pos(b)});
  s.add_clause({neg(a), neg(b)});

  const lit assume_a[1] = {pos(a)};
  ASSERT_EQ(s.solve(assume_a), result::sat);
  EXPECT_TRUE(s.model_value(a));
  EXPECT_FALSE(s.model_value(b));

  const lit assume_both[2] = {pos(a), pos(b)};
  EXPECT_EQ(s.solve(assume_both), result::unsat);

  // Solver stays usable after an assumption conflict.
  EXPECT_EQ(s.solve(assume_a), result::sat);
  EXPECT_FALSE(s.in_conflict());
}

TEST(Sat, PigeonholeUnsat)
{
  // PHP(n+1, n): n+1 pigeons, n holes — classically unsat, needs real
  // conflict analysis to finish quickly.
  const uint32_t holes = 5;
  const uint32_t pigeons = holes + 1;
  solver s;
  std::vector<std::vector<var>> x(pigeons, std::vector<var>(holes));
  for (auto& row : x) {
    for (auto& v : row) {
      v = s.new_var();
    }
  }
  for (uint32_t p = 0; p < pigeons; ++p) {
    std::vector<lit> clause;
    for (uint32_t h = 0; h < holes; ++h) {
      clause.push_back(pos(x[p][h]));
    }
    s.add_clause(clause);
  }
  for (uint32_t h = 0; h < holes; ++h) {
    for (uint32_t p1 = 0; p1 < pigeons; ++p1) {
      for (uint32_t p2 = p1 + 1; p2 < pigeons; ++p2) {
        s.add_clause({neg(x[p1][h]), neg(x[p2][h])});
      }
    }
  }
  EXPECT_EQ(s.solve(), result::unsat);
  EXPECT_GT(s.stats().conflicts, 0u);
}

TEST(Sat, ConflictBudgetYieldsUnknown)
{
  const uint32_t holes = 8;
  const uint32_t pigeons = holes + 1;
  solver s;
  std::vector<std::vector<var>> x(pigeons, std::vector<var>(holes));
  for (auto& row : x) {
    for (auto& v : row) {
      v = s.new_var();
    }
  }
  for (uint32_t p = 0; p < pigeons; ++p) {
    std::vector<lit> clause;
    for (uint32_t h = 0; h < holes; ++h) {
      clause.push_back(pos(x[p][h]));
    }
    s.add_clause(clause);
  }
  for (uint32_t h = 0; h < holes; ++h) {
    for (uint32_t p1 = 0; p1 < pigeons; ++p1) {
      for (uint32_t p2 = p1 + 1; p2 < pigeons; ++p2) {
        s.add_clause({neg(x[p1][h]), neg(x[p2][h])});
      }
    }
  }
  EXPECT_EQ(s.solve({}, 3), result::unknown);
  // With no budget it still finishes.
  EXPECT_EQ(s.solve(), result::unsat);
}

/// Random 3-SAT cross-checked against brute force.
class Random3Sat : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(Random3Sat, MatchesBruteForce)
{
  std::mt19937_64 rng{GetParam()};
  const uint32_t num_vars = 10u;
  const uint32_t num_clauses = 4u + static_cast<uint32_t>(rng() % 50u);

  std::vector<std::vector<lit>> clauses;
  solver s;
  for (uint32_t v = 0; v < num_vars; ++v) {
    s.new_var();
  }
  for (uint32_t c = 0; c < num_clauses; ++c) {
    std::vector<lit> clause;
    for (uint32_t k = 0; k < 3u; ++k) {
      clause.push_back(
          lit{static_cast<var>(rng() % num_vars), (rng() & 1u) != 0u});
    }
    clauses.push_back(clause);
    s.add_clause(clause);
  }

  // Brute force.
  bool expect_sat = false;
  for (uint32_t assignment = 0; assignment < (1u << num_vars);
       ++assignment) {
    bool all = true;
    for (const auto& clause : clauses) {
      bool any = false;
      for (const lit l : clause) {
        const bool value = ((assignment >> l.variable()) & 1u) != 0u;
        if (value != l.sign()) {
          any = true;
          break;
        }
      }
      if (!any) {
        all = false;
        break;
      }
    }
    if (all) {
      expect_sat = true;
      break;
    }
  }

  const result r = s.solve();
  ASSERT_EQ(r, expect_sat ? result::sat : result::unsat)
      << "seed " << GetParam();
  if (r == result::sat) {
    // The returned model must satisfy every clause.
    for (const auto& clause : clauses) {
      bool any = false;
      for (const lit l : clause) {
        if (s.model_value(l.variable()) != l.sign()) {
          any = true;
          break;
        }
      }
      EXPECT_TRUE(any);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Random3Sat, ::testing::Range(uint64_t{0},
                                                             uint64_t{40}));

TEST(Sat, IncrementalClauseAddition)
{
  solver s;
  const var a = s.new_var();
  const var b = s.new_var();
  s.add_clause({pos(a), pos(b)});
  ASSERT_EQ(s.solve(), result::sat);
  s.add_clause({neg(a)});
  ASSERT_EQ(s.solve(), result::sat);
  EXPECT_FALSE(s.model_value(a));
  EXPECT_TRUE(s.model_value(b));
  s.add_clause({neg(b)});
  EXPECT_EQ(s.solve(), result::unsat);
}

TEST(Sat, ConeGatingDropsOutOfScopeImplicationsAboveLevelZero)
{
  // g, h form the decision scope; x, y, z lie outside it and are reached
  // through each propagation path: an implicit binary (g → x), a
  // watched ternary (g ∧ ¬h → y) and a removable binary arena clause
  // (g → z).
  for (const bool scoped : {true, false}) {
    solver s;
    const var g = s.new_var();
    const var h = s.new_var();
    const var x = s.new_var();
    const var y = s.new_var();
    const var z = s.new_var();
    s.add_clause({neg(g), pos(x)});
    s.add_clause({neg(g), pos(h), pos(y)});
    const lit removable[2] = {neg(g), pos(z)};
    ASSERT_NE(s.add_removable_clause(removable), nullptr);
    if (scoped) {
      const var scope[2] = {g, h};
      s.set_decision_vars(scope);
    }
    const lit assumptions[2] = {pos(g), neg(h)};
    ASSERT_EQ(s.solve(assumptions), result::sat);
    EXPECT_TRUE(s.model_value(g));
    EXPECT_FALSE(s.model_value(h));
    // Gated: the three out-of-scope implications are dropped, so the
    // model leaves x, y, z unassigned (read as false).
    EXPECT_EQ(s.stats().skipped_implications, scoped ? 3u : 0u);
    EXPECT_EQ(s.model_value(x), !scoped);
    EXPECT_EQ(s.model_value(y), !scoped);
    EXPECT_EQ(s.model_value(z), !scoped);

    // Level 0 is never gated: a unit added after the scoped query still
    // fixes every out-of-scope variable it implies.
    ASSERT_TRUE(s.add_clause({pos(g)}));
    EXPECT_EQ(s.fixed_value(x), lbool::l_true);
    EXPECT_EQ(s.fixed_value(z), lbool::l_true);
    EXPECT_EQ(s.fixed_value(y), lbool::l_undef);
    ASSERT_TRUE(s.add_clause({neg(h)}));
    EXPECT_EQ(s.fixed_value(y), lbool::l_true);
    EXPECT_EQ(s.solve(), result::sat);
  }
}

TEST(Dimacs, LoadAndSolve)
{
  std::stringstream ss{"c comment\np cnf 3 3\n1 -2 0\n2 3 0\n-1 0\n"};
  solver s;
  EXPECT_EQ(load_dimacs(ss, s), 3u);
  EXPECT_EQ(s.num_vars(), 3u);
  ASSERT_EQ(s.solve(), result::sat);
  EXPECT_FALSE(s.model_value(0));
  EXPECT_FALSE(s.model_value(1)); // 1 -2 with x1 false forces ¬x2
  EXPECT_TRUE(s.model_value(2));
}

TEST(Dimacs, LoadUnsat)
{
  std::stringstream ss{"p cnf 1 2\n1 0\n-1 0\n"};
  solver s;
  load_dimacs(ss, s);
  EXPECT_EQ(s.solve(), result::unsat);
}

TEST(Dimacs, WriteFormat)
{
  std::stringstream os;
  write_dimacs(os, 2u, {{pos(0), neg(1)}, {pos(1)}});
  EXPECT_EQ(os.str(), "p cnf 2 2\n1 -2 0\n2 0\n");
}

TEST(Dimacs, RejectsUnterminatedClause)
{
  std::stringstream ss{"p cnf 2 1\n1 2\n"};
  solver s;
  EXPECT_THROW(load_dimacs(ss, s), std::runtime_error);
}

TEST(Sat, StatsAccumulate)
{
  solver s;
  const var a = s.new_var();
  const var b = s.new_var();
  s.add_clause({pos(a), pos(b)});
  s.solve();
  s.solve();
  EXPECT_EQ(s.stats().solve_calls, 2u);
}

TEST(Sat, SetPhaseSteersFirstDecision)
{
  solver s;
  const var a = s.new_var();
  // MiniSat default phase is negative.
  ASSERT_EQ(s.solve(), result::sat);
  EXPECT_FALSE(s.model_value(a));

  s.set_phase(a, true);
  EXPECT_TRUE(s.saved_phase(a));
  ASSERT_EQ(s.solve(), result::sat);
  EXPECT_TRUE(s.model_value(a));

  s.set_phase(a, false);
  EXPECT_FALSE(s.saved_phase(a));
  ASSERT_EQ(s.solve(), result::sat);
  EXPECT_FALSE(s.model_value(a));
}

TEST(Sat, SetVarActivityOrdersDecisions)
{
  // (a ∨ b): the higher-activity variable is decided first, its default
  // negative phase propagates the other one to true.
  solver s;
  const var a = s.new_var();
  const var b = s.new_var();
  s.add_clause({pos(a), pos(b)});

  s.set_var_activity(b, 10.0);
  ASSERT_EQ(s.solve(), result::sat);
  EXPECT_FALSE(s.model_value(b));
  EXPECT_TRUE(s.model_value(a));

  // Phase saving kept the first model's values; reset both phases so
  // only the activity swap below changes the decision order.
  s.set_phase(a, false);
  s.set_phase(b, false);
  s.set_var_activity(a, 20.0);
  ASSERT_EQ(s.solve(), result::sat);
  EXPECT_FALSE(s.model_value(a));
  EXPECT_TRUE(s.model_value(b));
  EXPECT_GT(s.normalized_activity(a), s.normalized_activity(b));
}

TEST(Sat, PhaseSeedingNeverChangesRandom3SatAnswers)
{
  // Pure-solver half of the phase-seeding safety property: identical
  // clause databases with arbitrarily seeded phases and activities must
  // agree on sat/unsat (the encoder-level half runs on random miters in
  // test_encoder.cpp).
  for (uint64_t seed = 0; seed < 20u; ++seed) {
    std::mt19937_64 rng{seed};
    const uint32_t num_vars = 12u;
    const uint32_t num_clauses = 20u + static_cast<uint32_t>(rng() % 40u);
    solver plain;
    solver seeded;
    for (uint32_t v = 0; v < num_vars; ++v) {
      plain.new_var();
      const var sv = seeded.new_var();
      seeded.set_phase(sv, (rng() & 1u) != 0u);
      seeded.set_var_activity(sv, static_cast<double>(rng() % 16u));
    }
    for (uint32_t c = 0; c < num_clauses; ++c) {
      std::vector<lit> clause;
      for (uint32_t k = 0; k < 3u; ++k) {
        clause.push_back(
            lit{static_cast<var>(rng() % num_vars), (rng() & 1u) != 0u});
      }
      plain.add_clause(clause);
      seeded.add_clause(clause);
    }
    EXPECT_EQ(plain.solve(), seeded.solve()) << "seed " << seed;
  }
}

} // namespace
