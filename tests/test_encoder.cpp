#include "gen/arithmetic.hpp"
#include "gen/random_logic.hpp"
#include "gen/redundancy.hpp"
#include "sat/cnf_manager.hpp"
#include "sat/encoder.hpp"
#include "sim/bitwise_sim.hpp"
#include "sim/patterns.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <tuple>
#include <unordered_map>

namespace {

using namespace stps;
using sat::result;

TEST(Encoder, ProveEquivalentOnStructurallyDifferentXor)
{
  // Build XOR two ways; they strash differently but are equivalent.
  net::aig_network aig;
  const auto a = aig.create_pi();
  const auto b = aig.create_pi();
  const auto x1 = aig.create_xor(a, b);
  // (a | b) & !(a & b)
  const auto x2 = aig.create_and(aig.create_or(a, b), !aig.create_and(a, b));
  aig.create_po(x1);
  aig.create_po(x2);
  ASSERT_NE(x1.get_node(), x2.get_node());

  sat::solver s;
  sat::aig_encoder enc{aig, s};
  EXPECT_EQ(enc.prove_equivalent(x1, x2, false, -1), result::unsat);
  // And they are NOT complements of each other.
  EXPECT_EQ(enc.prove_equivalent(x1, x2, true, -1), result::sat);
}

TEST(Encoder, ProveComplementEquivalence)
{
  net::aig_network aig;
  const auto a = aig.create_pi();
  const auto b = aig.create_pi();
  const auto f = aig.create_and(a, b);
  const auto g = aig.create_nand(a, b); // g == !f by construction...
  // ... but they share a node; build a structurally different NAND:
  const auto h = aig.create_or(!a, !b);
  aig.create_po(f);
  aig.create_po(g);
  aig.create_po(h);

  sat::solver s;
  sat::aig_encoder enc{aig, s};
  EXPECT_EQ(enc.prove_equivalent(f, h, true, -1), result::unsat);
  EXPECT_EQ(enc.prove_equivalent(f, h, false, -1), result::sat);
}

TEST(Encoder, ProveConstant)
{
  net::aig_network aig;
  const auto a = aig.create_pi();
  const auto b = aig.create_pi();
  // (a & b) & (!a | !b) == 0, hidden behind two levels.
  const auto f = aig.create_and(aig.create_and(a, b),
                                aig.create_or(!a, !b));
  aig.create_po(f);

  sat::solver s;
  sat::aig_encoder enc{aig, s};
  EXPECT_EQ(enc.prove_constant(f, false, -1), result::unsat); // proven 0
  EXPECT_EQ(enc.prove_constant(f, true, -1), result::sat);    // not 1
  EXPECT_EQ(enc.prove_constant(a, false, -1), result::sat);   // PI free
}

TEST(Encoder, CounterExampleIsValid)
{
  net::aig_network aig;
  const auto a = aig.create_pi();
  const auto b = aig.create_pi();
  const auto c = aig.create_pi();
  const auto f = aig.create_and(a, b);
  const auto g = aig.create_and(a, c);
  aig.create_po(f);
  aig.create_po(g);

  sat::solver s;
  sat::aig_encoder enc{aig, s};
  ASSERT_EQ(enc.prove_equivalent(f, g, false, -1), result::sat);
  const auto ce = enc.model_inputs();
  ASSERT_EQ(ce.size(), 3u);
  // The counter-example must actually distinguish f and g.
  bool buf[3] = {ce[0], ce[1], ce[2]};
  const bool val_f =
      sim::evaluate_aig_node(aig, f.get_node(), std::span<const bool>{buf, 3u});
  const bool val_g =
      sim::evaluate_aig_node(aig, g.get_node(), std::span<const bool>{buf, 3u});
  EXPECT_NE(val_f, val_g);
}

TEST(Encoder, FindAssignment)
{
  net::aig_network aig;
  const auto a = aig.create_pi();
  const auto b = aig.create_pi();
  const auto f = aig.create_and(a, b);
  aig.create_po(f);

  sat::solver s;
  sat::aig_encoder enc{aig, s};
  const auto w1 = enc.find_assignment(f, true, -1);
  ASSERT_TRUE(w1.has_value());
  EXPECT_TRUE((*w1)[0]);
  EXPECT_TRUE((*w1)[1]);

  // A constant-0 node has no satisfying assignment for value 1.
  const auto zero = aig.create_and(aig.create_and(a, b),
                                   aig.create_or(!a, !b));
  const auto w2 = enc.find_assignment(zero, true, -1);
  EXPECT_FALSE(w2.has_value());
}

TEST(CnfManager, IncrementalModeEncodesEachConeOnce)
{
  auto aig = gen::make_adder(12u);
  sat::cnf_manager cnf{aig};
  // Repeated queries on overlapping cones: the shared cone is encoded
  // exactly once, queries only add the delta.
  for (uint32_t i = 0; i + 1u < aig.num_pos(); ++i) {
    const result r =
        cnf.prove_equivalent(aig.po_at(i), aig.po_at(i + 1u), false, -1);
    EXPECT_TRUE(r == result::sat || r == result::unsat);
  }
  EXPECT_EQ(cnf.rebuilds(), 0u);
  EXPECT_LE(cnf.nodes_encoded(), aig.num_gates());
  // A counter-example model is readable after the query that produced it.
  ASSERT_EQ(cnf.prove_equivalent(aig.po_at(0), aig.po_at(1), false, -1),
            result::sat);
  EXPECT_EQ(cnf.model_inputs().size(), aig.num_pis());
}

TEST(CnfManager, NonIncrementalModeRebuildsPerQuery)
{
  auto aig = gen::make_adder(8u);
  sat::cnf_manager cnf{aig, {/*incremental=*/false, /*clause_budget=*/0u}};
  uint64_t queries = 0;
  for (uint32_t i = 0; i + 1u < aig.num_pos(); ++i) {
    cnf.prove_equivalent(aig.po_at(i), aig.po_at(i + 1u), false, -1);
    ++queries;
  }
  EXPECT_EQ(cnf.rebuilds(), queries - 1u);
  // Scratch encoding pays the union cone per query: strictly more total
  // encode work than the network has gates.
  EXPECT_GT(cnf.nodes_encoded(), uint64_t{aig.num_gates()});
}

TEST(CnfManager, ClauseBudgetTriggersGarbageEpochs)
{
  auto aig = gen::make_adder(16u);
  sat::cnf_manager cnf{aig, {/*incremental=*/true, /*clause_budget=*/50u}};
  sat::cnf_manager unbounded{aig};
  for (uint32_t i = 0; i + 1u < aig.num_pos(); ++i) {
    const result a =
        cnf.prove_equivalent(aig.po_at(i), aig.po_at(i + 1u), false, -1);
    const result b = unbounded.prove_equivalent(aig.po_at(i),
                                                aig.po_at(i + 1u), false, -1);
    // Identical verdicts with and without garbage epochs.
    EXPECT_EQ(a, b) << "query " << i;
  }
  EXPECT_GT(cnf.rebuilds(), 0u);
  EXPECT_EQ(unbounded.rebuilds(), 0u);
  EXPECT_GT(cnf.nodes_encoded(), unbounded.nodes_encoded());
}

TEST(CnfManager, StatsAccumulateAcrossGarbageEpochs)
{
  // The bench's sat_conflicts/sat_decisions counters are only
  // trustworthy if solver teardowns retire the live stats into a
  // running sum: every rebuild used to silently reset them.  Pin the
  // accumulation across both rebuild flavors — garbage epochs (tiny
  // clause budget) and per-query scratch teardowns.
  for (const bool incremental : {true, false}) {
    auto aig = gen::make_adder(16u);
    sat::cnf_manager cnf{aig, {incremental, incremental ? 50u : 0u}};
    uint64_t queries = 0;
    sat::solver_stats last{};
    for (uint32_t i = 0; i + 1u < aig.num_pos(); ++i) {
      cnf.prove_equivalent(aig.po_at(i), aig.po_at(i + 1u), false, -1);
      ++queries;
      const sat::solver_stats now = cnf.solver_statistics();
      // Monotone across every query — a rebuild between two queries
      // must never make a counter go backwards.
      EXPECT_GE(now.solve_calls, last.solve_calls);
      EXPECT_GE(now.conflicts, last.conflicts);
      EXPECT_GE(now.decisions, last.decisions);
      EXPECT_GE(now.propagations, last.propagations);
      EXPECT_GE(now.restarts, last.restarts);
      last = now;
    }
    EXPECT_GT(cnf.rebuilds(), 0u) << "fixture no longer rebuilds";
    // Exactly one solve per equivalence query, counted across epochs.
    EXPECT_EQ(last.solve_calls, queries);
    EXPECT_GT(last.decisions, 0u);
  }
}

TEST(CnfManager, PhaseSeedingNeverChangesAnswersOnRandomMiters)
{
  // Property: phase hints steer the search only — every equivalence /
  // constant query must return the identical sat/unsat verdict with
  // hints on (from real simulation signatures), with adversarial hints
  // (bit-noise), and with none.
  for (uint64_t seed = 0; seed < 8u; ++seed) {
    const auto aig = gen::make_random_logic(
        {10u, 6u, 180u + 30u * static_cast<uint32_t>(seed % 3u),
         0xabcdu + seed, 30u});
    const sim::pattern_set patterns =
        sim::pattern_set::random(aig.num_pis(), 64u, seed);
    const sim::signature_store sig = sim::simulate_aig(aig, patterns);

    sat::cnf_manager plain{aig};
    sat::cnf_manager simulation{aig};
    simulation.set_phase_hints([&sig](stps::net::node n) -> int {
      return n < sig.size() ? static_cast<int>(sig.word(n, 0u) & 1u) : -1;
    });
    sat::cnf_manager adversarial{aig};
    adversarial.set_phase_hints([seed](stps::net::node n) -> int {
      return static_cast<int>((n * 2654435761u + seed) >> 7u & 1u);
    });

    for (uint32_t i = 0; i + 1u < aig.num_pos(); ++i) {
      const auto a = aig.po_at(i);
      const auto b = aig.po_at(i + 1u);
      const sat::result r = plain.prove_equivalent(a, b, false, -1);
      EXPECT_EQ(simulation.prove_equivalent(a, b, false, -1), r)
          << "seed " << seed << " pair " << i;
      EXPECT_EQ(adversarial.prove_equivalent(a, b, false, -1), r)
          << "seed " << seed << " pair " << i;
      const sat::result c = plain.prove_constant(a, false, -1);
      EXPECT_EQ(simulation.prove_constant(a, false, -1), c);
      EXPECT_EQ(adversarial.prove_constant(a, false, -1), c);
    }
    EXPECT_GT(simulation.phase_seeds(), 0u);
    EXPECT_GT(adversarial.phase_seeds(), 0u);
    EXPECT_EQ(plain.phase_seeds(), 0u);
  }
}

TEST(CnfManager, SeededPhaseHintsAreDeterministic)
{
  // Same network, same hints → byte-identical search counters.  Any
  // nondeterminism in the seeding path (iteration order, uninitialized
  // phases) shows up here first.
  const auto aig = gen::make_random_logic({10u, 6u, 200u, 0x5eedu, 30u});
  const sim::pattern_set patterns =
      sim::pattern_set::random(aig.num_pis(), 64u, 7u);
  const sim::signature_store sig = sim::simulate_aig(aig, patterns);
  const auto hints = [&sig](stps::net::node n) -> int {
    return n < sig.size() ? static_cast<int>(sig.word(n, 0u) & 1u) : -1;
  };
  sat::solver_stats runs[2];
  uint64_t seeds[2] = {0u, 0u};
  for (int run = 0; run < 2; ++run) {
    sat::cnf_manager cnf{aig, {true, 2000u}};
    cnf.set_phase_hints(hints);
    for (uint32_t i = 0; i + 1u < aig.num_pos(); ++i) {
      cnf.prove_equivalent(aig.po_at(i), aig.po_at(i + 1u), false, -1);
    }
    runs[run] = cnf.solver_statistics();
    seeds[run] = cnf.phase_seeds();
  }
  EXPECT_EQ(runs[0].decisions, runs[1].decisions);
  EXPECT_EQ(runs[0].conflicts, runs[1].conflicts);
  EXPECT_EQ(runs[0].propagations, runs[1].propagations);
  EXPECT_EQ(runs[0].restarts, runs[1].restarts);
  EXPECT_EQ(runs[0].solve_calls, runs[1].solve_calls);
  EXPECT_EQ(seeds[0], seeds[1]);
}

TEST(CnfManager, EpochCarryOverPreservesAnswers)
{
  // Garbage epochs with cone scoping carry learned phases/activities
  // into the next epoch; verdicts must match an unbounded manager and a
  // cold-rebuild one exactly.
  auto aig = gen::make_adder(16u);
  sat::cnf_manager carrying{aig, {true, 50u, /*cone_scoped=*/true}};
  sat::cnf_manager cold{aig, {true, 50u, /*cone_scoped=*/false}};
  sat::cnf_manager unbounded{aig};
  for (uint32_t i = 0; i + 1u < aig.num_pos(); ++i) {
    const sat::result r = unbounded.prove_equivalent(
        aig.po_at(i), aig.po_at(i + 1u), false, -1);
    EXPECT_EQ(carrying.prove_equivalent(aig.po_at(i), aig.po_at(i + 1u),
                                        false, -1),
              r);
    EXPECT_EQ(cold.prove_equivalent(aig.po_at(i), aig.po_at(i + 1u), false,
                                    -1),
              r);
  }
  EXPECT_GT(carrying.rebuilds(), 0u);
  EXPECT_GT(cold.rebuilds(), 0u);
}

TEST(CnfManager, ConeGatedPropagationMatchesUngatedOracle)
{
  // Cone gating keeps a query's search from assigning the fanout gates
  // of cones that earlier queries encoded into the shared CNF.  One
  // persistent manager per mode answers the same mixed stream of
  // equivalence, constant and assignment queries; the manager without
  // cone scoping propagates everything and is the oracle.  Verdicts must
  // agree, and every gated model, re-simulated through the AIG with its
  // out-of-cone PIs read as 0, must satisfy its query.
  uint64_t queries = 0;
  uint64_t verdicts[3] = {0u, 0u, 0u}; // indexed by sat::result
  for (uint64_t seed = 0; seed < 4u; ++seed) {
    const auto base = gen::make_random_logic(
        {16u, 10u, 500u + 100u * static_cast<uint32_t>(seed), 0x6a7eu + seed,
         30u});
    const auto aig =
        gen::inject_redundancy(base, {8u, 4u, 0x6a7eu + seed, 6u});
    std::vector<net::node> gates;
    aig.foreach_gate([&](net::node n) { gates.push_back(n); });
    ASSERT_FALSE(gates.empty());

    // Simulation-matched pairs, as a sweep would query them: mostly
    // equivalences, plus near-duplicates only a model can split.
    const sim::signature_store sig = sim::simulate_aig(
        aig, sim::pattern_set::random(aig.num_pis(), 64u, seed));
    std::unordered_map<uint64_t, net::node> representative;
    std::vector<std::tuple<net::node, net::node, bool>> candidates;
    for (const net::node n : gates) {
      const uint64_t w = sig.word(n, 0u);
      const bool phase = (w & 1u) != 0u;
      const auto [it, fresh] =
          representative.try_emplace(phase ? ~w : w, n);
      if (!fresh) {
        const bool rep_phase = (sig.word(it->second, 0u) & 1u) != 0u;
        candidates.emplace_back(it->second, n, phase != rep_phase);
      }
    }
    ASSERT_FALSE(candidates.empty());

    const auto value_of = [&](const std::vector<bool>& pis, net::signal f) {
      auto buf = std::make_unique<bool[]>(pis.size());
      for (std::size_t i = 0; i < pis.size(); ++i) {
        buf[i] = pis[i];
      }
      return sim::evaluate_aig_node(
                 aig, f.get_node(),
                 std::span<const bool>{buf.get(), pis.size()}) !=
             f.is_complemented();
    };

    sat::cnf_manager gated{aig};
    sat::cnf_manager ungated{aig, {true, 0u, /*cone_scoped=*/false}};
    std::mt19937_64 rng{seed};
    const auto random_gate = [&] {
      return net::signal{gates[rng() % gates.size()], (rng() & 1u) != 0u};
    };
    for (uint32_t k = 0; k < 750u; ++k, ++queries) {
      switch (rng() % 4u) {
        case 0u:
        case 1u: {
          net::signal a;
          net::signal b;
          bool complement;
          if (rng() % 4u != 0u) {
            const auto& [x, y, c] = candidates[rng() % candidates.size()];
            a = net::signal{x, false};
            b = net::signal{y, false};
            complement = c;
          } else {
            a = random_gate();
            b = random_gate();
            complement = (rng() & 1u) != 0u;
          }
          const result r = gated.prove_equivalent(a, b, complement, -1);
          ASSERT_EQ(r, ungated.prove_equivalent(a, b, complement, -1))
              << "seed " << seed << " query " << k;
          ++verdicts[static_cast<int>(r)];
          if (r == result::sat) {
            const std::vector<bool> ce = gated.model_inputs();
            ASSERT_EQ(ce.size(), aig.num_pis());
            EXPECT_EQ(value_of(ce, a), value_of(ce, b) == complement)
                << "seed " << seed << " query " << k;
          }
          break;
        }
        case 2u: {
          const net::signal f = random_gate();
          const bool value = (rng() & 1u) != 0u;
          const result r = gated.prove_constant(f, value, -1);
          ASSERT_EQ(r, ungated.prove_constant(f, value, -1))
              << "seed " << seed << " query " << k;
          if (r == result::sat) {
            EXPECT_NE(value_of(gated.model_inputs(), f), value)
                << "seed " << seed << " query " << k;
          }
          break;
        }
        default: {
          const net::signal f = random_gate();
          const bool value = (rng() & 1u) != 0u;
          const auto witness = gated.find_assignment(f, value, -1);
          ASSERT_EQ(witness.has_value(),
                    ungated.find_assignment(f, value, -1).has_value())
              << "seed " << seed << " query " << k;
          if (witness) {
            EXPECT_EQ(value_of(*witness, f), value)
                << "seed " << seed << " query " << k;
          }
          break;
        }
      }
    }
    EXPECT_GT(gated.solver_statistics().skipped_implications, 0u)
        << "seed " << seed;
    EXPECT_EQ(ungated.solver_statistics().skipped_implications, 0u);
    // The oracle propagates every encoded fanout; gating only drops work.
    EXPECT_LT(gated.solver_statistics().propagations,
              ungated.solver_statistics().propagations)
        << "seed " << seed;
  }
  EXPECT_EQ(queries, 3000u);
  // The stream must exercise both answers of the equivalence queries.
  EXPECT_GT(verdicts[static_cast<int>(result::sat)], 100u);
  EXPECT_GT(verdicts[static_cast<int>(result::unsat)], 100u);
}

TEST(Encoder, EncodesLazilyAndOnce)
{
  auto aig = gen::make_adder(16u);
  sat::solver s;
  sat::aig_encoder enc{aig, s};
  EXPECT_EQ(enc.num_encoded_nodes(), 0u);
  // Touch the lowest sum bit: only its small cone is encoded.
  const auto f = aig.po_at(0);
  enc.literal(f);
  const uint64_t after_first = enc.num_encoded_nodes();
  EXPECT_GT(after_first, 0u);
  EXPECT_LT(after_first, aig.num_gates());
  // Re-requesting the same literal encodes nothing new.
  enc.literal(f);
  EXPECT_EQ(enc.num_encoded_nodes(), after_first);
  // Touch every PO: the whole (reachable) network appears exactly once.
  aig.foreach_po([&](net::signal po, uint32_t) { enc.literal(po); });
  EXPECT_EQ(enc.num_encoded_nodes(), aig.num_gates());
}

} // namespace
