/// \file test_differential.cpp
/// \brief Randomized differential harness across sweep engines and
/// ablation flags.
///
/// Generates seeded networks from every `src/gen` family (layered random
/// logic, arithmetic, and redundancy-injected variants of both) and runs
/// the fraig baseline plus the STP sweeper under a 3-way CE-engine
/// matrix (auto / collapsed / resim — sweep/ce_engine.hpp) crossed with
/// the incremental-CNF × store-budget × signature-guided-SAT ablation
/// variants (the last three columns are PR 5's signature-phase seeding,
/// cone-scoped decisions + epoch carry-over, and entropy-grouped round-2
/// guidance — folded into the existing variants so every flag runs under
/// every engine without growing the matrix):
///
///   | variant      | incremental CNF | clause budget  | store budget | prune | arena | phase | cone | r2-group |
///   |--------------|-----------------|----------------|--------------|-------|-------|-------|------|----------|
///   | default      | on              | default        | default (8)  | on    | 1     | on    | on   | on       |
///   | scratch      | off (per-query) | —              | ∞            | on    | 1     | off   | on   | on       |
///   | tiny_epochs  | on              | 64 (rebuilds!) | default      | off   | 2     | on    | on*  | off      |
///   | unbounded    | on              | 0 (never)      | ∞            | off   | full  | off   | off  | off      |
///   | tight_store  | on              | default        | 1            | on    | full  | on    | off  | on       |
///   | scratch_tight| off             | —              | 1            | off   | 1     | off   | off  | off      |
///
/// (* tiny_epochs is the combination that exercises the learned
/// phase/activity carry-over across garbage epochs.)
///
/// Every result must be CEC-equivalent to the original *and* to every
/// other engine's result, and all 18 STP engine×variant combinations
/// must agree exactly on the result gate count — the engine dispatch and
/// the flags may only change *when and where* work is paid (encode time,
/// memory, propagation locality), never *what* is computed.  The auto
/// rows also pin both dispatch branches: with the default threshold
/// these sub-10k-gate networks resolve to resim, with a zero threshold
/// to collapsed, and `ce_engine_used` must say so.
#include "gen/arithmetic.hpp"
#include "gen/random_logic.hpp"
#include "gen/redundancy.hpp"
#include "sweep/cec.hpp"
#include "sweep/fraig.hpp"
#include "sweep/stp_sweeper.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace {

using namespace stps;

net::aig_network make_network(uint64_t seed)
{
  // Cycle through the generator families; sizes stay small enough for
  // ~50 networks x 18 engine/flag combinations (plus CEC) to run in
  // test time, including under sanitizers.
  const uint64_t family = seed % 5u;
  net::aig_network base;
  switch (family) {
    case 0u:
      base = gen::make_random_logic({8u + static_cast<uint32_t>(seed % 7u),
                                     6u, 220u + 40u * (seed % 4u),
                                     0xd1ffu + seed, 25u});
      break;
    case 1u:
      base = gen::make_adder(6u + static_cast<uint32_t>(seed % 6u));
      break;
    case 2u:
      base = gen::make_multiplier(5u + static_cast<uint32_t>(seed % 4u));
      break;
    case 3u:
      base = gen::make_barrel_shifter(3u + static_cast<uint32_t>(seed % 2u));
      break;
    default:
      base = gen::make_random_logic({12u, 10u, 320u, 0xfaceu + seed, 45u});
      break;
  }
  // Redundancy (equivalent pairs, hidden constants, false candidates)
  // is what gives the sweepers real work; vary the density with the
  // seed and leave a few networks redundancy-free.
  if (seed % 4u != 3u) {
    base = gen::inject_redundancy(
        base, {4u + static_cast<uint32_t>(seed % 9u),
               static_cast<uint32_t>(seed % 4u), 0xbadccafeu + seed,
               8u + static_cast<uint32_t>(seed % 16u)});
  }
  return base;
}

struct stp_variant
{
  const char* name;
  bool incremental;
  uint64_t clause_budget;
  uint32_t store_budget;
  bool prune_targets;
  uint32_t initial_words; ///< 0 = full collapsed arena
  bool signature_phase;
  bool cone_scoped;
  bool round2_group;
};

constexpr stp_variant variants[] = {
    {"default", true, 4'000'000u, 8u, true, 1u, true, true, true},
    {"scratch", false, 0u, 0u, true, 1u, false, true, true},
    {"tiny_epochs", true, 64u, 8u, false, 2u, true, true, false},
    {"unbounded", true, 0u, 0u, false, 0u, false, false, false},
    {"tight_store", true, 4'000'000u, 1u, true, 0u, true, false, true},
    {"scratch_tight", false, 0u, 1u, false, 1u, false, false, false},
};

struct engine_choice
{
  const char* name;
  sweep::ce_engine_kind requested;
  uint32_t gate_threshold;
  /// What the dispatch must resolve to on these sub-10k-gate networks
  /// (pins both branches of the auto policy).  Mid-sweep escalation is
  /// disabled on the auto rows so the pin stays exact; the escalation
  /// path has its own dedicated test below.
  sweep::ce_engine_kind expected;
};

constexpr engine_choice engines[] = {
    {"auto", sweep::ce_engine_kind::automatic, 10'000u,
     sweep::ce_engine_kind::resim},
    {"auto0", sweep::ce_engine_kind::automatic, 0u,
     sweep::ce_engine_kind::collapsed},
    {"collapsed", sweep::ce_engine_kind::collapsed, 10'000u,
     sweep::ce_engine_kind::collapsed},
    {"resim", sweep::ce_engine_kind::resim, 10'000u,
     sweep::ce_engine_kind::resim},
};

sweep::stp_sweep_params make_params(const engine_choice& e,
                                    const stp_variant& v)
{
  sweep::stp_sweep_params params;
  params.guided.base_patterns = 256u;
  params.ce_engine = e.requested;
  params.ce_engine_gate_threshold = e.gate_threshold;
  params.ce_escalate_per_mille = 0u; // pure dispatch pins
  params.use_incremental_cnf = v.incremental;
  params.sat_clause_budget = v.clause_budget;
  params.store_word_budget = v.store_budget;
  params.ce_prune_targets = v.prune_targets;
  params.ce_initial_words = v.initial_words;
  params.use_signature_phase = v.signature_phase;
  params.use_cone_scoped_decisions = v.cone_scoped;
  params.guided.round2_group_by_signature = v.round2_group;
  return params;
}

class Differential : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(Differential, EnginesAndAblationsAgree)
{
  const uint64_t seed = GetParam();
  const net::aig_network original = make_network(seed);

  net::aig_network by_fraig = original;
  const sweep::sweep_stats fraig_stats =
      sweep::fraig_sweep(by_fraig, {256u, seed + 1u, -1});
  ASSERT_TRUE(sweep::check_equivalence(original, by_fraig).equivalent)
      << "fraig not equivalent, seed " << seed;
  EXPECT_FALSE(fraig_stats.has_ce_engine);

  // The full matrix: every engine choice under every flag variant.  The
  // two `auto` rows run the dispatch itself (threshold default → resim
  // here, threshold 0 → collapsed), the explicit rows force an engine —
  // between them both engines run under every flag combination.
  std::vector<net::aig_network> results;
  std::vector<sweep::sweep_stats> stats;
  std::vector<std::string> labels;
  for (const engine_choice& e : engines) {
    for (const stp_variant& v : variants) {
      net::aig_network result = original;
      stats.push_back(sweep::stp_sweep(result, make_params(e, v)));
      labels.push_back(std::string{e.name} + "/" + v.name);
      const sweep::sweep_stats& s = stats.back();
      EXPECT_TRUE(s.has_ce_engine);
      EXPECT_EQ(s.ce_engine_used, e.expected)
          << "dispatch pin failed for stp/" << labels.back() << ", seed "
          << seed;
      ASSERT_TRUE(sweep::check_equivalence(original, result).equivalent)
          << "stp/" << labels.back() << " not equivalent, seed " << seed;
      results.push_back(std::move(result));
    }
  }

  // All engine × ablation combinations compute the same result network
  // size; engine choice and flags only move work around.
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].num_gates(), results[0].num_gates())
        << "stp/" << labels[i] << " diverged from stp/" << labels[0]
        << ", seed " << seed;
  }
  // Pairwise closure: every engine's result equals every other's (spot
  // the most different pipelines directly — fraig vs default, pruned
  // resim-scratch vs unpruned collapsed-unbounded; the rest follows
  // from equivalence to `original`, checked above).
  EXPECT_TRUE(sweep::check_equivalence(by_fraig, results[0]).equivalent);
  EXPECT_TRUE(
      sweep::check_equivalence(results[1], results.back()).equivalent);

  // The ablation machinery really executed.  Indices: engine-major, 6
  // variants per engine; engine 2 is forced-collapsed, engine 3 forced
  // resim.
  const auto at = [&](std::size_t engine,
                      std::size_t variant) -> const sweep::sweep_stats& {
    return stats[engine * std::size(variants) + variant];
  };
  for (std::size_t e = 0; e < std::size(engines); ++e) {
    // Per-query rebuilds in the scratch variants, garbage epochs under
    // the tiny clause budget, no rebuilds when the budget is off.
    EXPECT_EQ(at(e, 0).sat_solver_rebuilds, 0u);
    EXPECT_EQ(at(e, 3).sat_solver_rebuilds, 0u);
    if (at(e, 1).sat_calls_total > 0u) {
      EXPECT_EQ(at(e, 1).sat_solver_rebuilds,
                at(e, 1).sat_calls_total - 1u);
    }
    // clauses_peak is sampled at query entry, exactly where the budget
    // check runs: an entry above the budget is an entry that rebuilt.
    if (at(e, 2).sat_clauses_peak > 64u) {
      EXPECT_GT(at(e, 2).sat_solver_rebuilds, 0u);
    } else {
      EXPECT_EQ(at(e, 2).sat_solver_rebuilds, 0u);
    }
    EXPECT_GE(at(e, 1).sat_nodes_encoded, at(e, 0).sat_nodes_encoded);
    // No budget trims in the unbounded variant.  The resim engine is
    // excluded from the store check: its pre-CE words are *born*
    // trimmed (never backed at all), which words_trimmed reports too.
    if (engines[e].expected == sweep::ce_engine_kind::collapsed) {
      EXPECT_EQ(at(e, 3).store_words_trimmed, 0u);
    }
    EXPECT_EQ(at(e, 3).pattern_words_recycled, 0u);
  }
  // The collapsed engine's full-arena tight-store run always trims: its
  // budget of one word is exceeded by the initial multi-word collapsed
  // simulation.  (The resim engine has no initial arena — nothing
  // guarantees a trim there, which is the point of the dispatch.)
  EXPECT_GT(at(2, 4).store_words_trimmed, 0u);
  // Only the collapsed engine defines the output-sensitivity counters,
  // and its unpruned variant must report zero pruned targets (the
  // pruned-vs-unpruned word equality itself is pinned per node in
  // test_ce_simulator.cpp).
  EXPECT_TRUE(at(2, 0).has_ce_counters);
  EXPECT_FALSE(at(3, 0).has_ce_counters);
  EXPECT_EQ(at(2, 3).ce_targets_pruned, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Differential,
                         ::testing::Range(uint64_t{0}, uint64_t{50}));

/// Two full sweeps of the same generated network with the same seed and
/// parameters must agree on every machine-independent counter and on
/// the result network — byte-identical `sweep_stats` modulo the
/// wall-clock fields.  Pinned for both engines: any hidden iteration-
/// order or uninitialized-memory nondeterminism shows up here first.
TEST(Differential, SeededSweepsAreDeterministic)
{
  for (const uint64_t seed : {2u, 7u, 13u}) {
    for (const sweep::ce_engine_kind engine :
         {sweep::ce_engine_kind::collapsed, sweep::ce_engine_kind::resim}) {
      net::aig_network first = make_network(seed);
      net::aig_network second = make_network(seed);
      sweep::stp_sweep_params params;
      params.guided.base_patterns = 256u;
      params.ce_engine = engine;
      params.store_word_budget = 2u; // exercise trims + the pattern ring
      const sweep::sweep_stats a = sweep::stp_sweep(first, params);
      const sweep::sweep_stats b = sweep::stp_sweep(second, params);

      EXPECT_EQ(first.num_gates(), second.num_gates());
      EXPECT_EQ(a.gates_before, b.gates_before);
      EXPECT_EQ(a.gates_after, b.gates_after);
      EXPECT_EQ(a.levels_before, b.levels_before);
      EXPECT_EQ(a.sat_calls_total, b.sat_calls_total);
      EXPECT_EQ(a.sat_calls_satisfiable, b.sat_calls_satisfiable);
      EXPECT_EQ(a.merges, b.merges);
      EXPECT_EQ(a.constant_merges, b.constant_merges);
      EXPECT_EQ(a.window_merges, b.window_merges);
      EXPECT_EQ(a.dont_touch, b.dont_touch);
      EXPECT_EQ(a.ce_patterns, b.ce_patterns);
      EXPECT_EQ(a.ce_gates_visited, b.ce_gates_visited);
      EXPECT_EQ(a.ce_gates_scan_baseline, b.ce_gates_scan_baseline);
      EXPECT_EQ(a.ce_targets_pruned, b.ce_targets_pruned);
      EXPECT_EQ(a.ce_engine_used, b.ce_engine_used);
      EXPECT_EQ(a.sat_nodes_encoded, b.sat_nodes_encoded);
      EXPECT_EQ(a.sat_solver_rebuilds, b.sat_solver_rebuilds);
      EXPECT_EQ(a.sat_clauses_peak, b.sat_clauses_peak);
      // Signature-phase seeding is on by default here: two seeded runs
      // must agree on the solver search itself, byte for byte.
      EXPECT_EQ(a.sat_conflicts, b.sat_conflicts);
      EXPECT_EQ(a.sat_decisions, b.sat_decisions);
      EXPECT_EQ(a.sat_propagations, b.sat_propagations);
      EXPECT_EQ(a.sat_restarts, b.sat_restarts);
      EXPECT_EQ(a.phase_seed_words, b.phase_seed_words);
      EXPECT_EQ(a.store_words_live, b.store_words_live);
      EXPECT_EQ(a.store_words_trimmed, b.store_words_trimmed);
      EXPECT_EQ(a.store_peak_bytes, b.store_peak_bytes);
      EXPECT_EQ(a.pattern_words_live, b.pattern_words_live);
      EXPECT_EQ(a.pattern_words_recycled, b.pattern_words_recycled);
      EXPECT_TRUE(sweep::check_equivalence(first, second).equivalent);
    }
  }
}

/// The signature-guided SAT flag square on its own: 5 seeds × every
/// combination of `use_signature_phase` × `use_cone_scoped_decisions`
/// must land on the identical result network.  The per-push ASan CI job
/// runs exactly this slice (the full engine × variant matrix above
/// stays in the release job and nightly).
TEST(Differential, SignaturePhaseAndConeScopingSlice)
{
  uint64_t seeded_total = 0; // across all seeds: the policy really ran
  for (const uint64_t seed : {3u, 11u, 19u, 27u, 35u}) {
    const net::aig_network original = make_network(seed);
    std::vector<net::aig_network> results;
    std::vector<sweep::sweep_stats> stats;
    for (const bool phase : {true, false}) {
      for (const bool cone : {true, false}) {
        net::aig_network result = original;
        sweep::stp_sweep_params params;
        params.guided.base_patterns = 256u;
        params.use_signature_phase = phase;
        params.use_cone_scoped_decisions = cone;
        stats.push_back(sweep::stp_sweep(result, params));
        ASSERT_TRUE(sweep::check_equivalence(original, result).equivalent)
            << "phase=" << phase << " cone=" << cone << ", seed " << seed;
        results.push_back(std::move(result));
      }
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[i].num_gates(), results[0].num_gates())
          << "flag combo " << i << " diverged, seed " << seed;
    }
    // The policies really toggled: seeds flow only when the flag is on
    // (a network swept without any SAT query seeds nothing — require
    // the evidence across the whole slice, not per seed).
    seeded_total += stats[0].phase_seed_words;
    EXPECT_EQ(stats[2].phase_seed_words, 0u);
    EXPECT_EQ(stats[3].phase_seed_words, 0u);
  }
  EXPECT_GT(seeded_total, 0u);
}

/// Mid-sweep escalation: a collapsed-engine sweep whose measured per-CE
/// disturbance crosses the threshold must switch to resim *and still
/// land on the identical result* — the swap carries no state because
/// the resim engine recomputes the open word from the pattern set.
TEST(Differential, EscalationSwitchesEngineMidSweepIdentically)
{
  // The pattern-ring fixture below produces > 128 counter-examples, so
  // the ≥ 64-CE escalation probe always fires.
  net::aig_network escalating = gen::inject_redundancy(
      gen::make_random_logic({24u, 8u, 420u, 0xace5u, 35u}),
      {14u, 3u, 0xfeedu, 200u});
  net::aig_network pure_collapsed = escalating;
  net::aig_network pure_resim = escalating;
  const net::aig_network original = escalating;

  sweep::stp_sweep_params params;
  params.guided.base_patterns = 128u;
  params.use_guided_patterns = false;
  params.use_window_resolution = false;
  params.ce_engine = sweep::ce_engine_kind::automatic;
  params.ce_engine_gate_threshold = 0u; // start collapsed
  params.ce_escalate_per_mille = 1u;    // any disturbance escalates
  const sweep::sweep_stats esc = sweep::stp_sweep(escalating, params);
  ASSERT_GT(esc.ce_patterns, 64u) << "fixture no longer escalates";
  EXPECT_TRUE(esc.ce_engine_escalated);
  EXPECT_EQ(esc.ce_engine_used, sweep::ce_engine_kind::resim);
  // The collapsed phase's counters survive the swap.
  EXPECT_TRUE(esc.has_ce_counters);
  EXPECT_GT(esc.ce_gates_visited, 0u);

  sweep::stp_sweep_params pure = params;
  pure.ce_escalate_per_mille = 0u;
  pure.ce_engine = sweep::ce_engine_kind::collapsed;
  const sweep::sweep_stats col = sweep::stp_sweep(pure_collapsed, pure);
  pure.ce_engine = sweep::ce_engine_kind::resim;
  const sweep::sweep_stats res = sweep::stp_sweep(pure_resim, pure);
  EXPECT_FALSE(col.ce_engine_escalated);
  EXPECT_FALSE(res.ce_engine_escalated);

  EXPECT_EQ(escalating.num_gates(), pure_collapsed.num_gates());
  EXPECT_EQ(escalating.num_gates(), pure_resim.num_gates());
  EXPECT_EQ(esc.merges, col.merges);
  EXPECT_EQ(esc.sat_calls_total, col.sat_calls_total);
  EXPECT_TRUE(sweep::check_equivalence(original, escalating).equivalent);
  EXPECT_TRUE(
      sweep::check_equivalence(escalating, pure_collapsed).equivalent);
}

/// A sweep that produces enough counter-examples to cross several
/// 64-pattern word boundaries must recycle absorbed CE word blocks
/// through the pattern ring instead of growing without bound.
TEST(Differential, PatternRingRecyclesUnderTightBudget)
{
  // Near-duplicates are false candidates only a counter-example can
  // split; with window resolution off and guided patterns off, each one
  // costs at least one CE — enough to cross several word boundaries.
  net::aig_network aig = gen::inject_redundancy(
      gen::make_random_logic({24u, 8u, 420u, 0xace5u, 35u}),
      {14u, 3u, 0xfeedu, 200u});
  const net::aig_network original = aig;
  sweep::stp_sweep_params params;
  params.guided.base_patterns = 128u;
  params.use_guided_patterns = false; // keep signatures noisy: more CEs
  params.use_window_resolution = false;
  params.store_word_budget = 1u;
  const sweep::sweep_stats s = sweep::stp_sweep(aig, params);
  ASSERT_GT(s.ce_patterns, 128u) << "fixture no longer produces enough CEs";
  EXPECT_GT(s.pattern_words_recycled, 0u);
  EXPECT_LE(s.pattern_words_live, 2u); // the open word (+ boundary slack)
  EXPECT_TRUE(sweep::check_equivalence(original, aig).equivalent);
}

/// Finite budgets and injected SAT-layer faults: a fifth differential
/// column family.  Tight per-query budgets (with and without the
/// escalating unDET retry), a forced-unknown schedule, forced
/// garbage-epoch rebuilds, and refused store trims all degrade *effort*
/// only — every result must stay CEC-equivalent to the original, every
/// un-governed sweep must report `sweep_outcome::complete`, and the
/// columns that cannot change answers (rebuild, trim) must land on the
/// default column's exact result gate count.  This is the slice the
/// per-push ASan CI job runs.
TEST(Differential, FiniteBudgetAndInjectedFaultsStaySound)
{
  struct fault_column
  {
    const char* name;
    int64_t conflict_budget;
    uint32_t retry_rounds;
    uint32_t unknown_every;
    uint32_t rebuild_every;
    bool fail_trim;
    bool result_identical; ///< must match the default column's gates
  };
  constexpr fault_column columns[] = {
      {"default", -1, 3u, 0u, 0u, false, true},
      {"budget50_retry", 50, 3u, 0u, 0u, false, false},
      {"budget50_single", 50, 0u, 0u, 0u, false, false},
      {"fault_unknown", -1, 3u, 3u, 0u, false, false},
      {"fault_rebuild", -1, 3u, 0u, 7u, false, true},
      {"fault_trim", -1, 3u, 0u, 0u, true, true},
  };
  for (const uint64_t seed : {1u, 6u, 12u, 18u, 23u, 31u, 37u, 42u, 44u,
                              49u}) {
    const net::aig_network original = make_network(seed);
    uint32_t default_gates = 0;
    for (const fault_column& c : columns) {
      net::aig_network result = original;
      sweep::stp_sweep_params params;
      params.guided.base_patterns = 256u;
      params.conflict_budget = c.conflict_budget;
      params.undet_retry_rounds = c.retry_rounds;
      params.faults.unknown_every = c.unknown_every;
      params.faults.rebuild_every = c.rebuild_every;
      params.fault_fail_store_trim = c.fail_trim;
      params.store_word_budget = 1u; // give the trim fault work to refuse
      const sweep::sweep_stats s = sweep::stp_sweep(result, params);
      EXPECT_EQ(s.outcome, sweep::sweep_outcome::complete)
          << c.name << ", seed " << seed;
      ASSERT_TRUE(sweep::check_equivalence(original, result).equivalent)
          << c.name << " not equivalent, seed " << seed;
      if (std::string{c.name} == "default") {
        default_gates = result.num_gates();
      } else if (c.result_identical) {
        EXPECT_EQ(result.num_gates(), default_gates)
            << c.name << " diverged, seed " << seed;
      } else {
        // Budget/forced-unknown columns may only *miss* merges.
        EXPECT_GE(result.num_gates(), default_gates)
            << c.name << ", seed " << seed;
      }
    }
    // The fraig baseline shares the budget + fault layer.
    net::aig_network by_fraig = original;
    sweep::fraig_params fparams{256u, seed + 1u, 50};
    fparams.faults.unknown_every = 5u;
    const sweep::sweep_stats fs = sweep::fraig_sweep(by_fraig, fparams);
    EXPECT_EQ(fs.outcome, sweep::sweep_outcome::complete);
    ASSERT_TRUE(sweep::check_equivalence(original, by_fraig).equivalent)
        << "fraig budget+fault not equivalent, seed " << seed;
  }
}

} // namespace
