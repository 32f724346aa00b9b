/// \file test_parallel_sweep.cpp
/// \brief Determinism and soundness pins for the class-sharded parallel
/// SAT phase (stp_sweep_params::threads / sat_shards).
///
/// The contract under test, in order of importance:
///
/// 1. **Thread-count invariance** — at a fixed shard count the sweep is
///    a pure function of its inputs: threads = 1, 2, 4 must produce
///    byte-identical counters AND byte-identical result networks.
///    This is what makes parallel results trustworthy: scheduling can
///    never leak into the trajectory.
/// 2. **Sharded soundness** — any shard count yields a CEC-equivalent
///    network; sharding only defers merge application, never weakens
///    the proof discipline.  Sharded sweeps also land on the same
///    result-gate count as the single-thread path on redundancy-rich
///    instances (all true equivalences are proven either way when
///    budgets are unlimited).
/// 3. **Governed cancellation** fans out: one shared governor stops
///    every worker, and the partial result stays sound.
/// 4. **The sliced guided-pattern prologue** (sweep/sat_patterns.hpp)
///    obeys the same rules: at a fixed slice count the pattern set, the
///    proven constants and the SAT effort ignore the thread count, and
///    slicing never changes which gates are proven constant.
#include "gen/benchmarks.hpp"
#include "gen/random_logic.hpp"
#include "gen/redundancy.hpp"
#include "sat/cnf_manager.hpp"
#include "sweep/cec.hpp"
#include "sweep/resource_governor.hpp"
#include "sweep/sat_patterns.hpp"
#include "sweep/stp_sweeper.hpp"
#include "sweep/worker_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace {

using namespace stps;

/// Structural fingerprint: fanin literals of every live gate in id
/// order plus the PO literals.  Two byte-identical sweeps must agree on
/// this exactly (not just on gate counts).
std::vector<uint32_t> fingerprint(const net::aig_network& aig)
{
  std::vector<uint32_t> fp;
  aig.foreach_gate([&](net::node n) {
    fp.push_back(n);
    fp.push_back(aig.fanin0(n).lit);
    fp.push_back(aig.fanin1(n).lit);
  });
  aig.foreach_po([&](net::signal f, uint32_t) { fp.push_back(f.lit); });
  return fp;
}

/// Every deterministic counter of sweep_stats (everything except the
/// wall-clock seconds), flattened for a single EXPECT_EQ.
std::vector<uint64_t> counters(const sweep::sweep_stats& s)
{
  return {s.gates_before,
          s.gates_after,
          s.levels_before,
          s.sat_calls_satisfiable,
          s.sat_calls_total,
          s.merges,
          s.constant_merges,
          s.window_merges,
          s.dont_touch,
          s.ce_patterns,
          static_cast<uint64_t>(s.outcome),
          s.undet_retries,
          s.undet_resolved,
          s.ce_gates_visited,
          s.ce_gates_scan_baseline,
          s.ce_targets_pruned,
          static_cast<uint64_t>(s.has_ce_counters),
          static_cast<uint64_t>(s.has_ce_engine),
          static_cast<uint64_t>(s.ce_engine_used),
          static_cast<uint64_t>(s.ce_engine_escalated),
          s.sat_nodes_encoded,
          s.sat_solver_rebuilds,
          s.sat_clauses_peak,
          s.sat_conflicts,
          s.sat_decisions,
          s.sat_propagations,
          s.sat_skipped_implications,
          s.sat_restarts,
          s.phase_seed_words,
          static_cast<uint64_t>(s.has_store_counters),
          s.store_words_live,
          s.store_words_trimmed,
          s.store_peak_bytes,
          s.pattern_words_live,
          s.pattern_words_recycled,
          s.threads,
          s.sat_shards,
          s.workers_used};
}

net::aig_network test_instance(uint64_t seed)
{
  auto base = gen::make_random_logic(
      {20u, 12u, 900u + 60u * static_cast<uint32_t>(seed % 5u),
       0x9a11u + seed, 25u});
  return gen::inject_redundancy(base, {10u, 6u, 0x9a11u + seed, 40u});
}

TEST(ParallelSweep, ThreadCountNeverChangesTheResult)
{
  // The determinism pin: fixed shard count, varying thread count.
  // Every counter (including SAT search effort) and the full result
  // network must be byte-identical — scheduling must not exist as far
  // as results are concerned.  One shard is the single-thread sweep:
  // extra threads find nothing to run.
  for (const uint32_t shards : {4u, 2u, 1u}) {
    for (const uint64_t seed : {0u, 1u, 2u}) {
      std::vector<std::vector<uint64_t>> all_counters;
      std::vector<std::vector<uint32_t>> all_fps;
      for (const uint32_t threads : {1u, 2u, 4u}) {
        net::aig_network aig = test_instance(seed);
        sweep::stp_sweep_params params;
        params.guided.base_patterns = 256u;
        params.threads = threads;
        params.sat_shards = shards; // fixed: the trajectory parameter
        const auto stats = sweep::stp_sweep(aig, params);
        EXPECT_EQ(stats.sat_shards, shards);
        EXPECT_EQ(stats.threads, threads);
        EXPECT_EQ(stats.workers_used, std::min(threads, shards));
        EXPECT_EQ(stats.worker_sat_seconds.size(), stats.workers_used);
        auto flat = counters(stats);
        // threads/workers_used legitimately differ across runs; compare
        // everything else.
        flat[flat.size() - 3u] = 0u; // threads
        flat[flat.size() - 1u] = 0u; // workers_used
        all_counters.push_back(std::move(flat));
        all_fps.push_back(fingerprint(aig));
      }
      for (std::size_t i = 1; i < all_counters.size(); ++i) {
        EXPECT_EQ(all_counters[i], all_counters.front())
            << "shards " << shards << " seed " << seed;
        EXPECT_EQ(all_fps[i], all_fps.front())
            << "shards " << shards << " seed " << seed;
      }
    }
  }
}

TEST(ParallelSweep, ShardedSweepsAreSoundAndReachTheSameSize)
{
  // Sharding changes the trajectory (per-shard solvers learn
  // independently) but never the proof discipline: any shard count is
  // CEC-equivalent, and with unlimited budgets every true equivalence
  // is proven, so the result-gate count matches single-thread.
  for (const uint64_t seed : {3u, 4u, 5u, 6u}) {
    const net::aig_network original = test_instance(seed);

    net::aig_network single = original;
    sweep::stp_sweep_params params;
    params.guided.base_patterns = 256u;
    const auto single_stats = sweep::stp_sweep(single, params);
    EXPECT_EQ(single_stats.sat_shards, 1u);
    EXPECT_EQ(single_stats.worker_sat_seconds.size(), 1u);

    for (const uint32_t shards : {2u, 4u}) {
      net::aig_network sharded = original;
      sweep::stp_sweep_params p = params;
      p.threads = 2u;
      p.sat_shards = shards;
      const auto stats = sweep::stp_sweep(sharded, p);
      EXPECT_EQ(stats.sat_shards, shards);
      const auto cec = sweep::check_equivalence(original, sharded);
      EXPECT_TRUE(cec.equivalent) << "seed " << seed << " shards " << shards;
      EXPECT_EQ(stats.gates_after, single_stats.gates_after)
          << "seed " << seed << " shards " << shards;
    }
  }
}

TEST(ParallelSweep, DefaultShardCountFollowsThreads)
{
  // sat_shards = 0 means one shard per thread; threads = 1 (or a
  // clamped 0) gives the one-shard single-thread sweep.
  net::aig_network aig = test_instance(7u);
  sweep::stp_sweep_params params;
  params.guided.base_patterns = 256u;
  params.threads = 3u; // sat_shards stays 0
  EXPECT_EQ(params.effective_sat_shards(), 3u);
  const auto stats = sweep::stp_sweep(aig, params);
  EXPECT_EQ(stats.sat_shards, 3u);
  EXPECT_EQ(stats.workers_used, 3u);

  sweep::stp_sweep_params single;
  EXPECT_EQ(single.effective_sat_shards(), 1u);
  single.threads = 0u; // clamped
  EXPECT_EQ(single.effective_sat_shards(), 1u);
}

TEST(ParallelSweep, SharedGovernorCancelsEveryWorker)
{
  // One governor, four workers: tripping the stop token mid-sweep winds
  // every worker down, the outcome is recorded, and the partial result
  // (only committed proven merges) stays CEC-equivalent.  Three trip
  // points: after 40 and after 5 queries the stop lands in the sliced
  // guided-pattern prologue, before any SAT shard starts (the slices'
  // SAT effort must still be booked); 20 queries before the end of a
  // free run it lands while the shards are querying.
  const net::aig_network original = test_instance(8u);
  sweep::stp_sweep_params params;
  params.guided.base_patterns = 256u;
  params.threads = 4u;
  params.sat_shards = 4u;
  net::aig_network free_run = original;
  const auto full = sweep::stp_sweep(free_run, params);
  ASSERT_GT(full.sat_calls_total, 60u);

  for (const uint64_t cancel_after : {40u, 5u}) {
    net::aig_network aig = original;
    sweep::governor_limits limits;
    limits.cancel_after_queries = cancel_after;
    sweep::resource_governor governor{limits};
    params.governor = &governor;
    const auto stats = sweep::stp_sweep(aig, params);
    EXPECT_EQ(stats.outcome, sweep::sweep_outcome::cancelled);
    EXPECT_TRUE(governor.stop_requested());
    EXPECT_FALSE(stats.has_ce_engine) << cancel_after; // no shard ran
    EXPECT_EQ(stats.sat_phase_seconds, 0.0);
    EXPECT_GE(stats.sat_calls_total, cancel_after);
    EXPECT_GT(stats.sat_nodes_encoded, 0u);
    const auto cec = sweep::check_equivalence(original, aig);
    EXPECT_TRUE(cec.equivalent) << cancel_after;
    EXPECT_LE(aig.num_gates(), original.num_gates());
  }

  net::aig_network aig = original;
  sweep::governor_limits limits;
  limits.cancel_after_queries = full.sat_calls_total - 20u;
  sweep::resource_governor governor{limits};
  params.governor = &governor;
  const auto stats = sweep::stp_sweep(aig, params);
  EXPECT_EQ(stats.outcome, sweep::sweep_outcome::cancelled);
  EXPECT_TRUE(governor.stop_requested());
  EXPECT_TRUE(stats.has_ce_engine); // the shards were running
  EXPECT_LT(stats.sat_calls_total, full.sat_calls_total);
  const auto cec = sweep::check_equivalence(original, aig);
  EXPECT_TRUE(cec.equivalent);
  EXPECT_LE(aig.num_gates(), original.num_gates());
}

/// A sliced prologue's result and its managers' summed SAT counters.
struct prologue_run
{
  sweep::guided_pattern_result result;
  sweep::sweep_stats effort;
};

/// Runs the guided-pattern prologue as \p slices slices, each on a fresh
/// manager, on a pool of \p workers threads (0 = the calling thread).
prologue_run run_prologue(const net::aig_network& aig,
                          const sweep::guided_pattern_config& config,
                          uint32_t slices, unsigned workers)
{
  std::vector<std::unique_ptr<sat::cnf_manager>> owned;
  std::vector<sat::cnf_manager*> managers;
  for (uint32_t s = 0; s < slices; ++s) {
    owned.push_back(std::make_unique<sat::cnf_manager>(aig));
    managers.push_back(owned.back().get());
  }
  sweep::worker_pool pool{workers};
  prologue_run run{sweep::sat_guided_patterns(aig, managers, pool, config),
                   {}};
  for (const auto& cnf : owned) {
    sweep::add_cnf_counters(*cnf, run.effort);
  }
  return run;
}

/// Everything deterministic a sliced prologue produces: every pattern
/// bit, the proven constants in order, the query counts and the summed
/// SAT effort, flattened.
std::vector<uint64_t> fingerprint(const prologue_run& run)
{
  const sim::pattern_set& p = run.result.patterns;
  std::vector<uint64_t> fp = counters(run.effort);
  fp.push_back(run.result.sat_calls);
  fp.push_back(run.result.satisfiable_calls);
  fp.push_back(run.result.patterns_added);
  fp.push_back(p.num_patterns());
  for (uint32_t i = 0; i < p.num_inputs(); ++i) {
    for (std::size_t w = 0; w < p.num_words(); ++w) {
      fp.push_back(p.input_word(i, w));
    }
  }
  for (const auto& [n, value] : run.result.proven_constants) {
    fp.push_back(n);
    fp.push_back(value ? 1u : 0u);
  }
  return fp;
}

TEST(ParallelSweep, SlicedPrologueIgnoresThreadCount)
{
  // Four slices on 1, 2 and 4 threads (a 0-worker pool is the calling
  // thread): byte-identical patterns, constants and SAT effort.
  for (const uint64_t seed : {0u, 1u}) {
    const net::aig_network aig = test_instance(seed);
    sweep::guided_pattern_config config;
    config.base_patterns = 256u;
    config.max_round2_queries = 37u; // not a multiple of the slice count
    config.use_signature_phase = true;
    const prologue_run reference = run_prologue(aig, config, 4u, 0u);
    EXPECT_GT(reference.result.patterns_added, 0u) << "seed " << seed;
    EXPECT_GT(reference.effort.sat_decisions, 0u) << "seed " << seed;
    for (const unsigned workers : {2u, 4u}) {
      EXPECT_EQ(fingerprint(run_prologue(aig, config, 4u, workers)),
                fingerprint(reference))
          << "seed " << seed << " workers " << workers;
    }
  }
}

TEST(ParallelSweep, SlicedPrologueProvesTheSameConstants)
{
  // With an unlimited conflict budget no guided query can end unknown,
  // so every truly constant gate a slice looks at is proven — slicing
  // changes which witnesses are found, never the proven constant set.
  // The round-2 cap is split into per-slice quotas that sum to it
  // exactly (7 queries over 4 slices: 2 + 2 + 2 + 1).
  for (const uint64_t seed : {2u, 3u}) {
    const net::aig_network aig = test_instance(seed);
    sweep::guided_pattern_config config;
    config.base_patterns = 256u;
    config.conflict_budget = -1;
    config.max_round2_queries = 7u;
    const auto constants_of = [](prologue_run run) {
      auto constants = std::move(run.result.proven_constants);
      std::sort(constants.begin(), constants.end());
      return constants;
    };
    const prologue_run four = run_prologue(aig, config, 4u, 4u);
    const auto one = constants_of(run_prologue(aig, config, 1u, 0u));
    EXPECT_FALSE(one.empty()) << "seed " << seed;
    EXPECT_EQ(constants_of(four), one) << "seed " << seed;

    // Round 1 does not depend on the cap, so the difference in queries
    // is round 2's.
    config.max_round2_queries = 0u;
    const uint64_t round2 = four.result.sat_calls -
                            run_prologue(aig, config, 4u, 4u).result.sat_calls;
    EXPECT_GT(round2, 0u) << "seed " << seed;
    EXPECT_LE(round2, 7u) << "seed " << seed;
  }
}

TEST(ParallelSweep, ShardedSweepBooksThePrologueEffort)
{
  // On a 12-input circuit every class fits an exhaustive window, so the
  // shards merge without a single SAT query and every SAT counter of a
  // sharded sweep is the prologue slices' effort.  The slice managers
  // are gone before the shards start, so the counters must have been
  // booked from them.
  const auto base = gen::make_random_logic({12u, 10u, 800u, 0x51ceu, 25u});
  net::aig_network aig = gen::inject_redundancy(base, {8u, 4u, 0x51ceu});
  sweep::stp_sweep_params params;
  params.guided.base_patterns = 256u;
  params.threads = 2u;
  params.sat_shards = 4u;
  const auto stats = sweep::stp_sweep(aig, params);
  ASSERT_TRUE(stats.has_ce_engine); // the shards ran
  EXPECT_GT(stats.window_merges, 0u);
  EXPECT_EQ(stats.merges, stats.window_merges + stats.constant_merges);
  EXPECT_EQ(stats.sat_calls_satisfiable, 0u); // no shard query
  EXPECT_GT(stats.sat_calls_total, 0u);       // the prologue's queries
  EXPECT_GT(stats.sat_nodes_encoded, 0u);
  EXPECT_GT(stats.sat_decisions, 0u);
  EXPECT_GT(stats.phase_seed_words, 0u);
}

TEST(ParallelSweep, ScaleFourNamesExist)
{
  // The scale-4 workload tier: names registered, clamp honest, and the
  // 500k-class instance actually reaches paper scale.  (rand2m's ≥1.92M
  // gates — the 19-leaf window tier — is asserted at bench time, not
  // here: building it takes longer than the whole unit suite.)
  const auto names = gen::sweep_names(4u);
  EXPECT_NE(std::find(names.begin(), names.end(), "mult200r"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "rand1m"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "rand2m"), names.end());
  EXPECT_EQ(gen::sweep_names(99u).size(), names.size()); // clamps
  EXPECT_EQ(gen::max_sweep_scale, 4u);

  const auto mult = gen::make_sweep_benchmark("mult200r");
  EXPECT_GE(mult.num_gates(), 450'000u);
  // The scale-4 tier must put rand2m in the 19-leaf window band.
  sweep::stp_sweep_params params;
  EXPECT_EQ(params.effective_window_support(1'950'000u), 19u);
}

} // namespace
