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
#include "gen/benchmarks.hpp"
#include "gen/random_logic.hpp"
#include "gen/redundancy.hpp"
#include "sweep/cec.hpp"
#include "sweep/resource_governor.hpp"
#include "sweep/stp_sweeper.hpp"

#include <gtest/gtest.h>

#include <cstdint>
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
  for (const uint32_t shards : {4u, 1u}) {
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
  // every shard down, the outcome is recorded, and the partial result
  // (only committed proven merges) stays CEC-equivalent.
  const net::aig_network original = test_instance(8u);
  net::aig_network aig = original;
  sweep::governor_limits limits;
  limits.cancel_after_queries = 40u; // trips while shards are querying
  sweep::resource_governor governor{limits};
  sweep::stp_sweep_params params;
  params.guided.base_patterns = 256u;
  params.threads = 4u;
  params.sat_shards = 4u;
  params.governor = &governor;
  const auto stats = sweep::stp_sweep(aig, params);
  EXPECT_EQ(stats.outcome, sweep::sweep_outcome::cancelled);
  EXPECT_TRUE(governor.stop_requested());
  const auto cec = sweep::check_equivalence(original, aig);
  EXPECT_TRUE(cec.equivalent);
  EXPECT_LE(aig.num_gates(), original.num_gates());
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
