#include "sweep/fraig.hpp"

#include "network/traversal.hpp"
#include "sat/cnf_manager.hpp"
#include "sim/bitwise_sim.hpp"
#include "sweep/equiv_classes.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

namespace stps::sweep {

namespace {

using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point start)
{
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

} // namespace

sweep_stats fraig_sweep(net::aig_network& aig, const fraig_params& params)
{
  sweep_stats stats;
  const auto t_total = clock_type::now();
  stats.gates_before = aig.num_gates();
  stats.levels_before = net::depth(aig);

  // The baseline keeps the same persistent cone-reuse CNF as the STP
  // sweeper (one solver, gate→literal cache) with no garbage policy —
  // the paper's comparison is about guidance and simulation, not the
  // SAT plumbing.  Governance and fault injection ride along so the
  // comparator can be bounded/aborted the same way.
  sat::cnf_manager::params cnf_params;
  cnf_params.hooks = params.governor;
  cnf_params.faults = params.faults;
  sat::cnf_manager cnf{aig, cnf_params};

  const auto stopped = [governor = params.governor]() {
    return governor != nullptr && governor->should_stop();
  };

  // Initial simulation (guided, like `&fraig -x`) and candidate classes.
  sim::pattern_set patterns;
  if (params.use_guided_patterns) {
    guided_pattern_config config;
    config.base_patterns = params.num_patterns;
    config.seed = params.seed;
    config.governor = params.governor;
    guided_pattern_result guided = sat_guided_patterns(aig, cnf, config);
    patterns = std::move(guided.patterns);
    stats.sat_calls_total += guided.sat_calls;
    stats.sim_seconds += guided.sim_seconds;
    stats.sat_seconds += guided.sat_seconds;
    for (const auto& [n, value] : guided.proven_constants) {
      if (!aig.is_dead(n)) {
        ++stats.constant_merges;
        ++stats.merges;
        aig.substitute_node(n, aig.get_constant(value));
      }
    }
  } else {
    patterns = sim::pattern_set::random(aig.num_pis(), params.num_patterns,
                                        params.seed);
  }
  if (stopped()) {
    // Aborted during pattern generation: the constants applied above
    // are completed proofs — finalize the sound partial result.
    aig.cleanup_dangling();
    stats.gates_after = aig.num_gates();
    stats.outcome = params.governor->outcome();
    add_cnf_counters(cnf, stats);
    stats.total_seconds = seconds_since(t_total);
    return stats;
  }

  auto t_sim = clock_type::now();
  sim::signature_store sig = sim::simulate_aig(aig, patterns);
  equiv_classes classes;
  classes.build(aig, sig, sim::tail_mask(patterns.num_patterns()));
  stats.sim_seconds += seconds_since(t_sim);

  enum class cand_status : uint8_t
  {
    settled,
    gave_up,
    deferred,
    stopped,
  };

  // One candidate against its class representative.  Same escalating
  // unDET deferral as the STP sweeper (stp_sweeper.hpp point 6): while
  // \p allow_defer holds, `unknown` keeps the candidate in its class
  // for a retry round instead of removing it for good.
  const auto process_candidate = [&](const net::node n, int64_t budget,
                                     bool allow_defer) -> cand_status {
    for (;;) {
      const uint32_t c = classes.class_of(n);
      if (c == equiv_classes::no_class) {
        return cand_status::settled;
      }
      // Representative: the earliest live member preceding n.
      net::node rep = 0;
      bool have_rep = false;
      for (const net::node m : classes.members(c)) {
        if (m >= n) {
          break;
        }
        if (!aig.is_dead(m)) {
          rep = m;
          have_rep = true;
          break;
        }
      }
      if (!have_rep) {
        // n is (or became) the class representative
        return cand_status::settled;
      }
      const bool complement = classes.complemented(n, rep);

      const auto t_sat = clock_type::now();
      ++stats.sat_calls_total;
      const sat::result r = cnf.prove_equivalent(
          net::signal{n, false}, net::signal{rep, false}, complement,
          budget);
      stats.sat_seconds += seconds_since(t_sat);

      if (r == sat::result::unsat) {
        classes.remove_member(n);
        if (aig.is_constant(rep)) {
          ++stats.constant_merges;
        }
        ++stats.merges;
        aig.substitute_node(n, net::signal{rep, complement});
        return cand_status::settled;
      }
      if (r == sat::result::unknown) {
        if (stopped()) {
          return cand_status::stopped; // wind-down, not unDET
        }
        if (allow_defer) {
          return cand_status::deferred;
        }
        ++stats.dont_touch;
        classes.remove_member(n);
        return cand_status::gave_up;
      }
      // Counter-example: append, re-simulate the whole network
      // bit-parallel (the baseline's cost), refine every class.
      ++stats.sat_calls_satisfiable;
      ++stats.ce_patterns;
      const auto t_ce = clock_type::now();
      patterns.add_pattern(cnf.model_inputs());
      sim::resimulate_aig_last_word(aig, patterns, sig);
      classes.refine_with_word(sig, patterns.num_words() - 1u,
                               sim::tail_mask(patterns.num_patterns()));
      stats.sim_seconds += seconds_since(t_ce);
    }
  };

  const bool retries_on =
      params.conflict_budget >= 0 && params.undet_retry_rounds > 0u;
  std::vector<net::node> deferred;
  bool aborted = false;

  const std::vector<net::node> order = net::topo_order(aig);
  for (const net::node n : order) {
    if (stopped()) {
      aborted = true;
      break;
    }
    if (aig.is_dead(n)) {
      continue;
    }
    const cand_status status =
        process_candidate(n, params.conflict_budget, retries_on);
    if (status == cand_status::deferred) {
      deferred.push_back(n);
    } else if (status == cand_status::stopped) {
      aborted = true;
      break;
    }
  }

  // Escalating unDET retry rounds (same scheme as the STP sweeper).
  const int64_t factor =
      std::max<int64_t>(int64_t{params.undet_budget_factor}, 1);
  int64_t retry_budget = params.conflict_budget;
  std::vector<net::node> still_deferred;
  for (uint32_t round = 1;
       round <= params.undet_retry_rounds && !deferred.empty() && !aborted;
       ++round) {
    retry_budget =
        retry_budget > std::numeric_limits<int64_t>::max() / factor
            ? std::numeric_limits<int64_t>::max()
            : retry_budget * factor;
    const bool more_rounds = round < params.undet_retry_rounds;
    still_deferred.clear();
    for (const net::node n : deferred) {
      if (stopped()) {
        aborted = true;
        break;
      }
      if (aig.is_dead(n)) {
        ++stats.undet_resolved; // settled by a cascaded merge
        continue;
      }
      ++stats.undet_retries;
      switch (process_candidate(n, retry_budget, more_rounds)) {
        case cand_status::settled:
          ++stats.undet_resolved;
          break;
        case cand_status::deferred:
          still_deferred.push_back(n);
          break;
        case cand_status::stopped:
          aborted = true;
          break;
        case cand_status::gave_up:
          break;
      }
      if (aborted) {
        break;
      }
    }
    std::swap(deferred, still_deferred);
  }

  if (aborted && params.governor != nullptr) {
    stats.outcome = params.governor->outcome();
  }

  aig.cleanup_dangling();
  stats.gates_after = aig.num_gates();
  add_cnf_counters(cnf, stats);
  stats.total_seconds = seconds_since(t_total);
  return stats;
}

} // namespace stps::sweep
