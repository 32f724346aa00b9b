#include "sweep/sweep_stats.hpp"

#include "sat/cnf_manager.hpp"

namespace stps::sweep {

void add_cnf_counters(const sat::cnf_manager& cnf, sweep_stats& stats)
{
  stats.sat_nodes_encoded += cnf.nodes_encoded();
  stats.sat_solver_rebuilds += cnf.rebuilds();
  stats.sat_clauses_peak += cnf.clauses_peak();
  const sat::solver_stats totals = cnf.solver_statistics();
  stats.sat_conflicts += totals.conflicts;
  stats.sat_decisions += totals.decisions;
  stats.sat_propagations += totals.propagations;
  stats.sat_skipped_implications += totals.skipped_implications;
  stats.sat_restarts += totals.restarts;
  stats.sat_learnts_reduced += totals.learnts_reduced;
  stats.sat_lbd_sum += totals.lbd_sum;
  stats.sat_binary_clauses += totals.binary_clauses;
  stats.phase_seed_words += cnf.phase_seeds();
}

} // namespace stps::sweep
