/// \file sat_patterns.hpp
/// \brief Two-round SAT-guided initial pattern generation (§IV-A).
///
/// Random patterns leave many gates looking constant or near-constant,
/// which bloats candidate equivalence classes with false members.  The
/// paper (following Amarù et al., DAC'20 [6]) generates additional
/// patterns with a SAT solver:
///
/// * **Round 1** — for every gate whose signature is all-zeros or
///   all-ones, ask SAT for an input assignment driving it to the other
///   value.  A satisfying assignment becomes a new pattern (the gate was
///   a false constant candidate); UNSAT *proves* the gate constant, and
///   it is reported for immediate constant propagation (Alg. 2 line 3).
/// * **Round 2** — for gates whose signature has only a few ones (or
///   zeros), ask SAT for assignments producing the minority value, so
///   signatures gain toggles and distinguish more class candidates.
///
/// **Slices.**  Both rounds run as S independent *slices*, one per
/// supplied `cnf_manager`, on a `worker_pool`.  A slice reads the
/// merged signatures of the round's start (shared, read-only), keeps a
/// private copy of only the newest pattern word, and absorbs its own
/// witnesses incrementally into that copy.  The calling thread merges
/// the slices after each round, always in slice order:
///
/// * round 1: slice s queries the constant candidates with `n % S == s`;
/// * merge 1: the patterns are the random base, then slice 0's
///   witnesses in absorb order, then slice 1's, …; proven constants are
///   the union ordered by (round-1 iteration, node id); the merged set
///   is re-simulated once;
/// * round 2: the signature groups are built and ranked once from the
///   merged signatures, the group of rank r goes to slice r % S, and
///   the per-slice query quotas sum to exactly `max_round2_queries`;
/// * merge 2: the witnesses are appended in slice order again.
///
/// The result is a pure function of S, never of the thread count.  One
/// slice is the sequential algorithm: every query sees exactly the
/// signatures it saw when one loop absorbed every witness.
#pragma once

#include "network/aig.hpp"
#include "sat/cnf_manager.hpp"
#include "sim/patterns.hpp"
#include "sweep/resource_governor.hpp"
#include "sweep/worker_pool.hpp"

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace stps::sweep {

struct guided_pattern_config
{
  uint64_t base_patterns = 1024;   ///< random patterns before guidance
  uint64_t seed = 0x5eed;          ///< RNG seed for the random base
  int64_t conflict_budget = 1000;  ///< per-query budget (unknown → skip)
  uint32_t round1_iterations = 2;  ///< re-simulate & retry rounds
  uint64_t round2_ones_threshold = 2;  ///< "few ones" bound for round 2
  std::size_t max_round2_queries = 512; ///< summed over every slice
  /// Round-2 queries re-targeted by signature-group entropy: candidates
  /// are grouped by their complement-normalized signature (prospective
  /// equivalence classes), groups are ranked by minority-bit count
  /// (lowest entropy — the most constant-looking — first), and each
  /// group gets *one* guided query.  On deep random logic near-constant
  /// gates are strongly correlated, so the old per-gate loop burned one
  /// satisfiable SAT call per member of a group any single witness
  /// would have diversified whole.  false = the per-gate loop.
  bool round2_group_by_signature = true;
  /// Seed each guided query's cone phases from the current signatures
  /// (stp_sweep_params::use_signature_phase; the STP sweeper forwards
  /// its flag — the fraig baseline leaves it off).
  bool use_signature_phase = false;
  /// Resource governor of the enclosing sweep job (non-owning; null =
  /// ungoverned).  Every slice polls it between queries; when it trips,
  /// the slices stop and the merged patterns generated so far are
  /// returned — a partial pattern set is still a valid pattern set, and
  /// `proven_constants` only ever holds completed UNSAT proofs.
  resource_governor* governor = nullptr;
};

struct guided_pattern_result
{
  sim::pattern_set patterns;
  /// Gates proven constant in round 1: (node, constant value), ordered
  /// by (round-1 iteration, node id).
  std::vector<std::pair<net::node, bool>> proven_constants;
  uint64_t sat_calls = 0;        ///< total SAT queries issued
  uint64_t satisfiable_calls = 0;
  uint64_t patterns_added = 0;   ///< guided patterns appended to the base
  /// Busy time, summed over the slices (and the merges' re-simulation):
  /// with several threads these exceed the wall time.
  double sim_seconds = 0.0;      ///< time in the simulator
  double sat_seconds = 0.0;      ///< time in the SAT queries
};

/// Runs both guidance rounds as `managers.size()` slices on \p pool
/// (slice s queries on `*managers[s]` in both rounds).  The managers
/// accumulate the circuit CNF, so a caller sweeping on with one of them
/// shares its encoded cones and learned clauses with the later
/// equivalence queries (subject to its garbage policy).  Throws
/// std::invalid_argument when \p managers is empty.
guided_pattern_result sat_guided_patterns(
    const net::aig_network& aig, std::span<sat::cnf_manager* const> managers,
    worker_pool& pool, const guided_pattern_config& config);

/// One slice on the calling thread.
guided_pattern_result sat_guided_patterns(const net::aig_network& aig,
                                          sat::cnf_manager& cnf,
                                          const guided_pattern_config& config);

} // namespace stps::sweep
