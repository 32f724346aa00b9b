/// \file sweep_stats.hpp
/// \brief Counters shared by both sweepers — the columns of Table II.
#pragma once

#include <cstdint>
#include <vector>

namespace stps::sat {
class cnf_manager;
} // namespace stps::sat

namespace stps::sweep {

/// Counter-example propagation engine of the STP sweeper (see
/// sweep/ce_engine.hpp).  `automatic` dispatches by instance size:
/// whole-AIG word resimulation below the gate threshold, the collapsed
/// k-LUT view above it.
enum class ce_engine_kind : uint8_t
{
  automatic = 0,
  collapsed = 1,
  resim = 2,
};

/// Stable name for logs/JSON ("auto", "collapsed", "resim").
constexpr const char* ce_engine_name(ce_engine_kind kind) noexcept
{
  switch (kind) {
    case ce_engine_kind::collapsed: return "collapsed";
    case ce_engine_kind::resim: return "resim";
    default: return "auto";
  }
}

/// How a sweep ended (sweep/resource_governor.hpp).  Anything other
/// than `complete` means the sweep wound down early — the returned
/// network is still a *sound partial result* (only proven merges were
/// applied; the abort precedence is cancelled > deadline > budget).
enum class sweep_outcome : uint8_t
{
  complete = 0,  ///< ran to the end (including an ungoverned sweep)
  deadline = 1,  ///< wall-clock (or virtual-clock) deadline expired
  budget = 2,    ///< global conflict pool exhausted
  cancelled = 3, ///< stop token tripped (SIGINT / cancel_after_queries)
};

/// Stable name for logs/JSON ("complete", "deadline", "budget",
/// "cancelled").
constexpr const char* sweep_outcome_name(sweep_outcome outcome) noexcept
{
  switch (outcome) {
    case sweep_outcome::deadline: return "deadline";
    case sweep_outcome::budget: return "budget";
    case sweep_outcome::cancelled: return "cancelled";
    default: return "complete";
  }
}

struct sweep_stats
{
  uint32_t gates_before = 0;  ///< "Gate"
  uint32_t gates_after = 0;   ///< "Result"
  uint32_t levels_before = 0; ///< "Lev"

  uint64_t sat_calls_satisfiable = 0; ///< "SAT calls" (CE-producing)
  uint64_t sat_calls_total = 0;       ///< "Total SAT calls"

  uint64_t merges = 0;           ///< proven-equivalent substitutions
  uint64_t constant_merges = 0;  ///< constants propagated
  uint64_t window_merges = 0;    ///< merges proven by exhaustive windows
  uint64_t dont_touch = 0;       ///< unDET candidates given up for good
  uint64_t ce_patterns = 0;      ///< counter-examples simulated

  /// \name Budgeted / interruptible sweeping (resource governor + retry)
  /// \{
  /// How the sweep ended; `complete` unless a governor aborted it.
  sweep_outcome outcome = sweep_outcome::complete;
  /// Retry attempts issued by the escalating unDET queue — one per
  /// (deferred candidate, retry round) pair actually re-queried.
  uint64_t undet_retries = 0;
  /// Deferred candidates the retry rounds settled without a final
  /// `dont_touch` (proven, refined away, or merged by a cascade).
  uint64_t undet_resolved = 0;
  /// \}

  /// Gates evaluated by fanout-driven CE propagation (output-sensitive).
  uint64_t ce_gates_visited = 0;
  /// Gates the input-insensitive needed-set scan would have evaluated
  /// for the same counter-examples (needed gates × CE count).
  uint64_t ce_gates_scan_baseline = 0;
  /// Class members answered through pruned evaluation cones instead of
  /// collapse roots (collapsed engine only).
  uint64_t ce_targets_pruned = 0;
  /// True when the engine ran the collapsed CE simulator and the
  /// counters above are defined; engines without them (fraig, the
  /// whole-AIG resim engine) must omit the columns instead of printing
  /// zeros (ratio tooling would divide by them).
  bool has_ce_counters = false;

  /// True for sweepers with a selectable CE engine (the STP sweeper);
  /// `ce_engine_used` is then the engine the sweep *finished* with —
  /// never `automatic`.  `ce_engine_escalated` marks sweeps that
  /// started collapsed and switched to resim mid-sweep when the
  /// measured per-CE disturbance crossed the escalation threshold.
  bool has_ce_engine = false;
  ce_engine_kind ce_engine_used = ce_engine_kind::collapsed;
  bool ce_engine_escalated = false;

  /// \name Incremental-CNF counters (cnf_manager)
  /// \{
  uint64_t sat_nodes_encoded = 0;  ///< AND nodes Tseitin-encoded, all epochs
  uint64_t sat_solver_rebuilds = 0; ///< garbage epochs / per-query rebuilds
  uint64_t sat_clauses_peak = 0;   ///< max problem+learnt clauses seen
  /// \}

  /// \name SAT search-effort counters (accumulated across all rebuilds)
  /// The satisfiable-call *cost* trajectory: satisfiable equivalence
  /// queries dominate the SAT-bound tail, and the signature-phase /
  /// cone-scoping policies aim squarely at their conflict counts.
  /// \{
  uint64_t sat_conflicts = 0;
  uint64_t sat_decisions = 0;
  /// Literals assigned by unit propagation (solver::propagate, the top
  /// SAT cost in profiles).
  uint64_t sat_propagations = 0;
  /// Implications cone gating dropped because they fell outside the
  /// query's cone (solver_stats::skipped_implications; 0 without
  /// cone-scoped decisions).
  uint64_t sat_skipped_implications = 0;
  uint64_t sat_restarts = 0;
  /// Solver variables whose saved polarity was seeded from a signature
  /// word at encode time (0 when `use_signature_phase` is off or for
  /// sweepers without the policy).
  uint64_t phase_seed_words = 0;
  /// \}

  /// \name Clause-database policy counters (solver_stats, all rebuilds)
  /// The memory-pressure trajectory: reduce_db keeps the long-lived
  /// incremental database lean *between* garbage epochs, so
  /// `sat_clauses_peak` stops riding the clause budget on query-heavy
  /// rows.
  /// \{
  uint64_t sat_learnts_reduced = 0; ///< learnts deleted by reduce_db
  uint64_t sat_lbd_sum = 0;         ///< Σ learn-time LBD (avg = /learnts)
  uint64_t sat_binary_clauses = 0;  ///< clauses routed to the binary graph
  /// Always 0: the solver runs no between-query inprocessing.  Kept
  /// only because the benchmark harness (perfbench) still reads it as
  /// `sat.inprocess_s`; drop it together with that reader.
  double sat_inprocess_seconds = 0.0;
  /// \}

  /// \name Signature-store memory counters (candidate + CE stores)
  /// \{
  bool has_store_counters = false; ///< engine tracks a word budget
  uint64_t store_words_live = 0;    ///< words still backed at sweep end
  uint64_t store_words_trimmed = 0; ///< absorbed words whose storage was freed
  uint64_t store_peak_bytes = 0;    ///< sum of per-store peak footprints
  /// Pattern-set ring: CE words still backed / recycled into the ring.
  uint64_t pattern_words_live = 0;
  uint64_t pattern_words_recycled = 0;
  /// \}

  /// \name Parallel SAT phase (stp_sweep_params::threads / sat_shards)
  /// \{
  uint32_t threads = 1;      ///< requested worker threads
  uint32_t sat_shards = 1;   ///< effective shard count of the SAT phase
  uint32_t workers_used = 1; ///< threads that actually ran shards
  /// Per-worker shard SAT time (size = workers_used; worker w summed
  /// over the shards it ran).  The prologue's guided-pattern SAT time is
  /// in `sat_seconds` only, so a one-shard sweep reports its shard's
  /// candidate-loop SAT time, not {sat_seconds}.
  std::vector<double> worker_sat_seconds;
  /// Wall time of the initial-pattern prologue (Alg. 2 line 2: the
  /// guided-pattern slices, their merges, and the proven constants'
  /// substitution).
  double prologue_seconds = 0.0;
  /// Wall time of the class-sharded SAT phase (every shard, start to
  /// the last one's end; the commit pass is not included).
  double sat_phase_seconds = 0.0;
  /// \}

  /// \name Busy time
  /// Summed over every thread that did the work: with several workers
  /// `sim_seconds` and `sat_seconds` exceed the wall time spent, and
  /// `total_seconds − sim_seconds − sat_seconds` can go negative.  The
  /// wall-clock phase times above say where the wall time went.
  /// \{
  double sim_seconds = 0.0;   ///< "Simulation" (initial + CE)
  double sat_seconds = 0.0;   ///< SAT queries, prologue and shards
  /// \}
  double total_seconds = 0.0; ///< "Total runtime" (wall time)
};

/// Adds \p cnf's totals over every epoch to the CNF, search-effort, and
/// clause-database counters of \p stats — a sweep with several managers
/// sums them (so `sat_clauses_peak` is a sum of per-manager peaks).
void add_cnf_counters(const sat::cnf_manager& cnf, sweep_stats& stats);

} // namespace stps::sweep
