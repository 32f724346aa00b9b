/// \file solver.hpp
/// \brief CDCL SAT solver (MiniSat-family architecture).
///
/// The sweeping framework issues many small incremental equivalence
/// queries (Alg. 2 line 18), so the solver supports: solving under
/// assumptions, adding clauses between calls, a per-call conflict budget
/// whose exhaustion yields `result::unknown` (the paper's `unDET`), and
/// model extraction for counter-examples (line 26).  Implementation:
/// two-watched-literal propagation over an arena clause database
/// (sat/clause_db.hpp) with an implicit binary-clause fast path
/// (sat/binary_graph.hpp), first-UIP learning with clause minimization
/// and learn-time LBD, VSIDS decision heap with phase saving, Luby
/// restarts, and glue/activity-ranked learnt-clause reduction.  Under a
/// decision scope (`set_decision_vars`) search is cone-gated: above
/// level 0 neither branching nor propagation assigns a variable outside
/// the scope, so an incremental CNF that keeps every cone it ever
/// encoded costs a query only the work of its own cone.  This file
/// orchestrates search and propagation only; clause storage and the
/// binary implication graph live in their own modules.
#pragma once

#include "sat/binary_graph.hpp"
#include "sat/clause_db.hpp"
#include "sat/resource.hpp"
#include "sat/types.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace stps::sat {

struct solver_stats
{
  uint64_t decisions = 0;
  uint64_t propagations = 0;
  uint64_t conflicts = 0;
  uint64_t restarts = 0;
  uint64_t learnt_clauses = 0;
  uint64_t solve_calls = 0;
  /// Implied literals dropped by cone gating: unit under the current
  /// assignment, above level 0, on a variable outside the decision
  /// scope (see set_decision_vars).  Not counted in `propagations`.
  uint64_t skipped_implications = 0;

  /// \name Clause-database policy counters (PR 10)
  /// Lifetime counters (never decremented), so sums across garbage
  /// epochs and shard-local solvers stay meaningful.
  /// \{
  uint64_t learnts_reduced = 0;  ///< learnt clauses deleted by reduce_db
  uint64_t lbd_sum = 0;          ///< Σ learn-time LBD over learnt clauses
  uint64_t binary_clauses = 0;   ///< binary clauses ever added
  /// \}
};

/// Clause-database policy switches.  The defaults are the production
/// configuration; the naive paths exist so tests can pin the machinery
/// against the plain watched-clause solver (verdicts must be identical,
/// trajectories may differ).
struct solver_options
{
  /// Glue/activity-ranked learnt reduction (reduce_db).  Off = learnts
  /// only ever leave via purges and garbage epochs.  Sweeps always run
  /// with it on; off is the naive reference path of the solver tests.
  bool reduce_learnts = true;
  /// Problem/learnt binary clauses live in the binary implication graph
  /// with the dedicated propagation fast path.  Off = every binary is a
  /// watched arena clause (the naive path).  Removable clauses always
  /// stay watched: they are retracted through stable arena slots.
  bool implicit_binaries = true;
  /// reduce_db triggers once the arena learnts exceed this; each
  /// reduction raises the limit by `reduce_increment` (persistent
  /// across solve() calls — the database outlives thousands of
  /// queries).  Tests shrink it to force reductions on tiny instances.
  uint32_t reduce_base = 4000;
  uint32_t reduce_increment = 300;
};

class solver
{
public:
  explicit solver(solver_options opt = {});
  ~solver();
  solver(const solver&) = delete;
  solver& operator=(const solver&) = delete;

  const solver_options& options() const noexcept { return opt_; }

  var new_var();
  uint32_t num_vars() const noexcept
  {
    return static_cast<uint32_t>(assigns_.size());
  }

  /// Adds a clause; returns false if the database is already unsat.
  bool add_clause(std::span<const lit> lits);
  bool add_clause(std::initializer_list<lit> lits);

  /// Opaque handle to a retractable clause (null = nothing to retract).
  using clause_handle = void*;

  /// Adds a clause that can later be retracted with `remove_clause` —
  /// used for per-query auxiliary constraints (e.g. the XOR output of an
  /// equivalence query), so they do not pile up and slow every later
  /// propagation.  Must be called at decision level 0.  Returns null when
  /// the clause simplified away (satisfied, tautological, or unit — unit
  /// facts are permanent).  Handles are stable slot indices, valid
  /// across solve() calls even when reduce_db or the arena GC move
  /// clause memory underneath them.
  clause_handle add_removable_clause(std::span<const lit> lits);

  /// Retracts a clause previously added with `add_removable_clause`.
  /// Must be called at decision level 0.
  void remove_clause(clause_handle h);

  /// Deletes learnt clauses mentioning \p v.  Required after retracting
  /// auxiliary definitions of v: clauses *containing* v may depend on
  /// the retracted definition, while v-free learnt clauses are still
  /// implied (definitional extensions are conservative).  Must be called
  /// at decision level 0.
  ///
  /// Scans the per-solve learnt log (every clause learnt since solve()
  /// began, kept relocation-safe across reduce_db and the arena GC), so
  /// it is correct under any database reshuffle.  Call it after *every*
  /// solve issued while v's auxiliary definition was attached, as
  /// aig_encoder::prove_equivalent does — clauses learnt in earlier
  /// solves must already have been purged then.
  void purge_learnts_with(var v);

  /// Level-0 value of a variable (l_undef if not permanently fixed).
  /// Only meaningful outside of solve(), when the solver sits at level 0.
  lbool fixed_value(var v) const noexcept { return assigns_[v]; }

  /// \name External phase / activity initialization
  /// Saved phases and VSIDS activities are normally internal search
  /// state; the sweeping stack seeds them from outside — polarities from
  /// simulation signatures (a satisfiable equivalence query then starts
  /// in a simulation-consistent assignment and the counter-example falls
  /// out with few conflicts), activities transplanted across garbage
  /// epochs so a rebuilt solver does not relearn which cone variables
  /// matter.  Seeding never changes sat/unsat answers — phases and
  /// activities only steer the search order (pinned by a property test).
  /// \{
  /// The next branch on \p v tries \p value first (until phase saving
  /// overwrites it at the next backtrack over v).
  void set_phase(var v, bool value) noexcept { polarity_[v] = !value; }
  /// Value the next branch on \p v would try.
  bool saved_phase(var v) const noexcept { return !polarity_[v]; }
  /// Activity of \p v in units of the current bump increment — the
  /// scale-free quantity to carry between solver instances (raw
  /// activities are meaningless across instances: the increment grows
  /// and rescales independently per solver).
  double normalized_activity(var v) const noexcept
  {
    return activity_[v] / var_inc_;
  }
  /// Sets \p v's activity to \p normalized bump increments.
  void set_var_activity(var v, double normalized);
  /// \}

  /// Installs \p vars as the decision scope and rebuilds the decision
  /// heap accordingly; stays in effect until the next call.  Above
  /// decision level 0 the solver then neither branches on nor propagates
  /// to an unlisted variable: an implied literal outside the scope is
  /// dropped (counted in `solver_stats::skipped_implications`), while
  /// conflict detection is unchanged.  Level 0 is never gated — a lost
  /// level-0 fact would stay lost once its variable enters a later
  /// scope.  So every unlisted variable is unassigned above level 0,
  /// clauses mentioning one can neither propagate nor conflict, and a
  /// model assigns exactly the listed variables plus level-0 facts
  /// (`model_value` reads the rest as false).
  ///
  /// Ignoring clauses only weakens the formula, so `unsat` stays a
  /// proof.  `sat` is sound whenever the scope is closed under
  /// definitions (circuit-cone CNF): every clause over only listed
  /// variables is propagated as usual, and every unlisted variable is
  /// functionally defined from its fanins or free, so a conflict-free
  /// total assignment of the listed variables extends to a total model,
  /// which satisfies the learnt clauses too because they are implied.
  /// The caller must list the full *encoded* fanin closure of the query
  /// (assumption variables included), or partial models may not extend.
  /// Must be called at decision level 0.
  void set_decision_vars(std::span<const var> vars);

  /// Installs (or clears, with nullptr) the cooperative resource hooks
  /// (sat/resource.hpp).  Inside solve() conflicts are reported to the
  /// hooks every `resource_check_interval` conflicts — with the exact
  /// remainder flushed at every return — and a true answer from
  /// `consume_conflicts` (or `should_stop` at solve entry) aborts the
  /// search with `result::unknown`, independently of the per-call
  /// `conflict_budget`.  The hooks must outlive the solver or be
  /// cleared first.  Null (the default) is bit-identical to ungoverned
  /// solving.
  void set_resource_hooks(resource_hooks* hooks) noexcept { hooks_ = hooks; }

  /// Solves under \p assumptions.  \p conflict_budget < 0 means no budget.
  result solve(std::span<const lit> assumptions = {},
               int64_t conflict_budget = -1);

  /// Model value after `result::sat`.
  bool model_value(var v) const;

  const solver_stats& stats() const noexcept { return stats_; }

  /// Problem clauses currently in the database (permanent + removable +
  /// implicit problem binaries; unit facts live on the trail and are not
  /// counted).
  std::size_t num_clauses() const noexcept
  {
    return clauses_.size() + num_removables_ +
           static_cast<std::size_t>(bin_.live_problem());
  }
  /// Learnt clauses currently retained (arena + implicit learnt
  /// binaries; reduce_db and purges shrink this).
  std::size_t num_learnts() const noexcept
  {
    return learnts_.size() + static_cast<std::size_t>(bin_.live_learnt());
  }

  /// True once the clause database is unconditionally unsatisfiable.
  bool in_conflict() const noexcept { return !ok_; }

  /// Copies the live clause database in export order: level-0 unit
  /// facts, implicit binaries, arena problem clauses, removable
  /// clauses, then (optionally) learnt clauses.  Must be called at
  /// decision level 0; feeds `export_dimacs` (sat/dimacs.hpp) so any
  /// query can be replayed standalone.
  void copy_clauses(std::vector<std::vector<lit>>& out,
                    bool include_learnts = false) const;

private:
  /// Watcher entry for arena clauses.  Binary arena clauses (the only
  /// binaries outside the implication graph: removables always, every
  /// binary when `implicit_binaries` is off) keep the blocker-only fast
  /// path: the blocker is the one other literal, so propagation decides
  /// keep/enqueue/conflict without touching clause memory.
  struct watcher
  {
    cref cr = cref_undef;
    lit blocker;
    uint32_t binary = 0;
  };

  /// Reason encoding: cref, or an implicit binary clause, or none.
  /// A binary reason for literal p stores the *other* literal o of the
  /// implicit clause (p ∨ o) tagged in the top bit; `reason_none` does
  /// not collide (its payload would be an impossible literal).
  static constexpr uint32_t reason_none = ~uint32_t{0};
  static constexpr uint32_t reason_binary_flag = 0x8000'0000u;
  static uint32_t reason_binary(lit other) noexcept
  {
    return reason_binary_flag | other.x;
  }
  static bool is_binary_reason(uint32_t r) noexcept
  {
    return r != reason_none && (r & reason_binary_flag) != 0u;
  }
  static lit binary_reason_other(uint32_t r) noexcept
  {
    lit l;
    l.x = r & ~reason_binary_flag;
    return l;
  }

  /// Conflict descriptor: an arena clause, or an implicit binary
  /// materialized as two literals.
  struct conflict_ref
  {
    cref cr = cref_undef;
    lit a, b;
    bool binary = false;
    bool valid() const noexcept { return binary || cr != cref_undef; }
  };

  /// Per-solve learnt record for purge_learnts_with: the clauses learnt
  /// since solve() began, as relocation-tracked crefs or implicit
  /// binary literal pairs (cr == cref_undef).
  struct learnt_record
  {
    cref cr = cref_undef;
    lit a, b;
  };

  lbool value(lit l) const noexcept
  {
    return assigns_[l.variable()] ^ l.sign();
  }
  uint32_t decision_level() const noexcept
  {
    return static_cast<uint32_t>(trail_lim_.size());
  }

  void attach(cref cr);
  void detach(cref cr);
  /// Nulls every level-0 reason reference into \p cr before it is freed.
  void unhook_reasons(cref cr);
  void enqueue(lit l, uint32_t reason);
  conflict_ref propagate();
  void analyze(const conflict_ref& conflict, std::vector<lit>& learnt,
               uint32_t& bt_level);
  bool lit_redundant(lit l, uint32_t abstract_levels);
  void backtrack(uint32_t level);
  lit pick_branch();
  void bump_var(var v);
  void bump_clause(cref cr);
  void decay_var_activity();
  uint32_t compute_lbd(std::span<const lit> lits);
  void reduce_db();
  /// Compacts the arena once enough waste accumulated, relocating every
  /// live reference (watchers, trail reasons, clause lists, removable
  /// slots, the per-solve learnt log).
  void check_garbage();
  void garbage_collect();
  void heap_insert(var v);
  var heap_pop();
  void heap_up(uint32_t i);
  void heap_down(uint32_t i);
  bool heap_contains(var v) const;

  /// Shared normalization for add_clause / add_removable_clause: sorts,
  /// dedupes, drops false literals.  Returns false when the clause needs
  /// no representation (tautology or already satisfied).
  bool simplify_clause(std::span<const lit> lits, std::vector<lit>& out);

  solver_options opt_;
  bool ok_ = true;
  bool restricted_ = false;       // set_decision_vars has been used
  std::vector<uint8_t> decision_; // var → may be picked by pick_branch
  std::vector<var> decision_list_; // vars currently flagged (restricted)

  clause_db db_;
  binary_graph bin_;
  std::vector<cref> clauses_;
  std::vector<cref> learnts_;
  /// Retractable clauses by stable slot (clause_handle = slot + 1);
  /// cref_undef marks a free slot (recycled through removable_free_).
  std::vector<cref> removable_slots_;
  std::vector<uint32_t> removable_free_;
  std::size_t num_removables_ = 0;
  std::vector<learnt_record> learnt_log_; // cleared at each solve() entry
  double reduce_limit_ = 0.0;             // persistent reduce_db trigger

  std::vector<std::vector<watcher>> watches_; // indexed by lit.x
  std::vector<lbool> assigns_;
  std::vector<bool> polarity_;  // saved phases (true = last was negative)
  std::vector<uint32_t> level_;
  std::vector<uint32_t> reason_; // reason encoding, see above
  std::vector<lit> trail_;
  std::vector<uint32_t> trail_lim_;
  std::size_t qhead_ = 0;

  // VSIDS.  Heap entries carry a copy of the variable's activity so the
  // sift comparisons stay in the heap array instead of random-accessing
  // activity_; the copies are kept exact (same doubles), so decisions
  // are identical to the plain-indirection heap.
  struct heap_entry
  {
    double act = 0.0;
    var v = 0;
  };
  std::vector<double> activity_;
  double var_inc_ = 1.0;
  std::vector<heap_entry> heap_;    // binary max-heap of vars
  std::vector<uint32_t> heap_pos_;  // var → heap index + 1 (0 = absent)
  float clause_inc_ = 1.0f;

  // scratch for analyze / LBD
  std::vector<bool> seen_;
  std::vector<lit> analyze_stack_;
  std::vector<lit> analyze_clear_;
  std::vector<uint32_t> lbd_mark_; // level → last stamp
  uint32_t lbd_stamp_ = 0;
  lit bin_lits_[2]; // scratch: materialized implicit binary antecedent

  std::vector<lbool> model_;
  solver_stats stats_;
  resource_hooks* hooks_ = nullptr; // non-owning; null = ungoverned
};

} // namespace stps::sat
