/// \file stp_sweeper.hpp
/// \brief The paper's STP-based SAT-sweeping framework (§IV, Algorithm 2).
///
/// Differences from the baseline FRAIG sweeper (fraig.hpp), exactly the
/// paper's contributions:
///
/// 1. **SAT-guided initial patterns** (§IV-A, two rounds): constants are
///    proven and propagated up front, and near-constant signatures are
///    diversified, so the initial equivalence classes contain far fewer
///    false candidates.
/// 2. **Reverse topological candidate order** with complement-aware
///    generalized classes (Alg. 2 lines 4, 10-11).
/// 3. **TFI-bounded driver selection** (lines 12-17; limit n = 1000).
/// 4. **Exhaustive window resolution**: a class whose members' combined
///    support fits in a window (< 16 leaves) is resolved *exactly* by
///    word-parallel simulation of exhaustive patterns over the members'
///    *union* cone (one shared pass, no truth-table composition) —
///    remaining members are provably equivalent and merge without any
///    SAT call, and false members are split away without producing
///    counter-examples.
/// 5. **STP counter-example simulation**: when SAT does return a CE, only
///    nodes in equivalence classes are re-simulated, on a k-LUT network
///    collapsed with the tree-cut algorithm (§III-B) — not the whole
///    AIG.  Absorbing one CE is *output-sensitive*: a fanout-driven
///    bitset worklist (sweep/ce_simulator.hpp) touches only the cone the
///    CE disturbs.  Counter-example propagation is a selectable *engine*
///    (sweep/ce_engine.hpp): profiling shows the collapsed view's build
///    cost loses to plain whole-AIG word resimulation on sub-10k-gate
///    instances, so `ce_engine = auto` dispatches by gate count; both
///    engines are proven result-identical by the differential harness.
/// 6. **unDET handling with escalating retry**: the paper marks a
///    budget-exhausted candidate don't-touch permanently (lines 19-21);
///    here an `unknown` verdict *defers* the candidate into a retry
///    queue instead.  After the main pass the queue is re-queried in up
///    to `undet_retry_rounds` rounds with the per-query budget
///    multiplied by `undet_budget_factor` each round — easy-but-unlucky
///    queries settle cheaply, genuinely hard ones still end as
///    `dont_touch` after the last round.  With an unlimited
///    `conflict_budget` (the default) no query can answer unknown and
///    the behavior is exactly the paper's.  A `resource_governor` can
///    additionally bound the whole sweep (deadline / global conflict
///    pool / cancellation); aborting applies only proven merges and
///    tags `sweep_stats::outcome`.
/// 7. **Batched counter-example refinement** (classic FRAIG batching):
///    CE bits are buffered into the open tail word by the event-driven
///    single-bit pass, and classes are re-partitioned lazily — the
///    current candidate's class when it needs the fresh bits to make
///    progress, any other class when the loop advances to it, and all
///    classes at once when the word fills with 64 CEs — instead of
///    paying a full-word re-simulation + global refinement per CE.
/// 8. **Size-scaled budgets**: the initial pattern budget (250 patterns
///    per 1000 gates, at least 128) and the round-2 guided-query budget
///    (16 per 1000 gates, at least 32) scale with gate count, capped at
///    `guided.base_patterns` / `guided.max_round2_queries`, so small
///    instances stop over-investing in simulation and guided SAT.
/// 9. **One sweep path, sharded by class**: the guided-pattern prologue
///    runs as `effective_sat_shards()` slices (sat_patterns.hpp), then
///    the candidate loop runs on as many class shards over the frozen
///    input AIG and records proven merges; a commit pass applies them
///    afterwards.  One shard is the single-thread sweep.
#pragma once

#include "network/aig.hpp"
#include "sweep/sat_patterns.hpp"
#include "sweep/sweep_stats.hpp"

#include <algorithm>
#include <cstdint>

namespace stps::sweep {

struct stp_sweep_params
{
  guided_pattern_config guided{};  ///< initial pattern generation
  bool use_guided_patterns = true; ///< ablation B: false = random only
  bool use_window_resolution = true; ///< ablation: exhaustive windows

  /// Counter-example propagation engine (sweep/ce_engine.hpp): `auto`
  /// picks whole-AIG word resimulation below `ce_engine_gate_threshold`
  /// gates and the collapsed k-LUT view at or above it; `collapsed` /
  /// `resim` force one.  All three settings are result-identical — the
  /// dispatch moves runtime, never merges.
  ce_engine_kind ce_engine = ce_engine_kind::automatic;
  uint32_t ce_engine_gate_threshold = 10'000;
  /// Mid-sweep escalation, `auto` only: the size dispatch cannot see how
  /// much of the network each counter-example disturbs, and on deep
  /// random logic the collapsed view's per-CE worklist can visit a large
  /// fraction of the needed gates — at which point one branch-free
  /// whole-AIG word pass is cheaper.  When the *measured* average
  /// visited-gates-per-CE exceeds `gates × ce_escalate_per_mille / 1000`
  /// (checked once ≥ 64 CEs were absorbed), the sweep switches to the
  /// resim engine; the switch is result-identical because the resim
  /// engine recomputes the open word entirely from the pattern set.
  /// 0 disables escalation.  Forced `collapsed`/`resim` never switch.
  uint32_t ce_escalate_per_mille = 125;
  /// Collapsed engine: prune collapse targets to class representatives
  /// plus the fanout frontier; pruned members are answered through
  /// recorded evaluation cones (result-identical, smaller collapsed
  /// view).  false = every member stays a root (ablation baseline).
  bool ce_prune_targets = true;
  /// Collapsed engine: trailing pattern words simulated into the
  /// collapsed view at build time.  Only the open word is ever re-read,
  /// so 1 removes the build-time `store_peak_bytes` spike at scale;
  /// 0 = simulate the full arena (the unbounded ablation baseline).
  uint32_t ce_initial_words = 1;

  /// Ablation: false reverts to eager one-CE-per-word refinement (every
  /// counter-example immediately refines every class).  Both settings
  /// produce the same merges and final network; batching only changes
  /// when the partition work is paid — both run through the same dense
  /// refinement core.
  bool use_batched_ce_refinement = true;

  /// Ablation: false tears the SAT solver down before *every* query, so
  /// each query re-encodes its whole union cone from scratch — the
  /// output-insensitive baseline `sat_nodes_encoded` is measured
  /// against.  Results are identical either way (differential harness).
  bool use_incremental_cnf = true;
  /// Garbage epoch for the incremental CNF: when problem + learnt
  /// clauses exceed this at a query entry, the solver is rebuilt empty
  /// and live cones re-encode lazily.  Bounds SAT memory on ≥ 1M-gate
  /// sweeps; 0 = never rebuild.  Ignored when `use_incremental_cnf` is
  /// false (every query already starts empty).
  uint64_t sat_clause_budget = 4'000'000;
  /// Signature-store word budget: when more than this many live words
  /// accumulate at a 64-CE word boundary, absorbed words (everything the
  /// equivalence classes already refined with) are trimmed from the
  /// candidate and collapsed-CE stores.  0 = keep every word forever
  /// (the unbounded ablation baseline).
  uint32_t store_word_budget = 8;

  /// Signature-guided SAT querying: solver variables' saved polarities
  /// are seeded from the nodes' values in the last initial-simulation
  /// signature word — one consistent whole-network assignment — at
  /// encode time, and *re-seeded per equivalence query* while the
  /// adaptive policy holds (sat::cnf_manager::params): re-seeding makes
  /// UNSAT-bound proof streams drastically cheaper (mult96r SAT time
  /// ~10×), and switches itself off once satisfiable answers become
  /// frequent enough that counter-example diversity matters more
  /// (deep-random instances; biased models are near-duplicates of the
  /// seed pattern and refine too little).  Seeding steers the search
  /// only; sat/unsat answers are unchanged (property-pinned), and the
  /// result network is identical either way (differential harness +
  /// bench `--ablation`).
  bool use_signature_phase = true;
  /// Cone-aware query scoping (sat::cnf_manager::params): decisions,
  /// propagation above level 0 and activity bumps restricted to each
  /// query's union cone, and learned phase/activity carried across SAT
  /// garbage epochs for cones that re-encode.  false = unrestricted
  /// decisions and propagation, cold rebuilds.
  bool use_cone_scoped_decisions = true;

  int64_t conflict_budget = -1;  ///< equivalence queries; -1 = unlimited

  /// \name Parallel prologue and SAT phase (sliced / class-sharded)
  /// \{
  /// Worker threads for the guided-pattern prologue and the SAT phase,
  /// one pool for both.  The prologue runs as `effective_sat_shards()`
  /// slices, each with its own `sat::cnf_manager`, merged on the
  /// calling thread in slice order (sat_patterns.hpp).  Then the
  /// candidate classes are partitioned into as many shards; each shard
  /// is swept over the *frozen* input AIG with its own manager and its
  /// own signature/pattern/class state, recording proven merges instead
  /// of applying them.  The recorded merges are committed on the
  /// calling thread in deterministic canonical order (ascending node
  /// id).  The sweep *trajectory* is a pure function of the shard
  /// count — running 4 shards on 1 thread or on 4 threads is
  /// byte-identical in every counter and in the result network.  At
  /// most `effective_sat_shards()` threads run; a single worker is the
  /// calling thread itself.
  uint32_t threads = 1;
  /// Shard count of the SAT phase and slice count of the prologue;
  /// 0 = one per thread.  One shard is the single-thread sweep: one
  /// prologue slice, whose manager and simulation state the shard then
  /// reuses instead of fresh copies.  Several shards book their
  /// slices' SAT counters and drop the slice managers before the shards
  /// build fresh ones.  Fixing `sat_shards` while varying `threads`
  /// reproduces identical sweeps at any parallelism (the determinism
  /// pin).
  uint32_t sat_shards = 0;

  uint32_t effective_sat_shards() const noexcept
  {
    const uint32_t s = sat_shards == 0u ? threads : sat_shards;
    return s == 0u ? 1u : s;
  }
  /// \}

  /// \name Budgeted, interruptible sweeping
  /// \{
  /// Resource governor of the whole sweep job (non-owning; null =
  /// ungoverned).  Shared with the CNF layer, the CDCL loop, and guided
  /// pattern generation; when it trips, the in-flight query finishes
  /// (or winds down with `unknown`), only proven merges are applied,
  /// and the returned network is a sound partial result with
  /// `sweep_stats::outcome` naming the cause.
  resource_governor* governor = nullptr;
  /// Escalating unDET retry: rounds of re-querying deferred candidates
  /// after the main pass, each with the per-query budget multiplied by
  /// `undet_budget_factor`.  0 = the paper's single-shot marking.
  /// Irrelevant while `conflict_budget` is unlimited (nothing defers).
  uint32_t undet_retry_rounds = 3;
  uint32_t undet_budget_factor = 2;
  /// Deterministic fault injection for the SAT layer
  /// (sat::fault_plan, forwarded to the cnf_manager); all-zero = off.
  sat::fault_plan faults{};
  /// Injected store/pattern trim failure: every trim request is
  /// refused, as if freeing absorbed words failed.  Trims only release
  /// memory, so results must be identical (pinned by the fault suite).
  bool fault_fail_store_trim = false;
  /// \}

  std::size_t tfi_limit = 1000;  ///< Alg. 2 line 1
  uint32_t window_max_support = 15; ///< "< 16 leaves" (§IV-A)
  /// Scaled windowing: on paper-scale instances a satisfiable SAT call
  /// costs far more than a larger exhaustive window (window resolution
  /// is cheap since the union-cone pass), so the support limit grows
  /// with the gate count — one extra leaf per quadrupling starting at
  /// `window_scale_gates` gates, capped at `window_max_support_scaled`
  /// (30k gates → 16, 120k → 17, 480k → 18, 1.92M → 19 with the
  /// defaults; the 19-leaf tier exists for the --scale 4 workloads).
  /// Window resolution is exact, so the limit changes which merges
  /// avoid SAT, never the result.  `window_scale_gates = 0` disables
  /// scaling (the flat ablation baseline).
  uint32_t window_scale_gates = 30'000;
  uint32_t window_max_support_scaled = 19;

  /// Exhaustive-window support limit for a circuit of \p num_gates
  /// gates (scaled windowing; see `window_scale_gates`).
  uint32_t effective_window_support(uint64_t num_gates) const
  {
    uint32_t support = window_max_support;
    if (window_scale_gates == 0u) {
      return support;
    }
    for (uint64_t gates = window_scale_gates;
         num_gates >= gates && support < window_max_support_scaled;
         gates *= 4u) {
      ++support;
    }
    return support;
  }
};

/// Sweeps \p aig in place; returns the Table II counters.
sweep_stats stp_sweep(net::aig_network& aig, const stp_sweep_params& params);

} // namespace stps::sweep
