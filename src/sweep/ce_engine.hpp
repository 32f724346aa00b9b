/// \file ce_engine.hpp
/// \brief Selectable counter-example propagation engines for the STP
/// sweeper (§IV-A), dispatched by instance size.
///
/// When SAT disproves a candidate equivalence it hands back a
/// counter-example; the sweeper appends it to the pattern set and must
/// bring class members' signature words up to date.  Two engines do
/// that, with identical observable behavior and very different cost
/// shapes:
///
/// * **collapsed** — the paper's approach (ce_simulator.hpp): a k-LUT
///   view collapsed with tree cuts, built once per sweep, absorbs each
///   CE output-sensitively along fanout lists.  The build (AIG → k-LUT
///   conversion, collapse, initial simulation) is a fixed cost that
///   amortizes on large instances with many CEs.
/// * **resim** — whole-AIG word resimulation over `sim::bitwise_sim`:
///   no build at all; each CE recomputes the open signature word for
///   *every* node id (dead gates included, so merged-away class members
///   keep their function-true words exactly like the collapsed
///   snapshot) in one branch-free pass.  On sub-10k-gate instances this
///   beats the collapsed view's build + per-LUT evaluation; on deep
///   paper-scale instances the full pass per CE loses.
///
/// `resolve_ce_engine` implements the `auto` policy: resim below the
/// gate threshold, collapsed at or above it.  Both engines answer
/// `node_word` with bit-identical values — the differential harness
/// (tests/test_differential.cpp) and the bench `--ablation` proof pin
/// that the choice moves runtime only, never results.
#pragma once

#include "network/aig.hpp"
#include "sim/patterns.hpp"
#include "sim/signature_store.hpp"
#include "sweep/sweep_stats.hpp" // ce_engine_kind

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace stps::sweep {

/// Build-time configuration shared by the engines (collapsed-only knobs
/// are ignored by resim).
struct ce_engine_config
{
  bool prune_targets = true;    ///< reps + fanout frontier (collapsed)
  uint32_t initial_words = 1;   ///< trailing words simulated at build;
                                ///< 0 = full arena (collapsed)
};

/// One sweep's counter-example propagation engine.  Lifecycle: `build`
/// once after the initial classes exist, then `add_ce` after every
/// appended counter-example; `node_word` answers any constant, PI, or
/// target word the refinement syncs into the candidate store.
class ce_engine
{
public:
  virtual ~ce_engine() = default;

  /// The engine actually running (never `automatic`).
  virtual ce_engine_kind kind() const noexcept = 0;

  /// \p targets are the class members whose words refinement will read;
  /// \p pinned are the class representatives (kept observable even
  /// under target pruning).
  virtual void build(const net::aig_network& aig,
                     std::span<const net::node> targets,
                     std::span<const net::node> pinned,
                     const sim::pattern_set& patterns) = 0;

  /// Absorbs the newest pattern (already appended to \p patterns).
  virtual void add_ce(const sim::pattern_set& patterns,
                      const std::vector<bool>& ce) = 0;

  /// Signature word of a constant, PI, or target node.
  virtual uint64_t node_word(const net::aig_network& aig, net::node n,
                             const sim::pattern_set& patterns,
                             std::size_t word) = 0;

  /// Frees words absorbed by the equivalence classes (word budget).
  virtual void trim_absorbed(std::size_t first_live) = 0;

  /// The engine's signature store (memory counters).
  virtual const sim::signature_store& store() const noexcept = 0;

  /// \name Output-sensitivity counters (collapsed engine only)
  /// \{
  virtual bool has_visit_counters() const noexcept { return false; }
  virtual uint64_t gates_visited() const noexcept { return 0; }
  virtual uint64_t gates_scan_baseline() const noexcept { return 0; }
  virtual uint64_t targets_pruned() const noexcept { return 0; }
  /// \}
};

/// The `auto` dispatch: resim below \p gate_threshold gates, collapsed
/// at or above it; explicit requests pass through.
ce_engine_kind resolve_ce_engine(ce_engine_kind requested,
                                 uint64_t num_gates,
                                 uint32_t gate_threshold) noexcept;

/// Creates the engine for an already-resolved kind (`automatic` is an
/// error — resolve first).
std::unique_ptr<ce_engine> make_ce_engine(ce_engine_kind resolved,
                                          const ce_engine_config& config);

} // namespace stps::sweep
