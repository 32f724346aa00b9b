#include "sweep/ce_engine.hpp"

#include "sim/bitwise_sim.hpp"
#include "sweep/ce_simulator.hpp"

#include <stdexcept>

namespace stps::sweep {

namespace {

/// Tree-cut leaf bound of the collapsed view's CE windows.
constexpr uint32_t collapse_limit = 8;

/// The paper's engine: collapsed k-LUT view with output-sensitive
/// fanout-driven absorption (ce_simulator).
class collapsed_ce_engine final : public ce_engine
{
public:
  explicit collapsed_ce_engine(const ce_engine_config& config)
      : config_{config}
  {
  }

  ce_engine_kind kind() const noexcept override
  {
    return ce_engine_kind::collapsed;
  }

  void build(const net::aig_network& aig, std::span<const net::node> targets,
             std::span<const net::node> pinned,
             const sim::pattern_set& patterns) override
  {
    ce_build_options options;
    options.pinned = pinned;
    options.prune_targets = config_.prune_targets;
    options.initial_words = config_.initial_words;
    sim_.build(aig, targets, collapse_limit, patterns, options);
  }

  void add_ce(const sim::pattern_set& patterns,
              const std::vector<bool>& ce) override
  {
    sim_.add_ce(patterns, ce);
  }

  uint64_t node_word(const net::aig_network& aig, net::node n,
                     const sim::pattern_set& patterns,
                     std::size_t word) override
  {
    return sim_.node_word(aig, n, patterns, word);
  }

  void trim_absorbed(std::size_t first_live) override
  {
    sim_.trim_absorbed(first_live);
  }

  const sim::signature_store& store() const noexcept override
  {
    return sim_.store();
  }

  bool has_visit_counters() const noexcept override { return true; }
  uint64_t gates_visited() const noexcept override
  {
    return sim_.ce_gates_visited();
  }
  uint64_t gates_scan_baseline() const noexcept override
  {
    return sim_.ce_gates_scan_baseline();
  }
  uint64_t targets_pruned() const noexcept override
  {
    return sim_.targets_pruned();
  }

private:
  ce_engine_config config_;
  ce_simulator sim_;
};

/// Whole-AIG word resimulation: no build, no collapsed view — each CE
/// recomputes the open word for every node id from the pattern words
/// (dead gates included, so merged-away members keep function-true
/// words; see sim::resimulate_aig_all_last_word).  The store is fully
/// word-major and words older than the open one are born trimmed: a
/// full recompute never reads them.
class resim_ce_engine final : public ce_engine
{
public:
  ce_engine_kind kind() const noexcept override
  {
    return ce_engine_kind::resim;
  }

  void build(const net::aig_network& aig,
             std::span<const net::node> /*targets*/,
             std::span<const net::node> /*pinned*/,
             const sim::pattern_set& /*patterns*/) override
  {
    // The network reference must outlive the engine — the same contract
    // ce_simulator's snapshot relies on.  The fanin-literal plan is a
    // snapshot too: substitutions rewire fanins to function-identical
    // signals, so plan-driven words stay byte-identical.
    aig_ = &aig;
    rsig_.reset(aig.size(), 0u);
    plan_ = sim::make_resim_plan(aig);
  }

  void add_ce(const sim::pattern_set& patterns,
              const std::vector<bool>& /*ce*/) override
  {
    const std::size_t want = patterns.num_words();
    while (rsig_.num_words() + 1u < want) {
      rsig_.append_trimmed_word(); // never re-read: recompute is total
    }
    if (rsig_.num_words() < want) {
      rsig_.append_word();
    }
    sim::resimulate_aig_all_last_word(*aig_, patterns, rsig_, plan_);
  }

  uint64_t node_word(const net::aig_network& aig, net::node n,
                     const sim::pattern_set& patterns,
                     std::size_t word) override
  {
    if (aig.is_constant(n)) {
      return 0u;
    }
    if (aig.is_pi(n)) {
      return patterns.input_word(n - 1u, word);
    }
    return rsig_.word(n, word);
  }

  void trim_absorbed(std::size_t first_live) override
  {
    rsig_.trim_words(first_live);
  }

  const sim::signature_store& store() const noexcept override
  {
    return rsig_;
  }

private:
  const net::aig_network* aig_ = nullptr;
  sim::signature_store rsig_;
  sim::resim_plan plan_;
};

} // namespace

ce_engine_kind resolve_ce_engine(ce_engine_kind requested,
                                 uint64_t num_gates,
                                 uint32_t gate_threshold) noexcept
{
  if (requested != ce_engine_kind::automatic) {
    return requested;
  }
  return num_gates < gate_threshold ? ce_engine_kind::resim
                                    : ce_engine_kind::collapsed;
}

std::unique_ptr<ce_engine> make_ce_engine(ce_engine_kind resolved,
                                          const ce_engine_config& config)
{
  switch (resolved) {
    case ce_engine_kind::collapsed:
      return std::make_unique<collapsed_ce_engine>(config);
    case ce_engine_kind::resim:
      return std::make_unique<resim_ce_engine>();
    default:
      throw std::invalid_argument{
          "make_ce_engine: resolve the automatic kind first"};
  }
}

} // namespace stps::sweep
