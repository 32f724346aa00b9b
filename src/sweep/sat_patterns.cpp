#include "sweep/sat_patterns.hpp"

#include "sim/bitwise_sim.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <deque>
#include <stdexcept>
#include <unordered_map>

namespace stps::sweep {

namespace {

using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point start)
{
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

/// Number of ones in a signature, respecting the pattern tail.
/// Word-at-a-time access stays valid after witness words were appended
/// to the store (word-major tails).
uint64_t ones_count(const sim::signature_store& sig, net::node n)
{
  uint64_t count = 0;
  for (std::size_t w = 0; w < sig.num_words(); ++w) {
    count += std::popcount(sig.word(n, w));
  }
  return count;
}

/// Complement-normalized signature hash (FNV-1a over the words, each
/// flipped by the first pattern bit and masked to the valid tail):
/// a gate and its inversion land in one group, exactly like the
/// candidate equivalence classes they would later form.
uint64_t signature_group_key(const sim::signature_store& sig, net::node n,
                             uint64_t num_patterns)
{
  const std::size_t nw = sig.num_words();
  const uint64_t flip = (sig.word(n, 0u) & 1u) != 0u ? ~uint64_t{0} : 0u;
  uint64_t h = 1469598103934665603ull;
  for (std::size_t w = 0; w < nw; ++w) {
    uint64_t word = sig.word(n, w) ^ flip;
    if (w + 1u == nw) {
      word &= sim::tail_mask(num_patterns);
    }
    h ^= word;
    h *= 1099511628211ull;
  }
  return h;
}

/// True when a signature with \p ones ones out of \p total patterns
/// has at most \p threshold ones (or zeros) without being constant;
/// \p toward_ones names the minority value.
bool near_constant(uint64_t ones, uint64_t total, uint64_t threshold,
                   bool& toward_ones)
{
  const bool few_ones = ones != 0u && ones <= threshold;
  const bool few_zeros = ones != total && total - ones <= threshold;
  toward_ones = few_ones;
  return few_ones || few_zeros;
}

/// A round-1 UNSAT proof, tagged with the iteration that found it: the
/// merge orders the union by (iteration, node id).
struct proven_constant
{
  uint32_t iteration;
  net::node n;
  bool value;
};

/// One prospective equivalence class of round 2 (see `round2_grouped`).
struct round2_group
{
  uint64_t minority;  ///< entropy rank at collection time
  net::node first;    ///< lowest member (deterministic tie-break)
  std::vector<net::node> members;
};

/// The merged state a round starts from, shared read-only by its
/// slices: the merged patterns, the index of their open (newest) word,
/// and every node's ones over the words before it.  A slice copies only
/// the open word, so S slices cost S open words, not S signature stores.
struct round_base
{
  const sim::pattern_set& patterns;
  std::size_t open_word;
  std::vector<uint64_t> prefix_ones;

  round_base(const sim::pattern_set& merged, const sim::signature_store& sig)
      : patterns{merged},
        open_word{merged.num_words() == 0u ? 0u : merged.num_words() - 1u},
        prefix_ones(sig.size(), 0u)
  {
    for (std::size_t n = 0; n < sig.size(); ++n) {
      for (std::size_t w = 0; w < open_word; ++w) {
        prefix_ones[n] += std::popcount(sig.word(n, w));
      }
    }
  }
};

/// One slice of the guidance rounds: its manager, private patterns and
/// signatures from the open word on (they absorb only this slice's
/// witnesses), and its accounting.  Slices share nothing mutable, so
/// their trajectories do not depend on how the pool schedules them.
class guided_slice
{
public:
  guided_slice(const net::aig_network& aig,
               const guided_pattern_config& config, sat::cnf_manager& cnf)
      : aig_{aig}, config_{config}, cnf_{cnf}
  {
  }
  // The hint callback a round installs on the manager holds `this`.
  guided_slice(const guided_slice&) = delete;
  guided_slice& operator=(const guided_slice&) = delete;

  /// Starts a round from \p base: copies the merged open word's
  /// patterns and simulates them.
  void begin_round(const round_base& base)
  {
    base_ = &base;
    const sim::pattern_set& merged = base.patterns;
    patterns_ = sim::pattern_set{merged.num_inputs()};
    std::vector<bool> pattern(merged.num_inputs());
    for (uint64_t p = uint64_t{base.open_word} * 64u;
         p < merged.num_patterns(); ++p) {
      for (uint32_t i = 0; i < merged.num_inputs(); ++i) {
        pattern[i] = merged.bit(i, p);
      }
      patterns_.add_pattern(pattern);
    }
    const auto t_sim = clock_type::now();
    sig_ = sim::simulate_aig(aig_, patterns_);
    sim_seconds_ += seconds_since(t_sim);
  }

  /// Frees the round's state once its witnesses were merged.
  void end_round()
  {
    base_ = nullptr;
    patterns_ = {};
    sig_ = {};
    witnesses_.clear();
  }

  /// Round 1 over the gates with `n % count == index`: eliminate false
  /// constant candidates.  Incremental absorption makes one pass
  /// converge: a second iteration would find every signature already
  /// current (the loop remains for configs that cap witnesses below
  /// convergence).
  void round1(uint32_t index, uint32_t count)
  {
    const hint_scope hints{*this};
    std::vector<bool> proven(aig_.size(), false);
    for (uint32_t iter = 0; iter < config_.round1_iterations && !stopped();
         ++iter) {
      bool any_witness = false;
      aig_.foreach_gate([&](net::node n) {
        if (n % count != index || proven[n] || stopped()) {
          return;
        }
        const uint64_t ones = ones_count(n);
        if (ones != 0u && ones != num_patterns()) {
          return; // signature already toggles
        }
        const bool looks_constant = ones != 0u;
        ++sat_calls_;
        // One query settles it: SAT hands back a witness pattern breaking
        // the false candidacy, UNSAT proves the constant.
        const auto t_sat = clock_type::now();
        const sat::result r = cnf_.prove_constant(
            net::signal{n, false}, looks_constant, config_.conflict_budget);
        sat_seconds_ += seconds_since(t_sat);
        if (r == sat::result::sat) {
          ++satisfiable_calls_;
          absorb_witness(cnf_.model_inputs());
          any_witness = true;
        } else if (r == sat::result::unsat) {
          proven[n] = true;
          constants_.push_back({iter, n, looks_constant});
        }
      });
      if (!any_witness) {
        break;
      }
    }
  }

  /// Round 2, entropy-ranked group targeting: this slice takes the
  /// groups of rank `index`, `index + count`, … and spends at most
  /// \p quota queries on them.  Each group gets *one* query, aimed at
  /// its first member that is still near-constant when its turn comes —
  /// earlier witnesses may already have diversified it.
  void round2_grouped(std::span<const round2_group> groups, uint32_t index,
                      uint32_t count, std::size_t quota)
  {
    const hint_scope hints{*this};
    std::size_t queries = 0;
    for (std::size_t r = index; r < groups.size(); r += count) {
      if (queries >= quota || stopped()) {
        break;
      }
      for (const net::node n : groups[r].members) {
        bool toward_ones = false;
        if (near_constant(n, toward_ones)) {
          query_gate(n, toward_ones);
          ++queries;
          break;
        }
      }
    }
  }

  /// Round 2, ablation baseline: one query per still-near-constant gate
  /// with `n % count == index`, at most \p quota of them.
  void round2_per_gate(const std::vector<bool>& proven, uint32_t index,
                       uint32_t count, std::size_t quota)
  {
    const hint_scope hints{*this};
    std::size_t queries = 0;
    aig_.foreach_gate([&](net::node n) {
      bool toward_ones = false;
      if (n % count != index || proven[n] || queries >= quota || stopped() ||
          !near_constant(n, toward_ones)) {
        return;
      }
      query_gate(n, toward_ones);
      ++queries;
    });
  }

  /// Witnesses of the current round, in absorb order.
  const std::vector<std::vector<bool>>& witnesses() const noexcept
  {
    return witnesses_;
  }
  const std::vector<proven_constant>& constants() const noexcept
  {
    return constants_;
  }

  /// Adds this slice's query counts and busy times to \p result.
  void add_accounting(guided_pattern_result& result) const
  {
    result.sat_calls += sat_calls_;
    result.satisfiable_calls += satisfiable_calls_;
    result.sim_seconds += sim_seconds_;
    result.sat_seconds += sat_seconds_;
  }

private:
  /// Signature-phase seeding for the guided queries themselves while a
  /// round runs: every witness is absorbed with a full last-word
  /// resimulation, so the newest pattern's bit is current for *every*
  /// node — one consistent assignment to start each query from.
  /// Cleared when the round ends (the sweeper installs its own hints).
  class hint_scope
  {
  public:
    explicit hint_scope(guided_slice& slice)
        : cnf_{slice.config_.use_signature_phase ? &slice.cnf_ : nullptr}
    {
      if (cnf_ == nullptr) {
        return;
      }
      cnf_->set_phase_hints([&slice](net::node n) -> int {
        const sim::signature_store& sig = slice.sig_;
        if (n >= sig.size() || sig.num_words() == 0u) {
          return -1;
        }
        const uint64_t word = sig.word(n, sig.num_words() - 1u);
        const uint64_t bit = (slice.patterns_.num_patterns() - 1u) & 63u;
        return static_cast<int>((word >> bit) & 1u);
      });
    }
    ~hint_scope()
    {
      if (cnf_ != nullptr) {
        cnf_->set_phase_hints(nullptr);
      }
    }
    hint_scope(const hint_scope&) = delete;
    hint_scope& operator=(const hint_scope&) = delete;

  private:
    sat::cnf_manager* cnf_;
  };

  bool stopped() const
  {
    return config_.governor != nullptr && config_.governor->should_stop();
  }

  /// Patterns seen by this slice: the merged ones plus its witnesses.
  uint64_t num_patterns() const noexcept
  {
    return uint64_t{base_->open_word} * 64u + patterns_.num_patterns();
  }

  /// Ones in \p n's signature over every pattern this slice sees.
  uint64_t ones_count(net::node n) const
  {
    uint64_t count = base_->prefix_ones[n];
    for (std::size_t w = 0; w < sig_.num_words(); ++w) {
      count += std::popcount(sig_.word(n, w));
    }
    return count;
  }

  bool near_constant(net::node n, bool& toward_ones) const
  {
    return sweep::near_constant(ones_count(n), num_patterns(),
                                config_.round2_ones_threshold, toward_ones);
  }

  // Witnesses are re-simulated *incrementally* (one appended word) the
  // moment SAT hands them back, so every later candidate checks against
  // up-to-date signatures.  Near-constant gates are strongly correlated
  // — one witness typically toggles many of them at once — and with
  // stale signatures each used to cost its own satisfiable SAT query.
  void absorb_witness(std::vector<bool> witness)
  {
    const auto t_ce = clock_type::now();
    patterns_.add_pattern(witness);
    sim::resimulate_aig_last_word(aig_, patterns_, sig_);
    sim_seconds_ += seconds_since(t_ce);
    witnesses_.push_back(std::move(witness));
  }

  /// A guided query toward \p n's minority value.
  void query_gate(net::node n, bool toward_ones)
  {
    ++sat_calls_;
    const auto t_sat = clock_type::now();
    auto witness = cnf_.find_assignment(net::signal{n, false}, toward_ones,
                                        config_.conflict_budget);
    sat_seconds_ += seconds_since(t_sat);
    if (witness.has_value()) {
      ++satisfiable_calls_;
      absorb_witness(std::move(*witness));
    }
  }

  const net::aig_network& aig_;
  const guided_pattern_config& config_;
  sat::cnf_manager& cnf_;
  const round_base* base_ = nullptr;
  sim::pattern_set patterns_;  ///< from the merged open word on
  sim::signature_store sig_;   ///< signatures of `patterns_`
  std::vector<std::vector<bool>> witnesses_;
  std::vector<proven_constant> constants_;
  uint64_t sat_calls_ = 0;
  uint64_t satisfiable_calls_ = 0;
  double sim_seconds_ = 0.0;
  double sat_seconds_ = 0.0;
};

} // namespace

guided_pattern_result sat_guided_patterns(
    const net::aig_network& aig, std::span<sat::cnf_manager* const> managers,
    worker_pool& pool, const guided_pattern_config& config)
{
  if (managers.empty()) {
    throw std::invalid_argument{"sat_guided_patterns: no slice manager"};
  }
  guided_pattern_result result;
  result.patterns = sim::pattern_set::random(
      aig.num_pis(), config.base_patterns, config.seed);

  // Deadline/budget/cancellation poll — once tripped, every slice stops
  // issuing queries and the merged patterns collected so far are
  // returned.
  const auto stopped = [governor = config.governor]() {
    return governor != nullptr && governor->should_stop();
  };
  const auto simulate_merged = [&]() {
    const auto t_sim = clock_type::now();
    sim::signature_store sig = sim::simulate_aig(aig, result.patterns);
    result.sim_seconds += seconds_since(t_sim);
    return sig;
  };

  const auto count = static_cast<uint32_t>(managers.size());
  std::deque<guided_slice> slices;
  for (sat::cnf_manager* cnf : managers) {
    slices.emplace_back(aig, config, *cnf);
  }

  // Runs one round on every slice from the merged state, then appends
  // the slices' witnesses to the merged patterns in slice order.
  const auto run_round = [&](const round_base& base, const auto& round) {
    pool.run(count, [&](std::size_t s) {
      slices[s].begin_round(base);
      round(slices[s], static_cast<uint32_t>(s));
    });
    for (guided_slice& slice : slices) {
      for (const std::vector<bool>& witness : slice.witnesses()) {
        result.patterns.add_pattern(witness);
      }
      result.patterns_added += slice.witnesses().size();
      slice.end_round();
    }
  };

  // ---- Round 1: eliminate false constant candidates. -------------------
  std::vector<bool> proven(aig.size(), false);
  if (!stopped()) {
    const round_base base{result.patterns, simulate_merged()};
    run_round(base, [count](guided_slice& slice, uint32_t s) {
      slice.round1(s, count);
    });
    std::vector<proven_constant> constants;
    for (const guided_slice& slice : slices) {
      constants.insert(constants.end(), slice.constants().begin(),
                       slice.constants().end());
    }
    std::sort(constants.begin(), constants.end(),
              [](const proven_constant& a, const proven_constant& b) {
                return a.iteration != b.iteration ? a.iteration < b.iteration
                                                  : a.n < b.n;
              });
    for (const proven_constant& c : constants) {
      proven[c.n] = true;
      result.proven_constants.emplace_back(c.n, c.value);
    }
  }

  // ---- Round 2: break up near-constant signatures. ----------------------
  // A candidate still near-constant *right now* (signatures evolve as
  // witnesses absorb) gets a guided query toward its minority value.
  // The query cap is split into per-slice quotas that sum to it exactly.
  if (!stopped()) {
    const std::size_t cap = config.max_round2_queries;
    const auto quota = [cap, count](uint32_t s) {
      return cap / count + (s < cap % count ? 1u : 0u);
    };
    sim::signature_store sig = simulate_merged();
    const uint64_t total = result.patterns.num_patterns();
    const round_base base{result.patterns, sig};
    // Entropy-ranked group targeting: gates with identical (up to
    // complement) signatures are one prospective equivalence class — any
    // single witness that toggles one member toggles them all, so the
    // group earns *one* query.  Groups are ranked once, from the merged
    // signatures, by minority count (lowest entropy first): the most
    // constant-looking signatures are both the likeliest false
    // candidates and the cheapest queries.  On deep random logic
    // near-constant gates are strongly correlated, so a per-gate loop
    // burns one satisfiable call per member of a group any single
    // witness would have diversified whole.
    std::vector<round2_group> groups;
    if (config.round2_group_by_signature) {
      std::unordered_map<uint64_t, std::size_t> group_of_key;
      aig.foreach_gate([&](net::node n) {
        bool toward_ones = false;
        const uint64_t ones = ones_count(sig, n);
        if (proven[n] || !near_constant(ones, total,
                                        config.round2_ones_threshold,
                                        toward_ones)) {
          return;
        }
        const uint64_t minority = std::min(ones, total - ones);
        const uint64_t key = signature_group_key(sig, n, total);
        const auto [it, inserted] = group_of_key.emplace(key, groups.size());
        if (inserted) {
          groups.push_back({minority, n, {n}});
        } else {
          groups[it->second].members.push_back(n);
        }
      });
      std::sort(groups.begin(), groups.end(),
                [](const round2_group& a, const round2_group& b) {
                  return a.minority != b.minority ? a.minority < b.minority
                                                  : a.first < b.first;
                });
    }
    sig = {}; // the slices read `base` only
    run_round(base, [&](guided_slice& slice, uint32_t s) {
      if (config.round2_group_by_signature) {
        slice.round2_grouped(groups, s, count, quota(s));
      } else {
        slice.round2_per_gate(proven, s, count, quota(s));
      }
    });
  }

  for (const guided_slice& slice : slices) {
    slice.add_accounting(result);
  }
  return result;
}

guided_pattern_result sat_guided_patterns(const net::aig_network& aig,
                                          sat::cnf_manager& cnf,
                                          const guided_pattern_config& config)
{
  worker_pool inline_pool{0u};
  sat::cnf_manager* const managers[] = {&cnf};
  return sat_guided_patterns(aig, managers, inline_pool, config);
}

} // namespace stps::sweep
