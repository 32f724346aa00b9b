#include "sweep/stp_sweeper.hpp"

#include "core/stp_simulator.hpp"
#include "network/traversal.hpp"
#include "sat/cnf_manager.hpp"
#include "sweep/ce_engine.hpp"
#include "sweep/equiv_classes.hpp"
#include "sweep/tfi_manager.hpp"
#include "sweep/worker_pool.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>

namespace stps::sweep {

namespace {

using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point start)
{
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

/// Initial pattern count for a circuit of \p num_gates gates: 250
/// patterns per 1000 gates, at least 128, rounded up to a whole
/// 64-pattern word and capped at \p cap (`guided.base_patterns`) —
/// tiny instances stop over-investing in simulation.
uint64_t scaled_pattern_budget(uint64_t num_gates, uint64_t cap)
{
  const uint64_t want = std::max<uint64_t>(num_gates * 250u / 1000u, 128u);
  return std::min((want + 63u) / 64u * 64u, cap);
}

/// Round-2 guided-query budget (each query adds one pattern): 16 per
/// 1000 gates, at least 32, capped at \p cap
/// (`guided.max_round2_queries`).  Small circuits have few false
/// candidates to break up, and at the seed's flat 512-query budget the
/// guided SAT time exceeded what the extra patterns saved.
std::size_t scaled_round2_queries(uint64_t num_gates, std::size_t cap)
{
  return std::min<std::size_t>(
      std::max<uint64_t>(num_gates * 16u / 1000u, 32u), cap);
}

/// First word a refinement may still read once the classes absorbed
/// every word of \p patterns: the open (partially filled) word, or none
/// on an exact 64-pattern boundary.
std::size_t first_unabsorbed_word(const sim::pattern_set& patterns)
{
  return patterns.num_patterns() % 64u == 0u ? patterns.num_words()
                                             : patterns.num_words() - 1u;
}

/// One shard takes the prologue's state outright; several each copy it.
template <typename T>
T take_or_copy(T& value, bool take)
{
  if (take) {
    return std::move(value);
  }
  return value;
}

/// Exact window resolution by one word-parallel exhaustive simulation
/// over the *union* cone of a class (§IV-A, "< 16 leaves").
///
/// The previous implementation composed a full truth table per member
/// (`cut::cut_function`), re-walking the shared cone once per member and
/// allocating up-to-2^15-bit tables along the way.  Simulating the union
/// cone once — 64 exhaustive patterns per word, every member read off
/// the same pass — pays the cone cost a single time and allocates
/// nothing beyond reusable scratch.  Two members get equal keys iff
/// their phase-normalized exhaustive signatures (= truth tables over the
/// window leaves, leaf i = variable i) are identical, exactly as before.
class window_resolver
{
public:
  void attach(const net::aig_network& aig)
  {
    mark_.assign(aig.size(), 0u);
    index_.assign(aig.size(), 0u);
    epoch_ = 0;
  }

  /// Fills \p keys with group ids: keys[i] == keys[j] iff members i and
  /// j implement the same function over \p leaves up to their phases.
  void group_keys(const net::aig_network& aig, const equiv_classes& classes,
                  std::span<const net::node> members,
                  std::span<const net::node> leaves,
                  std::vector<uint64_t>& keys)
  {
    if (++epoch_ == 0u) {
      std::fill(mark_.begin(), mark_.end(), 0u);
      epoch_ = 1u;
    }
    const uint32_t k = static_cast<uint32_t>(leaves.size());
    for (uint32_t i = 0; i < k; ++i) {
      mark_[leaves[i]] = epoch_;
      index_[leaves[i]] = i;
    }

    // Union cone: every gate between the members and the leaves, each
    // visited once no matter how many members share it.
    cone_.clear();
    stack_.clear();
    const auto discover = [&](net::node n) {
      if (!aig.is_constant(n) && mark_[n] != epoch_) {
        mark_[n] = epoch_;
        cone_.push_back(n);
        stack_.push_back(n);
      }
    };
    for (const net::node m : members) {
      discover(m);
    }
    while (!stack_.empty()) {
      const net::node n = stack_.back();
      stack_.pop_back();
      discover(aig.fanin0(n).get_node());
      discover(aig.fanin1(n).get_node());
    }
    // Ids are topological; remove the leaves we re-discovered (they were
    // marked before the DFS, so only gates landed in cone_).
    std::sort(cone_.begin(), cone_.end());
    for (std::size_t i = 0; i < cone_.size(); ++i) {
      index_[cone_[i]] = static_cast<uint32_t>(i) + k;
    }

    const std::size_t nw = k > 6u ? std::size_t{1} << (k - 6u) : 1u;
    const uint64_t valid =
        k < 6u ? (uint64_t{1} << (uint64_t{1} << k)) - 1u : ~uint64_t{0};
    cur_.resize(k + cone_.size());
    sigs_.resize(members.size() * nw);

    for (std::size_t w = 0; w < nw; ++w) {
      for (uint32_t i = 0; i < k; ++i) {
        cur_[i] = leaf_word(i, w);
      }
      const auto value = [&](net::signal s) {
        const net::node x = s.get_node();
        const uint64_t v = aig.is_constant(x) ? 0u : cur_[index_[x]];
        return s.is_complemented() ? ~v : v;
      };
      for (std::size_t i = 0; i < cone_.size(); ++i) {
        const net::node n = cone_[i];
        cur_[k + i] = value(aig.fanin0(n)) & value(aig.fanin1(n));
      }
      for (std::size_t mi = 0; mi < members.size(); ++mi) {
        const net::node m = members[mi];
        uint64_t v = aig.is_constant(m) ? 0u : cur_[index_[m]];
        v ^= classes.phase(m) ? ~uint64_t{0} : 0u;
        sigs_[mi * nw + w] = v & valid;
      }
    }

    // Exact grouping: hash, then verify against the group representative.
    keys.assign(members.size(), 0u);
    group_hash_.clear();
    group_rep_.clear();
    for (std::size_t mi = 0; mi < members.size(); ++mi) {
      const uint64_t* row = sigs_.data() + mi * nw;
      uint64_t h = 1469598103934665603ull;
      for (std::size_t w = 0; w < nw; ++w) {
        h ^= row[w];
        h *= 1099511628211ull;
      }
      uint64_t group = group_hash_.size();
      for (std::size_t g = 0; g < group_hash_.size(); ++g) {
        if (group_hash_[g] == h &&
            std::equal(row, row + nw, sigs_.data() + group_rep_[g] * nw)) {
          group = g;
          break;
        }
      }
      if (group == group_hash_.size()) {
        group_hash_.push_back(h);
        group_rep_.push_back(mi);
      }
      keys[mi] = group;
    }
  }

private:
  static uint64_t leaf_word(uint32_t var, std::size_t w)
  {
    static constexpr uint64_t masks[6] = {
        0xaaaaaaaaaaaaaaaaull, 0xccccccccccccccccull, 0xf0f0f0f0f0f0f0f0ull,
        0xff00ff00ff00ff00ull, 0xffff0000ffff0000ull, 0xffffffff00000000ull};
    if (var < 6u) {
      return masks[var];
    }
    return (w >> (var - 6u)) & 1u ? ~uint64_t{0} : 0u;
  }

  std::vector<uint32_t> mark_;  ///< epoch stamps (leaf or cone membership)
  std::vector<uint32_t> index_; ///< leaf position / cone slot per node
  uint32_t epoch_ = 0;
  std::vector<net::node> cone_;
  std::vector<net::node> stack_;
  std::vector<uint64_t> cur_;  ///< current word: leaves then cone gates
  std::vector<uint64_t> sigs_; ///< member signatures, member-major
  std::vector<uint64_t> group_hash_;
  std::vector<std::size_t> group_rep_;
};

/// A merge a shard proved but did not apply: \p n is equivalent to
/// \p target over the frozen input AIG.  The commit pass applies the
/// records in ascending node-id order on the calling thread.
struct merge_record
{
  net::node n;
  net::signal target;
};

/// How one candidate's processing ended (escalating unDET retry +
/// governed wind-down; see stp_sweeper.hpp point 6).
enum class cand_status : uint8_t
{
  settled,  ///< merged, refined away, kept as representative, ...
  gave_up,  ///< unknown with no rounds left: final dont_touch
  deferred, ///< unknown: stays in its class, queued for a retry round
  stopped,  ///< governor tripped mid-processing: wind the sweep down
};

/// One shard's SAT phase: the class machinery, CE engine, window
/// resolution, and the candidate/retry loops of Alg. 2, operating on
/// *owned* pattern/signature/class state over the frozen input AIG.
/// Proven merges append a `merge_record` for the commit pass instead of
/// touching the network, so a shard's trajectory is a pure function of
/// its inputs — independent of how shards are scheduled onto threads.
class sweep_core
{
public:
  sweep_core(const net::aig_network& aig, const stp_sweep_params& params,
             sat::cnf_manager& cnf, sweep_stats& stats,
             uint32_t gates_global, sim::pattern_set patterns,
             sim::signature_store sig, equiv_classes classes,
             std::vector<merge_record>& records)
      : aig_{aig}, params_{params}, cnf_{cnf}, stats_{stats},
        gates_global_{gates_global}, patterns_{std::move(patterns)},
        sig_{std::move(sig)}, classes_{std::move(classes)},
        records_{records}, tfi_{aig, params.tfi_limit}
  {
    // ---- Counter-example propagation engine (§III-B, §IV-A). ---------
    // Dispatch by *global* instance size (ce_engine.hpp): every shard
    // must pick the same engine for the shard count to be the only
    // trajectory parameter.  Targets are every class member whose word
    // refinement will read; pinned nodes are the class representatives
    // the collapsed engine keeps observable even under target pruning.
    engine_kind_ = resolve_ce_engine(params_.ce_engine, gates_global_,
                                     params_.ce_engine_gate_threshold);
    ran_collapsed_ = engine_kind_ == ce_engine_kind::collapsed;
    cesim_ = make_ce_engine(
        engine_kind_, {params_.ce_prune_targets, params_.ce_initial_words});
    {
      const auto t_sim = clock_type::now();
      std::vector<net::node> target_gates;
      std::vector<net::node> pinned;
      for (uint32_t c = 0; c < classes_.num_class_ids(); ++c) {
        bool have_rep = false;
        for (const net::node m : classes_.members(c)) {
          if (aig_.is_and(m)) {
            target_gates.push_back(m);
            if (!have_rep) {
              pinned.push_back(m); // class representative
              have_rep = true;
            }
          }
        }
      }
      cesim_->build(aig_, target_gates, pinned, patterns_);
      stats_.sim_seconds += seconds_since(t_sim);
    }

    applied_global_ = patterns_.num_patterns();
    window_support_ = params_.effective_window_support(gates_global_);
    resolver_.attach(aig_);
    trim_absorbed_words(); // base words are absorbed by the initial build
  }

  /// The candidate loop (reverse topological order, lines 4-32) plus
  /// the escalating unDET retry rounds.
  void run(std::span<const net::node> order)
  {
    // Deferral is live only when a finite per-query budget can actually
    // produce unknowns — with the unlimited default the queue stays
    // empty and the loop below is byte-identical to single-shot marking.
    const bool retries_on =
        params_.conflict_budget >= 0 && params_.undet_retry_rounds > 0u;
    std::vector<net::node> deferred;

    for (const net::node n : order) {
      if (stopped()) {
        aborted_ = true;
        break;
      }
      const cand_status status =
          process_candidate(n, params_.conflict_budget, retries_on);
      if (status == cand_status::deferred) {
        deferred.push_back(n);
      } else if (status == cand_status::stopped) {
        aborted_ = true;
        break;
      }
    }

    // ---- Escalating unDET retry rounds (stp_sweeper.hpp point 6). ----
    // Each round re-queries the still-deferred candidates with the
    // budget multiplied by `undet_budget_factor`; the last round may no
    // longer defer, so every survivor settles or ends as a final
    // dont_touch.
    const int64_t factor =
        std::max<int64_t>(int64_t{params_.undet_budget_factor}, 1);
    int64_t retry_budget = params_.conflict_budget;
    std::vector<net::node> still_deferred;
    for (uint32_t round = 1; round <= params_.undet_retry_rounds &&
                             !deferred.empty() && !aborted_;
         ++round) {
      retry_budget =
          retry_budget > std::numeric_limits<int64_t>::max() / factor
              ? std::numeric_limits<int64_t>::max()
              : retry_budget * factor;
      const bool more_rounds = round < params_.undet_retry_rounds;
      still_deferred.clear();
      for (const net::node n : deferred) {
        if (stopped()) {
          aborted_ = true;
          break;
        }
        if (classes_.class_of(n) == equiv_classes::no_class) {
          // Refinement settled it while it sat in the queue.
          ++stats_.undet_resolved;
          continue;
        }
        ++stats_.undet_retries;
        switch (process_candidate(n, retry_budget, more_rounds)) {
          case cand_status::settled:
            ++stats_.undet_resolved;
            break;
          case cand_status::deferred:
            still_deferred.push_back(n);
            break;
          case cand_status::stopped:
            aborted_ = true;
            break;
          case cand_status::gave_up:
            break;
        }
        if (aborted_) {
          break;
        }
      }
      std::swap(deferred, still_deferred);
    }
    // Candidates still deferred after an abort are left unresolved —
    // the sweep never got to decide them, which is not the same as
    // unDET.
  }

  bool aborted() const noexcept { return aborted_; }

  /// Writes the pass's outcome/engine/CNF/store counters into the stats
  /// this core was constructed over (assignment semantics — `stp_sweep`
  /// sums the per-shard stats afterwards).
  void finalize_stats()
  {
    if (aborted_ && params_.governor != nullptr) {
      stats_.outcome = params_.governor->outcome();
    }
    stats_.has_ce_engine = true;
    stats_.ce_engine_used = engine_kind_;
    stats_.ce_engine_escalated = escalated_;
    if (ran_collapsed_) {
      // The collapsed engine's output-sensitivity counters, captured at
      // the escalation point when the sweep switched engines.
      stats_.has_ce_counters = true;
      stats_.ce_gates_visited =
          escalated_ ? esc_visited_ : cesim_->gates_visited();
      stats_.ce_gates_scan_baseline =
          escalated_ ? esc_baseline_ : cesim_->gates_scan_baseline();
      stats_.ce_targets_pruned =
          escalated_ ? esc_pruned_ : cesim_->targets_pruned();
    }
    add_cnf_counters(cnf_, stats_);
    stats_.has_store_counters = true;
    stats_.store_words_live =
        sig_.live_words() + cesim_->store().live_words();
    stats_.store_words_trimmed = sig_.words_trimmed() +
                                 cesim_->store().words_trimmed() +
                                 esc_store_trimmed_;
    stats_.store_peak_bytes =
        sig_.peak_bytes() + cesim_->store().peak_bytes() + esc_store_peak_;
    stats_.pattern_words_live = patterns_.live_words();
    stats_.pattern_words_recycled = patterns_.words_recycled();
  }

private:
  bool stopped() const
  {
    return params_.governor != nullptr && params_.governor->should_stop();
  }

  /// Books a proven merge of \p n onto \p driver (shared counter
  /// bookkeeping of the window and UNSAT paths) and records it for the
  /// deterministic commit pass.
  void merge_candidate(net::node n, net::node driver, bool complement,
                       bool window)
  {
    classes_.remove_member(n);
    if (window) {
      ++stats_.window_merges;
    }
    ++stats_.merges;
    if (aig_.is_constant(driver)) {
      ++stats_.constant_merges;
    }
    records_.push_back({n, net::signal{driver, complement}});
  }

  // ---- Signature-store and pattern word budget. ----------------------
  // Once the classes have been refined with a word, the partition has
  // absorbed everything it says and no code path reads it again — only
  // the *open* (partially filled) word is ever re-read or written.
  // Trimming frees absorbed words' storage (and recycles the pattern
  // set's CE word blocks through its ring); with the initial build just
  // done, that is every base word the moment enough of them accumulate.
  void trim_absorbed_words()
  {
    if (params_.store_word_budget == 0u || params_.fault_fail_store_trim) {
      return; // budget off, or injected trim failure: keep every word
    }
    // The open word must stay live; on an exact 64-pattern boundary the
    // last word is filled *and* refined with (the caller just flushed),
    // so everything can go.
    const std::size_t first_live = first_unabsorbed_word(patterns_);
    if (sig_.live_words() <= params_.store_word_budget &&
        cesim_->store().live_words() <= params_.store_word_budget &&
        patterns_.live_words() <= params_.store_word_budget) {
      return;
    }
    sig_.trim_words(first_live);
    cesim_->trim_absorbed(first_live);
    patterns_.trim_words(first_live);
  }

  // ---- Mid-sweep engine escalation (`auto` only). --------------------
  // The size dispatch cannot see per-CE disturbance: on deep random
  // logic every counter-example can flip a large fraction of the needed
  // gates, and the collapsed worklist (random-access LUT bit lookups)
  // then loses to one branch-free whole-AIG word pass.  Once the
  // measured average visited-gates-per-CE crosses the threshold, swap
  // engines.  The resim engine recomputes the open word entirely from
  // the pattern set, so the swap carries no state and cannot change
  // results — the differential harness pins a forced-escalation run
  // against the pure engines.
  void maybe_escalate()
  {
    if (params_.ce_engine != ce_engine_kind::automatic ||
        params_.ce_escalate_per_mille == 0u || escalated_ ||
        engine_kind_ != ce_engine_kind::collapsed || ces_absorbed_ < 64u) {
      return;
    }
    const uint64_t budget = uint64_t{gates_global_} *
                            params_.ce_escalate_per_mille / 1000u *
                            ces_absorbed_;
    if (cesim_->gates_visited() <= budget) {
      return;
    }
    escalated_ = true;
    esc_visited_ = cesim_->gates_visited();
    esc_baseline_ = cesim_->gates_scan_baseline();
    esc_pruned_ = cesim_->targets_pruned();
    esc_store_trimmed_ = cesim_->store().words_trimmed();
    esc_store_peak_ = cesim_->store().peak_bytes();
    engine_kind_ = ce_engine_kind::resim;
    cesim_ = make_ce_engine(engine_kind_, {params_.ce_prune_targets,
                                           params_.ce_initial_words});
    cesim_->build(aig_, {}, {}, patterns_);
  }

  // ---- Batched counter-example bookkeeping. --------------------------
  // CEs land in the open tail word immediately (cesim keeps every bit
  // current), but *refinement* is deferred per class: a class is
  // refined only when (b) it is the current candidate's class and needs
  // the fresh bits to make progress, (c) the loop advances to it, or
  // (a) the word fills with 64 CEs and everything is brought up to date
  // at once.
  void mark_applied(uint32_t c, uint64_t count)
  {
    if (c >= class_applied_.size()) {
      class_applied_.resize(c + 1u, 0u);
    }
    class_applied_[c] = count;
  }

  bool class_stale(uint32_t c) const
  {
    const uint64_t applied =
        std::max(applied_global_,
                 c < class_applied_.size() ? class_applied_[c] : 0u);
    return applied < patterns_.num_patterns();
  }

  // Copies the open tail word from the CE simulator into the candidate
  // signature store for the given members.
  void sync_member_rows(const std::vector<net::node>& members)
  {
    while (sig_.num_words() < patterns_.num_words()) {
      sig_.append_word();
    }
    const std::size_t last = patterns_.num_words() - 1u;
    for (const net::node m : members) {
      sig_.word(m, last) = cesim_->node_word(aig_, m, patterns_, last);
    }
  }

  void refine_one_class(uint32_t c)
  {
    sync_member_rows(classes_.members(c));
    created_ids_scratch_.clear();
    classes_.refine_class_with_word(
        c, sig_, patterns_.num_words() - 1u,
        sim::tail_mask(patterns_.num_patterns()), &created_ids_scratch_);
    const uint64_t count = patterns_.num_patterns();
    mark_applied(c, count);
    for (const uint32_t f : created_ids_scratch_) {
      mark_applied(f, count);
    }
  }

  // Condition (a): bring every class up to date with the filled word.
  void refine_all_classes()
  {
    if (applied_global_ == patterns_.num_patterns()) {
      return;
    }
    const std::size_t last = patterns_.num_words() - 1u;
    for (uint32_t c = 0; c < classes_.num_class_ids(); ++c) {
      sync_member_rows(classes_.members(c));
    }
    classes_.refine_with_word(sig_, last,
                              sim::tail_mask(patterns_.num_patterns()));
    applied_global_ = patterns_.num_patterns();
  }

  // ---- Window resolution: class id → (size when checked, exact). -----
  // Scaled windowing: the support limit grows with instance size — on
  // paper-scale instances every satisfiable call a larger exhaustive
  // window avoids is worth far more than the window pass costs.
  bool maybe_resolve(uint32_t c)
  {
    if (!params_.use_window_resolution || c == equiv_classes::no_class) {
      return false;
    }
    const auto& members = classes_.members(c);
    if (const auto it = resolve_cache_.find(c);
        it != resolve_cache_.end() && it->second.first == members.size()) {
      return it->second.second;
    }
    if (!net::bounded_support(aig_, members, window_support_,
                              support_scratch_)) {
      resolve_cache_[c] = {members.size(), false};
      return false;
    }
    // Exhaustive simulation over the window: exact functions of all
    // members over the common support decide the class once and for
    // all.  One word-parallel pass over the members' union cone serves
    // every member (window_resolver above).
    const auto t_win = clock_type::now();
    resolve_members_scratch_.assign(members.begin(), members.end());
    resolver_.group_keys(aig_, classes_, resolve_members_scratch_,
                         support_scratch_, resolve_keys_scratch_);
    classes_.split_by_keys(c, resolve_keys_scratch_);
    // Every surviving sub-class is exact now — and, having just been
    // derived from the freshly refined parent, already up to date.
    const uint64_t applied_count = patterns_.num_patterns();
    for (const net::node m : resolve_members_scratch_) {
      const uint32_t cid = classes_.class_of(m);
      if (cid != equiv_classes::no_class) {
        resolve_cache_[cid] = {classes_.members(cid).size(), true};
        mark_applied(cid, applied_count);
      }
    }
    stats_.sim_seconds += seconds_since(t_win);
    const uint32_t cid_first =
        classes_.class_of(resolve_members_scratch_.front());
    return cid_first != equiv_classes::no_class;
  }

  // One candidate against its class, exactly Alg. 2 lines 5-31 —
  // except that an `unknown` verdict defers instead of marking
  // dont_touch while \p allow_defer holds.  A deferred candidate keeps
  // its class membership: it stays available as a merge *target* for
  // later candidates (merging into an unproven node is sound — only
  // the pairwise proof matters), and a retry round re-enters here with
  // a doubled \p budget.
  cand_status process_candidate(const net::node n, int64_t budget,
                                bool allow_defer)
  {
    for (;;) {
      uint32_t c = classes_.class_of(n);
      if (c == equiv_classes::no_class) {
        return cand_status::settled;
      }
      // Conditions (b)/(c): the candidate's class must see every
      // buffered counter-example bit before its membership is trusted.
      if (class_stale(c)) {
        const auto t_sim = clock_type::now();
        refine_one_class(c);
        stats_.sim_seconds += seconds_since(t_sim);
        c = classes_.class_of(n);
        if (c == equiv_classes::no_class) {
          return cand_status::settled;
        }
      }
      maybe_resolve(c);
      c = classes_.class_of(n);
      if (c == equiv_classes::no_class) {
        return cand_status::settled;
      }
      const auto it = resolve_cache_.find(c);
      const bool resolved = it != resolve_cache_.end() &&
                            it->second.first == classes_.members(c).size() &&
                            it->second.second;

      const std::vector<net::node> drivers =
          tfi_.order_drivers(n, classes_.members(c));
      if (drivers.empty()) {
        // n is the representative; later candidates may use it
        return cand_status::settled;
      }
      const net::node driver = drivers.front();
      const bool complement = classes_.complemented(n, driver);

      if (resolved) {
        // Equivalence was proven by exhaustive window simulation; merge
        // without consulting SAT at all.
        merge_candidate(n, driver, complement, /*window=*/true);
        return cand_status::settled;
      }

      const auto t_sat = clock_type::now();
      ++stats_.sat_calls_total;
      const sat::result r = cnf_.prove_equivalent(
          net::signal{n, false}, net::signal{driver, false}, complement,
          budget);
      stats_.sat_seconds += seconds_since(t_sat);

      if (r == sat::result::unsat) {
        merge_candidate(n, driver, complement, /*window=*/false);
        return cand_status::settled;
      }
      if (r == sat::result::unknown) {
        if (stopped()) {
          // Governed wind-down, not a hard query: the candidate is
          // neither proven nor abandoned — leave it untouched.
          return cand_status::stopped;
        }
        if (allow_defer) {
          return cand_status::deferred;
        }
        ++stats_.dont_touch; // mark_dont_touch, lines 19-21
        classes_.remove_member(n);
        return cand_status::gave_up;
      }

      // Counter-example (lines 26-28, batched): the bit lands in the
      // open tail word now; refinement is deferred to conditions
      // (a)/(b)/(c) above.
      ++stats_.sat_calls_satisfiable;
      ++stats_.ce_patterns;
      const auto t_sim = clock_type::now();
      const std::vector<bool> ce = cnf_.model_inputs();
      if (patterns_.num_patterns() % 64u == 0u) {
        refine_all_classes();  // condition (a): word full, flush
        trim_absorbed_words(); // every word is absorbed now
      }
      maybe_escalate(); // before the absorb: the old engine is synced
      patterns_.add_pattern(ce);
      cesim_->add_ce(patterns_, ce);
      ++ces_absorbed_;
      if (!params_.use_batched_ce_refinement) {
        // Ablation: eager per-CE refinement (the seed's behavior),
        // through the same sync + dense-refinement path as the
        // batched flush so the two modes cannot drift.
        refine_all_classes();
      }
      stats_.sim_seconds += seconds_since(t_sim);
    }
  }

  const net::aig_network& aig_;
  const stp_sweep_params& params_;
  sat::cnf_manager& cnf_;
  sweep_stats& stats_;
  const uint32_t gates_global_; ///< gate count the size policies key on
  sim::pattern_set patterns_;
  sim::signature_store sig_;
  equiv_classes classes_;
  std::vector<merge_record>& records_;

  ce_engine_kind engine_kind_ = ce_engine_kind::collapsed;
  std::unique_ptr<ce_engine> cesim_;
  uint64_t ces_absorbed_ = 0;
  bool escalated_ = false;
  uint64_t esc_visited_ = 0, esc_baseline_ = 0, esc_pruned_ = 0;
  uint64_t esc_store_trimmed_ = 0, esc_store_peak_ = 0;
  bool ran_collapsed_ = false;

  uint64_t applied_global_ = 0;
  std::vector<uint64_t> class_applied_; // per class id, lazily grown
  std::vector<uint32_t> created_ids_scratch_;

  uint32_t window_support_ = 0;
  std::unordered_map<uint32_t, std::pair<std::size_t, bool>> resolve_cache_;
  window_resolver resolver_;
  std::vector<net::node> support_scratch_;
  std::vector<net::node> resolve_members_scratch_;
  std::vector<uint64_t> resolve_keys_scratch_;

  tfi_manager tfi_;
  bool aborted_ = false;
};

} // namespace

sweep_stats stp_sweep(net::aig_network& aig, const stp_sweep_params& params)
{
  sweep_stats stats;
  const auto t_total = clock_type::now();
  stats.gates_before = aig.num_gates();
  stats.levels_before = net::depth(aig);
  stats.threads = std::max(params.threads, 1u);

  sat::cnf_manager::params cnf_params;
  cnf_params.incremental = params.use_incremental_cnf;
  cnf_params.clause_budget = params.sat_clause_budget;
  cnf_params.cone_scoped_decisions = params.use_cone_scoped_decisions;
  cnf_params.hooks = params.governor;
  cnf_params.faults = params.faults;

  // One pool serves both parallel phases: the guided-pattern slices and
  // the SAT shards.  A lone worker is the calling thread (a 0-thread
  // pool runs inline).
  const uint32_t shards = params.effective_sat_shards();
  const bool one_shard = shards == 1u;
  const uint32_t workers_used =
      std::min(std::max(params.threads, 1u), shards);
  worker_pool pool{workers_used > 1u ? workers_used : 0u};

  // ---- Initial patterns (Alg. 2 line 2) + constant propagation (line 3).
  // The per-round simulation budget scales with the gate count (capped at
  // guided.base_patterns), so tiny instances stop over-investing in
  // simulation.  The guidance runs as one slice per shard, each on its
  // own manager (sat_patterns.hpp).  One shard keeps its slice's manager
  // for the SAT phase — one solver from the first guided query to the
  // last equivalence query.  Several shards book their slices' SAT
  // effort and drop the managers before the shards build fresh ones.
  const auto t_prologue = clock_type::now();
  std::vector<std::unique_ptr<sat::cnf_manager>> slice_cnfs;
  std::vector<sat::cnf_manager*> slice_ptrs;
  for (uint32_t s = 0; s < shards; ++s) {
    slice_cnfs.push_back(std::make_unique<sat::cnf_manager>(aig, cnf_params));
    slice_ptrs.push_back(slice_cnfs.back().get());
  }
  guided_pattern_config guided_config = params.guided;
  guided_config.base_patterns =
      scaled_pattern_budget(aig.num_gates(), params.guided.base_patterns);
  guided_config.max_round2_queries = scaled_round2_queries(
      aig.num_gates(), params.guided.max_round2_queries);
  guided_config.use_signature_phase = params.use_signature_phase;
  guided_config.governor = params.governor;
  sim::pattern_set patterns;
  if (params.use_guided_patterns) {
    guided_pattern_result guided =
        sat_guided_patterns(aig, slice_ptrs, pool, guided_config);
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
    patterns = sim::pattern_set::random(
        aig.num_pis(), guided_config.base_patterns, guided_config.seed);
  }
  // The one shard sweeps on with its slice's manager, whose totals then
  // include the prologue's; otherwise the slices' effort is booked here.
  const bool stopped_in_prologue =
      params.governor != nullptr && params.governor->should_stop();
  if (!one_shard || stopped_in_prologue) {
    for (const auto& slice_cnf : slice_cnfs) {
      add_cnf_counters(*slice_cnf, stats);
    }
    slice_cnfs.clear();
  }
  stats.prologue_seconds = seconds_since(t_prologue);

  if (stopped_in_prologue) {
    // Aborted during pattern generation: the constants applied above
    // are each a completed UNSAT proof, so the network is already a
    // sound partial result — finalize without building the class
    // machinery (engine/store counters stay unreported, and no shard
    // spent SAT time).
    aig.cleanup_dangling();
    stats.gates_after = aig.num_gates();
    stats.outcome = params.governor->outcome();
    stats.worker_sat_seconds = {0.0};
    stats.total_seconds = seconds_since(t_total);
    return stats;
  }

  // ---- Initial STP simulation and equivalence classes (line 3). --------
  auto t_sim = clock_type::now();
  const core::stp_simulator stp_sim;
  sim::signature_store sig = stp_sim.simulate_aig(aig, patterns);
  equiv_classes classes;
  classes.build(aig, sig, sim::tail_mask(patterns.num_patterns()));
  stats.sim_seconds += seconds_since(t_sim);

  // ---- Signature-guided SAT querying. ----------------------------------
  // Capture every node's bit of the *last* initial signature word — the
  // newest simulated pattern, one consistent whole-network assignment —
  // and seed each cone variable's saved polarity from it when the
  // variable encodes: the first query on a cone starts in a simulation-
  // consistent assignment (phase saving evolves freely afterwards), so
  // its counter-example — a small deviation from exactly that behavior
  // — falls out with far fewer conflicts.  The capture is taken once,
  // before any store trimming, and is engine-independent — both CE
  // engines see identical hints, so the engine-equivalence invariant
  // (identical models, identical CE trajectories) is intact.  The bits
  // are shared read-only: in a parallel sweep every shard's manager
  // seeds from the same capture.
  std::shared_ptr<const std::vector<uint8_t>> phase_bits;
  if (params.use_signature_phase && sig.num_words() > 0u) {
    std::vector<uint8_t> bits(aig.size(), 0u);
    const std::size_t last_word = sig.num_words() - 1u;
    const uint64_t newest = (patterns.num_patterns() - 1u) & 63u;
    for (net::node n = 0; n < bits.size(); ++n) {
      bits[n] =
          static_cast<uint8_t>((sig.word(n, last_word) >> newest) & 1u);
    }
    phase_bits =
        std::make_shared<const std::vector<uint8_t>>(std::move(bits));
  }
  const auto hint_fn = [&](sat::cnf_manager& manager) {
    if (phase_bits != nullptr) {
      manager.set_phase_hints(
          [bits = phase_bits](net::node n) -> int {
            return n < bits->size() ? (*bits)[n] : -1;
          });
    }
  };
  // The classes have absorbed every initial word but the open one, so
  // under the store word budget the rest is trimmed before the shards
  // copy the store: each copy then holds one word per node instead of
  // the whole initial simulation.  The initial arena's footprint is
  // booked once, with the shard stores' own peaks.
  if (params.store_word_budget != 0u && !params.fault_fail_store_trim &&
      sig.live_words() > params.store_word_budget) {
    sig.trim_words(first_unabsorbed_word(patterns));
  }

  // ---- SAT phase: class-sharded sweeping over the frozen AIG. --------
  // The candidate classes are partitioned round-robin (ascending class
  // id) into `shards` shards.  Classes never interact during querying —
  // drivers come from the candidate's own class — so each shard sweeps
  // its classes against the frozen AIG with private state: its own
  // cnf_manager, pattern/signature stores, class partition (non-owned
  // classes dissolved) and CE engine.  Proven merges are *recorded*,
  // then committed below in ascending node-id order on this thread.  A
  // shard's trajectory is a pure function of its inputs, so the sweep is
  // byte-identical for a fixed shard count no matter how many threads
  // execute it.  One shard is the single-thread sweep: it takes the
  // prologue's manager and simulation state outright instead of copies.
  const std::vector<net::node> order = net::reverse_topo_order(aig);
  std::vector<uint32_t> owner_of_class(classes.num_class_ids(),
                                       ~uint32_t{0});
  {
    uint32_t next = 0;
    for (uint32_t c = 0; c < classes.num_class_ids(); ++c) {
      if (classes.members(c).size() >= 2u) {
        owner_of_class[c] = next++ % shards;
      }
    }
  }
  std::vector<std::vector<net::node>> shard_order(shards);
  for (const net::node n : order) {
    const uint32_t c = classes.class_of(n);
    if (c != equiv_classes::no_class && owner_of_class[c] != ~uint32_t{0}) {
      shard_order[owner_of_class[c]].push_back(n);
    }
  }

  struct shard_result
  {
    sweep_stats stats;
    std::vector<merge_record> records;
    bool aborted = false;
  };
  std::vector<shard_result> shard_results(shards);

  const auto t_sat_phase = clock_type::now();
  pool.run(shards, [&](std::size_t s) {
    shard_result& out = shard_results[s];
    std::optional<sat::cnf_manager> fresh_cnf;
    if (!one_shard) {
      fresh_cnf.emplace(aig, cnf_params);
    }
    sat::cnf_manager& shard_cnf = one_shard ? *slice_cnfs.front() : *fresh_cnf;
    hint_fn(shard_cnf);
    sim::signature_store shard_sig = take_or_copy(sig, one_shard);
    if (!one_shard) {
      shard_sig.reset_peak(); // the initial arena is booked once, below
    }
    equiv_classes shard_classes = take_or_copy(classes, one_shard);
    for (uint32_t c = 0; c < shard_classes.num_class_ids(); ++c) {
      if (owner_of_class[c] != static_cast<uint32_t>(s)) {
        shard_classes.dissolve_class(c);
      }
    }
    sweep_core core{aig,
                    params,
                    shard_cnf,
                    out.stats,
                    stats.gates_before,
                    take_or_copy(patterns, one_shard),
                    std::move(shard_sig),
                    std::move(shard_classes),
                    out.records};
    core.run(shard_order[s]);
    core.finalize_stats();
    out.aborted = core.aborted();
  });
  stats.sat_phase_seconds = seconds_since(t_sat_phase);

  // ---- Merge the per-shard accounting (ascending shard order). ---------
  // Counters are *sums over shards* on top of the prologue slices' (see
  // above): `sat_clauses_peak` in particular is the sum of per-manager
  // peaks, not a global simultaneous peak.  A single shard swept on its
  // slice's manager, whose totals already include the prologue's SAT
  // effort.
  stats.sat_shards = shards;
  stats.workers_used = workers_used;
  stats.worker_sat_seconds.assign(workers_used, 0.0);
  bool any_aborted = false;
  for (uint32_t s = 0; s < shards; ++s) {
    const sweep_stats& ss = shard_results[s].stats;
    stats.sat_calls_satisfiable += ss.sat_calls_satisfiable;
    stats.sat_calls_total += ss.sat_calls_total;
    stats.merges += ss.merges;
    stats.constant_merges += ss.constant_merges;
    stats.window_merges += ss.window_merges;
    stats.dont_touch += ss.dont_touch;
    stats.ce_patterns += ss.ce_patterns;
    stats.undet_retries += ss.undet_retries;
    stats.undet_resolved += ss.undet_resolved;
    stats.ce_gates_visited += ss.ce_gates_visited;
    stats.ce_gates_scan_baseline += ss.ce_gates_scan_baseline;
    stats.ce_targets_pruned += ss.ce_targets_pruned;
    stats.has_ce_counters = stats.has_ce_counters || ss.has_ce_counters;
    stats.ce_engine_escalated =
        stats.ce_engine_escalated || ss.ce_engine_escalated;
    stats.sat_nodes_encoded += ss.sat_nodes_encoded;
    stats.sat_solver_rebuilds += ss.sat_solver_rebuilds;
    stats.sat_clauses_peak += ss.sat_clauses_peak;
    stats.sat_conflicts += ss.sat_conflicts;
    stats.sat_decisions += ss.sat_decisions;
    stats.sat_propagations += ss.sat_propagations;
    stats.sat_skipped_implications += ss.sat_skipped_implications;
    stats.sat_restarts += ss.sat_restarts;
    stats.sat_learnts_reduced += ss.sat_learnts_reduced;
    stats.sat_lbd_sum += ss.sat_lbd_sum;
    stats.sat_binary_clauses += ss.sat_binary_clauses;
    stats.phase_seed_words += ss.phase_seed_words;
    stats.store_words_live += ss.store_words_live;
    stats.store_words_trimmed += ss.store_words_trimmed;
    stats.store_peak_bytes += ss.store_peak_bytes;
    stats.pattern_words_live += ss.pattern_words_live;
    stats.pattern_words_recycled += ss.pattern_words_recycled;
    stats.sim_seconds += ss.sim_seconds;
    stats.sat_seconds += ss.sat_seconds;
    stats.worker_sat_seconds[s % workers_used] += ss.sat_seconds;
    any_aborted = any_aborted || shard_results[s].aborted;
  }
  if (!one_shard) {
    stats.store_peak_bytes += sig.peak_bytes();
  }
  stats.has_ce_engine = true;
  stats.ce_engine_used = shard_results.front().stats.ce_engine_used;
  stats.has_store_counters = true;
  if (any_aborted && params.governor != nullptr) {
    stats.outcome = params.governor->outcome();
  }

  // ---- Commit pass: apply every recorded merge deterministically. ------
  // Records are sorted by merged node id ascending; `order_drivers`
  // guarantees every target node id is below its candidate, so the
  // resolution chain through already-committed merges strictly
  // decreases and the AIG's id-order invariant holds.  Cascades are
  // folded into a global replacement map so a record whose target died
  // in an earlier commit rewires to the live equivalent; a record whose
  // *own* node already died was merged implicitly by a cascade and is
  // skipped.  Every record is an UNSAT (or exhaustive-window) proof
  // over the frozen AIG, so the commit order cannot invent an unproven
  // substitution — partial-result soundness survives aborts unchanged.
  std::vector<merge_record> records;
  for (shard_result& sr : shard_results) {
    records.insert(records.end(), sr.records.begin(), sr.records.end());
  }
  std::sort(records.begin(), records.end(),
            [](const merge_record& a, const merge_record& b) {
              return a.n < b.n;
            });
  std::vector<net::signal> repl(aig.size(), net::signal{0});
  std::vector<bool> has_repl(aig.size(), false);
  const auto resolve = [&](net::signal s) {
    while (has_repl[s.get_node()]) {
      const bool c = s.is_complemented();
      s = repl[s.get_node()];
      if (c) {
        s = !s;
      }
    }
    return s;
  };
  std::vector<std::pair<net::node, net::signal>> cascades;
  for (const merge_record& rec : records) {
    if (aig.is_dead(rec.n)) {
      continue; // a cascade of an earlier commit merged it already
    }
    cascades.clear();
    aig.substitute_node(rec.n, resolve(rec.target), &cascades);
    for (const auto& [dead, to] : cascades) {
      repl[dead] = to;
      has_repl[dead] = true;
    }
  }

  aig.cleanup_dangling();
  stats.gates_after = aig.num_gates();
  stats.total_seconds = seconds_since(t_total);
  return stats;
}

} // namespace stps::sweep
