/// \file binary_graph.hpp
/// \brief Implicit two-literal clauses as a binary implication graph.
///
/// A binary clause (a ∨ b) is stored as the two implication edges
/// ¬a → b and ¬b → a instead of a watched arena clause: propagation of
/// a literal walks one adjacency list with no clause memory behind it
/// (the dedicated fast path in solver::propagate).
///
/// Only *permanent* clauses enter the graph: problem binaries and
/// learnt binaries (implied by the problem alone once the per-query
/// auxiliary definitions are purged).  Edges carry only that
/// problem/learnt provenance, while removable clauses are retracted
/// through stable arena slots (solver::remove_clause), so they stay
/// watched arena clauses.
#pragma once

#include "sat/types.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace stps::sat {

class binary_graph
{
public:
  struct edge
  {
    lit other;        ///< implied literal
    uint32_t learnt;  ///< clause provenance (purge removes learnt only)
  };

  /// Grows the adjacency table to cover \p num_vars variables.
  void ensure_num_vars(uint32_t num_vars)
  {
    if (implications_.size() < 2u * static_cast<std::size_t>(num_vars)) {
      implications_.resize(2u * static_cast<std::size_t>(num_vars));
    }
  }

  /// Adds the clause (a ∨ b) as the edges ¬a → b and ¬b → a.
  void add(lit a, lit b, bool learnt);

  /// Removes one copy of the clause (a ∨ b) with matching provenance;
  /// returns false when no such clause is present.
  bool remove(lit a, lit b, bool learnt);

  /// Literals implied by \p l being true.
  std::span<const edge> implied(lit l) const noexcept
  {
    if (l.x >= implications_.size()) {
      return {};
    }
    const auto& list = implications_[l.x];
    return {list.data(), list.size()};
  }

  uint64_t live_problem() const noexcept { return live_problem_; }
  uint64_t live_learnt() const noexcept { return live_learnt_; }
  /// Binary clauses ever added (lifetime counter — meaningful when
  /// summed across garbage epochs and shards).
  uint64_t lifetime_added() const noexcept { return lifetime_added_; }

  /// Visits each clause (a ∨ b) exactly once as (a, b, learnt), with
  /// a.x < b.x, in deterministic adjacency order.
  template <typename F>
  void for_each_clause(F&& f) const
  {
    for (std::size_t x = 0; x < implications_.size(); ++x) {
      lit source;
      source.x = static_cast<uint32_t>(x);
      const lit a = ~source; // edge source → other encodes (¬source ∨ other)
      for (const edge& e : implications_[x]) {
        if (a.x < e.other.x) {
          f(a, e.other, e.learnt != 0u);
        }
      }
    }
  }

private:
  std::vector<std::vector<edge>> implications_; ///< indexed by lit.x
  uint64_t live_problem_ = 0;
  uint64_t live_learnt_ = 0;
  uint64_t lifetime_added_ = 0;
};

} // namespace stps::sat
