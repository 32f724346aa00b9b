#include "sat/solver.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace stps::sat {

namespace {

constexpr uint32_t undef_lit_x = ~uint32_t{0};

/// Luby restart sequence (1,1,2,1,1,2,4,...).
uint64_t luby(uint64_t i)
{
  uint64_t size = 1;
  uint64_t seq = 0;
  while (size < i + 1u) {
    ++seq;
    size = 2u * size + 1u;
  }
  while (size - 1u != i) {
    size = (size - 1u) >> 1u;
    --seq;
    i = i % size;
  }
  return uint64_t{1} << seq;
}

} // namespace

solver::solver(solver_options opt)
    : opt_{opt}, reduce_limit_{static_cast<double>(opt.reduce_base)}
{
  lbd_mark_.push_back(0u); // level 0 exists before the first variable
}

solver::~solver() = default;

var solver::new_var()
{
  const var v = static_cast<var>(assigns_.size());
  assigns_.push_back(lbool::l_undef);
  polarity_.push_back(true); // default phase: negative (MiniSat convention)
  level_.push_back(0u);
  reason_.push_back(reason_none);
  activity_.push_back(0.0);
  heap_pos_.push_back(0u);
  seen_.push_back(false);
  lbd_mark_.push_back(0u);
  watches_.emplace_back();
  watches_.emplace_back();
  // Under a decision restriction new variables start unlisted; the next
  // set_decision_vars call scopes them in as needed.
  decision_.push_back(restricted_ ? 0u : 1u);
  if (!restricted_) {
    heap_insert(v);
  }
  return v;
}

void solver::set_decision_vars(std::span<const var> vars)
{
  assert(decision_level() == 0u);
  if (!restricted_) {
    std::fill(decision_.begin(), decision_.end(), 0u);
    restricted_ = true;
  } else {
    for (const var v : decision_list_) {
      decision_[v] = 0u;
    }
  }
  for (const heap_entry& e : heap_) {
    heap_pos_[e.v] = 0u;
  }
  heap_.clear();
  decision_list_.assign(vars.begin(), vars.end());
  for (const var v : vars) {
    decision_[v] = 1u;
    if (assigns_[v] == lbool::l_undef) {
      heap_insert(v);
    }
  }
}

bool solver::add_clause(std::initializer_list<lit> lits)
{
  return add_clause(std::span<const lit>{lits.begin(), lits.size()});
}

bool solver::simplify_clause(std::span<const lit> lits,
                             std::vector<lit>& out)
{
  // Normalize: sort, dedupe, drop false literals, detect tautology.
  std::vector<lit> c(lits.begin(), lits.end());
  std::sort(c.begin(), c.end());
  c.erase(std::unique(c.begin(), c.end()), c.end());
  out.clear();
  out.reserve(c.size());
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (i + 1u < c.size() && c[i + 1u] == ~c[i]) {
      return false; // tautology
    }
    const lbool v = value(c[i]);
    if (v == lbool::l_true) {
      return false; // already satisfied at level 0
    }
    if (v == lbool::l_undef) {
      out.push_back(c[i]);
    }
  }
  return true;
}

bool solver::add_clause(std::span<const lit> lits)
{
  if (!ok_) {
    return false;
  }
  if (decision_level() != 0u) {
    throw std::logic_error{"add_clause: only at decision level 0"};
  }
  std::vector<lit> out;
  if (!simplify_clause(lits, out)) {
    return true;
  }
  if (out.empty()) {
    ok_ = false;
    return false;
  }
  if (out.size() == 1u) {
    enqueue(out[0], reason_none);
    ok_ = !propagate().valid();
    return ok_;
  }
  if (out.size() == 2u && opt_.implicit_binaries) {
    bin_.add(out[0], out[1], false);
    ++stats_.binary_clauses;
    return true;
  }
  const cref cr = db_.alloc(out, false, 0u);
  clauses_.push_back(cr);
  attach(cr);
  return true;
}

solver::clause_handle solver::add_removable_clause(std::span<const lit> lits)
{
  if (!ok_) {
    return nullptr;
  }
  if (decision_level() != 0u) {
    throw std::logic_error{"add_removable_clause: only at decision level 0"};
  }
  std::vector<lit> out;
  if (!simplify_clause(lits, out)) {
    return nullptr;
  }
  if (out.empty()) {
    ok_ = false;
    return nullptr;
  }
  if (out.size() == 1u) {
    // Unit facts are permanent; the caller retires any auxiliary
    // variable this pins (see aig_encoder::prove_equivalent).
    enqueue(out[0], reason_none);
    ok_ = !propagate().valid();
    return nullptr;
  }
  // Removables always stay watched arena clauses — never the binary
  // graph: retraction goes through the stable slot below, and graph
  // edges only record problem/learnt provenance.
  const cref cr = db_.alloc(out, false, 0u);
  attach(cr);
  uint32_t slot;
  if (!removable_free_.empty()) {
    slot = removable_free_.back();
    removable_free_.pop_back();
    removable_slots_[slot] = cr;
  } else {
    slot = static_cast<uint32_t>(removable_slots_.size());
    removable_slots_.push_back(cr);
  }
  ++num_removables_;
  return reinterpret_cast<clause_handle>(
      static_cast<std::uintptr_t>(slot) + 1u);
}

void solver::unhook_reasons(cref cr)
{
  const clause_db::clause& c = db_.deref(cr);
  for (const lit l : c) {
    if (reason_[l.variable()] == cr) {
      reason_[l.variable()] = reason_none;
    }
  }
}

void solver::purge_learnts_with(var v)
{
  assert(decision_level() == 0u);
  bool freed_arena = false;
  std::size_t j = 0;
  for (std::size_t i = 0; i < learnt_log_.size(); ++i) {
    const learnt_record rec = learnt_log_[i];
    if (rec.cr == cref_undef) {
      // Implicit learnt binary: it stays in the graph until the purge
      // that drops its record from the log.
      if (rec.a.variable() == v || rec.b.variable() == v) {
        const bool removed = bin_.remove(rec.a, rec.b, true);
        assert(removed);
        (void)removed;
        continue;
      }
      learnt_log_[j++] = rec;
      continue;
    }
    const clause_db::clause& c = db_.deref(rec.cr);
    if (c.removed()) {
      continue; // reduce_db already deleted it
    }
    bool mentions = false;
    for (const lit l : c) {
      if (l.variable() == v) {
        mentions = true;
        break;
      }
    }
    if (!mentions) {
      learnt_log_[j++] = rec;
      continue;
    }
    unhook_reasons(rec.cr); // level-0 reasons are never consulted
    detach(rec.cr);
    db_.free_clause(rec.cr);
    freed_arena = true;
  }
  learnt_log_.resize(j);
  if (freed_arena) {
    learnts_.erase(
        std::remove_if(learnts_.begin(), learnts_.end(),
                       [&](cref cr) { return db_.deref(cr).removed(); }),
        learnts_.end());
  }
  check_garbage();
}

void solver::remove_clause(clause_handle h)
{
  if (h == nullptr) {
    return;
  }
  assert(decision_level() == 0u);
  const std::size_t slot = reinterpret_cast<std::uintptr_t>(h) - 1u;
  assert(slot < removable_slots_.size());
  const cref cr = removable_slots_[slot];
  assert(cr != cref_undef);
  // The clause may be the level-0 reason of its implied literal; reasons
  // of level-0 facts are never consulted again, so just unhook the
  // dangling reference.
  unhook_reasons(cr);
  detach(cr);
  db_.free_clause(cr);
  removable_slots_[slot] = cref_undef;
  removable_free_.push_back(static_cast<uint32_t>(slot));
  --num_removables_;
  check_garbage();
}

void solver::attach(cref cr)
{
  const clause_db::clause& c = db_.deref(cr);
  assert(c.size() >= 2u);
  const uint32_t binary = c.size() == 2u ? 1u : 0u;
  watches_[(~c[0]).x].push_back(watcher{cr, c[1], binary});
  watches_[(~c[1]).x].push_back(watcher{cr, c[0], binary});
}

void solver::detach(cref cr)
{
  const clause_db::clause& c = db_.deref(cr);
  for (const lit w : {c[0], c[1]}) {
    auto& list = watches_[(~w).x];
    const auto it =
        std::find_if(list.begin(), list.end(),
                     [cr](const watcher& wa) { return wa.cr == cr; });
    assert(it != list.end());
    list.erase(it);
  }
}

void solver::enqueue(lit l, uint32_t reason)
{
  assert(value(l) == lbool::l_undef);
  const var v = l.variable();
  assigns_[v] = from_bool(!l.sign());
  level_[v] = decision_level();
  reason_[v] = reason;
  trail_.push_back(l);
}

solver::conflict_ref solver::propagate()
{
  conflict_ref conflict;
  // Cone gating (see set_decision_vars): above level 0 an implied
  // literal outside the decision scope is dropped, not enqueued.  Its
  // clause keeps its watches, so conflict detection is unchanged.
  const bool gated = restricted_ && decision_level() != 0u;
  const auto imply = [&](lit l, uint32_t reason) {
    if (gated && decision_[l.variable()] == 0u) {
      ++stats_.skipped_implications;
      return;
    }
    enqueue(l, reason);
  };
  while (qhead_ < trail_.size()) {
    const lit p = trail_[qhead_++];
    ++stats_.propagations;
    // Implicit-binary fast path: one adjacency walk, no clause memory.
    for (const binary_graph::edge& e : bin_.implied(p)) {
      const lbool v = value(e.other);
      if (v == lbool::l_false) {
        conflict.binary = true;
        conflict.a = ~p;
        conflict.b = e.other;
        qhead_ = trail_.size();
        return conflict;
      }
      if (v == lbool::l_undef) {
        imply(e.other, reason_binary(~p));
      }
    }
    auto& ws = watches_[p.x];
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < ws.size()) {
      const watcher w = ws[i];
      if (value(w.blocker) == lbool::l_true) {
        ws[j++] = ws[i++];
        continue;
      }
      if (w.binary) {
        // A binary arena clause is fully described by the watcher: the
        // blocker is the only other literal — no clause memory is
        // touched until a conflict needs it.
        ws[j++] = ws[i++];
        if (value(w.blocker) == lbool::l_false) {
          conflict.cr = w.cr;
          qhead_ = trail_.size();
          while (i < ws.size()) {
            ws[j++] = ws[i++];
          }
        } else {
          imply(w.blocker, w.cr);
        }
        continue;
      }
      clause_db::clause& c = db_.deref(w.cr);
      const lit false_lit = ~p;
      if (c[0] == false_lit) {
        std::swap(c[0], c[1]);
      }
      assert(c[1] == false_lit);
      ++i;
      const lit first = c[0];
      if (first != w.blocker && value(first) == lbool::l_true) {
        ws[j++] = watcher{w.cr, first, 0u};
        continue;
      }
      bool found = false;
      for (std::size_t k = 2; k < c.size(); ++k) {
        if (value(c[k]) != lbool::l_false) {
          std::swap(c[1], c[k]);
          watches_[(~c[1]).x].push_back(watcher{w.cr, first, 0u});
          found = true;
          break;
        }
      }
      if (found) {
        continue;
      }
      // Clause is unit or conflicting under the current assignment.
      ws[j++] = watcher{w.cr, first, 0u};
      if (value(first) == lbool::l_false) {
        conflict.cr = w.cr;
        qhead_ = trail_.size();
        while (i < ws.size()) {
          ws[j++] = ws[i++];
        }
      } else {
        imply(first, w.cr);
      }
    }
    ws.resize(j);
  }
  return conflict;
}

void solver::analyze(const conflict_ref& conflict, std::vector<lit>& learnt,
                     uint32_t& bt_level)
{
  learnt.clear();
  learnt.push_back(lit{}); // slot for the asserting literal
  uint32_t path_count = 0;
  lit p;
  p.x = undef_lit_x;
  std::size_t index = trail_.size();

  // Current antecedent (the conflict first, then reasons); implicit
  // binaries materialize into bin_lits_.
  const lit* ante_begin;
  const lit* ante_end;
  if (conflict.binary) {
    bin_lits_[0] = conflict.a;
    bin_lits_[1] = conflict.b;
    ante_begin = bin_lits_;
    ante_end = bin_lits_ + 2;
  } else {
    if (db_.deref(conflict.cr).learnt()) {
      bump_clause(conflict.cr);
    }
    const clause_db::clause& c = db_.deref(conflict.cr);
    ante_begin = c.begin();
    ante_end = c.end();
  }

  for (;;) {
    for (const lit* it = ante_begin; it != ante_end; ++it) {
      const lit q = *it;
      if (q.x == p.x) {
        continue;
      }
      const var v = q.variable();
      if (!seen_[v] && level_[v] > 0u) {
        seen_[v] = true;
        bump_var(v);
        if (level_[v] >= decision_level()) {
          ++path_count;
        } else {
          learnt.push_back(q);
        }
      }
    }
    while (!seen_[trail_[index - 1u].variable()]) {
      --index;
    }
    p = trail_[--index];
    seen_[p.variable()] = false;
    --path_count;
    if (path_count == 0u) {
      break;
    }
    const uint32_t r = reason_[p.variable()];
    assert(r != reason_none);
    if (is_binary_reason(r)) {
      bin_lits_[0] = p;
      bin_lits_[1] = binary_reason_other(r);
      ante_begin = bin_lits_;
      ante_end = bin_lits_ + 2;
    } else {
      if (db_.deref(r).learnt()) {
        bump_clause(r);
      }
      const clause_db::clause& c = db_.deref(r);
      ante_begin = c.begin();
      ante_end = c.end();
    }
  }
  learnt[0] = ~p;

  // Conflict-clause minimization (MiniSat's deep check).
  analyze_clear_.assign(learnt.begin() + 1, learnt.end());
  uint32_t abstract = 0;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    abstract |= 1u << (level_[learnt[i].variable()] & 31u);
  }
  std::size_t keep = 1;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    if (reason_[learnt[i].variable()] == reason_none ||
        !lit_redundant(learnt[i], abstract)) {
      learnt[keep++] = learnt[i];
    }
  }
  learnt.resize(keep);

  // Clear seen flags for kept + removed literals.
  for (const lit l : analyze_clear_) {
    seen_[l.variable()] = false;
  }
  seen_[learnt[0].variable()] = false;

  // Backtrack level: highest level among the non-asserting literals.
  bt_level = 0;
  if (learnt.size() > 1u) {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < learnt.size(); ++i) {
      if (level_[learnt[i].variable()] > level_[learnt[max_i].variable()]) {
        max_i = i;
      }
    }
    std::swap(learnt[1], learnt[max_i]);
    bt_level = level_[learnt[1].variable()];
  }
}

bool solver::lit_redundant(lit l, uint32_t abstract_levels)
{
  // A literal of the learnt clause is redundant if its reason-DAG closure
  // only reaches literals already in the clause (seen) or level-0 facts.
  // The implied literal of a reason clause is identified by variable (the
  // binary fast paths do not normalize it to index 0).
  analyze_stack_.clear();
  analyze_stack_.push_back(l);
  const std::size_t clear_mark = analyze_clear_.size();
  while (!analyze_stack_.empty()) {
    const lit p = analyze_stack_.back();
    analyze_stack_.pop_back();
    const uint32_t r = reason_[p.variable()];
    assert(r != reason_none);
    const lit* qb;
    const lit* qe;
    if (is_binary_reason(r)) {
      bin_lits_[0] = p;
      bin_lits_[1] = binary_reason_other(r);
      qb = bin_lits_;
      qe = bin_lits_ + 2;
    } else {
      const clause_db::clause& c = db_.deref(r);
      qb = c.begin();
      qe = c.end();
    }
    for (const lit* it = qb; it != qe; ++it) {
      const lit q = *it;
      const var v = q.variable();
      if (v == p.variable() || seen_[v] || level_[v] == 0u) {
        continue;
      }
      if (reason_[v] == reason_none ||
          ((1u << (level_[v] & 31u)) & abstract_levels) == 0u) {
        // Not removable: undo the marks added during this check.
        for (std::size_t i = clear_mark; i < analyze_clear_.size(); ++i) {
          seen_[analyze_clear_[i].variable()] = false;
        }
        analyze_clear_.resize(clear_mark);
        return false;
      }
      seen_[v] = true;
      analyze_clear_.push_back(q);
      analyze_stack_.push_back(q);
    }
  }
  return true;
}

void solver::backtrack(uint32_t level)
{
  if (decision_level() <= level) {
    return;
  }
  const std::size_t bound = trail_lim_[level];
  for (std::size_t i = trail_.size(); i-- > bound;) {
    const var v = trail_[i].variable();
    polarity_[v] = assigns_[v] == lbool::l_false;
    assigns_[v] = lbool::l_undef;
    reason_[v] = reason_none;
    if (decision_[v] && !heap_contains(v)) {
      heap_insert(v);
    }
  }
  trail_.resize(bound);
  trail_lim_.resize(level);
  qhead_ = bound;
}

lit solver::pick_branch()
{
  while (!heap_.empty()) {
    const var v = heap_pop();
    if (assigns_[v] == lbool::l_undef) {
      return lit{v, polarity_[v]};
    }
  }
  lit l;
  l.x = undef_lit_x;
  return l;
}

void solver::set_var_activity(var v, double normalized)
{
  activity_[v] = normalized * var_inc_;
  if (heap_contains(v)) {
    const uint32_t i = heap_pos_[v] - 1u;
    heap_[i].act = activity_[v];
    heap_up(i);
    heap_down(heap_pos_[v] - 1u);
  }
}

void solver::bump_var(var v)
{
  activity_[v] += var_inc_;
  if (activity_[v] > 1e100) {
    for (double& a : activity_) {
      a *= 1e-100;
    }
    for (heap_entry& e : heap_) {
      e.act *= 1e-100;
    }
    var_inc_ *= 1e-100;
  }
  if (heap_contains(v)) {
    const uint32_t i = heap_pos_[v] - 1u;
    heap_[i].act = activity_[v];
    heap_up(i);
  }
}

void solver::bump_clause(cref cr)
{
  clause_db::clause& c = db_.deref(cr);
  c.set_activity(c.activity() + clause_inc_);
  if (c.activity() > 1e20f) {
    for (const cref l : learnts_) {
      clause_db::clause& lc = db_.deref(l);
      lc.set_activity(lc.activity() * 1e-20f);
    }
    clause_inc_ *= 1e-20f;
  }
}

void solver::decay_var_activity()
{
  var_inc_ /= 0.95;
  clause_inc_ /= 0.999f;
}

uint32_t solver::compute_lbd(std::span<const lit> lits)
{
  // Distinct decision levels among the literals, stamped against a
  // per-call epoch; called before backtracking, while levels are live.
  ++lbd_stamp_;
  uint32_t count = 0;
  for (const lit l : lits) {
    const uint32_t lev = level_[l.variable()];
    if (lbd_mark_[lev] != lbd_stamp_) {
      lbd_mark_[lev] = lbd_stamp_;
      ++count;
    }
  }
  return count;
}

void solver::reduce_db()
{
  // Rank the deletable learnts worst-first by (LBD desc, activity asc)
  // and drop the worse half.  Glue clauses (LBD ≤ 2), binaries, and
  // clauses locked as reasons always survive; the cref tie-break keeps
  // the order fully deterministic.
  const auto locked = [&](cref cr) {
    const clause_db::clause& c = db_.deref(cr);
    return value(c[0]) == lbool::l_true &&
           reason_[c[0].variable()] == cr;
  };
  std::vector<cref> cand;
  cand.reserve(learnts_.size());
  for (const cref cr : learnts_) {
    const clause_db::clause& c = db_.deref(cr);
    if (c.size() > 2u && c.lbd() > 2u && !locked(cr)) {
      cand.push_back(cr);
    }
  }
  std::sort(cand.begin(), cand.end(), [&](cref a, cref b) {
    const clause_db::clause& ca = db_.deref(a);
    const clause_db::clause& cb = db_.deref(b);
    if (ca.lbd() != cb.lbd()) {
      return ca.lbd() > cb.lbd();
    }
    if (ca.activity() != cb.activity()) {
      return ca.activity() < cb.activity();
    }
    return a < b;
  });
  const std::size_t target = cand.size() / 2u;
  for (std::size_t i = 0; i < target; ++i) {
    detach(cand[i]);
    db_.free_clause(cand[i]);
  }
  if (target != 0u) {
    learnts_.erase(
        std::remove_if(learnts_.begin(), learnts_.end(),
                       [&](cref cr) { return db_.deref(cr).removed(); }),
        learnts_.end());
    stats_.learnts_reduced += target;
  }
  check_garbage();
}

void solver::check_garbage()
{
  if (db_.want_gc()) {
    garbage_collect();
  }
}

void solver::garbage_collect()
{
  db_.begin_gc();
  for (auto& ws : watches_) {
    for (watcher& w : ws) {
      db_.reloc(w.cr);
    }
  }
  // Live reasons are exactly the cref reasons of trail variables (freed
  // clauses were unhooked before free).
  for (const lit l : trail_) {
    uint32_t& r = reason_[l.variable()];
    if (r != reason_none && !is_binary_reason(r)) {
      cref cr = r;
      db_.reloc(cr);
      r = cr;
    }
  }
  for (cref& cr : clauses_) {
    db_.reloc(cr);
  }
  for (cref& cr : learnts_) {
    db_.reloc(cr);
  }
  for (cref& cr : removable_slots_) {
    if (cr != cref_undef) {
      db_.reloc(cr);
    }
  }
  // The per-solve learnt log: entries whose clause was deleted are
  // dropped (nothing left to purge), the rest follow their clause.
  std::size_t j = 0;
  for (std::size_t i = 0; i < learnt_log_.size(); ++i) {
    learnt_record rec = learnt_log_[i];
    if (rec.cr != cref_undef) {
      if (db_.deref(rec.cr).removed()) {
        continue;
      }
      db_.reloc(rec.cr);
    }
    learnt_log_[j++] = rec;
  }
  learnt_log_.resize(j);
  db_.end_gc();
}

result solver::solve(std::span<const lit> assumptions,
                     int64_t conflict_budget)
{
  ++stats_.solve_calls;
  model_.clear();
  learnt_log_.clear();
  if (!ok_) {
    return result::unsat;
  }
  if (hooks_ != nullptr && hooks_->should_stop()) {
    // Governed stop before any search: answer unknown without touching
    // the trail.  Checked after ok_ so a database already proven unsat
    // keeps answering unsat.
    return result::unknown;
  }
  backtrack(0u);
  if (propagate().valid()) {
    ok_ = false;
    return result::unsat;
  }

  // Conflicts since the last consume_conflicts report; flushed at every
  // return so the governor's global accounting is exact.  A flush after
  // the answer is found only charges the pool — it never flips the
  // answer.
  uint64_t unreported_conflicts = 0;
  const auto finish = [&](result r) {
    if (hooks_ != nullptr && unreported_conflicts != 0u) {
      hooks_->consume_conflicts(unreported_conflicts);
    }
    return r;
  };

  uint64_t conflicts_this_call = 0;
  uint64_t restart_index = 0;
  uint64_t restart_budget = 100u * luby(restart_index);
  uint64_t conflicts_since_restart = 0;
  std::vector<lit> learnt;

  for (;;) {
    const conflict_ref conflict = propagate();
    if (conflict.valid()) {
      ++stats_.conflicts;
      ++conflicts_this_call;
      ++conflicts_since_restart;
      ++unreported_conflicts;
      if (decision_level() == 0u) {
        ok_ = false;
        return finish(result::unsat);
      }
      uint32_t bt_level = 0;
      analyze(conflict, learnt, bt_level);
      const uint32_t lbd =
          learnt.size() > 1u ? compute_lbd(learnt) : 1u;
      backtrack(bt_level);
      if (learnt.size() == 1u) {
        enqueue(learnt[0], reason_none);
      } else {
        stats_.lbd_sum += lbd;
        ++stats_.learnt_clauses;
        if (learnt.size() == 2u && opt_.implicit_binaries) {
          bin_.add(learnt[0], learnt[1], true);
          ++stats_.binary_clauses;
          learnt_log_.push_back(
              learnt_record{cref_undef, learnt[0], learnt[1]});
          enqueue(learnt[0], reason_binary(learnt[1]));
        } else {
          const cref cr = db_.alloc(learnt, true, lbd);
          learnts_.push_back(cr);
          learnt_log_.push_back(learnt_record{cr, lit{}, lit{}});
          attach(cr);
          bump_clause(cr);
          enqueue(learnt[0], cr);
        }
      }
      decay_var_activity();
      if (hooks_ != nullptr &&
          unreported_conflicts >= resource_check_interval) {
        const bool stop = hooks_->consume_conflicts(unreported_conflicts);
        unreported_conflicts = 0;
        if (stop) {
          backtrack(0u);
          return result::unknown;
        }
      }
      if (conflict_budget >= 0 &&
          conflicts_this_call >= static_cast<uint64_t>(conflict_budget)) {
        backtrack(0u);
        return finish(result::unknown);
      }
    } else {
      if (conflicts_since_restart >= restart_budget) {
        ++stats_.restarts;
        conflicts_since_restart = 0;
        restart_budget = 100u * luby(++restart_index);
        backtrack(0u);
        continue;
      }
      if (opt_.reduce_learnts &&
          static_cast<double>(learnts_.size()) >=
              reduce_limit_ + static_cast<double>(trail_.size())) {
        reduce_db();
        reduce_limit_ += static_cast<double>(opt_.reduce_increment);
      }

      lit next;
      next.x = undef_lit_x;
      while (decision_level() < assumptions.size()) {
        const lit a = assumptions[decision_level()];
        if (value(a) == lbool::l_true) {
          // Already satisfied: open an empty decision level for it.
          trail_lim_.push_back(static_cast<uint32_t>(trail_.size()));
        } else if (value(a) == lbool::l_false) {
          backtrack(0u);
          return finish(result::unsat);
        } else {
          next = a;
          break;
        }
      }
      if (next.x == undef_lit_x) {
        next = pick_branch();
        if (next.x == undef_lit_x) {
          // All variables assigned: model found.
          model_ = assigns_;
          backtrack(0u);
          return finish(result::sat);
        }
        ++stats_.decisions;
      }
      trail_lim_.push_back(static_cast<uint32_t>(trail_.size()));
      enqueue(next, reason_none);
    }
  }
}

bool solver::model_value(var v) const
{
  if (v >= model_.size() || model_[v] == lbool::l_undef) {
    return false;
  }
  return model_[v] == lbool::l_true;
}

void solver::copy_clauses(std::vector<std::vector<lit>>& out,
                          bool include_learnts) const
{
  assert(decision_level() == 0u);
  for (const lit l : trail_) {
    out.push_back({l});
  }
  bin_.for_each_clause([&](lit a, lit b, bool learnt) {
    if (!learnt || include_learnts) {
      out.push_back({a, b});
    }
  });
  for (const cref cr : clauses_) {
    const clause_db::clause& c = db_.deref(cr);
    out.emplace_back(c.begin(), c.end());
  }
  for (const cref cr : removable_slots_) {
    if (cr == cref_undef) {
      continue;
    }
    const clause_db::clause& c = db_.deref(cr);
    out.emplace_back(c.begin(), c.end());
  }
  if (include_learnts) {
    for (const cref cr : learnts_) {
      const clause_db::clause& c = db_.deref(cr);
      out.emplace_back(c.begin(), c.end());
    }
  }
}

void solver::heap_insert(var v)
{
  if (heap_contains(v)) {
    return;
  }
  heap_.push_back(heap_entry{activity_[v], v});
  heap_pos_[v] = static_cast<uint32_t>(heap_.size());
  heap_up(static_cast<uint32_t>(heap_.size() - 1u));
}

bool solver::heap_contains(var v) const
{
  return heap_pos_[v] != 0u;
}

var solver::heap_pop()
{
  const var top = heap_[0].v;
  heap_pos_[top] = 0u;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_pos_[heap_[0].v] = 1u;
    heap_down(0u);
  }
  return top;
}

void solver::heap_up(uint32_t i)
{
  const heap_entry e = heap_[i];
  while (i != 0u) {
    const uint32_t parent = (i - 1u) / 2u;
    if (heap_[parent].act >= e.act) {
      break;
    }
    heap_[i] = heap_[parent];
    heap_pos_[heap_[i].v] = i + 1u;
    i = parent;
  }
  heap_[i] = e;
  heap_pos_[e.v] = i + 1u;
}

void solver::heap_down(uint32_t i)
{
  const heap_entry e = heap_[i];
  const uint32_t size = static_cast<uint32_t>(heap_.size());
  for (;;) {
    uint32_t child = 2u * i + 1u;
    if (child >= size) {
      break;
    }
    if (child + 1u < size && heap_[child + 1u].act > heap_[child].act) {
      ++child;
    }
    if (heap_[child].act <= e.act) {
      break;
    }
    heap_[i] = heap_[child];
    heap_pos_[heap_[i].v] = i + 1u;
    i = child;
  }
  heap_[i] = e;
  heap_pos_[e.v] = i + 1u;
}

} // namespace stps::sat
