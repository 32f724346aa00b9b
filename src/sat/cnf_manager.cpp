#include "sat/cnf_manager.hpp"

namespace stps::sat {

namespace {

void accumulate(solver_stats& into, const solver_stats& s)
{
  into.decisions += s.decisions;
  into.propagations += s.propagations;
  into.conflicts += s.conflicts;
  into.restarts += s.restarts;
  into.learnt_clauses += s.learnt_clauses;
  into.solve_calls += s.solve_calls;
  into.learnts_reduced += s.learnts_reduced;
  into.lbd_sum += s.lbd_sum;
  into.binary_clauses += s.binary_clauses;
}

} // namespace

cnf_manager::cnf_manager(const net::aig_network& aig, params p)
    : aig_{aig}, params_{p},
      solver_{std::make_unique<solver>()},
      encoder_{std::make_unique<aig_encoder>(
          aig_, *solver_, aig_encoder::options{p.cone_scoped_decisions})},
      reseed_on_{p.phase_reseed_sat_per_mille != 0u},
      fault_rng_{p.faults.seed != 0u ? p.faults.seed
                                     : uint64_t{0x9e3779b97f4a7c15ull}}
{
  encoder_->set_phase_reseed(reseed_on_);
  encoder_->set_resource_hooks(params_.hooks);
}

void cnf_manager::set_phase_hints(aig_encoder::phase_hint_fn hints)
{
  phase_hints_ = std::move(hints);
  encoder_->set_phase_hints(phase_hints_);
}

solver_stats cnf_manager::solver_statistics() const noexcept
{
  solver_stats total = stats_retired_;
  accumulate(total, solver_->stats());
  return total;
}

void cnf_manager::begin_query()
{
  const uint64_t clauses = static_cast<uint64_t>(solver_->num_clauses()) +
                           static_cast<uint64_t>(solver_->num_learnts());
  clauses_peak_ = std::max(clauses_peak_, clauses);
  const bool over_budget =
      params_.clause_budget != 0u && clauses > params_.clause_budget;
  ++fault_queries_;
  // Injected garbage epoch: tear the pair down regardless of the clause
  // budget (only once a query actually ran in this epoch — rebuilding
  // an untouched pair would churn without exercising anything).
  const bool forced_rebuild =
      params_.faults.rebuild_every != 0u && used_ &&
      fault_queries_ % params_.faults.rebuild_every == 0u;
  if ((params_.incremental || !used_) && !over_budget && !forced_rebuild) {
    used_ = true;
    return;
  }
  // New epoch: retire the pair, start empty.  The encoder must be
  // destroyed first (it references the solver).  Counters and solver
  // search stats are retired into running sums first — rebuilds are a
  // memory policy and must never reset the sweep's statistics.
  nodes_encoded_retired_ += encoder_->num_encoded_nodes();
  phase_seeds_retired_ += encoder_->phase_seeds();
  accumulate(stats_retired_, solver_->stats());
  ++rebuilds_;
  if (params_.incremental && params_.cone_scoped_decisions) {
    // Garbage epoch with live cones ahead: carry learned phases and
    // activities over, replayed as nodes re-encode.  Non-incremental
    // per-query rebuilds stay cold — that ablation is the from-scratch
    // baseline.
    encoder_->snapshot_var_state(carried_);
    have_carried_ = true;
  }
  encoder_.reset();
  solver_ = std::make_unique<solver>();
  encoder_ = std::make_unique<aig_encoder>(
      aig_, *solver_, aig_encoder::options{params_.cone_scoped_decisions});
  if (have_carried_) {
    encoder_->set_carried_state(&carried_);
  }
  if (phase_hints_) {
    encoder_->set_phase_hints(phase_hints_);
  }
  encoder_->set_phase_reseed(reseed_on_);
  encoder_->set_resource_hooks(params_.hooks);
  used_ = true;
}

bool cnf_manager::fault_unknown_now()
{
  if (params_.faults.unknown_every == 0u) {
    return false;
  }
  ++fault_equiv_queries_;
  if (params_.faults.seed == 0u) {
    // Exact periodic schedule: every k-th equivalence query faults.
    return fault_equiv_queries_ % params_.faults.unknown_every == 0u;
  }
  // Seeded schedule: one xorshift64 draw per query, faulting with
  // probability 1/k — same expected rate, seed-varied placement.
  fault_rng_ ^= fault_rng_ << 13;
  fault_rng_ ^= fault_rng_ >> 7;
  fault_rng_ ^= fault_rng_ << 17;
  return fault_rng_ % params_.faults.unknown_every == 0u;
}

void cnf_manager::note_answer(bool satisfiable)
{
  ++queries_seen_;
  if (satisfiable) {
    ++sat_seen_;
  }
  if (reseed_on_ && queries_seen_ >= params_.phase_reseed_warmup &&
      sat_seen_ * 1000u >
          uint64_t{params_.phase_reseed_sat_per_mille} * queries_seen_) {
    // Satisfiable answers are frequent: counter-example diversity now
    // matters more than cheap UNSAT searches.  The switch is monotone —
    // once off, re-seeding stays off for the rest of the sweep.
    reseed_on_ = false;
    encoder_->set_phase_reseed(false);
  }
}

result cnf_manager::prove_equivalent(net::signal a, net::signal b,
                                     bool complement, int64_t conflict_budget)
{
  begin_query();
  if (fault_unknown_now()) {
    // Injected unDET: behave exactly like a budget-exhausted search —
    // the query still ticks the governor's clock and feeds the adaptive
    // re-seeding statistics as a non-satisfiable answer.
    if (params_.hooks != nullptr) {
      params_.hooks->on_query_begin();
    }
    note_answer(false);
    return result::unknown;
  }
  const result r = encoder_->prove_equivalent(a, b, complement,
                                              conflict_budget);
  note_answer(r == result::sat);
  return r;
}

result cnf_manager::prove_constant(net::signal f, bool value,
                                   int64_t conflict_budget)
{
  // Guided-round query: a satisfiable model becomes a simulation
  // pattern, so its diversity is the whole point — never re-seed it
  // toward the seed pattern, and keep its (intentionally satisfiable)
  // outcome out of the adaptive statistics.
  begin_query();
  encoder_->set_phase_reseed(false);
  const result r = encoder_->prove_constant(f, value, conflict_budget);
  encoder_->set_phase_reseed(reseed_on_);
  return r;
}

std::optional<std::vector<bool>> cnf_manager::find_assignment(
    net::signal f, bool value, int64_t conflict_budget)
{
  // Pattern-generation query — same exemption as prove_constant.
  begin_query();
  encoder_->set_phase_reseed(false);
  auto witness = encoder_->find_assignment(f, value, conflict_budget);
  encoder_->set_phase_reseed(reseed_on_);
  return witness;
}

std::vector<bool> cnf_manager::model_inputs() const
{
  return encoder_->model_inputs();
}

void cnf_manager::export_equivalence_query(std::ostream& os, net::signal a,
                                           net::signal b, bool complement)
{
  encoder_->export_equivalence_query(os, a, b, complement);
}

} // namespace stps::sat
