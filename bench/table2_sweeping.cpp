/// \file table2_sweeping.cpp
/// \brief Regenerates Table II: SAT calls and runtime of the two SAT
/// sweepers on the HWMCC'15/IWLS'05-style suite.
///
/// Columns, as in the paper: circuit statistics (PI/PO, levels, gates,
/// result gates), satisfiable SAT calls ("SAT calls"), total SAT calls,
/// simulation runtime, and total runtime, for the `&fraig`-style baseline
/// and the STP sweeper, plus the geometric means and the improvement
/// ratios (new/old).  Every result is CEC-verified before being printed
/// (the paper verifies with `&cec`).
///
/// The paper's instances are 30k-2M gates; these are scaled-down
/// generated circuits of the same redundancy regime (see DESIGN.md), so
/// absolute numbers differ but the shape — who wins, and that the win
/// comes from fewer satisfiable calls — is the reproduced claim
/// (paper: −91% satisfiable calls, −40% total calls, ~2× sim time,
/// −35% total runtime).
///
/// `--json <path>` additionally writes the per-benchmark counters
/// (gates, SAT calls, CE-propagation gate visits, sim/SAT/total seconds
/// for both engines) and the geometric means as machine-readable JSON —
/// the perf-trajectory convention: each PR regenerates BENCH_sweep.json
/// so regressions show up in review (absolute seconds are
/// machine-specific; compare ratios).
///
/// `--scale <n>` appends paper-scale instances (≥ 30k gates, wider
/// arithmetic + deeper random logic; see bench/README.md) where the
/// STP-vs-fraig runtime claim can re-emerge; 0 (the default) keeps the
/// original scaled-down suite only.
///
/// `--ablation` additionally sweeps every instance with the
/// incremental-CNF, store-budget, and signature-guided-SAT flags *off*
/// (per-query scratch encoding, unbounded stores, full collapsed arena,
/// no target pruning, no phase seeding, unrestricted decisions, flat
/// window support, ungrouped round-2 guidance) *and the opposite CE
/// engine* (resim where the main run used the collapsed view and vice
/// versa), and asserts the result-gate counts match the flags-on run
/// exactly — one re-sweep proves the flag, the engine, and the
/// SAT-guidance dimensions at once.  The JSON gains an `stp_flags_off`
/// object and an `ablation_match` field per row.
///
/// `--ce-engine auto|collapsed|resim` overrides the main run's CE
/// propagation engine (default: the auto gate-count dispatch).
///
/// `--only <substr>` keeps only benchmarks whose name contains the
/// substring (repeatable) — used for the committed `--scale 3` smoke
/// rows.
///
/// Budgets and interruption (see bench/README.md): `--deadline <sec>`
/// bounds each sweep's wall-clock, `--conflict-budget <n>` caps each
/// equivalence query (escalating retry then kicks in), and
/// `--conflict-budget-total <n>` caps each sweep's global conflict
/// pool.  SIGINT/SIGTERM trip the active sweep's governor: the
/// in-flight row is dropped, completed rows are kept, and the `--json`
/// file is still written with `"interrupted": true`.  Because the
/// governor is shared by every worker of a parallel sweep, one SIGINT
/// winds down all of them.
///
/// `--threads <n>` (default 1) runs the STP sweeps' SAT phase on n
/// worker threads; `--shards <n>` fixes the class-shard count
/// independently of the thread count (default: one shard per thread).
/// The sweep trajectory is a function of the *shard* count only, so
/// `--threads 4 --shards 4` and `--threads 1 --shards 4` emit
/// byte-identical counters — the determinism pin.  STP rows gain
/// `threads`/`sat_shards`/`workers_used`/`worker_sat_seconds` keys and
/// the wall-clock phase times `prologue_seconds`/`sat_phase_seconds`;
/// the ablation re-sweep runs at the same thread/shard configuration.
#include "gen/benchmarks.hpp"
#include "network/traversal.hpp"
#include "sweep/cec.hpp"
#include "sweep/fraig.hpp"
#include "sweep/resource_governor.hpp"
#include "sweep/stp_sweeper.hpp"
#include "util/parse_arg.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace {

constexpr const char* usage =
    "usage: table2_sweeping [--patterns N] [--scale N] [--ablation]\n"
    "  [--ce-engine auto|collapsed|resim] [--only SUBSTR]... [--json PATH]\n"
    "  [--deadline SECONDS] [--conflict-budget N] [--conflict-budget-total N]\n"
    "  [--threads N] [--shards N]\n";

/// Governor of the sweep/CEC currently running, for the signal handler
/// to trip; null between runs (an interrupt then just sets the flag and
/// the row loop exits at its next check).
std::atomic<stps::sweep::resource_governor*> g_active_governor{nullptr};
std::atomic<bool> g_interrupted{false};

extern "C" void on_interrupt(int)
{
  // Async-signal-safe: two relaxed atomic stores, nothing else.
  g_interrupted.store(true, std::memory_order_relaxed);
  stps::sweep::resource_governor* g =
      g_active_governor.load(std::memory_order_relaxed);
  if (g != nullptr) {
    g->request_stop();
  }
}

double geomean(const std::vector<double>& xs)
{
  double log_sum = 0;
  for (const double x : xs) {
    log_sum += std::log(std::max(x, 1e-9));
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

struct json_row
{
  std::string name;
  uint32_t pis, pos, levels, gates, result_gates;
  stps::sweep::sweep_stats fraig, stp;
  bool verified;
  bool have_flags_off = false;
  stps::sweep::sweep_stats stp_flags_off;
  bool ablation_match = false;
};

void write_engine_json(std::FILE* f, const char* key,
                       const stps::sweep::sweep_stats& s)
{
  std::fprintf(f,
               "      \"%s\": {\"sat_calls_total\": %llu, "
               "\"sat_calls_satisfiable\": %llu, \"merges\": %llu, ",
               key, static_cast<unsigned long long>(s.sat_calls_total),
               static_cast<unsigned long long>(s.sat_calls_satisfiable),
               static_cast<unsigned long long>(s.merges));
  // Unified unDET accounting, emitted for BOTH engines: permanent
  // give-ups, escalating-retry attempts, retries that settled, and how
  // the sweep ended (complete vs deadline/budget/cancelled partial).
  std::fprintf(f,
               "\"dont_touch\": %llu, \"undet_retries\": %llu, "
               "\"undet_resolved\": %llu, \"sweep_outcome\": \"%s\", ",
               static_cast<unsigned long long>(s.dont_touch),
               static_cast<unsigned long long>(s.undet_retries),
               static_cast<unsigned long long>(s.undet_resolved),
               stps::sweep::sweep_outcome_name(s.outcome));
  // The CE engine the sweep finished with exists only for sweepers
  // with selectable engines (the STP rows); fraig omits the key.
  if (s.has_ce_engine) {
    std::fprintf(f, "\"ce_engine_used\": \"%s\", ",
                 stps::sweep::ce_engine_name(s.ce_engine_used));
    if (s.ce_engine_escalated) {
      std::fprintf(f, "\"ce_engine_escalated\": true, ");
    }
  }
  // CE-propagation counters exist only for engines running the collapsed
  // CE simulator; other engines omit the keys entirely so ratio tooling
  // cannot divide by a meaningless zero.
  if (s.has_ce_counters) {
    std::fprintf(f,
                 "\"ce_gates_visited\": %llu, "
                 "\"ce_gates_scan_baseline\": %llu, "
                 "\"ce_targets_pruned\": %llu, ",
                 static_cast<unsigned long long>(s.ce_gates_visited),
                 static_cast<unsigned long long>(s.ce_gates_scan_baseline),
                 static_cast<unsigned long long>(s.ce_targets_pruned));
  }
  std::fprintf(f,
               "\"sat_nodes_encoded\": %llu, \"sat_solver_rebuilds\": %llu, "
               "\"sat_clauses_peak\": %llu, ",
               static_cast<unsigned long long>(s.sat_nodes_encoded),
               static_cast<unsigned long long>(s.sat_solver_rebuilds),
               static_cast<unsigned long long>(s.sat_clauses_peak));
  // Solver search effort, accumulated across garbage epochs — the
  // satisfiable-call *cost* trajectory the signature-phase and
  // cone-scoping policies target.  `phase_seed_words` exists only for
  // sweepers with the phase-seeding policy (the STP rows); fraig omits
  // the key.
  std::fprintf(f,
               "\"sat_conflicts\": %llu, \"sat_decisions\": %llu, "
               "\"sat_propagations\": %llu, "
               "\"sat_skipped_implications\": %llu, "
               "\"sat_restarts\": %llu, ",
               static_cast<unsigned long long>(s.sat_conflicts),
               static_cast<unsigned long long>(s.sat_decisions),
               static_cast<unsigned long long>(s.sat_propagations),
               static_cast<unsigned long long>(s.sat_skipped_implications),
               static_cast<unsigned long long>(s.sat_restarts));
  // Clause-database policy counters (reduce_db + binary graph),
  // accumulated across garbage epochs and shards like the search
  // counters above.  Emitted for both engines — the solver policies
  // are engine-independent.
  std::fprintf(f,
               "\"sat_learnts_reduced\": %llu, \"sat_lbd_sum\": %llu, "
               "\"sat_binary_clauses\": %llu, ",
               static_cast<unsigned long long>(s.sat_learnts_reduced),
               static_cast<unsigned long long>(s.sat_lbd_sum),
               static_cast<unsigned long long>(s.sat_binary_clauses));
  if (s.has_ce_engine) {
    std::fprintf(f, "\"phase_seed_words\": %llu, ",
                 static_cast<unsigned long long>(s.phase_seed_words));
  }
  // Parallel SAT phase: emitted only for sweeps that report per-worker
  // accounting (the STP rows; fraig stays single-threaded).  At
  // threads > 1 `sim_seconds`/`sat_seconds` are per-worker sums while
  // the two phase times are wall time, and SAT counters are sums over
  // the per-slice and per-shard managers (learnt-clause state is
  // per manager, so sharded totals differ from the single-shard run —
  // compare ratios within one configuration; see bench/README.md).
  if (!s.worker_sat_seconds.empty()) {
    std::fprintf(f,
                 "\"threads\": %u, \"sat_shards\": %u, "
                 "\"workers_used\": %u, \"worker_sat_seconds\": [",
                 s.threads, s.sat_shards, s.workers_used);
    for (std::size_t w = 0; w < s.worker_sat_seconds.size(); ++w) {
      std::fprintf(f, "%s%.6f", w == 0u ? "" : ", ",
                   s.worker_sat_seconds[w]);
    }
    std::fprintf(f, "], \"prologue_seconds\": %.6f, "
                 "\"sat_phase_seconds\": %.6f, ",
                 s.prologue_seconds, s.sat_phase_seconds);
  }
  if (s.has_store_counters) {
    std::fprintf(f,
                 "\"store_words_live\": %llu, \"store_words_trimmed\": %llu, "
                 "\"store_peak_bytes\": %llu, "
                 "\"pattern_words_live\": %llu, "
                 "\"pattern_words_recycled\": %llu, ",
                 static_cast<unsigned long long>(s.store_words_live),
                 static_cast<unsigned long long>(s.store_words_trimmed),
                 static_cast<unsigned long long>(s.store_peak_bytes),
                 static_cast<unsigned long long>(s.pattern_words_live),
                 static_cast<unsigned long long>(s.pattern_words_recycled));
  }
  std::fprintf(f,
               "\"sim_seconds\": %.6f, \"sat_seconds\": %.6f, "
               "\"total_seconds\": %.6f}",
               s.sim_seconds, s.sat_seconds, s.total_seconds);
}

bool write_json(const std::string& path, uint64_t base_patterns,
                uint32_t scale, const std::vector<json_row>& rows,
                bool interrupted)
{
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"table2_sweeping\",\n"
                  "  \"patterns\": %llu,\n  \"scale\": %u,\n"
                  "  \"interrupted\": %s,\n"
                  "  \"benchmarks\": [\n",
               static_cast<unsigned long long>(base_patterns), scale,
               interrupted ? "true" : "false");
  std::vector<double> time_f, time_s, sat_f, sat_s;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const json_row& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"pis\": %u, \"pos\": %u, "
                 "\"levels\": %u, \"gates\": %u, \"result_gates\": %u, "
                 "\"cec_verified\": %s,\n",
                 r.name.c_str(), r.pis, r.pos, r.levels, r.gates,
                 r.result_gates, r.verified ? "true" : "false");
    write_engine_json(f, "fraig", r.fraig);
    std::fprintf(f, ",\n");
    write_engine_json(f, "stp", r.stp);
    if (r.have_flags_off) {
      std::fprintf(f, ",\n");
      write_engine_json(f, "stp_flags_off", r.stp_flags_off);
      std::fprintf(f, ",\n      \"ablation_match\": %s",
                   r.ablation_match ? "true" : "false");
    }
    std::fprintf(f, "\n    }%s\n", i + 1u == rows.size() ? "" : ",");
    time_f.push_back(r.fraig.total_seconds);
    time_s.push_back(r.stp.total_seconds);
    sat_f.push_back(static_cast<double>(r.fraig.sat_calls_satisfiable) + 1.0);
    sat_s.push_back(static_cast<double>(r.stp.sat_calls_satisfiable) + 1.0);
  }
  std::fprintf(f, "  ]");
  // An interrupted run may have zero completed rows; a geomean over an
  // empty set is meaningless, so the key is simply absent then.
  if (!rows.empty()) {
    std::fprintf(f,
                 ",\n  \"geomean\": {\"fraig_total_seconds\": %.6f, "
                 "\"stp_total_seconds\": %.6f, \"runtime_ratio\": %.4f, "
                 "\"satisfiable_ratio\": %.4f}",
                 geomean(time_f), geomean(time_s),
                 geomean(time_s) / geomean(time_f),
                 geomean(sat_s) / geomean(sat_f));
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  return true;
}

/// Registers \p g as the signal handler's stop target for the duration
/// of one sweep/CEC call.
class governed_scope
{
public:
  explicit governed_scope(stps::sweep::resource_governor& g)
  {
    g_active_governor.store(&g, std::memory_order_relaxed);
  }
  ~governed_scope()
  {
    g_active_governor.store(nullptr, std::memory_order_relaxed);
  }
  governed_scope(const governed_scope&) = delete;
  governed_scope& operator=(const governed_scope&) = delete;
};

} // namespace

int main(int argc, char** argv)
{
  using namespace stps;
  uint64_t base_patterns = 1024u;
  uint32_t scale = 0;
  bool ablation = false;
  sweep::ce_engine_kind ce_engine = sweep::ce_engine_kind::automatic;
  std::string json_path;
  std::vector<std::string> only;
  double deadline_seconds = 0.0;       // 0 = no deadline
  uint64_t conflict_budget_total = 0u; // 0 = unlimited global pool
  int64_t conflict_budget = -1;        // per query; -1 = unlimited
  uint32_t threads = 1;                // STP SAT-phase worker threads
  uint32_t shards = 0;                 // 0 = one shard per thread
  for (int i = 1; i < argc; ++i) {
    const char* const flag = argv[i];
    const auto is = [&](const char* name) {
      return std::strcmp(flag, name) == 0;
    };
    // The option's value, consumed; a missing value exits 2 with usage.
    const auto value = [&] {
      return util::option_value(argc, argv, i, usage);
    };
    // Strictly parsed numeric option value: exits 2 with the usage
    // message on malformed, negative, or trailing-garbage text.
    const auto number = [&](auto& out) {
      util::parse_arg_or_exit(out, flag, value(), usage);
    };
    if (is("--ablation")) {
      ablation = true;
    } else if (is("--patterns")) {
      number(base_patterns);
    } else if (is("--deadline")) {
      number(deadline_seconds);
    } else if (is("--conflict-budget")) {
      number(conflict_budget);
    } else if (is("--conflict-budget-total")) {
      number(conflict_budget_total);
    } else if (is("--threads")) {
      number(threads);
    } else if (is("--shards")) {
      number(shards);
    } else if (is("--json")) {
      json_path = value();
    } else if (is("--scale")) {
      number(scale);
    } else if (is("--only")) {
      only.emplace_back(value());
    } else if (is("--ce-engine")) {
      const std::string engine = value();
      if (engine == "collapsed") {
        ce_engine = sweep::ce_engine_kind::collapsed;
      } else if (engine == "resim") {
        ce_engine = sweep::ce_engine_kind::resim;
      } else if (engine == "auto") {
        ce_engine = sweep::ce_engine_kind::automatic;
      } else {
        util::usage_exit("unknown --ce-engine value", engine.c_str(), usage);
      }
    } else {
      util::usage_exit("unknown option", flag, usage);
    }
  }
  scale = std::min(scale, gen::max_sweep_scale); // keep recorded scale honest

  // Ctrl-C / SIGTERM trip the active sweep's governor: the in-flight
  // query finishes, proven merges are kept, and the partial JSON is
  // still written (with "interrupted": true).
  std::signal(SIGINT, on_interrupt);
  std::signal(SIGTERM, on_interrupt);
  sweep::governor_limits limits;
  limits.deadline_seconds = deadline_seconds;
  limits.conflict_budget_total = conflict_budget_total;

  const auto selected = [&](const std::string& name) {
    if (only.empty()) {
      return true;
    }
    for (const std::string& pat : only) {
      if (name.find(pat) != std::string::npos) {
        return true;
      }
    }
    return false;
  };

  std::printf("Table II: SAT sweeping, %llu initial patterns, scale %u "
              "(generated instances; see bench/README.md)\n\n",
              static_cast<unsigned long long>(base_patterns), scale);
  std::printf("%-13s %11s %5s %7s %7s | %7s %7s | %8s %8s | %7s %7s | "
              "%7s %7s %5s\n",
              "Benchmark", "PI/PO", "Lev", "Gate", "Result", "sat-F",
              "sat-S", "tot-F", "tot-S", "sim-F", "sim-S", "time-F",
              "time-S", "x");
  std::fflush(stdout);

  std::vector<double> g_sat_f, g_sat_s, g_tot_f, g_tot_s, g_sim_f, g_sim_s,
      g_time_f, g_time_s, g_gate, g_result;
  bool all_verified = true;
  std::vector<json_row> json_rows;

  for (const auto& name : gen::sweep_names(scale)) {
    if (g_interrupted.load(std::memory_order_relaxed)) {
      break;
    }
    if (!selected(name)) {
      continue;
    }
    const net::aig_network original = gen::make_sweep_benchmark(name);

    net::aig_network by_fraig = original;
    sweep::resource_governor fraig_gov{limits};
    sweep::fraig_params fraig_params{base_patterns, 1u, conflict_budget};
    fraig_params.governor = &fraig_gov;
    sweep::sweep_stats fs;
    {
      const governed_scope scope{fraig_gov};
      fs = sweep::fraig_sweep(by_fraig, fraig_params);
    }

    net::aig_network by_stp = original;
    sweep::resource_governor stp_gov{limits};
    sweep::stp_sweep_params params;
    params.guided.base_patterns = base_patterns;
    params.ce_engine = ce_engine;
    params.conflict_budget = conflict_budget;
    params.threads = threads;
    params.sat_shards = shards;
    params.governor = &stp_gov;
    sweep::sweep_stats ss;
    {
      const governed_scope scope{stp_gov};
      ss = sweep::stp_sweep(by_stp, params);
    }

    // Verification gets its own interrupt-only governor (no deadline or
    // budget: a partial sweep result still deserves a full CEC) so
    // Ctrl-C during the check also winds down cleanly.
    sweep::resource_governor cec_gov{};
    sweep::cec_params cec_config;
    cec_config.governor = &cec_gov;
    bool ok;
    {
      const governed_scope scope{cec_gov};
      ok = sweep::check_equivalence(original, by_fraig, cec_config)
               .equivalent &&
           sweep::check_equivalence(original, by_stp, cec_config).equivalent;
    }

    // Ablation proof: flags off (per-query scratch CNF, unbounded
    // stores, full collapsed arena, no target pruning, no signature
    // phase seeding, unrestricted decisions, flat window support,
    // ungrouped round-2 guidance) *and* the opposite CE engine must
    // land on exactly the same result network size, and be
    // CEC-equivalent — flags and engine choice only change when and
    // where work is paid, or which (equally valid) counter-examples
    // steer the refinement there.
    sweep::sweep_stats as;
    bool ablation_match = false;
    if (ablation) {
      net::aig_network by_stp_off = original;
      sweep::stp_sweep_params off = params;
      off.use_incremental_cnf = false;
      off.sat_clause_budget = 0u;
      off.store_word_budget = 0u;
      off.ce_prune_targets = false;
      off.ce_initial_words = 0u;
      off.use_signature_phase = false;
      off.use_cone_scoped_decisions = false;
      off.window_scale_gates = 0u; // flat window support
      off.guided.round2_group_by_signature = false;
      off.ce_engine = ss.ce_engine_used == sweep::ce_engine_kind::collapsed
                          ? sweep::ce_engine_kind::resim
                          : sweep::ce_engine_kind::collapsed;
      // Fresh governor, same limits: the main run may have spent its
      // budget, and the ablation re-sweep deserves the full allowance.
      sweep::resource_governor abl_gov{limits};
      off.governor = &abl_gov;
      {
        const governed_scope scope{abl_gov};
        as = sweep::stp_sweep(by_stp_off, off);
      }
      ablation_match = as.gates_after == ss.gates_after;
      sweep::resource_governor abl_cec_gov{};
      sweep::cec_params abl_cec_config;
      abl_cec_config.governor = &abl_cec_gov;
      const governed_scope scope{abl_cec_gov};
      ok = ok && ablation_match &&
           sweep::check_equivalence(original, by_stp_off, abl_cec_config)
               .equivalent;
    }
    if (g_interrupted.load(std::memory_order_relaxed)) {
      break; // drop the in-flight row; completed rows are kept
    }
    all_verified = all_verified && ok;

    char pipo[32];
    std::snprintf(pipo, sizeof pipo, "%u/%u", original.num_pis(),
                  original.num_pos());
    // Flag rows whose sweeps ended early — their counters describe a
    // sound partial result, not a full sweep.
    char outcome_note[48] = "";
    if (fs.outcome != sweep::sweep_outcome::complete ||
        ss.outcome != sweep::sweep_outcome::complete) {
      std::snprintf(outcome_note, sizeof outcome_note, "  [F:%s S:%s]",
                    sweep::sweep_outcome_name(fs.outcome),
                    sweep::sweep_outcome_name(ss.outcome));
    }
    std::printf("%-13s %11s %5u %7u %7u | %7llu %7llu | %8llu %8llu | "
                "%7.3f %7.3f | %7.3f %7.3f %5.2f%s%s\n",
                name.c_str(), pipo, fs.levels_before, fs.gates_before,
                ss.gates_after,
                static_cast<unsigned long long>(fs.sat_calls_satisfiable),
                static_cast<unsigned long long>(ss.sat_calls_satisfiable),
                static_cast<unsigned long long>(fs.sat_calls_total),
                static_cast<unsigned long long>(ss.sat_calls_total),
                fs.sim_seconds, ss.sim_seconds, fs.total_seconds,
                ss.total_seconds, ss.total_seconds / fs.total_seconds,
                outcome_note, ok ? "" : "  [CEC FAILED]");
    std::fflush(stdout); // rows show up live when stdout is a pipe or file

    json_rows.push_back({name, original.num_pis(), original.num_pos(),
                         fs.levels_before, fs.gates_before, ss.gates_after,
                         fs, ss, ok, ablation, as, ablation_match});
    g_sat_f.push_back(static_cast<double>(fs.sat_calls_satisfiable) + 1.0);
    g_sat_s.push_back(static_cast<double>(ss.sat_calls_satisfiable) + 1.0);
    g_tot_f.push_back(static_cast<double>(fs.sat_calls_total) + 1.0);
    g_tot_s.push_back(static_cast<double>(ss.sat_calls_total) + 1.0);
    g_sim_f.push_back(fs.sim_seconds);
    g_sim_s.push_back(ss.sim_seconds);
    g_time_f.push_back(fs.total_seconds);
    g_time_s.push_back(ss.total_seconds);
    g_gate.push_back(fs.gates_before);
    g_result.push_back(ss.gates_after);
  }

  const bool interrupted = g_interrupted.load(std::memory_order_relaxed);
  if (json_rows.empty() && !interrupted) {
    std::fprintf(stderr, "no benchmarks matched --only\n");
    return 1;
  }
  if (!json_rows.empty()) {
    std::printf("\n%-13s gates %.0f -> %.0f (geo)\n", "Geo.",
                geomean(g_gate), geomean(g_result));
    std::printf("satisfiable SAT calls: %8.0f -> %8.0f   Imp. %.2f "
                "(paper: 0.09)\n",
                geomean(g_sat_f), geomean(g_sat_s),
                geomean(g_sat_s) / geomean(g_sat_f));
    std::printf("total SAT calls:       %8.0f -> %8.0f   Imp. %.2f "
                "(paper: 0.60)\n",
                geomean(g_tot_f), geomean(g_tot_s),
                geomean(g_tot_s) / geomean(g_tot_f));
    std::printf("simulation runtime:    %8.3f -> %8.3f   Imp. %.2f "
                "(paper: 1.99)\n",
                geomean(g_sim_f), geomean(g_sim_s),
                geomean(g_sim_s) / geomean(g_sim_f));
    std::printf("total runtime:         %8.3f -> %8.3f   Imp. %.2f "
                "(paper: 0.65)\n",
                geomean(g_time_f), geomean(g_time_s),
                geomean(g_time_s) / geomean(g_time_f));
    std::printf("\nall results CEC-verified: %s\n",
                all_verified ? "yes" : "NO — BUG");
  }
  if (interrupted) {
    std::printf("\ninterrupted — %zu completed row%s kept, in-flight row "
                "dropped\n",
                json_rows.size(), json_rows.size() == 1u ? "" : "s");
  }
  if (!json_path.empty() &&
      !write_json(json_path, base_patterns, scale, json_rows, interrupted)) {
    return 1;
  }
  if (interrupted) {
    return 130; // conventional SIGINT exit status
  }
  return all_verified ? 0 : 1;
}
