/// \file perfbench.cpp
/// \brief The repository benchmark: sweep and simulation throughput of
/// the product code paths, measured from outside through the public API.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--trace-out <path>]
///
/// One run sets the workload up several times (the median is `setup_s`),
/// then runs whole *rounds* — every design of the workload once — until
/// `--seconds` of timed work have elapsed and at least two rounds ran, so
/// that determinism can be checked inside the run.  Every job's outputs
/// are checked outside the timed region.  The last line of standard
/// output is one JSON object {correct, attempted, failed, metrics}: the
/// end-to-end metrics with `--trace 0`, the per-layer metrics with
/// `--trace 1`.  See perfbench/README.md for the metric definitions.
#include "core/stp_simulator.hpp"
#include "cut/lut_mapper.hpp"
#include "gen/arithmetic.hpp"
#include "gen/benchmarks.hpp"
#include "gen/random_logic.hpp"
#include "gen/redundancy.hpp"
#include "io/aiger.hpp"
#include "sim/bitwise_sim.hpp"
#include "sim/simd.hpp"
#include "sweep/cec.hpp"
#include "sweep/stp_sweeper.hpp"

#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

namespace {

using namespace stps;
using clock_type = std::chrono::steady_clock;

/// Seed whose designs are exactly the named recipes of gen/benchmarks.cpp
/// (and whose pattern seed is table1_simulation's).
constexpr uint64_t default_seed = 0;
/// Patterns per sim_epfl design.  The specified-node mode's cut leaf
/// limit is log2(patterns), so its cost grows much faster than the other
/// calls': at 2^15 it takes ~7x the all-node mode, at 2^14 ~4x, where it
/// is ~45% of a round and the 6-LUT mapping ~35%.
constexpr uint64_t sim_patterns = uint64_t{1} << 14u;
/// Set-up repeats at least this often and for at least this long: a
/// set-up of a few milliseconds needs many samples for a steady median.
constexpr uint32_t setup_min_repetitions = 7;
constexpr double setup_min_seconds = 1.0;
constexpr uint32_t min_rounds = 2;
constexpr uint32_t sharded_shards = 4;

const char* const usage_text =
    "usage: perfbench --workload <sim_epfl|sweep_arith|sweep_random|"
    "sweep_sharded>\n"
    "                 [--seed <n>] [--seconds <1..3600>] [--trace <0|1>]\n"
    "                 [--trace-out <path>]\n";

[[noreturn]] void usage_error(const std::string& message)
{
  std::fprintf(stderr, "perfbench: %s\n%s", message.c_str(), usage_text);
  std::exit(2);
}

double seconds_between(clock_type::time_point a, clock_type::time_point b)
{
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> xs)
{
  if (xs.empty()) {
    return 0.0;
  }
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2u;
  return xs.size() % 2u == 1u ? xs[mid] : 0.5 * (xs[mid - 1u] + xs[mid]);
}

uint64_t fnv1a(const void* data, std::size_t size, uint64_t h)
{
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h = (h ^ p[i]) * 0x100000001b3ull;
  }
  return h;
}
constexpr uint64_t fnv_offset = 0xcbf29ce484222325ull;

// ---- Arguments --------------------------------------------------------------

enum class workload_kind { sim_epfl, sweep_arith, sweep_random, sweep_sharded };

struct options
{
  workload_kind workload = workload_kind::sim_epfl;
  std::string workload_name;
  uint64_t seed = default_seed;
  uint64_t seconds = 10;
  bool trace = false;
  std::string trace_out;
};

uint64_t parse_number(const char* flag, const char* text, uint64_t max)
{
  uint64_t value = 0;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc{} || ptr != end || text == end || value > max) {
    usage_error(std::string{"malformed or out-of-range value for "} + flag +
                ": '" + text + "'");
  }
  return value;
}

options parse_options(int argc, char** argv)
{
  options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      usage_error("missing value for " + std::string{flag});
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      static const std::pair<const char*, workload_kind> names[] = {
          {"sim_epfl", workload_kind::sim_epfl},
          {"sweep_arith", workload_kind::sweep_arith},
          {"sweep_random", workload_kind::sweep_random},
          {"sweep_sharded", workload_kind::sweep_sharded}};
      have_workload = false;
      for (const auto& [name, kind] : names) {
        if (std::strcmp(value, name) == 0) {
          opt.workload = kind;
          opt.workload_name = name;
          have_workload = true;
        }
      }
      if (!have_workload) {
        usage_error(std::string{"unknown workload '"} + value + "'");
      }
    } else if (flag == "--seed") {
      opt.seed = parse_number("--seed", value, UINT64_MAX);
    } else if (flag == "--seconds") {
      opt.seconds = parse_number("--seconds", value, 3600);
      if (opt.seconds == 0u) {
        usage_error("--seconds must be at least 1");
      }
    } else if (flag == "--trace") {
      opt.trace = parse_number("--trace", value, 1) == 1u;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      usage_error("unknown argument " + std::string{flag});
    }
  }
  if (!have_workload) {
    usage_error("--workload is required");
  }
  return opt;
}

// ---- Tracing ----------------------------------------------------------------

/// One traced call.  `parent` indexes the enclosing span (-1 = none);
/// spans of one job share `job`.
struct span
{
  const char* name = "";
  double start = 0.0; ///< seconds since the tracer's origin
  double end = 0.0;
  int64_t parent = -1;
  uint32_t job = 0;
  std::optional<sweep::sweep_stats> counters; ///< stp_sweep spans only
};

/// In-memory span recorder.  When disabled, `scope` objects do nothing
/// beyond one branch, so untraced rounds pay no tracing cost.
class tracer
{
public:
  class scope
  {
  public:
    scope(tracer& t, const char* name, uint32_t job)
        : tracer_{t.enabled_ ? &t : nullptr}
    {
      if (tracer_ != nullptr) {
        index_ = tracer_->open(name, job);
      }
    }
    ~scope()
    {
      if (tracer_ != nullptr) {
        tracer_->close(index_);
      }
    }
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

    void attach(const sweep::sweep_stats& stats)
    {
      if (tracer_ != nullptr) {
        tracer_->spans_[index_].counters = stats;
      }
    }

  private:
    tracer* tracer_;
    std::size_t index_ = 0;
  };

  void set_enabled(bool on) noexcept { enabled_ = on; }
  const std::vector<span>& spans() const noexcept { return spans_; }

  /// Self time of every span: its duration minus the part its children
  /// cover (children never overlap, so their durations add).
  std::vector<double> self_times() const
  {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] += spans_[i].end - spans_[i].start;
      if (spans_[i].parent >= 0) {
        self[static_cast<std::size_t>(spans_[i].parent)] -=
            spans_[i].end - spans_[i].start;
      }
    }
    return self;
  }

  bool write_jsonl(const std::string& path) const;

private:
  std::size_t open(const char* name, uint32_t job)
  {
    span s;
    s.name = name;
    s.job = job;
    s.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
    s.start = seconds_between(origin_, clock_type::now());
    spans_.push_back(std::move(s));
    open_.push_back(spans_.size() - 1u);
    return spans_.size() - 1u;
  }
  void close(std::size_t index)
  {
    spans_[index].end = seconds_between(origin_, clock_type::now());
    open_.pop_back();
  }

  bool enabled_ = false;
  clock_type::time_point origin_ = clock_type::now();
  std::vector<span> spans_;
  std::vector<std::size_t> open_;
};

bool tracer::write_jsonl(const std::string& path) const
{
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (const span& s : spans_) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                 "\"parent\": %lld, \"job\": %u",
                 s.name, s.start, s.end, static_cast<long long>(s.parent),
                 s.job);
    if (s.counters) {
      const sweep::sweep_stats& c = *s.counters;
      std::fprintf(
          f,
          ", \"counters\": {\"gates_before\": %u, \"gates_after\": %u, "
          "\"merges\": %llu, \"window_merges\": %llu, "
          "\"sat_calls_total\": %llu, \"sat_calls_satisfiable\": %llu, "
          "\"sat_conflicts\": %llu, \"ce_patterns\": %llu, "
          "\"sim_seconds\": %.9f, \"sat_seconds\": %.9f, "
          "\"total_seconds\": %.9f, \"sweep_outcome\": \"%s\"}",
          c.gates_before, c.gates_after,
          static_cast<unsigned long long>(c.merges),
          static_cast<unsigned long long>(c.window_merges),
          static_cast<unsigned long long>(c.sat_calls_total),
          static_cast<unsigned long long>(c.sat_calls_satisfiable),
          static_cast<unsigned long long>(c.sat_conflicts),
          static_cast<unsigned long long>(c.ce_patterns), c.sim_seconds,
          c.sat_seconds, c.total_seconds,
          sweep::sweep_outcome_name(c.outcome));
    }
    std::fprintf(f, "}\n");
  }
  return std::fclose(f) == 0;
}

// ---- Workload inputs --------------------------------------------------------

/// The recipe seed itself at the default seed, a mix of both otherwise —
/// the same shapes, reseeded, for held-out checks.
uint64_t reseed(uint64_t recipe_seed, uint64_t seed)
{
  if (seed == default_seed) {
    return recipe_seed;
  }
  uint64_t z = recipe_seed ^ (seed * 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30u)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27u)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31u);
}

/// mult48r, shift1kr and rand35k of gen/benchmarks.cpp, with the
/// redundancy-injection seed passed through `reseed`.  rand35k keeps its
/// base logic, so every seed sweeps the same function with different
/// planted redundancy and result sizes stay comparable across seeds.
net::aig_network make_sweep_design(const std::string& name, uint64_t seed)
{
  if (name == "mult48r") {
    return gen::inject_redundancy(gen::make_multiplier(48u),
                                  {3u, 10u, reseed(0x5c48u, seed), 300u});
  }
  if (name == "shift1kr") {
    return gen::inject_redundancy(gen::make_barrel_shifter(10u),
                                  {4u, 10u, reseed(0xba10u, seed), 350u});
  }
  return gen::inject_redundancy( // rand35k
      gen::make_random_logic({320u, 260u, 30000u, 0x30cau, 15u}),
      {3u, 12u, reseed(0x30cau, seed), 400u});
}

std::vector<std::string> design_names(workload_kind w)
{
  switch (w) {
    case workload_kind::sim_epfl: return gen::epfl_names();
    case workload_kind::sweep_arith: return {"mult48r", "shift1kr"};
    case workload_kind::sweep_random: return {"rand35k"};
    case workload_kind::sweep_sharded:
      return {"mult48r", "shift1kr", "rand35k"};
  }
  return {};
}

struct design
{
  std::string name;
  uint32_t gates = 0;
  std::string aiger;           ///< sweep workloads: binary AIGER input
  net::aig_network aig;        ///< sim_epfl: the network itself
  sim::pattern_set patterns;   ///< sim_epfl: its random pattern set
};

/// Builds every design of the workload: generators, patterns, and (sweep
/// workloads) serialization to AIGER bytes.  Setup jobs are numbered
/// from `job`.
std::vector<design> set_up(const options& opt, tracer& trace, uint32_t job)
{
  const tracer::scope root{trace, "setup", job};
  std::vector<design> designs;
  for (const std::string& name : design_names(opt.workload)) {
    design d;
    d.name = name;
    net::aig_network aig;
    {
      const tracer::scope s{trace, "gen.build", job};
      aig = opt.workload == workload_kind::sim_epfl
                ? gen::make_epfl(name)
                : make_sweep_design(name, opt.seed);
    }
    d.gates = aig.num_gates();
    if (opt.workload == workload_kind::sim_epfl) {
      const tracer::scope s{trace, "sim.random_patterns", job};
      d.patterns = sim::pattern_set::random(aig.num_pis(), sim_patterns,
                                            reseed(0xEDF1u, opt.seed));
      d.aig = std::move(aig);
    } else {
      const tracer::scope s{trace, "io.write_aiger", job};
      std::ostringstream os;
      io::write_aiger_binary(aig, os);
      d.aiger = std::move(os).str();
    }
    designs.push_back(std::move(d));
  }
  return designs;
}

// ---- Jobs ---------------------------------------------------------------------

/// What one job leaves for the checks and the metrics.
struct job_result
{
  bool failed = false;
  std::string error;
  uint32_t result_gates = 0;  ///< swept gates, or mapped 6-LUTs
  uint64_t digest = 0;        ///< hash of the job's outputs
  /// Sweep jobs.
  std::optional<sweep::sweep_stats> stats;
  std::string output;         ///< binary AIGER of the swept network
  std::size_t aiger_bytes = 0; ///< AIGER bytes read plus bytes written
  /// sim_epfl jobs.
  core::stp_sim_stats spec_stats;
};

/// One sweep job: parse AIGER → stp_sweep → write AIGER.
void sweep_job(const design& d, const sweep::stp_sweep_params& params,
               tracer& trace, uint32_t job, job_result& r)
{
  net::aig_network aig;
  {
    const tracer::scope s{trace, "io.read_aiger", job};
    std::istringstream is{d.aiger};
    aig = io::read_aiger(is);
  }
  {
    tracer::scope s{trace, "sweep.stp_sweep", job};
    r.stats = sweep::stp_sweep(aig, params);
    s.attach(*r.stats);
  }
  {
    const tracer::scope s{trace, "io.write_aiger", job};
    std::ostringstream os;
    io::write_aiger_binary(aig, os);
    r.output = std::move(os).str();
  }
  r.result_gates = r.stats->gates_after;
  r.aiger_bytes = d.aiger.size() + r.output.size();
}

/// Outputs of one sim_epfl job, kept for the untimed check.
struct sim_outputs
{
  cut::lut_map_result mapped;
  sim::signature_store mode_a;
  std::unordered_map<net::klut_network::node, std::vector<uint64_t>> mode_s;
  sim::signature_store stp_aig;
  sim::signature_store reference;
};

/// One sim_epfl job: 6-LUT mapping, STP mode a, STP mode s over the PO
/// targets, the STP matrix pass over the AIG, and word-parallel AIG
/// simulation.
void sim_job(const design& d, tracer& trace, uint32_t job, job_result& r,
             sim_outputs& out)
{
  const core::stp_simulator stp;
  {
    const tracer::scope s{trace, "cut.lut_map", job};
    out.mapped = cut::lut_map(d.aig, 6u);
  }
  std::vector<net::klut_network::node> targets;
  out.mapped.klut.foreach_po(
      [&](net::klut_network::node n, uint32_t) { targets.push_back(n); });
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  {
    const tracer::scope s{trace, "core.simulate_all", job};
    out.mode_a = stp.simulate_all(out.mapped.klut, d.patterns);
  }
  {
    const tracer::scope s{trace, "core.simulate_specified", job};
    out.mode_s = stp.simulate_specified(out.mapped.klut, targets,
                                        d.patterns, &r.spec_stats);
  }
  {
    const tracer::scope s{trace, "core.simulate_aig", job};
    out.stp_aig = stp.simulate_aig(d.aig, d.patterns);
  }
  {
    const tracer::scope s{trace, "sim.simulate_aig", job};
    out.reference = sim::simulate_aig(d.aig, d.patterns);
  }
  r.result_gates = out.mapped.klut.num_gates();
}

/// Untimed check of a sim_epfl job: every PO signature of STP mode a,
/// mode s and the STP AIG pass equals sim::simulate_aig's.  Sets the
/// job's digest (reference PO words plus the mapping/cut counts).
void check_sim_job(const design& d, const sim_outputs& out, job_result& r)
{
  const std::size_t words = d.patterns.num_words();
  std::vector<uint64_t> expect(words);
  uint64_t h = fnv_offset;
  for (uint32_t i = 0; i < d.aig.num_pos(); ++i) {
    const net::signal f = d.aig.po_at(i);
    const uint64_t flip = f.is_complemented() ? ~uint64_t{0} : 0u;
    for (std::size_t w = 0; w < words; ++w) {
      expect[w] = out.reference.word(f.get_node(), w) ^ flip;
    }
    h = fnv1a(expect.data(), words * sizeof(uint64_t), h);
    const net::klut_network::node k = out.mapped.klut.po_at(i);
    const auto spec = out.mode_s.find(k);
    bool ok = spec != out.mode_s.end() && spec->second == expect &&
              out.mode_a[k] == expect;
    for (std::size_t w = 0; ok && w < words; ++w) {
      ok = (out.stp_aig.word(f.get_node(), w) ^ flip) == expect[w];
    }
    if (!ok) {
      r.failed = true;
      r.error = "PO " + std::to_string(i) +
                " signature differs from sim::simulate_aig";
      return;
    }
  }
  const uint64_t counts[3] = {r.result_gates, r.spec_stats.num_cuts,
                              r.spec_stats.num_simulated};
  r.digest = fnv1a(counts, sizeof(counts), h);
}
// ---- Rounds ---------------------------------------------------------------------

struct round_info
{
  bool warmup = false;
  bool traced = false;
  double seconds = 0.0;     ///< wall time of the round's jobs
  double cpu_seconds = 0.0; ///< process CPU time of the same jobs
  uint64_t gates = 0;
  uint64_t result_gates = 0;
  uint32_t first_job = 0, end_job = 0;
};

/// One distinct sweep output of a design and the jobs that produced it.
struct distinct_output
{
  std::string aiger;
  std::vector<std::size_t> jobs;
};

struct run_state
{
  std::vector<round_info> rounds;
  std::vector<job_result> jobs; ///< indexed by job id − first_job
  std::vector<std::size_t> job_design;
  uint32_t first_job = 0;
  /// Peak RSS after set-up and the first `min_rounds` rounds: a fixed
  /// amount of work, so the reading does not depend on how many rounds a
  /// machine fits into `--seconds`.
  double peak_rss_mb = 0.0;
  /// Per design: the first passing job, the reference for determinism.
  std::vector<std::optional<std::size_t>> reference;
  /// Per design: distinct sweep outputs by hash, CEC-checked once each.
  std::vector<std::map<uint64_t, distinct_output>> outputs;
};

double peak_rss_mib()
{
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double process_cpu_seconds()
{
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

/// Untimed checks of one finished job: a sweep must complete, a
/// simulation must match the reference, and every repetition of a design
/// must reproduce its first job exactly.
void check_job(const design& d, std::size_t di, const sim_outputs& outputs,
               bool sweeping, run_state& st, job_result& r)
{
  if (r.failed) {
    return;
  }
  if (sweeping) {
    r.digest = fnv1a(r.output.data(), r.output.size(), fnv_offset);
    if (r.stats->outcome != sweep::sweep_outcome::complete) {
      r.failed = true;
      r.error = std::string{"sweep outcome "} +
                sweep::sweep_outcome_name(r.stats->outcome);
      return;
    }
  } else {
    check_sim_job(d, outputs, r);
    if (r.failed) {
      return;
    }
  }
  if (!st.reference[di]) {
    st.reference[di] = st.jobs.size();
  } else {
    const job_result& ref = st.jobs[*st.reference[di]];
    bool same = ref.digest == r.digest && ref.result_gates == r.result_gates;
    if (sweeping) {
      same = same && ref.stats->merges == r.stats->merges &&
             ref.stats->sat_calls_total == r.stats->sat_calls_total &&
             ref.stats->sat_calls_satisfiable ==
                 r.stats->sat_calls_satisfiable;
    }
    if (!same) {
      r.failed = true;
      r.error = "result differs from the design's first repetition";
      return;
    }
  }
  if (sweeping) {
    distinct_output& out = st.outputs[di][r.digest];
    if (out.jobs.empty()) {
      out.aiger = std::move(r.output);
    }
    out.jobs.push_back(st.jobs.size());
  }
}

/// Runs whole rounds until `--seconds` of job time elapsed and enough
/// rounds ran.  A traced run starts with an untraced warm-up round, so
/// that first-touch costs land on neither side of the tracing overhead,
/// then alternates untraced and traced rounds.
run_state run_rounds(const options& opt, const std::vector<design>& designs,
                     const sweep::stp_sweep_params& params, bool sweeping,
                     tracer& trace, uint32_t first_job)
{
  run_state st;
  st.first_job = first_job;
  st.reference.resize(designs.size());
  st.outputs.resize(designs.size());
  const std::size_t wanted = opt.trace ? min_rounds + 1u : min_rounds;
  uint32_t next_job = first_job;
  double timed = 0.0;
  while (timed < static_cast<double>(opt.seconds) ||
         st.rounds.size() < wanted) {
    round_info round;
    round.warmup = opt.trace && st.rounds.empty();
    round.traced = opt.trace && !st.rounds.empty() &&
                   st.rounds.size() % 2u == 0u;
    round.first_job = next_job;
    trace.set_enabled(round.traced);
    for (std::size_t di = 0; di < designs.size(); ++di) {
      const uint32_t job = next_job++;
      job_result r;
      sim_outputs outputs;
      const auto start = clock_type::now();
      const double cpu_start = process_cpu_seconds();
      try {
        const tracer::scope root{trace, "job", job};
        if (sweeping) {
          sweep_job(designs[di], params, trace, job, r);
        } else {
          sim_job(designs[di], trace, job, r, outputs);
        }
      } catch (const std::exception& e) {
        r.failed = true;
        r.error = e.what();
      }
      round.seconds += seconds_between(start, clock_type::now());
      round.cpu_seconds += process_cpu_seconds() - cpu_start;
      round.gates += designs[di].gates;
      round.result_gates += r.result_gates;

      check_job(designs[di], di, outputs, sweeping, st, r);
      r.output.clear();
      st.jobs.push_back(std::move(r));
      st.job_design.push_back(di);
    }
    round.end_job = next_job;
    timed += round.seconds;
    st.rounds.push_back(round);
    if (st.rounds.size() == min_rounds) {
      st.peak_rss_mb = peak_rss_mib();
    }
  }
  trace.set_enabled(false);
  return st;
}

/// The POs [first, end) of \p aig and their fanin cones, as a network of
/// its own over all of \p aig's PIs.  CEC is PO-wise, so checking the
/// slices of a PO partition checks the whole, and the slices — smaller
/// miters — can be checked in parallel.
net::aig_network po_slice(const net::aig_network& aig, uint32_t first,
                          uint32_t end)
{
  std::vector<char> keep(aig.size(), 0);
  std::vector<net::node> stack;
  for (uint32_t i = first; i < end; ++i) {
    stack.push_back(aig.po_at(i).get_node());
  }
  while (!stack.empty()) {
    const net::node n = stack.back();
    stack.pop_back();
    if (keep[n] != 0 || !aig.is_and(n)) {
      continue;
    }
    keep[n] = 1;
    stack.push_back(aig.fanin0(n).get_node());
    stack.push_back(aig.fanin1(n).get_node());
  }
  net::aig_network out;
  std::vector<net::signal> map(aig.size(), out.get_constant(false));
  for (uint32_t i = 0; i < aig.num_pis(); ++i) {
    map[aig.pi_at(i)] = out.create_pi();
  }
  const auto mapped = [&](net::signal f) {
    const net::signal m = map[f.get_node()];
    return f.is_complemented() ? !m : m;
  };
  aig.foreach_gate([&](net::node n) {
    if (keep[n] != 0) {
      map[n] = out.create_and(mapped(aig.fanin0(n)), mapped(aig.fanin1(n)));
    }
  });
  for (uint32_t i = first; i < end; ++i) {
    out.create_po(mapped(aig.po_at(i)));
  }
  return out;
}

/// Untimed CEC of every distinct sweep output against its parsed input,
/// in PO slices spread over \p threads threads.  A failing output fails
/// every job that produced it.
void check_sweep_outputs(const std::vector<design>& designs, run_state& st,
                         uint32_t threads)
{
  struct task
  {
    std::size_t design = 0;
    const distinct_output* output = nullptr;
    uint32_t slice = 0;
    std::string error;
  };
  std::vector<task> tasks;
  for (std::size_t di = 0; di < designs.size(); ++di) {
    for (const auto& [digest, out] : st.outputs[di]) {
      for (uint32_t slice = 0; slice < threads; ++slice) {
        tasks.push_back({di, &out, slice, {}});
      }
    }
  }
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t t; (t = next.fetch_add(1)) < tasks.size();) {
      task& k = tasks[t];
      try {
        std::istringstream in{designs[k.design].aiger};
        const net::aig_network original = io::read_aiger(in);
        std::istringstream out{k.output->aiger};
        const net::aig_network swept = io::read_aiger(out);
        if (swept.num_pis() != original.num_pis() ||
            swept.num_pos() != original.num_pos() ||
            swept.num_gates() != st.jobs[k.output->jobs.front()].result_gates) {
          k.error = "written AIGER does not match the swept network";
          continue;
        }
        const uint32_t pos = original.num_pos();
        const uint32_t first = pos * k.slice / threads;
        const uint32_t end = pos * (k.slice + 1u) / threads;
        if (!sweep::check_equivalence(po_slice(original, first, end),
                                      po_slice(swept, first, end))
                 .equivalent) {
          k.error = "CEC did not prove the swept network equivalent";
        }
      } catch (const std::exception& e) {
        k.error = e.what();
      }
    }
  };
  {
    std::vector<std::jthread> pool;
    for (std::size_t t = 1; t < std::min<std::size_t>(tasks.size(), threads);
         ++t) {
      pool.emplace_back(work);
    }
    work();
  }
  for (const task& k : tasks) {
    if (!k.error.empty()) {
      for (const std::size_t j : k.output->jobs) {
        st.jobs[j].failed = true;
        st.jobs[j].error = k.error;
      }
    }
  }
}

// ---- Metrics --------------------------------------------------------------------

struct metric
{
  std::string name;
  double value = 0.0;
  std::string unit;
};

double ratio(double num, double den)
{
  return den > 0.0 ? num / den : 0.0;
}

std::vector<metric> end_to_end_metrics(const std::vector<double>& setup_seconds,
                                       const run_state& st)
{
  std::vector<double> rates;
  for (const round_info& r : st.rounds) {
    rates.push_back(static_cast<double>(r.gates) / r.seconds);
  }
  return {
      {"setup_s", median(setup_seconds), "s"},
      {"gates_per_s", median(rates), "gates/s"},
      {"result_gates", static_cast<double>(st.rounds.front().result_gates),
       "gates"},
      {"peak_rss_mb", st.peak_rss_mb, "MiB"},
  };
}

/// Per-layer metric names and units, in output order.  Time metrics
/// named after a span ("io.read_aiger_s") are that span's self time.
const std::pair<const char*, const char*> layer_metric_units[] = {
    {"gen.build_s", "s"},
    {"io.read_aiger_s", "s"},
    {"io.write_aiger_s", "s"},
    {"io.aiger_bytes", "bytes"},
    {"cut.lut_map_s", "s"},
    {"cut.luts", "count"},
    {"core.simulate_all_s", "s"},
    {"core.simulate_specified_s", "s"},
    {"core.simulate_aig_s", "s"},
    {"core.specified_cuts", "count"},
    {"core.specified_simulated", "count"},
    {"sim.simulate_aig_s", "s"},
    {"sweep.stp_sweep_s", "s"},
    {"sweep.sim_s", "s"},
    {"sweep.sat_s", "s"},
    {"sweep.other_s", "s"},
    {"sweep.merges", "count"},
    {"sweep.window_merges", "count"},
    {"sweep.ce_patterns", "count"},
    {"sweep.ce_gates_visited", "count"},
    {"sweep.store_peak_bytes", "bytes"},
    {"sweep.worker_sat_s_max", "s"},
    {"sweep.worker_imbalance", "ratio"},
    {"sat.calls_total", "count"},
    {"sat.calls_satisfiable", "count"},
    {"sat.unsat_frac", "ratio"},
    {"sat.conflicts", "count"},
    {"sat.conflicts_per_call", "count/call"},
    {"sat.s_per_call", "s/call"},
    {"sat.nodes_encoded", "count"},
    {"sat.clauses_peak", "count"},
    {"sat.inprocess_s", "s"},
    {"trace.overhead_s", "s"},
};

/// Per-layer metrics of a traced run: every quantity is summed over one
/// traced round (peaks take the round's maximum), then the median over
/// the traced rounds is reported.  Layers a workload does not call
/// report 0.
std::vector<metric> layer_metrics(const run_state& st, const tracer& trace,
                                  bool sweeping)
{
  using tally = std::map<std::string, double>;
  const std::vector<span>& spans = trace.spans();
  const std::vector<double> self = trace.self_times();

  std::map<uint32_t, std::size_t> round_of_job;
  for (std::size_t i = 0; i < st.rounds.size(); ++i) {
    if (st.rounds[i].traced) {
      for (uint32_t j = st.rounds[i].first_job; j < st.rounds[i].end_job; ++j) {
        round_of_job[j] = i;
      }
    }
  }
  std::map<std::size_t, tally> rounds;
  std::map<uint32_t, double> gen_per_setup;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const span& s = spans[i];
    if (s.job < st.first_job) {
      if (std::strcmp(s.name, "gen.build") == 0) {
        gen_per_setup[s.job] += self[i];
      }
      continue;
    }
    tally& t = rounds[round_of_job.at(s.job)];
    t[std::string{s.name} + "_s"] += self[i];
    if (!s.counters) {
      continue;
    }
    const sweep::sweep_stats& c = *s.counters;
    double worker_max = 0.0, worker_sum = 0.0;
    for (const double w : c.worker_sat_seconds) {
      worker_max = std::max(worker_max, w);
      worker_sum += w;
    }
    t["sweep.sim_s"] += c.sim_seconds;
    t["sweep.sat_s"] += c.sat_seconds;
    t["sweep.merges"] += static_cast<double>(c.merges);
    t["sweep.window_merges"] += static_cast<double>(c.window_merges);
    t["sweep.ce_patterns"] += static_cast<double>(c.ce_patterns);
    t["sweep.ce_gates_visited"] += static_cast<double>(c.ce_gates_visited);
    t["sweep.store_peak_bytes"] = std::max(
        t["sweep.store_peak_bytes"], static_cast<double>(c.store_peak_bytes));
    if (!c.worker_sat_seconds.empty()) {
      t["sweep.worker_sat_s_max"] += worker_max;
      t["worker_sat_mean"] +=
          worker_sum / static_cast<double>(c.worker_sat_seconds.size());
    }
    t["sat.calls_total"] += static_cast<double>(c.sat_calls_total);
    t["sat.calls_satisfiable"] += static_cast<double>(c.sat_calls_satisfiable);
    t["sat.conflicts"] += static_cast<double>(c.sat_conflicts);
    t["sat.nodes_encoded"] += static_cast<double>(c.sat_nodes_encoded);
    t["sat.clauses_peak"] = std::max(t["sat.clauses_peak"],
                                     static_cast<double>(c.sat_clauses_peak));
    t["sat.inprocess_s"] += c.sat_inprocess_seconds;
  }

  std::vector<double> untraced_walls, traced_walls;
  for (std::size_t i = 0; i < st.rounds.size(); ++i) {
    const round_info& r = st.rounds[i];
    if (r.warmup) {
      continue;
    }
    (r.traced ? traced_walls : untraced_walls).push_back(r.seconds);
    if (!r.traced) {
      continue;
    }
    tally& t = rounds[i];
    for (uint32_t j = r.first_job; j < r.end_job; ++j) {
      const job_result& job = st.jobs[j - st.first_job];
      t["io.aiger_bytes"] += static_cast<double>(job.aiger_bytes);
      t["cut.luts"] += sweeping ? 0.0 : job.result_gates;
      t["core.specified_cuts"] += static_cast<double>(job.spec_stats.num_cuts);
      t["core.specified_simulated"] +=
          static_cast<double>(job.spec_stats.num_simulated);
    }
    t["sweep.other_s"] =
        t["sweep.stp_sweep_s"] - t["sweep.sim_s"] - t["sweep.sat_s"];
    t["sweep.worker_imbalance"] =
        ratio(t["sweep.worker_sat_s_max"], t["worker_sat_mean"]);
    t["sat.unsat_frac"] = ratio(
        t["sat.calls_total"] - t["sat.calls_satisfiable"], t["sat.calls_total"]);
    t["sat.conflicts_per_call"] =
        ratio(t["sat.conflicts"], t["sat.calls_total"]);
    t["sat.s_per_call"] = ratio(t["sweep.sat_s"], t["sat.calls_total"]);
  }

  std::vector<double> gen;
  for (const auto& [job, seconds] : gen_per_setup) {
    gen.push_back(seconds);
  }
  std::vector<metric> metrics;
  for (const auto& [name, unit] : layer_metric_units) {
    std::vector<double> xs;
    for (auto& [index, t] : rounds) {
      xs.push_back(t[name]);
    }
    metrics.push_back({name, median(xs), unit});
  }
  for (metric& m : metrics) {
    if (m.name == "gen.build_s") {
      m.value = median(gen);
    } else if (m.name == "trace.overhead_s") {
      m.value = median(traced_walls) - median(untraced_walls);
    }
  }
  return metrics;
}

void print_result(bool correct, uint64_t attempted, uint64_t failed,
                  const std::vector<metric>& metrics)
{
  for (const metric& m : metrics) {
    std::printf("%-28s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0u ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// ---- Environment ----------------------------------------------------------------

/// CPU brand string from CPUID (read without touching the file system).
std::string cpu_model()
{
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000u, regs, regs + 1, regs + 2, regs + 3) != 0 &&
      regs[0] >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3u; ++leaf) {
      __get_cpuid(0x80000002u + leaf, regs + 4 * leaf, regs + 4 * leaf + 1,
                  regs + 4 * leaf + 2, regs + 4 * leaf + 3);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand.erase(std::find(brand.begin(), brand.end(), '\0'), brand.end());
    const auto first = brand.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : brand.substr(first);
  }
#endif
  return "unknown";
}


} // namespace

int main(int argc, char** argv)
{
  const options opt = parse_options(argc, argv);
  const bool sweeping = opt.workload != workload_kind::sim_epfl;
  const uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  const uint32_t threads = std::min(4u, hw);
  sweep::stp_sweep_params params;
  if (opt.workload == workload_kind::sweep_sharded) {
    params.threads = threads;
    params.sat_shards = sharded_shards;
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%llu trace=%d\n",
              opt.workload_name.c_str(),
              static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(opt.seconds), opt.trace ? 1 : 0);
  std::printf("env {\"nproc\": %u, \"cpu\": \"%s\", \"simd\": \"%s\", "
              "\"threads\": %u, \"sat_shards\": %u, \"patterns\": %llu}\n",
              hw, cpu_model().c_str(),
              sim::simd::level_name(sim::simd::active_level()),
              sweeping ? params.threads : 1u,
              sweeping ? params.effective_sat_shards() : 0u,
              static_cast<unsigned long long>(sweeping ? 0u : sim_patterns));

  // Set-up, repeated; the last repetition's designs are used.
  tracer trace;
  trace.set_enabled(opt.trace);
  std::vector<double> setup_seconds;
  std::vector<design> designs;
  try {
    double setup_total = 0.0;
    for (uint32_t rep = 0; rep < setup_min_repetitions ||
                           setup_total < setup_min_seconds;
         ++rep) {
      designs.clear();
      const auto start = clock_type::now();
      designs = set_up(opt, trace, rep);
      setup_seconds.push_back(seconds_between(start, clock_type::now()));
      setup_total += setup_seconds.back();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
    return 1;
  }
  for (const design& d : designs) {
    std::printf("design %-11s gates=%u\n", d.name.c_str(), d.gates);
  }

  run_state st =
      run_rounds(opt, designs, params, sweeping, trace,
                 static_cast<uint32_t>(setup_seconds.size()));
  const auto check_start = clock_type::now();
  if (sweeping) {
    check_sweep_outputs(designs, st, threads);
  }
  std::printf("check_s %.3f (untimed output checks)\n",
              seconds_between(check_start, clock_type::now()));

  uint64_t failed = 0;
  for (std::size_t j = 0; j < st.jobs.size(); ++j) {
    if (st.jobs[j].failed) {
      ++failed;
      std::fprintf(stderr, "perfbench: job %zu (%s) failed: %s\n", j,
                   designs[st.job_design[j]].name.c_str(),
                   st.jobs[j].error.c_str());
    }
  }
  const uint64_t attempted = st.jobs.size();
  for (std::size_t di = 0; di < designs.size(); ++di) {
    if (sweeping && st.reference[di]) {
      const sweep::sweep_stats& s = *st.jobs[*st.reference[di]].stats;
      std::printf("result %-11s result_gates=%u merges=%llu sat_calls=%llu "
                  "satisfiable=%llu\n",
                  designs[di].name.c_str(), s.gates_after,
                  static_cast<unsigned long long>(s.merges),
                  static_cast<unsigned long long>(s.sat_calls_total),
                  static_cast<unsigned long long>(s.sat_calls_satisfiable));
    }
  }
  for (std::size_t i = 0; i < st.rounds.size(); ++i) {
    const round_info& r = st.rounds[i];
    std::printf("round %zu%s seconds=%.4f cpu_s=%.4f gates_per_s=%.1f\n", i,
                r.warmup ? " warm-up" : r.traced ? " traced" : "", r.seconds,
                r.cpu_seconds, static_cast<double>(r.gates) / r.seconds);
  }
  std::printf("rounds=%zu jobs=%llu failed=%llu failed_frac=%.6f\n",
              st.rounds.size(), static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<double>(failed) / static_cast<double>(attempted));

  std::vector<metric> metrics;
  if (opt.trace) {
    metrics = layer_metrics(st, trace, sweeping);
    if (!opt.trace_out.empty() && !trace.write_jsonl(opt.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opt.trace_out.c_str());
      return 1;
    }
  } else {
    metrics = end_to_end_metrics(setup_seconds, st);
    if (!sweeping) {
      std::printf("gate_patterns_per_s %.6f gate-patterns/s\n",
                  metrics[1].value * static_cast<double>(sim_patterns));
    }
  }
  print_result(failed == 0u, attempted, failed, metrics);
  return failed == 0u ? 0 : 1;
}
