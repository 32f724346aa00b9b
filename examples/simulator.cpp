/// \file simulator.cpp
/// \brief The `simulator` command of the paper's tool (ALSO), rebuilt:
/// load or generate a circuit, map it to k-LUTs, and time the baseline
/// versus the STP simulator.
///
/// Usage:
///   simulator [--aiger FILE | --epfl NAME] [--patterns N] [--k K]
///
/// Defaults: --epfl adder --patterns 65536 --k 6.
#include "core/stp_simulator.hpp"
#include "cut/lut_mapper.hpp"
#include "gen/benchmarks.hpp"
#include "io/aiger.hpp"
#include "network/traversal.hpp"
#include "sim/bitwise_sim.hpp"
#include "util/parse_arg.hpp"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

int main(int argc, char** argv)
{
  using namespace stps;
  using clock_type = std::chrono::steady_clock;
  constexpr const char* usage =
      "usage: simulator [--aiger FILE | --epfl NAME] [--patterns N] "
      "[--k K]\n";

  std::string epfl_name = "adder";
  std::string aiger_path;
  uint64_t num_patterns = 65536u;
  uint32_t k = 6u;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--aiger") == 0) {
      aiger_path = argv[i + 1];
    } else if (std::strcmp(argv[i], "--epfl") == 0) {
      epfl_name = argv[i + 1];
    } else if (std::strcmp(argv[i], "--patterns") == 0) {
      util::parse_arg_or_exit(num_patterns, argv[i], argv[i + 1], usage);
    } else if (std::strcmp(argv[i], "--k") == 0) {
      util::parse_arg_or_exit(k, argv[i], argv[i + 1], usage);
    }
  }

  const net::aig_network aig = aiger_path.empty()
                                   ? gen::make_epfl(epfl_name)
                                   : io::read_aiger(aiger_path);
  std::printf("circuit: %u PIs, %u POs, %u gates, depth %u\n",
              aig.num_pis(), aig.num_pos(), aig.num_gates(),
              net::depth(aig));

  const cut::lut_map_result mapped = cut::lut_map(aig, k);
  std::printf("%u-LUT network: %u LUTs\n", k, mapped.klut.num_gates());

  const sim::pattern_set patterns =
      sim::pattern_set::random(aig.num_pis(), num_patterns, 1u);
  std::printf("simulating %llu random patterns\n",
              static_cast<unsigned long long>(num_patterns));

  const auto time_call = [](const char* label, auto&& fn) {
    const auto start = clock_type::now();
    fn();
    const double s =
        std::chrono::duration<double>(clock_type::now() - start).count();
    std::printf("  %-28s %8.3f s\n", label, s);
    return s;
  };

  const core::stp_simulator stp_sim;
  const double ta_base =
      time_call("AIG, bitwise baseline:", [&] { sim::simulate_aig(aig, patterns); });
  const double ta_stp =
      time_call("AIG, STP matrix pass:", [&] { stp_sim.simulate_aig(aig, patterns); });
  const double tl_base = time_call("k-LUT, per-bit baseline:", [&] {
    sim::simulate_klut_bitwise(mapped.klut, patterns);
  });
  const double tl_stp = time_call("k-LUT, STP matrix pass:", [&] {
    stp_sim.simulate_all(mapped.klut, patterns);
  });
  std::printf("speedup: AIG %.2fx, k-LUT %.2fx\n", ta_base / ta_stp,
              tl_base / tl_stp);
  return 0;
}
