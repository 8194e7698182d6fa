// Reproduces Figure 3: the KA/SA independence analysis. For every
// non-hybrid KA x SA combination per NIST level group, the handshake
// latency under (a) the default OpenSSL buffering behaviour and (b) the
// optimized immediate-push behaviour, the deviation from the independence
// prediction E(k,s) - M(k,s), and (c) the improvement of the optimized
// behaviour.
//
// Runs the "fig3" campaign (the grids plus their deviation baselines, under
// both buffering modes) through an in-memory sink; 3a, 3b and 3c all read
// the same samples.
#include <cstdio>

#include "analysis/deviation.hpp"
#include "bench_common.hpp"
#include "campaign/matrix.hpp"

int main(int argc, char** argv) {
  using namespace pqtls;
  campaign::CollectSink collect;
  campaign::run_campaign(*campaign::find_campaign("fig3"),
                         bench::runner_options(argc, argv), {&collect});

  analysis::LatencyTable buffered, immediate;
  for (const auto& o : collect.outcomes()) {
    auto& table = o.cell.config.buffering == tls::Buffering::kDefault
                      ? buffered
                      : immediate;
    table[{o.cell.config.ka, o.cell.config.sa}] =
        o.ok() ? o.result.median_total : -1;
  }

  // Prints one level's KA x SA grid, `value` giving each cell in ms.
  auto print_grid = [](const campaign::LevelCombos& level, auto value) {
    std::printf("  %s:\n  %-14s", level.label, "");
    for (const char* sa : level.sas) std::printf(" %14s", sa);
    std::printf("\n");
    for (const char* ka : level.kas) {
      std::printf("  %-14s", ka);
      for (const char* sa : level.sas) std::printf(" %+14.2f", value(ka, sa));
      std::printf("\n");
    }
  };

  for (const auto* table : {&buffered, &immediate}) {
    std::printf("\n%s (deviation E(k,s) - M(k,s) in ms; positive = "
                "faster than predicted)\n",
                table == &buffered ? "Figure 3a: default OpenSSL behaviour"
                                   : "Figure 3b: optimized behaviour");
    for (const auto& level : campaign::fig3_levels()) {
      std::vector<std::pair<std::string, std::string>> combos;
      for (const char* ka : level.kas)
        for (const char* sa : level.sas) combos.emplace_back(ka, sa);
      analysis::LatencyTable deviation;
      for (const auto& cell : analysis::deviation_analysis(*table, combos))
        deviation[{cell.ka, cell.sa}] = cell.deviation;
      print_grid(level, [&](const char* ka, const char* sa) {
        return deviation.at({ka, sa}) * 1e3;
      });
    }
  }

  std::printf("\nFigure 3c: improvement of the optimized behaviour "
              "(M_default - M_optimized in ms; positive = optimized faster)\n");
  for (const auto& level : campaign::fig3_levels()) {
    print_grid(level, [&](const char* ka, const char* sa) {
      return (buffered.at({ka, sa}) - immediate.at({ka, sa})) * 1e3;
    });
  }
  return 0;
}
