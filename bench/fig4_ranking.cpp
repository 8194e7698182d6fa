// Reproduces Figure 4: KAs (top) and SAs (bottom) ranked by logarithmic
// overall handshake latency, linearly scaled to [0, 10] and rounded; the
// fastest algorithms get the lowest bucket (leftmost in the paper's figure).
//
// Runs the "fig4" campaign (KA sweep with rsa:2048 plus SA sweep with
// x25519, deduplicated) through an in-memory sink and feeds the collected
// medians to the ranking analysis.
#include <cstdio>

#include "analysis/ranking.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace pqtls;
  campaign::CollectSink collect;
  campaign::run_campaign(*campaign::find_campaign("fig4"),
                         bench::runner_options(argc, argv), {&collect});

  // The shared x25519/rsa:2048 cell contributes to both rankings, exactly
  // as it appeared in both of the paper's sweeps.
  std::vector<std::pair<std::string, double>> ka_latencies, sa_latencies;
  for (const auto& outcome : collect.outcomes()) {
    if (!outcome.ok()) continue;
    if (outcome.cell.config.sa == "rsa:2048")
      ka_latencies.emplace_back(outcome.cell.config.ka,
                                outcome.result.median_total);
    if (outcome.cell.config.ka == "x25519")
      sa_latencies.emplace_back(outcome.cell.config.sa,
                                outcome.result.median_total);
  }

  std::printf("Figure 4: algorithms ranked by log handshake latency "
              "(bucket 0 = fastest, 10 = slowest)\n");
  std::printf("\nKey agreements (with rsa:2048):\n%s",
              analysis::render_ranking(analysis::rank_by_latency(ka_latencies))
                  .c_str());
  std::printf("\nSignature algorithms (with x25519):\n%s",
              analysis::render_ranking(analysis::rank_by_latency(sa_latencies))
                  .c_str());
  return 0;
}
