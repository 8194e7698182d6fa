// Ablation for the paper's closing recommendation: "We expect the initial
// CWND will become an important tuning factor for TLS servers to retain the
// ability for 1-RTT handshakes." Sweeps the TCP initial congestion window
// for representative SAs at a 1 s RTT and shows how a larger IW restores
// single-round-trip handshakes for large PQ flights.
//
// A thin declaration over the campaign engine (scenario-matrix layout, one
// "IW <n>" column per window): argv[1] overrides the sample count, argv[2]
// names an optional JSONL output file, PQTLS_WORKERS parallelizes.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  return pqtls::bench::run_declared_campaign("ablation_initial_cwnd", argc,
                                             argv);
}
