// Ablation: the 2-RTT HelloRetryRequest fallback the paper explicitly
// configured away ("we focus on 1-RTT handshakes and configured TLS such
// that the 2-RTT fallback never occurred"). Measures what that choice is
// worth: handshakes where the client guesses the wrong group and the server
// answers with HelloRetryRequest, across network scenarios.
//
// A thin declaration over the campaign engine (scenario-matrix layout, one
// "<scenario>" and one "<scenario> +HRR" column per scenario): argv[1]
// overrides the sample count, argv[2] names an optional JSONL output file,
// PQTLS_WORKERS parallelizes.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  return pqtls::bench::run_declared_campaign("ablation_hrr", argc, argv);
}
