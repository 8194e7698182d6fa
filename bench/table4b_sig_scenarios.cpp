// Reproduces Table 4b: median full-handshake latency for all SAs (with
// X25519 as KA, plus the rsa3072_dilithium2 hybrid) under the emulated
// network scenarios. The High-Delay column exposes the paper's key TCP
// finding: flights exceeding the initial congestion window cost extra RTTs
// (SPHINCS+ at 3-4 RTTs, Dilithium5 at 2 RTTs).
//
// A thin declaration over the campaign engine (scenario-matrix ASCII
// layout): argv[1] overrides the sample count, argv[2] names an optional
// JSONL output file, PQTLS_WORKERS parallelizes.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  return pqtls::bench::run_declared_campaign("table4b", argc, argv);
}
