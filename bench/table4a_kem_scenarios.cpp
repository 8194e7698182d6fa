// Reproduces Table 4a: median full-handshake latency for all 23 KAs
// (with rsa:2048 as SA) under the paper's emulated network scenarios:
// no emulation, 10% loss, 1 Mbit/s, 1 s RTT, LTE-M (15 km), and 5G.
//
// A thin declaration over the campaign engine (scenario-matrix ASCII
// layout): argv[1] overrides the sample count, argv[2] names an optional
// JSONL output file, PQTLS_WORKERS parallelizes.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  return pqtls::bench::run_declared_campaign("table4a", argc, argv);
}
