// Reproduces Table 2b: handshake latency parts, 60 s handshake count, and
// data volumes for all 23 signature algorithms combined with X25519 as the
// key agreement.
//
// A thin declaration over the campaign engine: the cell matrix lives in
// src/campaign/campaign.cpp; argv[1] overrides the sample count, argv[2]
// names an optional JSONL output file, PQTLS_WORKERS parallelizes.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  return pqtls::bench::run_declared_campaign("table2b", argc, argv);
}
