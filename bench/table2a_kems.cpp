// Reproduces Table 2a: handshake latency (median, split into part A
// [CH -> SH] and part B [SH -> Client Finished]), the number of handshakes
// completed in a 60 s period, and per-handshake data volumes — for all 23
// key agreements combined with rsa:2048 as the signature algorithm.
//
// A thin declaration over the campaign engine: the cell matrix lives in
// src/campaign/campaign.cpp; argv[1] overrides the sample count, argv[2]
// names an optional JSONL output file, PQTLS_WORKERS parallelizes.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  return pqtls::bench::run_declared_campaign("table2a", argc, argv);
}
