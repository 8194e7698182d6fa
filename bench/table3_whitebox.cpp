// Reproduces Table 3: white-box measurements for the paper's selected
// KA/SA pairs — handshake rate, CPU cost per handshake on server and
// client, per-library CPU distribution (libcrypto / kernel / libssl / libc /
// ixgbe / python), and packets sent per handshake.
//
// A thin declaration over the campaign engine (white-box ASCII rendering):
// argv[1] overrides the sample count, argv[2] names an optional JSONL
// output file, PQTLS_WORKERS parallelizes.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  return pqtls::bench::run_declared_campaign("table3", argc, argv);
}
