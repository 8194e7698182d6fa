// The paper's appendix-B "all-sphincs" experiment: compare SPHINCS+ variants
// to identify the best one for TLS. The paper concluded the haraka-"f"
// (fast) simple parameter sets win on handshake latency; the "s" (small)
// sets trade much slower signing (the SrvCPU column) for roughly half the
// signature bytes.
//
// A thin declaration over the campaign engine (white-box ASCII rendering):
// argv[1] overrides the sample count, argv[2] names an optional JSONL
// output file, PQTLS_WORKERS parallelizes.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  return pqtls::bench::run_declared_campaign("all_sphincs", argc, argv);
}
