// Reproduces the section 5.5 analysis ("PQ TLS for Attack Scenarios"):
// the asymmetry levers an attacker could exploit — the server/client CPU
// cost ratio (algorithmic-complexity attacks) and the server/client data
// amplification factor (spoofed-request reflection; compare QUIC's mandated
// 3x anti-amplification limit). The main lever in both is the choice of SA.
//
// A thin declaration over the campaign engine (white-box ASCII rendering):
// argv[1] overrides the sample count, argv[2] names an optional JSONL
// output file, PQTLS_WORKERS parallelizes.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  return pqtls::bench::run_declared_campaign("sec55", argc, argv);
}
