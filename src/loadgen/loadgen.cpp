// Handshake profile calibration and the analytic capacity bound; the load
// engine itself lives in fleet.cpp.
#include "loadgen/loadgen.hpp"

#include <map>
#include <mutex>
#include <stdexcept>
#include <tuple>

#include "crypto/catalog.hpp"
#include "perf/cost_model.hpp"

namespace pqtls::loadgen {

const HandshakeProfile& calibrated_profile(const std::string& ka,
                                           const std::string& sa,
                                           std::uint64_t pki_seed,
                                           bool resumed,
                                           const pki::ChainProfile& chain,
                                           tls::CertMode cert_mode,
                                           int batch) {
  struct Entry {
    std::once_flag once;
    HandshakeProfile profile;
  };
  static std::mutex mu;
  static std::map<std::tuple<std::string, std::string, std::uint64_t, bool,
                             std::string, int, int>,
                  Entry>
      cache;
  Entry* entry;
  {
    std::lock_guard<std::mutex> lock(mu);
    entry = &cache[std::make_tuple(ka, sa, pki_seed, resumed, chain.name,
                                   static_cast<int>(cert_mode), batch)];
  }
  // call_once rethrows on failure and leaves the flag unset, so an unknown
  // algorithm keeps throwing instead of caching a half-built profile.
  std::call_once(entry->once, [&] {
    // One real handshake (modeled clock) for the wire volumes: the flight
    // sizes carry the certificate chain, KEM artifacts, and all TCP/frame
    // overhead exactly as the testbed measures them. The resumed variant
    // resumes every sample, so the server flight carries no certificate
    // chain or CertificateVerify.
    testbed::ExperimentConfig cfg;
    cfg.ka = ka;
    cfg.sa = sa;
    cfg.sample_handshakes = 2;
    cfg.time_model = testbed::TimeModel::kModeled;
    cfg.seed = pki_seed ^ 0x10adC0deull;
    cfg.pki_seed = pki_seed;
    cfg.resumption_ratio = resumed ? 1.0 : 0.0;
    cfg.chain_profile = chain;
    cfg.cert_mode = cert_mode;
    testbed::ExperimentResult r = testbed::run_experiment(cfg);
    if (!r.ok)
      throw std::runtime_error("loadgen calibration failed for " + ka + "/" +
                               sa);
    HandshakeProfile& p = entry->profile;
    p.client_bytes = r.client_bytes;
    p.server_bytes = r.server_bytes;

    // CPU steps mirror the perf::CostModel charge sites in
    // tls::Connection (kem/sig operations, KDF derivations, per-byte
    // record work, per-step dispatch) without re-running the crypto.
    const perf::CostModel& cm = perf::CostModel::builtin();
    constexpr std::size_t kFinishedWire = HandshakeProfile::kFinishedWire;
    std::size_t ch_wire =
        p.client_bytes > kFinishedWire ? p.client_bytes - kFinishedWire : 64;
    if (resumed) {
      // PSK + (EC)DHE charge sites: the signature and the two chain
      // verifies vanish; the binder computation/check and the early/ticket
      // PSK derivations add KDF invocations on both ends, and the server
      // mints a fresh NewSessionTicket after the client Finished.
      p.client_hello_cpu =
          cm.kem_keygen(ka) + 3 * cm.kdf() + cm.per_byte(ch_wire) + cm.step();
      p.server_flight_cpu = cm.kem_encaps_batched(ka, batch) + 8 * cm.kdf() +
                            cm.per_byte(p.server_bytes) + cm.step();
      p.client_finish_cpu = cm.kem_decaps(ka) + 9 * cm.kdf() +
                            cm.per_byte(p.server_bytes) + 2 * cm.step();
      p.server_finish_cpu =
          3 * cm.kdf() + cm.per_byte(kFinishedWire) + cm.step();
    } else {
      // Certificate-flight charge sites (tls::Connection): the client
      // verifies the CertificateVerify plus one signature per chain
      // certificate (leaf + intermediates); Merkle mode verifies the leaf
      // only plus a KDF-priced proof walk; compression adds per-byte codec
      // work over the uncompressed Certificate body on both ends.
      double verifies = 2.0 + static_cast<double>(chain.intermediate_sas.size());
      double extra_client = 0, extra_server = 0;
      if (cert_mode == tls::CertMode::kMerkle) {
        verifies = 1.0;
        extra_client = cm.kdf();
      } else if (cert_mode == tls::CertMode::kCompressed) {
        const crypto::AlgorithmCatalog& catalog =
            crypto::AlgorithmCatalog::instance();
        std::size_t body = pki::chain_encoded_size(
            chain, *catalog.require_signer(sa).signer,
            "pqtls-bench.example.net", "pqtls-bench root CA");
        extra_client = cm.per_byte(body);
        extra_server = cm.per_byte(body);
      }
      p.client_hello_cpu =
          cm.kem_keygen(ka) + cm.per_byte(ch_wire) + cm.step();
      p.server_flight_cpu = cm.kem_encaps_batched(ka, batch) + cm.sign(sa) +
                            5 * cm.kdf() + cm.per_byte(p.server_bytes) +
                            extra_server + cm.step();
      p.client_finish_cpu = cm.kem_decaps(ka) + verifies * cm.verify(sa) +
                            7 * cm.kdf() + cm.per_byte(p.server_bytes) +
                            extra_client + 2 * cm.step();
      p.server_finish_cpu = cm.kdf() + cm.per_byte(kFinishedWire) + cm.step();
    }
  });
  return entry->profile;
}

double analytic_capacity(const LoadConfig& config,
                         const HandshakeProfile& profile) {
  double per_conn = config.harness_overhead_s + profile.server_cpu();
  if (per_conn <= 0 || config.cores < 1) return 0;
  return static_cast<double>(config.cores) / per_conn;
}

}  // namespace pqtls::loadgen
