// Handshake profile calibration and the analytic capacity bound; the load
// engine itself lives in fleet.cpp.
#include "loadgen/loadgen.hpp"

#include <map>
#include <mutex>
#include <stdexcept>
#include <tuple>

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
    // One real handshake (modeled clock) for the wire volumes and the CPU
    // charges: the flight sizes carry the certificate chain, KEM
    // artifacts, and all TCP/frame overhead exactly as the testbed
    // measures them. The resumed variant resumes every sample, so the
    // server flight carries no certificate chain or CertificateVerify.
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
    // CPU steps are the connections' own charge ledgers (client legs:
    // ClientHello, Finished; server legs: flight, Finished), priced with
    // `batch` amortizing the server's encapsulation, plus this load
    // model's own per-delivery dispatch steps (1/1/2/1).
    const perf::CostModel& cm = perf::CostModel::builtin();
    auto cpu = [&](const perf::ChargeLedger& leg, int steps) {
      return cm.price(leg, ka, sa, batch) + steps * cm.step();
    };
    HandshakeProfile& p = entry->profile;
    p.client_bytes = r.client_bytes;
    p.server_bytes = r.server_bytes;
    p.client_hello_cpu = cpu(r.client_legs.at(0), 1);
    p.server_flight_cpu = cpu(r.server_legs.at(0), 1);
    p.client_finish_cpu = cpu(r.client_legs.at(1), 2);
    p.server_finish_cpu = cpu(r.server_legs.at(1), 1);
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
