#include "perf/cost_model.hpp"

#include <map>
#include <stdexcept>
#include <string>

namespace pqtls::perf {

namespace {

// All table entries are microseconds; converted to seconds at the API
// boundary. The relative ordering is the modeled quantity (see header).
struct KemCost {
  double keygen, encaps, decaps;
};
struct SigCost {
  double sign, verify;
};

const std::map<std::string_view, KemCost>& kem_costs() {
  static const std::map<std::string_view, KemCost> table = {
      {"x25519", {60, 60, 60}},
      // Generic short-Weierstrass ECDH (deliberately unoptimized, like the
      // OpenSSL p384/p521 paths the paper shows to be slow).
      {"p256", {250, 500, 250}},
      {"p384", {700, 1400, 700}},
      {"p521", {1500, 3000, 1500}},
      {"kyber512", {25, 35, 45}},
      {"kyber768", {40, 55, 70}},
      {"kyber1024", {60, 80, 100}},
      {"kyber90s512", {30, 40, 50}},
      {"kyber90s768", {45, 60, 80}},
      {"kyber90s1024", {65, 90, 110}},
      {"bikel1", {600, 120, 1800}},
      {"bikel3", {1800, 280, 5200}},
      {"hqc128", {250, 450, 700}},
      {"hqc192", {500, 900, 1400}},
      {"hqc256", {900, 1700, 2600}},
  };
  return table;
}

const std::map<std::string_view, SigCost>& sig_costs() {
  static const std::map<std::string_view, SigCost> table = {
      {"rsa:1024", {400, 25}},
      {"rsa:2048", {1800, 60}},
      {"rsa:3072", {4500, 110}},
      {"rsa:4096", {9000, 170}},
      // ECDSA components of the hybrid SAs.
      {"p256", {280, 550}},
      {"p384", {800, 1500}},
      {"p521", {1700, 3200}},
      {"falcon512", {2600, 140}},
      {"falcon1024", {5200, 280}},
      {"dilithium2", {260, 120}},
      {"dilithium2_aes", {290, 130}},
      {"dilithium3", {420, 190}},
      {"dilithium3_aes", {460, 200}},
      {"dilithium5", {640, 290}},
      {"dilithium5_aes", {700, 310}},
      {"sphincs128", {14000, 900}},
      {"sphincs192", {23000, 1300}},
      {"sphincs256", {30000, 1400}},
      {"sphincs128s", {280000, 350}},
      {"sphincs192s", {500000, 500}},
      {"sphincs256s", {440000, 700}},
  };
  return table;
}

// The hybrid registries spell RSA components without the colon.
std::string_view canonical(std::string_view name) {
  if (name == "rsa1024") return "rsa:1024";
  if (name == "rsa2048") return "rsa:2048";
  if (name == "rsa3072") return "rsa:3072";
  if (name == "rsa4096") return "rsa:4096";
  return name;
}

// Exact-name lookup first (covers "dilithium2_aes", "kyber90s512"), then
// hybrid decomposition at the first underscore ("p256_kyber512" =
// p256 + kyber512). Member selects the operation from the cost struct. An
// algorithm with no entry is an error, never a guessed cost.
template <typename Table, typename Member>
double resolve_us(const Table& table, std::string_view name, Member member) {
  auto it = table.find(canonical(name));
  if (it != table.end()) return it->second.*member;
  std::size_t split = name.find('_');
  if (split != std::string_view::npos) {
    auto a = table.find(canonical(name.substr(0, split)));
    auto b = table.find(canonical(name.substr(split + 1)));
    if (a != table.end() && b != table.end())
      return a->second.*member + b->second.*member;
  }
  throw std::invalid_argument("CostModel: no cost entry for algorithm '" +
                              std::string(name) + "'");
}

// Fraction of an operation that same-key batching amortizes (public-key
// parsing, A-matrix expansion, H(pk)); calibrated against the batch_*
// micro-benches in bench/micro_algorithms. Hybrids amortize only their
// PQ component, so they get roughly half the pure-PQ fraction; classical
// algorithms and the code-based KEMs (no batched implementation) get 0.
bool is_hybrid_name(std::string_view name) {
  return name.find('_') != std::string_view::npos &&
         name.find("90s") == std::string_view::npos &&
         name.find("_aes") == std::string_view::npos;
}

double kem_encaps_fraction(std::string_view ka) {
  if (ka.find("kyber") == std::string_view::npos) return 0.0;
  return is_hybrid_name(ka) ? 0.18 : 0.35;
}

double amortize(double cost, double fraction, int batch) {
  if (batch <= 1) return cost;  // exact: keeps unbatched profiles identical
  return cost * ((1.0 - fraction) + fraction / static_cast<double>(batch));
}

}  // namespace

const CostModel& CostModel::builtin() {
  static const CostModel model;
  return model;
}

double CostModel::kem_keygen(std::string_view ka) const {
  return resolve_us(kem_costs(), ka, &KemCost::keygen) * 1e-6;
}
double CostModel::kem_encaps(std::string_view ka) const {
  return resolve_us(kem_costs(), ka, &KemCost::encaps) * 1e-6;
}
double CostModel::kem_decaps(std::string_view ka) const {
  return resolve_us(kem_costs(), ka, &KemCost::decaps) * 1e-6;
}
double CostModel::sign(std::string_view sa) const {
  return resolve_us(sig_costs(), sa, &SigCost::sign) * 1e-6;
}
double CostModel::verify(std::string_view sa) const {
  return resolve_us(sig_costs(), sa, &SigCost::verify) * 1e-6;
}

double CostModel::kem_encaps_batched(std::string_view ka, int batch) const {
  return amortize(kem_encaps(ka), kem_encaps_fraction(ka), batch);
}

double CostModel::price(Op op, std::uint64_t count, std::string_view ka,
                        std::string_view sa, int batch) const {
  if (count == 0) return 0;
  double n = static_cast<double>(count);
  switch (op) {
    case Op::kKemKeygen: return n * kem_keygen(ka);
    case Op::kKemEncaps: return n * kem_encaps_batched(ka, batch);
    case Op::kKemDecaps: return n * kem_decaps(ka);
    case Op::kSign: return n * sign(sa);
    case Op::kVerify: return n * verify(sa);
    case Op::kKdf: return n * kdf();
    case Op::kPerByte: return per_byte(count);
  }
  return 0;
}

double CostModel::price(const ChargeLedger& leg, std::string_view ka,
                        std::string_view sa, int batch) const {
  double seconds = 0;
  for (std::size_t i = 0; i < kOpCount; ++i)
    seconds += price(static_cast<Op>(i), leg.counts[i], ka, sa, batch);
  return seconds;
}

}  // namespace pqtls::perf
