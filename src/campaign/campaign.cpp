#include "campaign/campaign.hpp"

#include <cctype>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <utility>

#include "campaign/matrix.hpp"

namespace pqtls::campaign {

std::string scenario_slug(std::string_view label) {
  std::string out;
  bool pending_dash = false;
  for (char ch : label) {
    if (std::isalnum(static_cast<unsigned char>(ch))) {
      if (pending_dash && !out.empty()) out.push_back('-');
      pending_dash = false;
      out.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(ch))));
    } else {
      pending_dash = true;
    }
  }
  return out;
}

namespace {

Cell make_cell(const std::string& ka, const std::string& sa, int samples) {
  Cell cell;
  cell.id = ka + "/" + sa;
  cell.config.ka = ka;
  cell.config.sa = sa;
  cell.config.sample_handshakes = samples;
  return cell;
}

// White-box cells carry a "/whitebox" suffix so they never share an id, and
// so a seed, with the black-box cell of the same pair.
Cell whitebox_cell(const std::string& ka, const std::string& sa,
                   int samples) {
  Cell cell = make_cell(ka, sa, samples);
  cell.id += "/whitebox";
  cell.config.white_box = true;
  return cell;
}

// A cell whose `label` names its kScenarioMatrix column and, slugged,
// suffixes its id.
Cell labeled_cell(const std::string& ka, const std::string& sa, int samples,
                  const std::string& label) {
  Cell cell = make_cell(ka, sa, samples);
  cell.id += "/" + scenario_slug(label);
  cell.scenario = label;
  return cell;
}

const testbed::Scenario& standard_scenario(std::string_view name) {
  for (const auto& scenario : testbed::standard_scenarios())
    if (scenario.name == name) return scenario;
  throw std::invalid_argument("unknown scenario " + std::string(name));
}

CampaignSpec build_table2a() {
  CampaignSpec spec;
  spec.name = "table2a";
  spec.description = "Table 2a: 23 KAs with rsa:2048";
  for (const auto& row : table2a_kas())
    spec.cells.push_back(make_cell(row.name, "rsa:2048", 25));
  return spec;
}

CampaignSpec build_table2b() {
  CampaignSpec spec;
  spec.name = "table2b";
  spec.description = "Table 2b: 23 SAs with x25519";
  for (const auto& row : table2b_sas())
    spec.cells.push_back(make_cell("x25519", row.name, 15));
  return spec;
}

CampaignSpec build_table3() {
  CampaignSpec spec;
  spec.name = "table3";
  spec.description = "Table 3: white-box CPU attribution for selected pairs";
  static constexpr const char* kPairs[][2] = {
      {"x25519", "rsa:2048"},        {"kyber512", "dilithium2"},
      {"bikel1", "dilithium2"},      {"kyber512", "sphincs128"},
      {"hqc128", "falcon512"},       {"p256_kyber512", "p256_dilithium2"},
      {"kyber768", "dilithium3"},    {"kyber1024", "dilithium5"},
  };
  for (const auto& pair : kPairs)
    spec.cells.push_back(whitebox_cell(pair[0], pair[1], 12));
  return spec;
}

CampaignSpec build_sec55() {
  CampaignSpec spec;
  spec.name = "sec55";
  spec.description =
      "Section 5.5: per-SA data amplification and server/client CPU "
      "asymmetry (white-box, x25519)";
  for (const auto& row : table2b_sas())
    spec.cells.push_back(whitebox_cell("x25519", row.name, 8));
  return spec;
}

CampaignSpec build_all_sphincs() {
  CampaignSpec spec;
  spec.name = "all_sphincs";
  spec.description =
      "Appendix B all-sphincs: SPHINCS+ fast vs small variants (white-box, "
      "x25519)";
  for (const char* sa : {"sphincs128", "sphincs128s", "sphincs192",
                         "sphincs192s", "sphincs256", "sphincs256s"})
    spec.cells.push_back(whitebox_cell("x25519", sa, 3));
  return spec;
}

// The 2-RTT fallback the paper configured away: each KA once with the
// client guessing the server's group (1-RTT) and once after a wrong x25519
// guess answered by HelloRetryRequest.
CampaignSpec build_ablation_hrr() {
  CampaignSpec spec;
  spec.name = "ablation_hrr";
  spec.description =
      "Ablation: 1-RTT vs HelloRetryRequest after a wrong x25519 guess "
      "(dilithium2)";
  spec.ascii_layout = AsciiLayout::kScenarioMatrix;
  for (const char* ka : {"kyber512", "kyber768", "hqc128", "bikel1"}) {
    for (const char* name : {"No Emulation", "High Delay (1s RTT)", "5G"}) {
      const testbed::Scenario& scenario = standard_scenario(name);
      for (bool hrr : {false, true}) {
        Cell cell = labeled_cell(ka, "dilithium2", 7,
                                 hrr ? scenario.name + " +HRR"
                                     : scenario.name);
        cell.config.netem = scenario.netem;
        if (hrr) cell.config.client_wrong_guess = "x25519";
        spec.cells.push_back(std::move(cell));
      }
    }
  }
  return spec;
}

// The paper's closing recommendation: a larger TCP initial window restores
// 1-RTT handshakes for large PQ certificate flights at a 1 s RTT.
CampaignSpec build_ablation_initial_cwnd() {
  CampaignSpec spec;
  spec.name = "ablation_initial_cwnd";
  spec.description =
      "Ablation: TCP initial congestion window at a 1 s RTT (x25519)";
  spec.ascii_layout = AsciiLayout::kScenarioMatrix;
  for (const char* sa : {"rsa:2048", "falcon512", "dilithium2", "dilithium5",
                         "sphincs128", "sphincs256"}) {
    for (std::size_t iw : {3, 10, 20, 40, 80}) {
      Cell cell = labeled_cell("x25519", sa, 5, "IW " + std::to_string(iw));
      cell.config.netem.delay_s = 0.5;  // 1 s RTT
      cell.config.initial_cwnd_segments = iw;
      spec.cells.push_back(std::move(cell));
    }
  }
  return spec;
}

// One handshake per headline pair under 10% loss, where a flight trace
// earns its keep: CI runs it with --trace-dir and checks the traces'
// schema and that every payload drop pairs with a retransmission.
CampaignSpec build_trace_smoke() {
  CampaignSpec spec;
  spec.name = "trace_smoke";
  spec.description = "Trace smoke: headline pairs under High Loss (10%)";
  static constexpr const char* kPairs[][2] = {
      {"x25519", "rsa:2048"},    {"kyber512", "dilithium2"},
      {"kyber512", "falcon512"}, {"kyber512", "sphincs128"},
      {"kyber768", "dilithium3"},
  };
  const testbed::Scenario& loss = standard_scenario("High Loss (10%)");
  for (const auto& pair : kPairs) {
    Cell cell = labeled_cell(pair[0], pair[1], 1, loss.name);
    cell.config.netem = loss.netem;
    spec.cells.push_back(std::move(cell));
  }
  return spec;
}

CampaignSpec build_table4(const char* name, const char* description,
                          const std::vector<AlgRow>& rows, bool vary_ka,
                          int samples) {
  CampaignSpec spec;
  spec.name = name;
  spec.description = description;
  spec.ascii_layout = AsciiLayout::kScenarioMatrix;
  for (const auto& row : rows) {
    for (const auto& scenario : testbed::standard_scenarios()) {
      Cell cell =
          vary_ka ? labeled_cell(row.name, "rsa:2048", samples, scenario.name)
                  : labeled_cell("x25519", row.name, samples, scenario.name);
      cell.config.netem = scenario.netem;
      spec.cells.push_back(std::move(cell));
    }
  }
  return spec;
}

// Per level: the KA x SA grid, then the baselines the independence
// prediction reads, (x25519, rsa:2048), (ka, rsa:2048) and (x25519, sa).
// Baselines shared between levels, or already in a grid, appear once.
CampaignSpec build_fig3() {
  CampaignSpec spec;
  spec.name = "fig3";
  spec.ascii_layout = AsciiLayout::kDeviation;
  spec.description =
      "Figure 3: per-level KA x SA grid plus deviation baselines under both "
      "server buffering modes";
  std::set<std::string> seen;
  for (const auto& level : fig3_levels()) {
    std::vector<std::pair<const char*, const char*>> pairs;
    for (const char* ka : level.kas)
      for (const char* sa : level.sas) pairs.emplace_back(ka, sa);
    pairs.emplace_back("x25519", "rsa:2048");
    for (const char* ka : level.kas) pairs.emplace_back(ka, "rsa:2048");
    for (const char* sa : level.sas) pairs.emplace_back("x25519", sa);
    for (const auto& [ka, sa] : pairs) {
      for (tls::Buffering buffering :
           {tls::Buffering::kDefault, tls::Buffering::kImmediate}) {
        Cell cell = make_cell(ka, sa, 9);
        cell.id += buffering == tls::Buffering::kDefault ? "/buffered"
                                                         : "/immediate";
        cell.config.buffering = buffering;
        if (seen.insert(cell.id).second) spec.cells.push_back(std::move(cell));
      }
    }
  }
  return spec;
}

CampaignSpec build_fig4() {
  CampaignSpec spec;
  spec.name = "fig4";
  spec.ascii_layout = AsciiLayout::kRanking;
  spec.description =
      "Figure 4: latency-ranking inputs (KAs with rsa:2048, SAs with x25519)";
  std::set<std::string> seen;
  for (const auto& row : table2a_kas()) {
    Cell cell = make_cell(row.name, "rsa:2048", 9);
    if (seen.insert(cell.id).second) spec.cells.push_back(std::move(cell));
  }
  for (const auto& row : table2b_sas()) {
    Cell cell = make_cell("x25519", row.name, 9);
    if (seen.insert(cell.id).second) spec.cells.push_back(std::move(cell));
  }
  return spec;
}

// Loadgen capacity cells: each (algorithm, load factor) pair is one
// simulated Poisson run against a 4-core server at a fraction of its
// analytic capacity — below the knee (0.5), near it (0.9), and past
// saturation (1.3). Kept short (4 virtual seconds) so campaigns stay fast;
// the CLI's --sweep mode draws the full curve.
CampaignSpec build_loadgen(const char* name, const char* description,
                           const std::vector<AlgRow>& rows, bool vary_ka) {
  CampaignSpec spec;
  spec.name = name;
  spec.description = description;
  static constexpr double kLoadFactors[] = {0.5, 0.9, 1.3};
  for (const auto& row : rows) {
    for (double factor : kLoadFactors) {
      Cell cell;
      loadgen::LoadConfig load;
      load.ka = vary_ka ? row.name : "x25519";
      load.sa = vary_ka ? "rsa:2048" : row.name;
      load.arrival = loadgen::Arrival::kPoisson;
      load.load_factor = factor;
      load.cores = 4;
      load.backlog = 256;
      load.timeout_s = 1.0;
      load.duration_s = 4.0;
      load.warmup_s = 0.5;
      char suffix[32];
      std::snprintf(suffix, sizeof(suffix), "loadgen-%.1fx", factor);
      cell.id = load.ka + "/" + load.sa + "/" + suffix;
      cell.config.ka = load.ka;
      cell.config.sa = load.sa;
      cell.loadgen = std::move(load);
      spec.cells.push_back(std::move(cell));
    }
  }
  return spec;
}

// Batched-server-ops campaign: the same 4-core near-knee Poisson cell as
// the loadgen campaigns, swept over the server-side batching factor
// (LoadConfig::batch prices the server leg's encapsulation with
// CostModel::kem_encaps_batched). batch=1 prices the exact unbatched
// profile, so the first cell of each pair doubles as a cross-check against
// the loadgen_* campaigns; larger batches show the amortization moving the
// capacity knee.
CampaignSpec build_loadgen_batch() {
  CampaignSpec spec;
  spec.name = "loadgen_batch";
  spec.description =
      "Batched server ops: amortized Kyber encaps at batch 1/8/32, 4-core "
      "server at 0.9x analytic capacity";
  static constexpr const char* kPairs[][2] = {
      {"kyber512", "dilithium2"},
      {"kyber768", "dilithium3"},
  };
  static constexpr int kBatches[] = {1, 8, 32};
  for (const auto& pair : kPairs) {
    for (int batch : kBatches) {
      Cell cell;
      loadgen::LoadConfig load;
      load.ka = pair[0];
      load.sa = pair[1];
      load.arrival = loadgen::Arrival::kPoisson;
      load.load_factor = 0.9;
      load.cores = 4;
      load.backlog = 256;
      load.timeout_s = 1.0;
      load.duration_s = 4.0;
      load.warmup_s = 0.5;
      load.batch = batch;
      char suffix[32];
      std::snprintf(suffix, sizeof(suffix), "batch-%d", batch);
      cell.id = load.ka + "/" + load.sa + "/" + suffix;
      cell.config.ka = load.ka;
      cell.config.sa = load.sa;
      cell.loadgen = std::move(load);
      spec.cells.push_back(std::move(cell));
    }
  }
  return spec;
}

// Fleet campaign: the capacity-knee surface of a multi-server fleet —
// fleet size x algorithm pair x balancing policy at 90% of aggregate
// analytic capacity, plus one churn cell (clients arriving/departing
// mid-run, two event-loop shards) and one heterogeneous-client-class cell
// (wired / LTE-M / 5G mix from the netem scenario set). Rows carry SLO
// columns (p99 against slo_ms, <=1% loss), golden-locked like every other
// campaign and byte-identical at any worker or shard count.
CampaignSpec build_fleet() {
  CampaignSpec spec;
  spec.name = "fleet";
  spec.description =
      "Fleet capacity knee: servers x algorithm x balancing policy at 0.9x "
      "aggregate capacity, with churn and client-class cells";
  static constexpr const char* kPairs[][2] = {
      {"x25519", "rsa:2048"},
      {"kyber512", "dilithium2"},
      {"kyber512", "sphincs128"},
  };
  static constexpr loadgen::BalancerKind kBalancers[] = {
      loadgen::BalancerKind::kRoundRobin,
      loadgen::BalancerKind::kLeastLoaded,
      loadgen::BalancerKind::kPowerOfTwo,
  };
  auto base = [](const char* ka, const char* sa) {
    loadgen::LoadConfig load;
    load.ka = ka;
    load.sa = sa;
    load.arrival = loadgen::Arrival::kPoisson;
    load.load_factor = 0.9;
    load.cores = 4;
    load.backlog = 256;
    load.timeout_s = 1.0;
    load.duration_s = 2.0;
    load.warmup_s = 0.25;
    return load;
  };
  auto add = [&spec](loadgen::LoadConfig load, const std::string& suffix) {
    Cell cell;
    cell.id = load.ka + "/" + load.sa + "/" + suffix;
    cell.config.ka = load.ka;
    cell.config.sa = load.sa;
    cell.loadgen = std::move(load);
    spec.cells.push_back(std::move(cell));
  };
  for (const auto& pair : kPairs) {
    for (int servers : {2, 4}) {
      for (loadgen::BalancerKind balancer : kBalancers) {
        loadgen::LoadConfig load = base(pair[0], pair[1]);
        load.servers = servers;
        load.balancer = balancer;
        char suffix[48];
        std::snprintf(suffix, sizeof(suffix), "fleet-%ds-%s", servers,
                      loadgen::balancer_name(balancer));
        add(std::move(load), suffix);
      }
    }
  }
  {
    // Churn: a closed-loop base population plus clients arriving at 20/s
    // with ~1 s lifetimes, on two shards (results are shard-invariant).
    loadgen::LoadConfig load = base("x25519", "rsa:2048");
    load.arrival = loadgen::Arrival::kClosed;
    load.clients = 32;
    load.servers = 4;
    load.balancer = loadgen::BalancerKind::kLeastLoaded;
    load.shards = 2;
    load.churn_rate = 20.0;
    load.churn_lifetime_s = 1.0;
    add(std::move(load), "fleet-churn");
  }
  {
    // Heterogeneous client classes from the standard netem scenario set.
    loadgen::LoadConfig load = base("kyber512", "dilithium2");
    load.servers = 4;
    load.balancer = loadgen::BalancerKind::kPowerOfTwo;
    load.client_classes = {
        {"wired", {.loss = 0, .delay_s = 0.005, .rate_bps = 0}, 0.6},
        {"lte-m", {.loss = 0.10, .delay_s = 0.1, .rate_bps = 1e6}, 0.2},
        {"5g", {.loss = 0.04, .delay_s = 0.022, .rate_bps = 880e6}, 0.2},
    };
    add(std::move(load), "fleet-classes");
  }
  return spec;
}

// Session-resumption campaign: every representative pair measured three
// ways — full handshake, every-sample psk_dhe_ke resumption, and resumption
// with accepted 0-RTT early data. The /full cell re-measures the pair under
// this campaign's own derived seed so the three rows of a pair differ only
// in the resumption knobs, never in the seed-mixing path.
CampaignSpec build_resumption() {
  CampaignSpec spec;
  spec.name = "resumption";
  spec.description =
      "Session resumption: full vs resumed vs 0-RTT per representative pair";
  static constexpr const char* kPairs[][2] = {
      {"x25519", "rsa:2048"},     {"kyber512", "dilithium2"},
      {"kyber768", "dilithium3"}, {"kyber1024", "dilithium5"},
      {"kyber512", "falcon512"},
  };
  struct Variant {
    const char* suffix;
    double ratio;
    bool early;
  };
  static constexpr Variant kVariants[] = {
      {"full", 0.0, false}, {"resumed", 1.0, false}, {"0rtt", 1.0, true}};
  for (const auto& pair : kPairs) {
    for (const Variant& variant : kVariants) {
      Cell cell = make_cell(pair[0], pair[1], 15);
      cell.id += std::string("/") + variant.suffix;
      cell.config.resumption_ratio = variant.ratio;
      cell.config.early_data = variant.early;
      spec.cells.push_back(std::move(cell));
    }
  }
  return spec;
}

// Certificate-hierarchy campaign: a placement matrix (one or two same-SA
// intermediates, and a Dilithium2 root+intermediate under a pair-SA leaf —
// the "fast placement" the Merkle-tree-certs discussion motivates) crossed
// with the three certificate-flight transports: full chain, RFC 8879
// compressed, and a Merkle inclusion proof against a pinned tree head.
// All cells ride kyber512 so the KA contribution is constant and the
// certificate flight dominates the deltas.
CampaignSpec build_cert_chains() {
  CampaignSpec spec;
  spec.name = "cert_chains";
  spec.description =
      "Certificate hierarchies: chain depth/placement x transport (full, "
      "RFC 8879 compressed, Merkle proof) per representative SA";
  static constexpr const char* kSas[] = {"dilithium2", "falcon512",
                                         "sphincs128"};
  struct Mode {
    const char* suffix;
    tls::CertMode mode;
  };
  static constexpr Mode kModes[] = {{"full", tls::CertMode::kFull},
                                    {"comp", tls::CertMode::kCompressed},
                                    {"merkle", tls::CertMode::kMerkle}};
  for (const char* sa : kSas) {
    const std::vector<pki::ChainProfile> profiles = {
        {"int1", "", {sa}},
        {"int2", "", {sa, sa}},
        {"dil-int", "dilithium2", {"dilithium2"}},
    };
    for (const pki::ChainProfile& profile : profiles) {
      for (const Mode& mode : kModes) {
        Cell cell = make_cell("kyber512", sa, 5);
        cell.id += "/chain-" + profile.name + "-" + mode.suffix;
        cell.config.chain_profile = profile;
        cell.config.cert_mode = mode.mode;
        spec.cells.push_back(std::move(cell));
      }
    }
  }
  return spec;
}

// Only the paper's tables and figures: the extension campaigns measure
// variants (resumption, chains, ablations) or emit loadgen rows.
CampaignSpec build_all(const std::vector<CampaignSpec>& paper) {
  CampaignSpec spec;
  spec.name = "all";
  spec.description =
      "Union of the paper's Tables 2-4 and Figures 3-4 (deduplicated by id)";
  std::set<std::string> seen;
  for (const auto& other : paper)
    for (const auto& cell : other.cells)
      if (seen.insert(cell.id).second) spec.cells.push_back(cell);
  return spec;
}

}  // namespace

const std::vector<CampaignSpec>& campaigns() {
  static const std::vector<CampaignSpec> all = [] {
    std::vector<CampaignSpec> out;
    out.push_back(build_table2a());
    out.push_back(build_table2b());
    out.push_back(build_table3());
    out.push_back(build_table4("table4a",
                               "Table 4a: KAs x network scenarios",
                               table2a_kas(), /*vary_ka=*/true, 9));
    out.push_back(build_table4("table4b",
                               "Table 4b: SAs x network scenarios",
                               table4b_sas(), /*vary_ka=*/false, 7));
    out.push_back(build_fig3());
    out.push_back(build_fig4());
    CampaignSpec paper_union = build_all(out);
    out.push_back(build_loadgen(
        "loadgen_kems",
        "Loadgen capacity: representative KAs with rsa:2048, 4-core server",
        loadgen_kas(), /*vary_ka=*/true));
    out.push_back(build_loadgen(
        "loadgen_sigs",
        "Loadgen capacity: representative SAs with x25519, 4-core server",
        loadgen_sas(), /*vary_ka=*/false));
    out.push_back(build_loadgen_batch());
    out.push_back(build_fleet());
    out.push_back(build_resumption());
    out.push_back(build_cert_chains());
    out.push_back(build_sec55());
    out.push_back(build_all_sphincs());
    out.push_back(build_ablation_hrr());
    out.push_back(build_ablation_initial_cwnd());
    out.push_back(build_trace_smoke());
    out.push_back(std::move(paper_union));
    return out;
  }();
  return all;
}

const CampaignSpec* find_campaign(std::string_view name) {
  for (const auto& spec : campaigns())
    if (spec.name == name) return &spec;
  return nullptr;
}

}  // namespace pqtls::campaign
