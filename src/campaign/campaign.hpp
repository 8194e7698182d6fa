// Campaign specifications: a named experiment matrix is a list of cells,
// each a fully-described testbed::ExperimentConfig plus a stable string id.
// The id is the cell's identity across runs — the runner derives the cell's
// seed from it, result rows carry it, and the `all` campaign deduplicates
// on it. Built-in campaigns cover the paper's artifacts (Tables 2a/2b/3/
// 4a/4b, Figures 3/4, section 5.5, appendix B's all-sphincs), two
// ablations, the CI trace smoke, and the load, resumption and certificate
// extensions.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "loadgen/loadgen.hpp"
#include "testbed/testbed.hpp"

namespace pqtls::campaign {

/// One experiment in a campaign. `config` carries everything except the
/// seeds and time model, which the runner fills in from its options.
/// When `loadgen` is set the cell is a load-generation simulation instead
/// of a testbed experiment (config.ka/sa mirror the loadgen pair so sinks
/// and ids stay uniform); loadgen cells always run in modeled virtual time.
struct Cell {
  std::string id;        // stable unique id, e.g. "kyber512/rsa:2048/lte-m"
  std::string scenario;  // human-readable scenario label ("" = no emulation)
  testbed::ExperimentConfig config;
  std::optional<loadgen::LoadConfig> loadgen;
};

/// How the ASCII sink renders this campaign.
enum class AsciiLayout {
  kPerCell,         // one row per cell (Table 2 style)
  kScenarioMatrix,  // algorithms x scenarios, median totals (Table 4 style)
  kDeviation,       // Figure 3: KA/SA independence deviations per level
  kRanking,         // Figure 4: KAs and SAs in log-latency buckets
};

struct CampaignSpec {
  std::string name;
  std::string description;
  AsciiLayout ascii_layout = AsciiLayout::kPerCell;
  std::vector<Cell> cells;
};

/// All built-in campaigns, including the deduplicated union campaign "all".
const std::vector<CampaignSpec>& campaigns();

/// Look up a campaign by name; nullptr when unknown.
const CampaignSpec* find_campaign(std::string_view name);

/// Lowercase slug of a scenario label for use inside cell ids
/// ("High Loss (10%)" -> "high-loss-10").
std::string scenario_slug(std::string_view label);

}  // namespace pqtls::campaign
