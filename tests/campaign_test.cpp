// Campaign engine: seed derivation, registry well-formedness, defensive
// option parsing, and the headline guarantee — identical result streams at
// any worker count, with failing or slow cells recorded instead of
// aborting the campaign.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <tuple>

#include "campaign/campaign.hpp"
#include "campaign/matrix.hpp"
#include "campaign/options.hpp"
#include "campaign/runner.hpp"
#include "campaign/sinks.hpp"

namespace pqtls::campaign {
namespace {

TEST(CampaignSeed, StableAndDistinct) {
  EXPECT_EQ(derive_cell_seed(1, "x25519/rsa:2048"),
            derive_cell_seed(1, "x25519/rsa:2048"));
  EXPECT_NE(derive_cell_seed(1, "x25519/rsa:2048"),
            derive_cell_seed(1, "kyber512/rsa:2048"));
  EXPECT_NE(derive_cell_seed(1, "x25519/rsa:2048"),
            derive_cell_seed(2, "x25519/rsa:2048"));
}

TEST(CampaignSpecs, WellFormedRegistry) {
  ASSERT_NE(find_campaign("table2a"), nullptr);
  EXPECT_EQ(find_campaign("table2a")->cells.size(), 23u);
  EXPECT_EQ(find_campaign("table2b")->cells.size(), 23u);
  EXPECT_EQ(find_campaign("table3")->cells.size(), 8u);
  EXPECT_EQ(find_campaign("table4a")->cells.size(), 23u * 6u);
  EXPECT_EQ(find_campaign("table4b")->cells.size(), 24u * 6u);
  // fig3 = both buffering modes x (the 30 + 15 + 16 level grids plus 22
  // deviation baselines not already in a grid).
  EXPECT_EQ(find_campaign("fig3")->cells.size(),
            2u * (30u + 15u + 16u + 22u));
  // fig4 = 23 KAs + 23 SAs minus the shared x25519/rsa:2048 cell.
  EXPECT_EQ(find_campaign("fig4")->cells.size(), 45u);
  EXPECT_EQ(find_campaign("sec55")->cells.size(), 23u);
  EXPECT_EQ(find_campaign("all_sphincs")->cells.size(), 6u);
  EXPECT_EQ(find_campaign("ablation_hrr")->cells.size(), 4u * 3u * 2u);
  EXPECT_EQ(find_campaign("ablation_initial_cwnd")->cells.size(), 6u * 5u);
  EXPECT_EQ(find_campaign("trace_smoke")->cells.size(), 5u);
  EXPECT_EQ(find_campaign("nope"), nullptr);

  for (const auto& spec : campaigns()) {
    EXPECT_FALSE(spec.cells.empty()) << spec.name;
    std::set<std::string> ids;
    for (const auto& cell : spec.cells) {
      EXPECT_TRUE(ids.insert(cell.id).second)
          << spec.name << " duplicates " << cell.id;
      EXPECT_FALSE(cell.config.ka.empty());
      EXPECT_FALSE(cell.config.sa.empty());
      EXPECT_GT(cell.config.sample_handshakes, 0);
    }
  }
}

// Figure 3's independence prediction E(k,s) = M(k, rsa:2048) +
// M(x25519, s) - M(x25519, rsa:2048) must be computable from fig3's own
// rows, per buffering mode.
TEST(CampaignSpecs, Fig3HasEveryDeviationBaseline) {
  std::set<std::tuple<std::string, std::string, tls::Buffering>> measured;
  for (const auto& cell : find_campaign("fig3")->cells)
    measured.emplace(cell.config.ka, cell.config.sa, cell.config.buffering);
  for (const auto& level : fig3_levels()) {
    for (tls::Buffering mode :
         {tls::Buffering::kDefault, tls::Buffering::kImmediate}) {
      for (const char* ka : level.kas) {
        for (const char* sa : level.sas) {
          SCOPED_TRACE(std::string(level.label) + " " + ka + "/" + sa);
          EXPECT_TRUE(measured.count({ka, sa, mode}));
          EXPECT_TRUE(measured.count({ka, "rsa:2048", mode}));
          EXPECT_TRUE(measured.count({"x25519", sa, mode}));
          EXPECT_TRUE(measured.count({"x25519", "rsa:2048", mode}));
        }
      }
    }
  }
}

TEST(CampaignSpecs, ScenarioSlugs) {
  EXPECT_EQ(scenario_slug("No Emulation"), "no-emulation");
  EXPECT_EQ(scenario_slug("High Loss (10%)"), "high-loss-10");
  EXPECT_EQ(scenario_slug("Low Bandwidth (1 Mbit/s)"),
            "low-bandwidth-1-mbit-s");
  EXPECT_EQ(scenario_slug("5G"), "5g");
}

TEST(CampaignOptions, RejectsNonPositiveInput) {
  EXPECT_EQ(positive_int_or("12", 5, "test"), 12);
  EXPECT_EQ(positive_int_or("abc", 5, "test"), 5);
  EXPECT_EQ(positive_int_or("7abc", 5, "test"), 5);  // trailing garbage
  EXPECT_EQ(positive_int_or("0", 5, "test"), 5);
  EXPECT_EQ(positive_int_or("-3", 5, "test"), 5);
  EXPECT_EQ(positive_int_or("", 5, "test"), 5);
  EXPECT_EQ(positive_int_or(nullptr, 5, "test"), 5);
  EXPECT_EQ(u64_or("0", 9, "test"), 0u);
  EXPECT_EQ(u64_or("junk", 9, "test"), 9u);
  EXPECT_EQ(double_or("2.5", 7, "test"), 2.5);
  EXPECT_EQ(double_or("0", 7, "test"), 0.0);  // non-negative, not positive
  EXPECT_EQ(double_or("-1", 7, "test"), 7.0);
  EXPECT_EQ(double_or("abc", 7, "test"), 7.0);
  EXPECT_EQ(double_or("nan", 7, "test"), 7.0);
  EXPECT_EQ(double_or("inf", 7, "test"), 7.0);
  EXPECT_EQ(double_or(nullptr, 7, "test"), 7.0);
}

CampaignSpec tiny_spec() {
  CampaignSpec spec;
  spec.name = "tiny";
  spec.description = "fast 2x2 matrix for tests";
  for (const char* ka : {"x25519", "kyber512"}) {
    for (const char* sa : {"rsa:1024", "dilithium2"}) {
      Cell cell;
      cell.id = std::string(ka) + "/" + sa;
      cell.config.ka = ka;
      cell.config.sa = sa;
      cell.config.sample_handshakes = 2;
      spec.cells.push_back(std::move(cell));
    }
  }
  return spec;
}

std::string run_jsonl(const CampaignSpec& spec, int workers) {
  std::ostringstream out;
  JsonlSink sink(out);
  RunnerOptions opts;  // modeled time: the determinism-bearing default
  opts.workers = workers;
  EXPECT_EQ(run_campaign(spec, opts, {&sink}), 0);
  return out.str();
}

TEST(CampaignRunner, DeterministicAcrossWorkerCounts) {
  CampaignSpec spec = tiny_spec();
  std::string serial = run_jsonl(spec, 1);
  std::string parallel = run_jsonl(spec, 4);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("\"ok\":true"), std::string::npos);
  EXPECT_EQ(serial.find("\"ok\":false"), std::string::npos);
}

TEST(CampaignRunner, FailingCellDoesNotAbortCampaign) {
  CampaignSpec spec;
  spec.name = "with-failure";
  Cell bad;
  bad.id = "nosuchkem/rsa:1024";
  bad.config.ka = "nosuchkem";
  bad.config.sa = "rsa:1024";
  bad.config.sample_handshakes = 1;
  Cell good;
  good.id = "x25519/rsa:1024";
  good.config.ka = "x25519";
  good.config.sa = "rsa:1024";
  good.config.sample_handshakes = 1;
  spec.cells = {bad, good};

  CollectSink collect;
  RunnerOptions opts;
  opts.workers = 2;
  EXPECT_EQ(run_campaign(spec, opts, {&collect}), 1);

  ASSERT_EQ(collect.outcomes().size(), 2u);
  // Sinks see campaign order, not completion order.
  EXPECT_EQ(collect.outcomes()[0].cell.id, "nosuchkem/rsa:1024");
  EXPECT_FALSE(collect.outcomes()[0].ok());
  EXPECT_NE(collect.outcomes()[0].error.find("unknown algorithm"),
            std::string::npos);
  EXPECT_TRUE(collect.outcomes()[1].ok());
}

TEST(CampaignRunner, CellTimeoutIsRecorded) {
  CampaignSpec spec;
  spec.name = "with-timeout";
  Cell slow;
  slow.id = "x25519/rsa:1024";
  slow.config.ka = "x25519";
  slow.config.sa = "rsa:1024";
  slow.config.sample_handshakes = 50;
  spec.cells = {slow};

  CollectSink collect;
  RunnerOptions opts;
  opts.max_cell_seconds = 1e-9;  // trips at the first between-sample check
  EXPECT_EQ(run_campaign(spec, opts, {&collect}), 1);

  ASSERT_EQ(collect.outcomes().size(), 1u);
  EXPECT_FALSE(collect.outcomes()[0].ok());
  EXPECT_TRUE(collect.outcomes()[0].result.timed_out);
  EXPECT_NE(collect.outcomes()[0].error.find("budget"), std::string::npos);
}

TEST(CampaignRunner, SampleOverrideAndSeedPinning) {
  CampaignSpec spec = tiny_spec();
  spec.cells.resize(1);
  CollectSink collect;
  RunnerOptions opts;
  opts.samples = 3;
  opts.base_seed = 99;
  EXPECT_EQ(run_campaign(spec, opts, {&collect}), 0);
  ASSERT_EQ(collect.outcomes().size(), 1u);
  const auto& outcome = collect.outcomes()[0];
  EXPECT_EQ(outcome.result.samples.size(), 3u);
  EXPECT_EQ(outcome.cell.config.seed, derive_cell_seed(99, outcome.cell.id));
  EXPECT_EQ(outcome.cell.config.pki_seed, 99u);
}

}  // namespace
}  // namespace pqtls::campaign
