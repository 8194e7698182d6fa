// Golden rows for the campaigns that reproduce section 5.5, appendix B's
// all-sphincs, the HelloRetryRequest and initial-window ablations, and the
// trace smoke: byte-identical at 1 and 4 workers under the modeled runner
// defaults at one sample per cell (`pqtls_campaign <name> --samples 1`),
// locked against tests/golden/<name>_rows.jsonl, and no failed cell.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "campaign/campaign.hpp"
#include "campaign/runner.hpp"
#include "campaign/sinks.hpp"

namespace pqtls::campaign {
namespace {

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(PQTLS_TEST_DATA_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << name;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void expect_golden_rows(const std::string& name) {
  const CampaignSpec* spec = find_campaign(name);
  ASSERT_NE(spec, nullptr) << name;
  auto run = [&](int workers) {
    std::ostringstream out;
    JsonlSink sink(out);
    RunnerOptions opts;  // modeled defaults, as the CLI runs them
    opts.workers = workers;
    opts.samples = 1;  // keeps the test short; keygen dominates anyway
    EXPECT_EQ(run_campaign(*spec, opts, {&sink}), 0) << "failed cells";
    return out.str();
  };
  std::string serial = run(1);
  EXPECT_EQ(serial, run(4));
  EXPECT_EQ(serial, read_golden(name + "_rows.jsonl"));
}

TEST(PaperCampaignGolden, Sec55) { expect_golden_rows("sec55"); }
TEST(PaperCampaignGolden, AllSphincs) { expect_golden_rows("all_sphincs"); }
TEST(PaperCampaignGolden, AblationHrr) { expect_golden_rows("ablation_hrr"); }
TEST(PaperCampaignGolden, AblationInitialCwnd) {
  expect_golden_rows("ablation_initial_cwnd");
}
TEST(PaperCampaignGolden, TraceSmoke) { expect_golden_rows("trace_smoke"); }

}  // namespace
}  // namespace pqtls::campaign
