// Golden-file lock on the machine-readable sink schema: downstream tooling
// parses these rows, so field names, ordering, and numeric formatting are
// part of the contract. If a schema change is intentional, regenerate the
// files under tests/golden/ to match.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "campaign/sinks.hpp"

namespace pqtls::campaign {
namespace {

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(PQTLS_TEST_DATA_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << name;
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

CellOutcome ok_outcome() {
  CellOutcome o;
  o.campaign = "golden";
  o.cell.id = "x25519/rsa:2048";
  o.cell.config.ka = "x25519";
  o.cell.config.sa = "rsa:2048";
  o.cell.config.seed = 42;
  o.result.ok = true;
  o.result.samples.resize(3);
  o.result.median_part_a = 1.2345e-3;
  o.result.median_part_b = 2.3456e-3;
  o.result.median_total = 3.5801e-3;
  o.result.client_bytes = 1234;
  o.result.server_bytes = 5678;
  o.result.total_handshakes_60s = 22000;
  return o;
}

CellOutcome failed_outcome() {
  CellOutcome o;
  o.campaign = "golden";
  o.cell.id = "nosuchkem/rsa:2048/high-loss-10";
  o.cell.scenario = "High Loss (10%)";
  o.cell.config.ka = "nosuchkem";
  o.cell.config.sa = "rsa:2048";
  o.cell.config.seed = 43;
  o.error = "bad, very bad";  // exercises CSV quoting
  return o;
}

// Synthetic loadgen outcomes with hand-picked metrics: locks the loadgen
// row schema (field names, order, fixed-precision formatting) without
// running a simulation.
CellOutcome loadgen_ok_outcome() {
  CellOutcome o;
  o.campaign = "loadgen-golden";
  o.cell.id = "kyber512/dilithium2/loadgen-0.9x";
  o.cell.config.ka = "kyber512";
  o.cell.config.sa = "dilithium2";
  loadgen::LoadConfig config;
  config.ka = "kyber512";
  config.sa = "dilithium2";
  config.arrival = loadgen::Arrival::kPoisson;
  config.policy = loadgen::Policy::kFifo;
  config.cores = 4;
  config.backlog = 256;
  config.seed = 42;
  o.cell.loadgen = config;
  o.load.ok = true;
  o.load.offered_rate = 601.25;
  o.load.achieved_rate = 600.5;
  o.load.analytic_capacity = 667.125;
  o.load.p50 = 28.1234e-3;
  o.load.p90 = 35.5e-3;
  o.load.p99 = 41.0625e-3;
  o.load.p999 = 44.9e-3;
  o.load.mean_queue_depth = 1.875;
  o.load.core_utilization = 0.900625;
  o.load.arrivals = 2405;
  o.load.completed = 2402;
  o.load.dropped = 2;
  o.load.timed_out = 1;
  return o;
}

CellOutcome loadgen_failed_outcome() {
  CellOutcome o;
  o.campaign = "loadgen-golden";
  o.cell.id = "kyber512/sphincs128/loadgen-1.3x";
  o.cell.config.ka = "kyber512";
  o.cell.config.sa = "sphincs128";
  loadgen::LoadConfig config;
  config.ka = "kyber512";
  config.sa = "sphincs128";
  config.arrival = loadgen::Arrival::kClosed;
  config.policy = loadgen::Policy::kSjf;
  config.seed = 43;
  o.cell.loadgen = config;
  o.error = "no handshake completed in the window";
  return o;
}

CampaignSpec loadgen_spec() {
  CampaignSpec spec;
  spec.name = "loadgen-golden";
  Cell cell;
  cell.loadgen = loadgen::LoadConfig{};
  spec.cells.push_back(cell);
  return spec;
}

TEST(CampaignSinks, JsonlMatchesGolden) {
  std::ostringstream out;
  JsonlSink sink(out);
  sink.cell(ok_outcome());
  sink.cell(failed_outcome());
  sink.finish();
  EXPECT_EQ(out.str(), read_golden("campaign_rows.jsonl"));
}

TEST(CampaignSinks, CsvMatchesGolden) {
  std::ostringstream out;
  CsvSink sink(out);
  sink.begin(CampaignSpec{}, RunnerOptions{});
  sink.cell(ok_outcome());
  sink.cell(failed_outcome());
  sink.finish();
  EXPECT_EQ(out.str(), read_golden("campaign_rows.csv"));
}

TEST(CampaignSinks, LoadgenJsonlMatchesGolden) {
  std::ostringstream out;
  JsonlSink sink(out);
  sink.cell(loadgen_ok_outcome());
  sink.cell(loadgen_failed_outcome());
  sink.finish();
  EXPECT_EQ(out.str(), read_golden("loadgen_rows.jsonl"));
}

TEST(CampaignSinks, LoadgenCsvMatchesGolden) {
  std::ostringstream out;
  CsvSink sink(out);
  sink.begin(loadgen_spec(), RunnerOptions{});
  sink.cell(loadgen_ok_outcome());
  sink.cell(loadgen_failed_outcome());
  sink.finish();
  EXPECT_EQ(out.str(), read_golden("loadgen_rows.csv"));
}

// Scenario-matrix headers size each column to its longest label, so labels
// sharing a 12-character prefix stay distinguishable.
TEST(CampaignSinks, AsciiMatrixHeaderKeepsFullLabels) {
  CampaignSpec spec;
  spec.name = "matrix";
  spec.ascii_layout = AsciiLayout::kScenarioMatrix;
  std::ostringstream out;
  AsciiSink sink(out);
  sink.begin(spec, RunnerOptions{});
  for (const char* label :
       {"High Delay (1s RTT)", "High Delay (1s RTT) +HRR"}) {
    CellOutcome o = ok_outcome();
    o.cell.scenario = label;
    sink.cell(o);
  }
  sink.finish();
  // Line 1 is the campaign title, line 2 the column header.
  std::string text = out.str();
  std::size_t start = text.find('\n') + 1;
  std::string header = text.substr(start, text.find('\n', start) - start);
  EXPECT_NE(header.find(" High Delay (1s RTT) "), std::string::npos)
      << header;
  EXPECT_NE(header.find(" High Delay (1s RTT) +HRR"), std::string::npos)
      << header;
}

// White-box campaigns render Table 3's columns, the library distribution
// and the section 5.5 worst-asymmetry lines instead of Table 2's columns.
TEST(CampaignSinks, AsciiWhiteBoxRendersTable3Columns) {
  CellOutcome o = ok_outcome();
  o.cell.config.white_box = true;
  o.result.server_cpu_ms = 3.0;
  o.result.client_cpu_ms = 0.5;
  CampaignSpec spec;
  spec.name = "whitebox";
  spec.cells.push_back(o.cell);
  std::ostringstream out;
  AsciiSink sink(out);
  sink.begin(spec, RunnerOptions{});
  sink.cell(o);
  sink.finish();
  std::string text = out.str();
  EXPECT_NE(text.find("SrvCPU ms"), std::string::npos) << text;
  EXPECT_EQ(text.find("A med(ms)"), std::string::npos) << text;
  EXPECT_NE(text.find("Library distribution"), std::string::npos) << text;
  EXPECT_NE(text.find("Worst amplification factor: 4.6x (x25519/rsa:2048)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("CPU asymmetry: 6.0x (x25519/rsa:2048)"),
            std::string::npos)
      << text;
}

}  // namespace
}  // namespace pqtls::campaign
