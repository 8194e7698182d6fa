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

// A fig3/fig4 testbed cell with a hand-set median total (ms); a negative
// median marks the cell failed.
CellOutcome figure_outcome(
    const std::string& ka, const std::string& sa, double median_ms,
    tls::Buffering buffering = tls::Buffering::kDefault) {
  CellOutcome o;
  o.cell.id = ka + "/" + sa;
  o.cell.config.ka = ka;
  o.cell.config.sa = sa;
  o.cell.config.buffering = buffering;
  if (median_ms < 0) {
    o.error = "no sample completed";
    return o;
  }
  o.result.ok = true;
  o.result.median_total = median_ms * 1e-3;
  return o;
}

std::string render(AsciiLayout layout, const std::vector<CellOutcome>& cells) {
  CampaignSpec spec;
  spec.name = "figure";
  spec.ascii_layout = layout;
  std::ostringstream out;
  AsciiSink sink(out);
  sink.begin(spec, RunnerOptions{});
  for (const auto& o : cells) sink.cell(o);
  sink.finish();
  return out.str();
}

// The line of `text` that starts with `prefix`, searching from `from`.
std::string line_at(const std::string& text, const std::string& prefix,
                    std::size_t from = 0) {
  std::size_t start = text.find("\n" + prefix, from);
  if (start == std::string::npos) return "";
  start += 1;
  return text.substr(start, text.find('\n', start) - start);
}

// Figure 3 from hand-set medians: E(kyber512, falcon512) = 12 + 15 - 10 =
// 17 ms against a measured 16 ms deviates by +1 ms when buffered; immediate
// push measures 14 ms (+3 ms) and so gains 2 ms. kyber512/dilithium2 failed
// when buffered, so its 3a deviation and its 3c gain are FAIL while its 3b
// deviation (12 + 20 - 10 - 23 = -1 ms) still renders. The buffered
// x25519/dilithium2_aes baseline failed, so kyber512/dilithium2_aes has no
// 3a deviation although its own cell ran (3b: 12 + 20 - 10 - 22 = 0 ms).
// Cells never run (the rsa:3072 and sphincs128 columns) are FAIL too.
TEST(CampaignSinks, AsciiDeviationRendersFigure3) {
  using tls::Buffering;
  std::vector<CellOutcome> cells;
  for (Buffering b : {Buffering::kDefault, Buffering::kImmediate}) {
    bool buffered = b == Buffering::kDefault;
    cells.push_back(figure_outcome("x25519", "rsa:2048", 10, b));
    cells.push_back(figure_outcome("kyber512", "rsa:2048", 12, b));
    cells.push_back(figure_outcome("x25519", "falcon512", 15, b));
    cells.push_back(figure_outcome("x25519", "dilithium2", 20, b));
    cells.push_back(
        figure_outcome("x25519", "dilithium2_aes", buffered ? -1 : 20, b));
    cells.push_back(figure_outcome("kyber512", "falcon512", buffered ? 16 : 14,
                                   b));
    cells.push_back(
        figure_outcome("kyber512", "dilithium2", buffered ? -1 : 23, b));
    cells.push_back(figure_outcome("kyber512", "dilithium2_aes", 22, b));
  }
  std::string text = render(AsciiLayout::kDeviation, cells);
  std::size_t fig3a = text.find("Figure 3a");
  std::size_t fig3b = text.find("Figure 3b");
  std::size_t fig3c = text.find("Figure 3c");
  ASSERT_NE(fig3a, std::string::npos) << text;
  ASSERT_NE(fig3b, std::string::npos) << text;
  ASSERT_NE(fig3c, std::string::npos) << text;
  // Level 1+2 columns: rsa:3072 falcon512 sphincs128 dilithium2
  // dilithium2_aes.
  EXPECT_EQ(line_at(text, "  level1+2:", fig3a), "  level1+2:") << text;
  EXPECT_EQ(line_at(text, "  kyber512 ", fig3a),
            "  kyber512                 FAIL          +1.00           FAIL"
            "           FAIL           FAIL")
      << text;
  EXPECT_EQ(line_at(text, "  kyber512 ", fig3b),
            "  kyber512                 FAIL          +3.00           FAIL"
            "          -1.00          +0.00")
      << text;
  EXPECT_EQ(line_at(text, "  kyber512 ", fig3c),
            "  kyber512                 FAIL          +2.00           FAIL"
            "           FAIL          +0.00")
      << text;
  // x25519 is its own baseline: zero deviation wherever its cell ran.
  EXPECT_NE(line_at(text, "  x25519 ", fig3a).find("+0.00"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\nFailed cells:\n"
                      "  x25519/dilithium2_aes: no sample completed\n"
                      "  kyber512/dilithium2: no sample completed\n"),
            std::string::npos)
      << text;
}

// Figure 4 from hand-set medians on a 1..100 ms log scale: 1 ms is bucket
// 0, 10 ms bucket 5, 100 ms bucket 10; the failed cell is listed, not
// ranked, and the shared x25519/rsa:2048 cell ranks in both lists.
TEST(CampaignSinks, AsciiRankingRendersFigure4) {
  std::string text =
      render(AsciiLayout::kRanking,
             {figure_outcome("x25519", "rsa:2048", 1),
              figure_outcome("kyber512", "rsa:2048", 10),
              figure_outcome("hqc128", "rsa:2048", 100),
              figure_outcome("bikel1", "rsa:2048", -1),
              figure_outcome("x25519", "dilithium2", 100)});
  EXPECT_NE(text.find("Key agreements (with rsa:2048):\n"
                      "  [0] x25519 \n  [5] kyber512 \n  [10] hqc128 \n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("Signature algorithms (with x25519):\n"
                      "  [0] rsa:2048 \n  [10] dilithium2 \n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\nFailed cells:\n  bikel1/rsa:2048: no sample "
                      "completed\n"),
            std::string::npos)
      << text;
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
