// Multi-server load generation (DESIGN.md §6f): balancer seam, shard-count
// invariance, NaN-safe percentiles, trace hooks, and the `fleet` campaign's
// golden rows. The servers=1 rows are locked in loadgen_test.cpp.
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/campaign.hpp"
#include "campaign/runner.hpp"
#include "campaign/sinks.hpp"
#include "crypto/drbg.hpp"
#include "loadgen/balancer.hpp"
#include "loadgen/loadgen.hpp"
#include "trace/trace.hpp"

namespace pqtls {
namespace {

// ---------------------------------------------------------------------------
// Balancer seam.

TEST(FleetBalancer, RoundRobinCycles) {
  auto b = loadgen::make_balancer(loadgen::BalancerKind::kRoundRobin,
                                  crypto::Drbg(1));
  std::vector<int> mirror{9, 9, 9};
  for (int expect : {0, 1, 2, 0, 1, 2}) EXPECT_EQ(b->pick(mirror), expect);
}

TEST(FleetBalancer, LeastLoadedPicksMinimumLowestIndexOnTies) {
  auto b = loadgen::make_balancer(loadgen::BalancerKind::kLeastLoaded,
                                  crypto::Drbg(1));
  std::vector<int> mirror{3, 1, 2};
  EXPECT_EQ(b->pick(mirror), 1);
  mirror = {2, 2, 5};
  EXPECT_EQ(b->pick(mirror), 0);
}

TEST(FleetBalancer, PowerOfTwoPrefersTheLessLoadedProbe) {
  auto b = loadgen::make_balancer(loadgen::BalancerKind::kPowerOfTwo,
                                  crypto::Drbg(7));
  std::vector<int> mirror{0, 1000};
  int picked_idle = 0;
  for (int i = 0; i < 200; ++i)
    if (b->pick(mirror) == 0) ++picked_idle;
  // Both probes hit server 1 with probability 1/4; otherwise server 0 wins.
  EXPECT_GT(picked_idle, 120);
}

TEST(FleetBalancer, ParseAcceptsCanonicalAndShortNames) {
  using loadgen::BalancerKind;
  EXPECT_EQ(loadgen::parse_balancer("round_robin"), BalancerKind::kRoundRobin);
  EXPECT_EQ(loadgen::parse_balancer("rr"), BalancerKind::kRoundRobin);
  EXPECT_EQ(loadgen::parse_balancer("least_loaded"),
            BalancerKind::kLeastLoaded);
  EXPECT_EQ(loadgen::parse_balancer("ll"), BalancerKind::kLeastLoaded);
  EXPECT_EQ(loadgen::parse_balancer("power_of_two"),
            BalancerKind::kPowerOfTwo);
  EXPECT_EQ(loadgen::parse_balancer("p2c"), BalancerKind::kPowerOfTwo);
  EXPECT_THROW(loadgen::parse_balancer("bogus"), std::invalid_argument);
  for (auto kind : {BalancerKind::kRoundRobin, BalancerKind::kLeastLoaded,
                    BalancerKind::kPowerOfTwo})
    EXPECT_EQ(loadgen::parse_balancer(loadgen::balancer_name(kind)), kind);
}

// ---------------------------------------------------------------------------
// Load-aware balancing must beat blind rotation on a workload whose
// structure resonates with the rotation.  resumption_ratio 1/3 makes every
// third handshake a cheap resumption and the rest expensive SPHINCS+ fulls;
// against three servers round-robin locks into that period, so two servers
// receive *only* full handshakes (per-server utilisation ~1.2, unbounded
// queues) while the third idles on resumptions.  Blind rotation cannot see
// the imbalance; least-loaded and power-of-two read the outstanding mirror
// and route around the hot pair.  (With a mix co-prime to the rotation —
// e.g. ratio 0.5 against 3 servers — RR deals every server the same fair
// interleave and is genuinely near-optimal, since deterministic splitting
// is the minimum-variance split of a Poisson stream; the test therefore
// pins the resonant case, where load-awareness pays.)

loadgen::LoadConfig heterogeneous_config(loadgen::BalancerKind kind) {
  loadgen::LoadConfig config;
  config.ka = "kyber512";
  config.sa = "sphincs128";
  config.servers = 3;
  config.cores = 1;
  config.balancer = kind;
  config.resumption_ratio = 1.0 / 3.0;
  config.load_factor = 1.2;
  config.duration_s = 2.0;
  config.warmup_s = 0.25;
  return config;
}

TEST(FleetBalancer, LoadAwarePoliciesBeatRoundRobinOnHeterogeneousLoad) {
  auto rr = run_load(heterogeneous_config(loadgen::BalancerKind::kRoundRobin));
  auto ll = run_load(heterogeneous_config(loadgen::BalancerKind::kLeastLoaded));
  auto p2c = run_load(heterogeneous_config(loadgen::BalancerKind::kPowerOfTwo));
  ASSERT_TRUE(rr.ok);
  ASSERT_TRUE(ll.ok);
  ASSERT_TRUE(p2c.ok);
  EXPECT_LT(ll.p99, rr.p99);
  EXPECT_LT(p2c.p99, rr.p99);
  EXPECT_LT(ll.mean_latency, rr.mean_latency);
  EXPECT_LT(p2c.mean_latency, rr.mean_latency);
}

// ---------------------------------------------------------------------------
// Shard-count invariance: the same fleet cell renders byte-identical JSONL
// at 1 and 4 shards (the shard count is purely a wall-clock knob).

std::string jsonl_row(const loadgen::LoadConfig& config,
                      const loadgen::LoadMetrics& metrics) {
  campaign::CellOutcome o;
  o.campaign = "fleet-test";
  o.cell.id = "cell";
  o.cell.config.ka = config.ka;
  o.cell.config.sa = config.sa;
  o.cell.loadgen = config;
  o.load = metrics;
  if (!metrics.ok) o.error = "no handshake completed in the window";
  std::ostringstream out;
  campaign::JsonlSink sink(out);
  sink.cell(o);
  sink.finish();
  return out.str();
}

TEST(FleetShardInvariance, ByteIdenticalJsonlAt1And4Shards) {
  loadgen::LoadConfig config;
  config.ka = "kyber512";
  config.sa = "dilithium2";
  config.servers = 4;
  config.cores = 2;
  config.balancer = loadgen::BalancerKind::kLeastLoaded;
  config.offered_rate = 3000;
  config.duration_s = 2.0;
  config.warmup_s = 0.25;
  config.churn_rate = 10;
  config.churn_lifetime_s = 1.0;
  config.client_classes = {
      {"wired", {.loss = 0, .delay_s = 0.005, .rate_bps = 0}, 0.7},
      {"lossy", {.loss = 0.05, .delay_s = 0.02, .rate_bps = 10e6}, 0.3},
  };

  config.shards = 1;
  auto serial = run_load(config);
  config.shards = 4;
  auto sharded = run_load(config);
  ASSERT_TRUE(serial.ok);
  // Render both through the sink with the same config so the row differs
  // only where the simulation does — nowhere.
  EXPECT_EQ(jsonl_row(config, serial), jsonl_row(config, sharded));
  EXPECT_EQ(serial.sim_events, sharded.sim_events);
}

// ---------------------------------------------------------------------------
// NaN-safe percentiles: a window with zero completions has no percentiles —
// NaN in the metrics, "null" in JSONL, "nan" in CSV, and never a fake 0.0
// latency.

TEST(FleetMetrics, ZeroCompletionWindowsRenderNullNotZero) {
  loadgen::LoadConfig config;
  config.offered_rate = 0.001;  // first arrival far beyond the window
  config.duration_s = 0.5;
  config.warmup_s = 0.1;

  auto m = loadgen::run_load(config);
  EXPECT_FALSE(m.ok);
  EXPECT_TRUE(std::isnan(m.p50));
  EXPECT_TRUE(std::isnan(m.p90));
  EXPECT_TRUE(std::isnan(m.p99));
  EXPECT_TRUE(std::isnan(m.p999));
  EXPECT_TRUE(std::isnan(m.mean_latency));

  std::string row = jsonl_row(config, m);
  EXPECT_NE(row.find("\"p50_ms\":null"), std::string::npos) << row;
  EXPECT_NE(row.find("\"p999_ms\":null"), std::string::npos) << row;

  campaign::CellOutcome o;
  o.campaign = "fleet-test";
  o.cell.id = "cell";
  o.cell.loadgen = config;
  o.load = m;
  o.error = "no handshake completed in the window";
  std::ostringstream csv_out;
  campaign::CsvSink csv(csv_out);
  campaign::CampaignSpec spec;
  spec.name = "fleet-test";
  campaign::Cell cell;
  cell.loadgen = config;
  spec.cells.push_back(cell);
  csv.begin(spec, campaign::RunnerOptions{});
  csv.cell(o);
  csv.finish();
  EXPECT_NE(csv_out.str().find(",nan,"), std::string::npos) << csv_out.str();
}

// ---------------------------------------------------------------------------
// Trace hooks: sampled connections leave a Perfetto-visible trail through
// the fleet (balancer decision, SYN arrival, queue handoffs, completion).

TEST(FleetTrace, SampledConnectionsRecordFleetEvents) {
  loadgen::LoadConfig config;
  config.ka = "x25519";
  config.sa = "rsa:2048";
  config.servers = 2;
  config.cores = 2;
  config.offered_rate = 400;
  config.duration_s = 1.0;
  config.warmup_s = 0.1;

  trace::Recorder recorder;
  auto m = loadgen::run_load(config, &recorder, /*trace_every=*/100);
  ASSERT_TRUE(m.ok);
  EXPECT_GT(recorder.count("fleet", "balancer_decision"), 0u);
  EXPECT_GT(recorder.count("fleet", "syn_arrive"), 0u);
  EXPECT_GT(recorder.count("fleet", "queue_handoff"), 0u);
  EXPECT_GT(recorder.count("fleet", "complete"), 0u);
  // Sampling: every 100th connection, so far fewer traces than completions.
  EXPECT_LT(recorder.count("fleet", "complete"),
            static_cast<std::size_t>(m.completed) / 10);

  std::ostringstream chrome;
  recorder.write_chrome_trace(chrome);
  EXPECT_NE(chrome.str().find("\"traceEvents\""), std::string::npos);

  // Tracing is observation only: an untraced run of the same config is
  // metric-identical (the recorder pins shards to 1 internally).
  auto untraced = loadgen::run_load(config);
  EXPECT_EQ(jsonl_row(config, m), jsonl_row(config, untraced));
}

// ---------------------------------------------------------------------------
// The `fleet` campaign: byte-identical rows at any worker count, locked
// against golden files, with SLO verdicts and churn/class cells.

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(PQTLS_TEST_DATA_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << name;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(FleetCampaign, GoldenRowsAndWorkerCountInvariance) {
  const campaign::CampaignSpec* spec = campaign::find_campaign("fleet");
  ASSERT_NE(spec, nullptr);

  auto run = [&](int workers, std::string* csv,
                 campaign::CollectSink* collect) {
    std::ostringstream jsonl_out, csv_out;
    campaign::JsonlSink jsonl(jsonl_out);
    campaign::CsvSink csv_sink(csv_out);
    campaign::RunnerOptions opts;  // defaults = the CLI's golden settings
    opts.workers = workers;
    std::vector<campaign::Sink*> sinks{&jsonl, &csv_sink};
    if (collect) sinks.push_back(collect);
    EXPECT_EQ(run_campaign(*spec, opts, sinks), 0);
    if (csv) *csv = csv_out.str();
    return jsonl_out.str();
  };

  campaign::CollectSink collect;
  std::string csv;
  std::string serial = run(1, &csv, &collect);
  std::string parallel = run(4, nullptr, nullptr);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial, read_golden("fleet_rows.jsonl"));
  EXPECT_EQ(csv, read_golden("fleet_rows.csv"));

  // Every cell is a fleet cell and completed; the churn cell saw clients
  // come and go; the class cell kept its heterogeneous population.
  bool churn_seen = false;
  for (const auto& row : collect.outcomes()) {
    SCOPED_TRACE(row.cell.id);
    ASSERT_TRUE(row.cell.loadgen.has_value());
    EXPECT_TRUE(row.cell.loadgen->is_fleet());
    EXPECT_TRUE(row.load.ok);
    EXPECT_GT(row.load.sim_events, 0);
    EXPECT_GE(row.load.max_server_util, row.load.min_server_util);
    if (row.cell.id.find("churn") != std::string::npos) {
      churn_seen = true;
      EXPECT_GT(row.load.churn_arrived, 0);
      EXPECT_GT(row.load.churn_departed, 0);
    }
  }
  EXPECT_TRUE(churn_seen);
}

}  // namespace
}  // namespace pqtls
