// Tests for the load-generation subsystem: calibrated handshake profiles,
// queueing behaviour on either side of the capacity knee, the sweep driver,
// backlog/timeout accounting, the loadgen campaign registry, and the
// bit-reproducibility guarantee (same seed + config => byte-identical sink
// output at any campaign worker count), and the golden rows that lock the
// single-server (servers=1) behaviour.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "campaign/campaign.hpp"
#include "campaign/runner.hpp"
#include "campaign/sinks.hpp"
#include "loadgen/sweep.hpp"

namespace pqtls::loadgen {
namespace {

// Short windows keep every simulated run well under a second of wall time;
// cheap classical algorithms keep the one-off profile calibration fast.
LoadConfig quick(const char* ka, const char* sa) {
  LoadConfig config;
  config.ka = ka;
  config.sa = sa;
  config.duration_s = 2.0;
  config.warmup_s = 0.25;
  config.timeout_s = 1.0;
  return config;
}

TEST(LoadgenProfile, CalibratedCostsArePositiveAndCached) {
  const HandshakeProfile& p = calibrated_profile("kyber512", "dilithium2", 1);
  EXPECT_GT(p.client_hello_cpu, 0);
  EXPECT_GT(p.server_flight_cpu, 0);
  EXPECT_GT(p.client_finish_cpu, 0);
  EXPECT_GT(p.server_finish_cpu, 0);
  EXPECT_GT(p.client_bytes, 0u);
  EXPECT_GT(p.server_bytes, 0u);
  // The server flight (encaps + signature) dominates the Finished check.
  EXPECT_GT(p.server_flight_cpu, p.server_finish_cpu);
  // Cached: the same (ka, sa, pki_seed) returns the same object.
  EXPECT_EQ(&p, &calibrated_profile("kyber512", "dilithium2", 1));
}

TEST(LoadgenProfile, SphincsCostsDwarfDilithium) {
  const HandshakeProfile& dil =
      calibrated_profile("kyber512", "dilithium2", 1);
  const HandshakeProfile& sph =
      calibrated_profile("kyber512", "sphincs128", 1);
  // SPHINCS+ signing is orders of magnitude slower — the capacity model
  // must inherit that from perf::CostModel.
  EXPECT_GT(sph.server_cpu(), 3 * dil.server_cpu());
}

TEST(LoadgenProfile, UnknownAlgorithmThrows) {
  EXPECT_THROW(calibrated_profile("nosuchkem", "rsa:2048", 1),
               std::invalid_argument);
}

TEST(Loadgen, AnalyticCapacityScalesWithCores) {
  LoadConfig config = quick("x25519", "rsa:2048");
  const HandshakeProfile& p =
      calibrated_profile(config.ka, config.sa, config.seed);
  double one = analytic_capacity(config, p);
  config.cores = 4;
  EXPECT_GT(one, 0);
  EXPECT_NEAR(analytic_capacity(config, p), 4 * one, 1e-9);
}

TEST(Loadgen, BelowKneeAchievedTracksOffered) {
  LoadConfig config = quick("x25519", "rsa:2048");
  config.load_factor = 0.5;
  LoadMetrics m = run_load(config);
  ASSERT_TRUE(m.ok);
  EXPECT_EQ(m.dropped, 0);
  EXPECT_EQ(m.timed_out, 0);
  EXPECT_NEAR(m.achieved_rate, m.offered_rate, 0.1 * m.offered_rate);
  EXPECT_LT(m.achieved_rate, m.analytic_capacity);
  EXPECT_NEAR(m.core_utilization, 0.5, 0.15);
  EXPECT_GE(m.p99, m.p50);
  EXPECT_GE(m.p999, m.p99);
}

TEST(Loadgen, OverloadSaturatesBelowAnalyticBound) {
  LoadConfig below = quick("x25519", "rsa:2048");
  below.load_factor = 0.5;
  LoadConfig over = below;
  over.load_factor = 1.4;
  LoadMetrics calm = run_load(below);
  LoadMetrics hot = run_load(over);
  ASSERT_TRUE(hot.ok);
  // Achieved rate is capped by the server CPU, never above the bound.
  EXPECT_LE(hot.achieved_rate, hot.analytic_capacity * 1.02);
  EXPECT_GT(hot.achieved_rate, calm.achieved_rate);
  // Queueing delay explodes past the knee; losses appear.
  EXPECT_GT(hot.p99, 3 * calm.p99);
  EXPECT_GT(hot.mean_queue_depth, calm.mean_queue_depth);
  EXPECT_GT(hot.dropped + hot.timed_out, 0);
  EXPECT_GT(hot.core_utilization, 0.95);
}

TEST(Loadgen, SweepIsMonotoneWithKneeUnderSlo) {
  LoadConfig base = quick("x25519", "rsa:2048");
  // A generous abandonment deadline isolates the saturation property: with
  // tight timeouts goodput legitimately degrades past the knee (cores burn
  // time on handshakes whose client already left).
  base.timeout_s = 10.0;
  SweepOptions opts;
  opts.points = 6;
  opts.slo_s = 0.060;
  SweepResult r = run_sweep(base, opts);
  ASSERT_EQ(r.points.size(), 6u);
  for (std::size_t i = 0; i < r.points.size(); ++i) {
    const LoadMetrics& m = r.points[i].metrics;
    ASSERT_TRUE(m.ok) << "sweep point " << i;
    if (i > 0) {
      EXPECT_GT(m.offered_rate, r.points[i - 1].metrics.offered_rate);
    }
    EXPECT_LE(m.achieved_rate, r.analytic_capacity * 1.02);
    if (m.core_utilization < 0.99) {
      // Below saturation the server keeps up: achieved tracks offered and
      // rises monotonically with the ladder.
      EXPECT_NEAR(m.achieved_rate, m.offered_rate, 0.1 * m.offered_rate);
      if (i > 0) {
        EXPECT_GT(m.achieved_rate, r.points[i - 1].metrics.achieved_rate);
      }
    } else {
      // At saturation the cores pin and throughput plateaus just below the
      // analytic bound. (It can sag somewhat in deep FIFO overload: each
      // Finished-verification job queues behind every newer flight job, so
      // in-flight work inflates within the finite window.)
      EXPECT_GT(m.achieved_rate, 0.8 * r.analytic_capacity);
    }
  }
  ASSERT_GT(r.knee_offered, 0);
  EXPECT_LE(r.knee_p99, opts.slo_s);
  EXPECT_LT(r.knee_offered, r.analytic_capacity * opts.max_load_factor);
  // Past the knee the tail blows up: the last (most overloaded) point must
  // be far above the SLO.
  EXPECT_GT(r.points.back().metrics.p99, 2 * opts.slo_s);
  EXPECT_FALSE(r.points.back().within_slo);
}

TEST(Loadgen, ClosedLoopSaturatesTheServer) {
  LoadConfig config = quick("x25519", "rsa:2048");
  config.arrival = Arrival::kClosed;
  config.clients = 64;
  config.timeout_s = 5.0;  // closed-loop backpressure, not abandonment
  LoadMetrics m = run_load(config);
  ASSERT_TRUE(m.ok);
  // 64 clients against one core: the server, not the population, is the
  // bottleneck, so utilization pins and throughput sits at capacity.
  EXPECT_GT(m.core_utilization, 0.9);
  EXPECT_NEAR(m.achieved_rate, m.analytic_capacity,
              0.1 * m.analytic_capacity);
}

TEST(Loadgen, TinyBacklogDropsConnections) {
  LoadConfig config = quick("x25519", "rsa:2048");
  config.load_factor = 1.2;
  config.backlog = 4;
  LoadMetrics m = run_load(config);
  ASSERT_TRUE(m.ok);
  EXPECT_GT(m.dropped, 0);
  // The backlog also caps the queue, keeping latency bounded.
  EXPECT_LT(m.mean_queue_depth, 5.0);
}

TEST(Loadgen, TightTimeoutCausesAbandonment) {
  LoadConfig config = quick("x25519", "rsa:2048");
  config.load_factor = 1.3;
  config.timeout_s = 0.2;
  LoadMetrics m = run_load(config);
  ASSERT_TRUE(m.ok);
  EXPECT_GT(m.timed_out, 0);
  // Completed handshakes all finished inside the abandonment deadline.
  EXPECT_LE(m.p999, config.timeout_s + 1e-9);
}

TEST(Loadgen, SjfIsDeterministicAndServesFinishFirst) {
  LoadConfig config = quick("x25519", "rsa:2048");
  config.load_factor = 1.1;
  config.policy = Policy::kSjf;
  LoadMetrics a = run_load(config);
  LoadMetrics b = run_load(config);
  ASSERT_TRUE(a.ok);
  // Exact replay: the whole simulation is a pure function of the config.
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.timed_out, b.timed_out);
  EXPECT_DOUBLE_EQ(a.p99, b.p99);
  EXPECT_DOUBLE_EQ(a.mean_queue_depth, b.mean_queue_depth);
  // SJF favours the short Finished-verification jobs, so in-flight
  // handshakes drain instead of starving behind new server flights:
  // throughput stays at (or above) FIFO's under the same overload.
  config.policy = Policy::kFifo;
  LoadMetrics fifo = run_load(config);
  EXPECT_GE(a.achieved_rate, fifo.achieved_rate * 0.98);
}

// Client ids share a 24-bit event field with the all-ones open-loop
// sentinel, so a population that would reach it is refused up front.
TEST(Loadgen, ClientPopulationBeyondIdFieldThrows) {
  LoadConfig config = quick("x25519", "rsa:2048");
  config.arrival = Arrival::kClosed;
  config.clients = 0xFFFFFF;
  // Thrown before the population is allocated, so the check is cheap.
  EXPECT_THROW(run_load(config), std::invalid_argument);
}

TEST(LoadgenCampaigns, RegisteredAndWellFormed) {
  for (const char* name : {"loadgen_kems", "loadgen_sigs"}) {
    const campaign::CampaignSpec* spec = campaign::find_campaign(name);
    ASSERT_NE(spec, nullptr) << name;
    ASSERT_FALSE(spec->cells.empty());
    for (const auto& cell : spec->cells) {
      ASSERT_TRUE(cell.loadgen.has_value()) << cell.id;
      // Sinks read ka/sa from the loadgen config; the testbed mirror must
      // agree so ids and seeds stay consistent.
      EXPECT_EQ(cell.config.ka, cell.loadgen->ka) << cell.id;
      EXPECT_EQ(cell.config.sa, cell.loadgen->sa) << cell.id;
      EXPECT_GT(cell.loadgen->load_factor, 0) << cell.id;
    }
  }
  // The mixed-schema union campaign must not absorb loadgen cells.
  const campaign::CampaignSpec* all = campaign::find_campaign("all");
  ASSERT_NE(all, nullptr);
  for (const auto& cell : all->cells)
    EXPECT_FALSE(cell.loadgen.has_value()) << cell.id;
}

// The acceptance-critical reproducibility property, registered as its own
// ctest (loadgen_determinism): running the same loadgen campaign with 1 and
// 4 workers must produce byte-identical JSONL.
TEST(LoadgenDeterminism, ByteIdenticalJsonlAcrossWorkerCounts) {
  campaign::CampaignSpec spec;
  spec.name = "loadgen-tiny";
  for (double factor : {0.6, 1.2}) {
    for (const char* sa : {"rsa:2048", "dilithium2"}) {
      campaign::Cell cell;
      LoadConfig config = quick("x25519", sa);
      config.load_factor = factor;
      config.duration_s = 1.0;
      cell.id = std::string("x25519/") + sa + "/f" + std::to_string(factor);
      cell.config.ka = config.ka;
      cell.config.sa = config.sa;
      cell.loadgen = config;
      spec.cells.push_back(cell);
    }
  }

  auto render = [&](int workers) {
    campaign::RunnerOptions opts;
    opts.workers = workers;
    opts.base_seed = 7;
    std::ostringstream jsonl, csv;
    campaign::JsonlSink jsonl_sink(jsonl);
    campaign::CsvSink csv_sink(csv);
    int failed =
        campaign::run_campaign(spec, opts, {&jsonl_sink, &csv_sink});
    EXPECT_EQ(failed, 0);
    return jsonl.str() + "\x1f" + csv.str();
  };

  std::string one = render(1);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, render(4));
}

// ---------------------------------------------------------------------------
// Single-server golden rows: six servers=1 configs covering the run queue
// disciplines, overload losses, closed-loop resumption, batching, a
// compressed chain and a zero-delay link, rendered through JsonlSink and
// locked against tests/golden/loadgen_single_rows.jsonl.

campaign::CampaignSpec single_server_spec() {
  campaign::CampaignSpec spec;
  spec.name = "loadgen-single";
  auto add = [&spec](const char* id, const LoadConfig& config) {
    campaign::Cell cell;
    cell.id = id;
    cell.config.ka = config.ka;
    cell.config.sa = config.sa;
    cell.loadgen = config;
    spec.cells.push_back(cell);
  };
  LoadConfig base = quick("kyber512", "dilithium2");
  base.cores = 2;

  LoadConfig fifo = base;
  fifo.offered_rate = 800;
  add("poisson-fifo", fifo);

  LoadConfig sjf = base;
  sjf.policy = Policy::kSjf;
  sjf.load_factor = 1.5;
  sjf.backlog = 24;
  sjf.timeout_s = 0.03;
  add("sjf-overload", sjf);

  LoadConfig closed = quick("x25519", "rsa:2048");
  closed.arrival = Arrival::kClosed;
  closed.clients = 32;
  closed.cores = 2;
  closed.resumption_ratio = 0.5;
  add("closed-resume", closed);

  LoadConfig batched = base;
  batched.load_factor = 0.9;
  batched.batch = 8;
  add("batch8", batched);

  LoadConfig chain = base;
  chain.load_factor = 0.7;
  chain.chain_profile = pki::ChainProfile{"int1", "", {"dilithium2"}};
  chain.cert_mode = tls::CertMode::kCompressed;
  add("compressed-int1", chain);

  LoadConfig instant = base;
  instant.offered_rate = 600;
  instant.netem.delay_s = 0;
  add("delay0", instant);
  return spec;
}

std::string single_server_rows() {
  const campaign::CampaignSpec spec = single_server_spec();
  std::ostringstream out;
  campaign::JsonlSink sink(out);
  sink.begin(spec, campaign::RunnerOptions{});
  for (const campaign::Cell& cell : spec.cells) {
    campaign::CellOutcome o;
    o.campaign = spec.name;
    o.cell = cell;
    o.load = run_load(*cell.loadgen);
    if (!o.load.ok) o.error = "no handshake completed in the window";
    sink.cell(o);
  }
  sink.finish();
  return out.str();
}

TEST(LoadgenSingleServerGolden, RowsMatchGolden) {
  std::ifstream in(std::string(PQTLS_TEST_DATA_DIR) +
                       "/loadgen_single_rows.jsonl",
                   std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file loadgen_single_rows.jsonl";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(single_server_rows(), golden.str());
}

}  // namespace
}  // namespace pqtls::loadgen
