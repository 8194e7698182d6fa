// Load-generation CLI: simulate a K-core PQ-TLS server under concurrent
// handshake load (open-loop Poisson or closed-loop clients) and report
// capacity metrics — offered vs. achieved handshake rate, p50/p99/p99.9
// latency, queue depth, drops and abandonment — or sweep offered load to
// locate the capacity knee against a p99 SLO.
//
//   pqtls_loadgen --ka kyber512 --sa dilithium2 --rate 800
//   pqtls_loadgen --arrival closed --clients 128 --cores 4
//   pqtls_loadgen --arrival poisson --sweep --slo-ms 50 --out sweep.jsonl
//
// Everything runs in deterministic virtual time: same flags + same seed =>
// byte-identical output. Exit code: 0 = ok, 1 = usage error, 2 = the run
// (or every sweep point) completed no handshake.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/options.hpp"
#include "campaign/runner.hpp"
#include "campaign/sinks.hpp"
#include "crypto/backend/backend.hpp"
#include "crypto/catalog.hpp"
#include "loadgen/loadgen.hpp"
#include "loadgen/sweep.hpp"
#include "testbed/testbed.hpp"
#include "trace/trace.hpp"

namespace {

using namespace pqtls;
using campaign::double_or;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "\n"
      "workload:\n"
      "  --ka NAME             key agreement (default x25519)\n"
      "  --sa NAME             signature algorithm (default rsa:2048)\n"
      "  --arrival poisson|closed\n"
      "                        open-loop Poisson or closed-loop clients\n"
      "  --rate R              Poisson offered handshakes/s (default 500)\n"
      "  --load-factor F       Poisson rate as F x analytic capacity\n"
      "  --clients N           closed-loop population (default 64)\n"
      "  --think S             closed-loop mean think time (default 0.01)\n"
      "\n"
      "server model:\n"
      "  --cores K             server cores (default 1)\n"
      "  --policy fifo|sjf     run-queue discipline (default fifo)\n"
      "  --backlog B           max concurrent handshakes (default 256)\n"
      "  --timeout S           client abandonment timeout (default 2)\n"
      "  --batch N             server-side batching factor: the server\n"
      "                        flight is charged the amortized batched\n"
      "                        encaps cost (default 1 = unbatched)\n"
      "  --backend NAME        crypto backend: portable | avx2 | aesni |\n"
      "                        auto (default auto; env PQTLS_BACKEND)\n"
      "  --delay-ms D          one-way network delay (default 5)\n"
      "  --rate-mbps M         per-direction link rate (default line rate)\n"
      "\n"
      "fleet:\n"
      "  --servers M           servers behind the balancer (default 1)\n"
      "  --balancer NAME       round_robin|least_loaded|power_of_two\n"
      "                        (short: rr|ll|p2c; default round_robin)\n"
      "  --shards N            event-loop shards; results are bit-identical\n"
      "                        at any N (default 1)\n"
      "  --churn R[:LIFE]      churn clients arriving at R/s with mean\n"
      "                        lifetime LIFE s (default lifetime 30)\n"
      "  --client-classes SPEC comma list of netem scenario slugs with\n"
      "                        optional weights, e.g. 'no-emulation:0.6,\n"
      "                        lte-m:0.2,5g:0.2'\n"
      "  --trace PATH          Chrome/Perfetto trace of sampled connections\n"
      "                        through the servers (forces --shards 1)\n"
      "  --trace-every N       sample every Nth connection (default 1000)\n"
      "\n"
      "measurement:\n"
      "  --duration S          measurement window (default 10)\n"
      "  --warmup S            warmup before the window (default 1)\n"
      "  --seed S              simulation seed (default 0x715b3d)\n"
      "\n"
      "sweep:\n"
      "  --sweep               ladder of offered loads + capacity knee\n"
      "  --points N            sweep ladder points (default 12)\n"
      "  --max-factor F        sweep up to F x capacity (default 1.5)\n"
      "  --slo-ms X            p99 SLO for the knee (default 50)\n"
      "\n"
      "output:\n"
      "  --out PATH            JSONL rows (loadgen schema; '-' = stdout)\n"
      "  --csv PATH            CSV rows ('-' = stdout)\n",
      argv0);
  return 1;
}

// Reuse the campaign sinks for machine-readable output: each run (or sweep
// point) becomes one synthetic loadgen cell outcome.
campaign::CellOutcome as_outcome(const std::string& id,
                                 const loadgen::LoadConfig& config,
                                 const loadgen::LoadMetrics& metrics) {
  campaign::CellOutcome o;
  o.campaign = "loadgen-cli";
  o.cell.id = id;
  o.cell.config.ka = config.ka;
  o.cell.config.sa = config.sa;
  o.cell.loadgen = config;
  o.load = metrics;
  if (!metrics.ok) o.error = "no handshake completed in the window";
  return o;
}

// "--churn R[:LIFE]": arrival rate, optional mean lifetime.
bool parse_churn(const char* text, loadgen::LoadConfig& config) {
  if (!text) return false;
  std::string spec = text;
  auto colon = spec.find(':');
  config.churn_rate =
      double_or(spec.substr(0, colon).c_str(), -1, "--churn rate");
  if (config.churn_rate < 0) return false;
  if (colon != std::string::npos) {
    config.churn_lifetime_s = double_or(spec.substr(colon + 1).c_str(), -1,
                                        "--churn lifetime");
    if (config.churn_lifetime_s < 0) return false;
  }
  return true;
}

// "--client-classes slug[:weight],slug[:weight],…" — slugs name the
// standard netem scenario set (see pqtls_campaign --list scenarios).
bool parse_client_classes(const char* text, loadgen::LoadConfig& config) {
  if (!text) return false;
  const auto& scenarios = testbed::standard_scenarios();
  std::string spec = text;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    auto comma = spec.find(',', pos);
    std::string item = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? spec.size() + 1 : comma + 1;
    if (item.empty()) continue;
    auto colon = item.find(':');
    std::string slug = item.substr(0, colon);
    double weight = 1.0;
    if (colon != std::string::npos) {
      weight = double_or(item.substr(colon + 1).c_str(), 0, "class weight");
      if (weight <= 0) return false;
    }
    const testbed::Scenario* found = nullptr;
    for (const auto& s : scenarios)
      if (campaign::scenario_slug(s.name) == slug) found = &s;
    if (!found) {
      std::fprintf(stderr, "unknown client class scenario '%s'; slugs:",
                   slug.c_str());
      for (const auto& s : scenarios)
        std::fprintf(stderr, " %s", campaign::scenario_slug(s.name).c_str());
      std::fprintf(stderr, "\n");
      return false;
    }
    config.client_classes.push_back({slug, found->netem, weight});
  }
  return !config.client_classes.empty();
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace

int main(int argc, char** argv) {
  loadgen::LoadConfig config;
  loadgen::SweepOptions sweep_opts;
  bool sweep = false;
  std::string jsonl_path, csv_path;
  std::string trace_path;
  std::uint32_t trace_every = 1000;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--ka") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      config.ka = v;
    } else if (arg == "--sa") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      config.sa = v;
    } else if (arg == "--arrival") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      if (std::strcmp(v, "poisson") == 0) {
        config.arrival = loadgen::Arrival::kPoisson;
      } else if (std::strcmp(v, "closed") == 0) {
        config.arrival = loadgen::Arrival::kClosed;
      } else {
        std::fprintf(stderr, "unknown arrival process '%s'\n", v);
        return usage(argv[0]);
      }
    } else if (arg == "--policy") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      if (std::strcmp(v, "fifo") == 0) {
        config.policy = loadgen::Policy::kFifo;
      } else if (std::strcmp(v, "sjf") == 0) {
        config.policy = loadgen::Policy::kSjf;
      } else {
        std::fprintf(stderr, "unknown policy '%s'\n", v);
        return usage(argv[0]);
      }
    } else if (arg == "--rate") {
      config.offered_rate = double_or(value(), config.offered_rate, "--rate");
    } else if (arg == "--load-factor") {
      config.load_factor =
          double_or(value(), config.load_factor, "--load-factor");
    } else if (arg == "--clients") {
      config.clients = campaign::positive_int_or(value(), config.clients,
                                                 "--clients");
    } else if (arg == "--think") {
      config.think_s = double_or(value(), config.think_s, "--think");
    } else if (arg == "--cores") {
      config.cores = campaign::positive_int_or(value(), config.cores,
                                               "--cores");
    } else if (arg == "--backlog") {
      config.backlog = campaign::positive_int_or(value(), config.backlog,
                                                 "--backlog");
    } else if (arg == "--timeout") {
      config.timeout_s = double_or(value(), config.timeout_s, "--timeout");
    } else if (arg == "--batch") {
      config.batch = campaign::positive_int_or(value(), config.batch,
                                               "--batch");
    } else if (arg == "--backend") {
      const char* v = value();
      if (!v || !crypto::backend::select(v)) {
        std::fprintf(stderr, "unknown backend '%s' (portable | avx2 | aesni "
                             "| auto)\n",
                     v ? v : "");
        return usage(argv[0]);
      }
    } else if (arg == "--delay-ms") {
      config.netem.delay_s =
          double_or(value(), config.netem.delay_s * 1e3, "--delay-ms") * 1e-3;
    } else if (arg == "--rate-mbps") {
      config.netem.rate_bps =
          double_or(value(), config.netem.rate_bps * 1e-6, "--rate-mbps") *
          1e6;
    } else if (arg == "--duration") {
      config.duration_s = double_or(value(), config.duration_s, "--duration");
    } else if (arg == "--warmup") {
      config.warmup_s = double_or(value(), config.warmup_s, "--warmup");
    } else if (arg == "--seed") {
      config.seed = campaign::u64_or(value(), config.seed, "--seed");
    } else if (arg == "--sweep") {
      sweep = true;
    } else if (arg == "--points") {
      sweep_opts.points = campaign::positive_int_or(value(), sweep_opts.points,
                                                    "--points");
    } else if (arg == "--max-factor") {
      sweep_opts.max_load_factor =
          double_or(value(), sweep_opts.max_load_factor, "--max-factor");
    } else if (arg == "--slo-ms") {
      sweep_opts.slo_s =
          double_or(value(), sweep_opts.slo_s * 1e3, "--slo-ms") * 1e-3;
      config.slo_s = sweep_opts.slo_s;
    } else if (arg == "--servers") {
      config.servers = campaign::positive_int_or(value(), config.servers,
                                                 "--servers");
    } else if (arg == "--balancer") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      try {
        config.balancer = loadgen::parse_balancer(v);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return usage(argv[0]);
      }
    } else if (arg == "--shards") {
      config.shards = static_cast<std::uint32_t>(
          campaign::positive_int_or(value(), static_cast<int>(config.shards),
                                    "--shards"));
    } else if (arg == "--churn") {
      if (!parse_churn(value(), config)) return usage(argv[0]);
    } else if (arg == "--client-classes") {
      if (!parse_client_classes(value(), config)) return usage(argv[0]);
    } else if (arg == "--trace") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      trace_path = v;
    } else if (arg == "--trace-every") {
      trace_every = static_cast<std::uint32_t>(campaign::positive_int_or(
          value(), static_cast<int>(trace_every), "--trace-every"));
    } else if (arg == "--out") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      jsonl_path = v;
    } else if (arg == "--csv") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      csv_path = v;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return usage(argv[0]);
    }
  }

  // Validate the algorithm pair up front, before any sink files are
  // opened: the catalog's message lists the valid names.
  try {
    crypto::AlgorithmCatalog::instance().require_kem(config.ka);
    crypto::AlgorithmCatalog::instance().require_signer(config.sa);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  // Machine-readable sinks (shared with the campaign engine).
  std::vector<std::unique_ptr<campaign::Sink>> owned;
  std::ofstream jsonl_file, csv_file;
  auto open_stream = [&](const std::string& path,
                         std::ofstream& file) -> std::ostream* {
    if (path == "-") return &std::cout;
    file.open(path);
    if (!file) {
      std::fprintf(stderr, "cannot open '%s' for writing\n", path.c_str());
      return nullptr;
    }
    return &file;
  };
  if (!jsonl_path.empty()) {
    std::ostream* out = open_stream(jsonl_path, jsonl_file);
    if (!out) return 1;
    owned.push_back(std::make_unique<campaign::JsonlSink>(*out));
  }
  if (!csv_path.empty()) {
    std::ostream* out = open_stream(csv_path, csv_file);
    if (!out) return 1;
    owned.push_back(std::make_unique<campaign::CsvSink>(*out));
  }
  auto emit = [&](const campaign::CellOutcome& outcome) {
    for (const auto& sink : owned) sink->cell(outcome);
  };
  // CSV needs its loadgen header; fake a one-cell loadgen spec.
  if (!owned.empty()) {
    campaign::CampaignSpec header_spec;
    header_spec.name = "loadgen-cli";
    campaign::Cell cell;
    cell.loadgen = config;
    header_spec.cells.push_back(cell);
    for (const auto& sink : owned)
      sink->begin(header_spec, campaign::RunnerOptions{});
  }

  try {
    if (!sweep) {
      trace::Recorder recorder;
      auto wall0 = std::chrono::steady_clock::now();
      loadgen::LoadMetrics m = loadgen::run_load(
          config, trace_path.empty() ? nullptr : &recorder, trace_every);
      double wall_s = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall0)
                          .count();
      std::printf("%s/%s  %s/%s  cores=%d backlog=%d\n", config.ka.c_str(),
                  config.sa.c_str(),
                  config.arrival == loadgen::Arrival::kPoisson ? "poisson"
                                                               : "closed",
                  config.policy == loadgen::Policy::kFifo ? "fifo" : "sjf",
                  config.cores, config.backlog);
      std::printf("  offered   %10.1f hs/s   (analytic capacity %.1f)\n",
                  m.offered_rate, m.analytic_capacity);
      std::printf("  achieved  %10.1f hs/s   (%lld completed, %lld dropped, "
                  "%lld timed out)\n",
                  m.achieved_rate, m.completed, m.dropped, m.timed_out);
      std::printf("  latency   p50 %8.2f ms   p90 %8.2f ms   p99 %8.2f ms"
                  "   p99.9 %8.2f ms\n",
                  m.p50 * 1e3, m.p90 * 1e3, m.p99 * 1e3, m.p999 * 1e3);
      std::printf("  queue     depth %6.2f      core utilization %5.1f%%\n",
                  m.mean_queue_depth, m.core_utilization * 100);
      std::printf("  fleet     %d server%s x %d cores   balancer %s   "
                  "shards %u   classes %zu\n",
                  config.servers, config.servers == 1 ? "" : "s",
                  config.cores, loadgen::balancer_name(config.balancer),
                  config.shards,
                  config.client_classes.empty()
                      ? std::size_t{1}
                      : config.client_classes.size());
      std::printf("  servers   util min %5.1f%% max %5.1f%%   churn "
                  "+%lld/-%lld\n",
                  m.min_server_util * 100, m.max_server_util * 100,
                  m.churn_arrived, m.churn_departed);
      std::printf("  engine    %lld events   %.3g events/s   wall %.2f s"
                  "   peak RSS %.1f MB\n",
                  m.sim_events,
                  wall_s > 0 ? static_cast<double>(m.sim_events) / wall_s
                             : 0.0,
                  wall_s, peak_rss_mb());
      if (!trace_path.empty()) {
        std::ofstream trace_file(trace_path);
        if (!trace_file) {
          std::fprintf(stderr, "cannot open '%s' for writing\n",
                       trace_path.c_str());
          return 1;
        }
        recorder.write_chrome_trace(trace_file);
        std::printf("  trace     %zu events -> %s (chrome://tracing or "
                    "Perfetto)\n",
                    recorder.events().size(), trace_path.c_str());
      }
      emit(as_outcome(config.ka + "/" + config.sa + "/single", config, m));
      for (const auto& sink : owned) sink->finish();
      return m.ok ? 0 : 2;
    }

    if (!trace_path.empty())
      std::fprintf(stderr, "note: --trace is ignored with --sweep\n");

    loadgen::SweepResult r = loadgen::run_sweep(config, sweep_opts);
    std::printf("%s/%s sweep: %d points, cores=%d, analytic capacity %.1f "
                "hs/s, SLO p99 <= %.1f ms\n\n",
                config.ka.c_str(), config.sa.c_str(),
                static_cast<int>(r.points.size()), config.cores,
                r.analytic_capacity, sweep_opts.slo_s * 1e3);
    std::printf("%10s %10s %8s %10s %10s %10s %7s %6s %6s  %s\n", "off[1/s]",
                "ach[1/s]", "util", "p50(ms)", "p99(ms)", "p99.9(ms)",
                "qdepth", "drop", "t/o", "slo");
    int index = 0;
    bool any_ok = false;
    for (const auto& point : r.points) {
      const auto& m = point.metrics;
      any_ok = any_ok || m.ok;
      std::printf("%10.1f %10.1f %7.1f%% %10.2f %10.2f %10.2f %7.2f %6lld "
                  "%6lld  %s\n",
                  m.offered_rate, m.achieved_rate, m.core_utilization * 100,
                  m.p50 * 1e3, m.p99 * 1e3, m.p999 * 1e3,
                  m.mean_queue_depth, m.dropped, m.timed_out,
                  point.within_slo ? "ok" : "-");
      char id[64];
      std::snprintf(id, sizeof(id), "sweep-%02d", index++);
      emit(as_outcome(config.ka + "/" + config.sa + "/" + id, point.config,
                      m));
    }
    if (r.knee_offered > 0) {
      std::printf("\ncapacity knee: %.1f hs/s offered (%.1f achieved, p99 "
                  "%.2f ms) = %.0f%% of the analytic bound\n",
                  r.knee_offered, r.knee_achieved, r.knee_p99 * 1e3,
                  100 * r.knee_offered / r.analytic_capacity);
    } else {
      std::printf("\nno sweep point met the SLO\n");
    }
    for (const auto& sink : owned) sink->finish();
    return any_ok ? 0 : 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
