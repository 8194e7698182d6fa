#include "campaign/sinks.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "analysis/deviation.hpp"
#include "analysis/ranking.hpp"
#include "campaign/matrix.hpp"
#include "crypto/backend/backend.hpp"
#include "perf/profiler.hpp"

namespace pqtls::campaign {

namespace {

// snprintf with a C locale-independent fixed format: identical doubles
// always serialize to identical bytes, which the determinism guarantee
// (equal rows at any worker count) depends on. Non-finite values (the
// engines report NaN percentiles for a window with zero completions)
// canonicalize to "nan" — platform printf would emit "nan"/"-nan"/"nan(…)".
std::string fmt_ms(double seconds) {
  if (!std::isfinite(seconds)) return "nan";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", seconds * 1e3);
  return buf;
}

// JSON has no NaN literal; empty windows serialize as null.
std::string fmt_ms_json(double seconds) {
  return std::isfinite(seconds) ? fmt_ms(seconds) : "null";
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char ch : text) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out.push_back(ch);
        }
    }
  }
  return out;
}

std::string csv_escape(std::string_view text) {
  if (text.find_first_of(",\"\n") == std::string_view::npos)
    return std::string(text);
  std::string out = "\"";
  for (char ch : text) {
    if (ch == '"') out += "\"\"";
    else out.push_back(ch);
  }
  out += "\"";
  return out;
}

// Loadgen rates and ratios, fixed-precision for byte-stable rows.
std::string fmt_rate(double per_second) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", per_second);
  return buf;
}

const char* arrival_name(loadgen::Arrival arrival) {
  return arrival == loadgen::Arrival::kPoisson ? "poisson" : "closed";
}

const char* policy_name(loadgen::Policy policy) {
  return policy == loadgen::Policy::kFifo ? "fifo" : "sjf";
}

bool is_loadgen_campaign(const CampaignSpec& spec) {
  return !spec.cells.empty() && spec.cells.front().loadgen.has_value();
}

bool is_whitebox_campaign(const CampaignSpec& spec) {
  return !spec.cells.empty() && spec.cells.front().config.white_box;
}

bool is_fleet_campaign(const CampaignSpec& spec) {
  return is_loadgen_campaign(spec) && spec.cells.front().loadgen->is_fleet();
}

// Campaigns sweeping the server-side batching factor get a batch field so
// otherwise-identical cells stay distinguishable; campaigns where every
// cell runs unbatched keep their pre-batching row bytes.
bool is_batch_campaign(const CampaignSpec& spec) {
  if (!is_loadgen_campaign(spec)) return false;
  for (const auto& cell : spec.cells)
    if (cell.loadgen && cell.loadgen->batch != 1) return true;
  return false;
}

// SLO verdict for fleet rows: tail latency within the configured budget and
// at most 1% of arrivals lost to drops/abandonment (the sweep's knee rule).
bool within_slo(const loadgen::LoadConfig& lc, const CellOutcome& o) {
  const auto& m = o.load;
  if (!o.ok() || !std::isfinite(m.p99)) return false;
  double lost = static_cast<double>(m.dropped + m.timed_out);
  return m.p99 <= lc.slo_s &&
         (m.arrivals <= 0 || lost <= 0.01 * static_cast<double>(m.arrivals));
}

// Section 5.5's attack levers: bytes the server sends per byte the client
// sends (reflection), and server CPU per unit of client CPU (exhaustion).
double amplification(const testbed::ExperimentResult& r) {
  return r.client_bytes ? static_cast<double>(r.server_bytes) /
                              static_cast<double>(r.client_bytes)
                        : 0;
}

double cpu_ratio(const testbed::ExperimentResult& r) {
  return r.client_cpu_ms > 0 ? r.server_cpu_ms / r.client_cpu_ms : 0;
}

// A sink receiving ok=true metrics with non-finite percentiles means an
// engine skipped the zero-completion guard — fail loudly in debug builds.
void check_percentiles(const CellOutcome& o) {
  assert((!o.cell.loadgen || !o.ok() ||
          (std::isfinite(o.load.p50) && std::isfinite(o.load.p90) &&
           std::isfinite(o.load.p99) && std::isfinite(o.load.p999))) &&
         "ok metrics must carry finite percentiles");
  (void)o;
}

}  // namespace

void JsonlSink::begin(const CampaignSpec& spec, const RunnerOptions& opts) {
  batch_ = is_batch_campaign(spec);
  if (emit_meta_) {
    out_ << "{\"meta\":true,\"campaign\":\"" << json_escape(spec.name)
         << "\",\"backend\":\"" << crypto::backend::active_name()
         << "\",\"workers\":" << opts.workers << "}\n";
  }
}

void JsonlSink::cell(const CellOutcome& o) {
  if (o.cell.loadgen) {
    check_percentiles(o);
    const auto& lc = *o.cell.loadgen;
    const auto& m = o.load;
    out_ << "{\"campaign\":\"" << json_escape(o.campaign) << "\""
         << ",\"id\":\"" << json_escape(o.cell.id) << "\""
         << ",\"ka\":\"" << json_escape(lc.ka) << "\""
         << ",\"sa\":\"" << json_escape(lc.sa) << "\""
         << ",\"arrival\":\"" << arrival_name(lc.arrival) << "\""
         << ",\"policy\":\"" << policy_name(lc.policy) << "\""
         << ",\"seed\":" << lc.seed
         << ",\"ok\":" << (o.ok() ? "true" : "false")
         << ",\"error\":\"" << json_escape(o.error) << "\""
         << ",\"cores\":" << lc.cores
         << ",\"backlog\":" << lc.backlog
         << ",\"offered_hs_s\":" << fmt_rate(m.offered_rate)
         << ",\"achieved_hs_s\":" << fmt_rate(m.achieved_rate)
         << ",\"capacity_hs_s\":" << fmt_rate(m.analytic_capacity)
         << ",\"p50_ms\":" << fmt_ms_json(m.p50)
         << ",\"p90_ms\":" << fmt_ms_json(m.p90)
         << ",\"p99_ms\":" << fmt_ms_json(m.p99)
         << ",\"p999_ms\":" << fmt_ms_json(m.p999)
         << ",\"mean_queue_depth\":" << fmt_rate(m.mean_queue_depth)
         << ",\"core_utilization\":" << fmt_rate(m.core_utilization)
         << ",\"arrivals\":" << m.arrivals
         << ",\"completed\":" << m.completed
         << ",\"dropped\":" << m.dropped
         << ",\"timed_out\":" << m.timed_out;
    if (batch_) out_ << ",\"batch\":" << lc.batch;
    if (lc.is_fleet()) {
      out_ << ",\"servers\":" << lc.servers
           << ",\"balancer\":\"" << loadgen::balancer_name(lc.balancer)
           << "\""
           << ",\"shards\":" << lc.shards
           << ",\"min_server_util\":" << fmt_rate(m.min_server_util)
           << ",\"max_server_util\":" << fmt_rate(m.max_server_util)
           << ",\"churn_arrived\":" << m.churn_arrived
           << ",\"churn_departed\":" << m.churn_departed
           << ",\"slo_ms\":" << fmt_ms(lc.slo_s)
           << ",\"within_slo\":" << (within_slo(lc, o) ? "true" : "false");
    }
    out_ << "}\n";
    return;
  }
  const auto& c = o.cell.config;
  const auto& r = o.result;
  out_ << "{\"campaign\":\"" << json_escape(o.campaign) << "\""
       << ",\"id\":\"" << json_escape(o.cell.id) << "\""
       << ",\"ka\":\"" << json_escape(c.ka) << "\""
       << ",\"sa\":\"" << json_escape(c.sa) << "\""
       << ",\"scenario\":\"" << json_escape(o.cell.scenario) << "\""
       << ",\"seed\":" << c.seed
       << ",\"ok\":" << (o.ok() ? "true" : "false")
       << ",\"timed_out\":" << (r.timed_out ? "true" : "false")
       << ",\"error\":\"" << json_escape(o.error) << "\""
       << ",\"samples\":" << r.samples.size()
       << ",\"median_part_a_ms\":" << fmt_ms(r.median_part_a)
       << ",\"median_part_b_ms\":" << fmt_ms(r.median_part_b)
       << ",\"median_total_ms\":" << fmt_ms(r.median_total)
       << ",\"client_bytes\":" << r.client_bytes
       << ",\"server_bytes\":" << r.server_bytes
       << ",\"handshakes_60s\":" << r.total_handshakes_60s << "}\n";
}

void CsvSink::begin(const CampaignSpec& spec, const RunnerOptions&) {
  batch_ = is_batch_campaign(spec);
  if (is_loadgen_campaign(spec)) {
    out_ << "campaign,id,ka,sa,arrival,policy,seed,ok,error,cores,backlog,"
            "offered_hs_s,achieved_hs_s,capacity_hs_s,p50_ms,p90_ms,p99_ms,"
            "p999_ms,mean_queue_depth,core_utilization,arrivals,completed,"
            "dropped,timed_out";
    if (batch_) out_ << ",batch";
    if (is_fleet_campaign(spec))
      out_ << ",servers,balancer,shards,min_server_util,max_server_util,"
              "churn_arrived,churn_departed,slo_ms,within_slo";
    out_ << "\n";
    return;
  }
  out_ << "campaign,id,ka,sa,scenario,seed,ok,timed_out,error,samples,"
          "median_part_a_ms,median_part_b_ms,median_total_ms,"
          "client_bytes,server_bytes,handshakes_60s\n";
}

void CsvSink::cell(const CellOutcome& o) {
  if (o.cell.loadgen) {
    check_percentiles(o);
    const auto& lc = *o.cell.loadgen;
    const auto& m = o.load;
    out_ << csv_escape(o.campaign) << ',' << csv_escape(o.cell.id) << ','
         << csv_escape(lc.ka) << ',' << csv_escape(lc.sa) << ','
         << arrival_name(lc.arrival) << ',' << policy_name(lc.policy) << ','
         << lc.seed << ',' << (o.ok() ? "true" : "false") << ','
         << csv_escape(o.error) << ',' << lc.cores << ',' << lc.backlog
         << ',' << fmt_rate(m.offered_rate) << ','
         << fmt_rate(m.achieved_rate) << ','
         << fmt_rate(m.analytic_capacity) << ',' << fmt_ms(m.p50) << ','
         << fmt_ms(m.p90) << ',' << fmt_ms(m.p99) << ',' << fmt_ms(m.p999)
         << ',' << fmt_rate(m.mean_queue_depth) << ','
         << fmt_rate(m.core_utilization) << ',' << m.arrivals << ','
         << m.completed << ',' << m.dropped << ',' << m.timed_out;
    if (batch_) out_ << ',' << lc.batch;
    if (lc.is_fleet()) {
      out_ << ',' << lc.servers << ','
           << loadgen::balancer_name(lc.balancer) << ',' << lc.shards << ','
           << fmt_rate(m.min_server_util) << ','
           << fmt_rate(m.max_server_util) << ',' << m.churn_arrived << ','
           << m.churn_departed << ',' << fmt_ms(lc.slo_s) << ','
           << (within_slo(lc, o) ? "true" : "false");
    }
    out_ << '\n';
    return;
  }
  const auto& c = o.cell.config;
  const auto& r = o.result;
  out_ << csv_escape(o.campaign) << ',' << csv_escape(o.cell.id) << ','
       << csv_escape(c.ka) << ',' << csv_escape(c.sa) << ','
       << csv_escape(o.cell.scenario) << ',' << c.seed << ','
       << (o.ok() ? "true" : "false") << ','
       << (r.timed_out ? "true" : "false") << ',' << csv_escape(o.error)
       << ',' << r.samples.size() << ',' << fmt_ms(r.median_part_a) << ','
       << fmt_ms(r.median_part_b) << ',' << fmt_ms(r.median_total) << ','
       << r.client_bytes << ',' << r.server_bytes << ','
       << r.total_handshakes_60s << '\n';
}

void AsciiSink::begin(const CampaignSpec& spec, const RunnerOptions& opts) {
  layout_ = spec.ascii_layout;
  loadgen_ = is_loadgen_campaign(spec);
  whitebox_ = is_whitebox_campaign(spec);
  char head[256];
  std::snprintf(head, sizeof(head), "%s — %s (%d cells)\n",
                spec.name.c_str(), spec.description.c_str(),
                static_cast<int>(spec.cells.size()));
  out_ << head;
  (void)opts;
  if (loadgen_) {
    std::snprintf(head, sizeof(head),
                  "%-34s %9s %9s %9s %9s %9s %7s %6s %6s\n", "cell",
                  "off[1/s]", "ach[1/s]", "cap[1/s]", "p50(ms)", "p99(ms)",
                  "qdepth", "drop", "t/o");
    out_ << head;
    return;
  }
  if (whitebox_) {
    std::snprintf(head, sizeof(head),
                  "%-34s %8s %9s %9s %7s %7s %10s %10s %7s %8s\n", "cell",
                  "HS[1/s]", "SrvCPU ms", "CliCPU ms", "SrvPkts", "CliPkts",
                  "Client(B)", "Server(B)", "Amplif.", "CPUratio");
    out_ << head;
    return;
  }
  if (layout_ == AsciiLayout::kPerCell) {
    std::snprintf(head, sizeof(head),
                  "%-34s %10s %10s %10s %8s %10s %10s\n", "cell", "A med(ms)",
                  "B med(ms)", "tot(ms)", "# Total", "Client(B)",
                  "Server(B)");
    out_ << head;
  }
}

void AsciiSink::cell(const CellOutcome& o) {
  if (o.cell.loadgen) {
    check_percentiles(o);
    char line[256];
    if (!o.ok()) {
      std::snprintf(line, sizeof(line), "%-34s FAILED: %s\n",
                    o.cell.id.c_str(), o.error.c_str());
      out_ << line;
      return;
    }
    const auto& m = o.load;
    std::snprintf(line, sizeof(line),
                  "%-34s %9.1f %9.1f %9.1f %9.2f %9.2f %7.2f %6lld %6lld\n",
                  o.cell.id.c_str(), m.offered_rate, m.achieved_rate,
                  m.analytic_capacity, m.p50 * 1e3, m.p99 * 1e3,
                  m.mean_queue_depth, m.dropped, m.timed_out);
    out_ << line;
    return;
  }
  if (layout_ != AsciiLayout::kPerCell) {
    buffered_.push_back(o);
    return;
  }
  char line[256];
  if (!o.ok()) {
    std::snprintf(line, sizeof(line), "%-34s FAILED: %s\n",
                  o.cell.id.c_str(), o.error.c_str());
    out_ << line;
    return;
  }
  const auto& r = o.result;
  if (whitebox_) {
    std::snprintf(line, sizeof(line),
                  "%-34s %8.0f %9.2f %9.2f %7.1f %7.1f %10zu %10zu %6.1fx "
                  "%7.1fx\n",
                  o.cell.id.c_str(), r.handshakes_per_second, r.server_cpu_ms,
                  r.client_cpu_ms, r.server_packets, r.client_packets,
                  r.client_bytes, r.server_bytes, amplification(r),
                  cpu_ratio(r));
    out_ << line;
    buffered_.push_back(o);
    return;
  }
  std::snprintf(line, sizeof(line),
                "%-34s %10.2f %10.2f %10.2f %7.1fk %10zu %10zu\n",
                o.cell.id.c_str(), r.median_part_a * 1e3,
                r.median_part_b * 1e3, r.median_total * 1e3,
                static_cast<double>(r.total_handshakes_60s) / 1000.0,
                r.client_bytes, r.server_bytes);
  out_ << line;
}

void AsciiSink::finish() {
  if (whitebox_) {
    finish_whitebox();
    return;
  }
  if (layout_ == AsciiLayout::kDeviation) finish_deviation();
  if (layout_ == AsciiLayout::kRanking) finish_ranking();
  if (layout_ != AsciiLayout::kScenarioMatrix) return;
  // Rows: "ka/sa" in first-seen order; columns: scenarios in first-seen
  // order, each as wide as its label (at least 12); cell value: median
  // total latency (ms).
  std::vector<std::string> scenarios, rows;
  std::map<std::pair<std::string, std::string>, const CellOutcome*> grid;
  for (const auto& o : buffered_) {
    std::string row = o.cell.config.ka + "/" + o.cell.config.sa;
    if (std::find(rows.begin(), rows.end(), row) == rows.end())
      rows.push_back(row);
    if (std::find(scenarios.begin(), scenarios.end(), o.cell.scenario) ==
        scenarios.end())
      scenarios.push_back(o.cell.scenario);
    grid[{row, o.cell.scenario}] = &o;
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%-34s", "cell");
  out_ << buf;
  auto width = [](const std::string& label) {
    return std::max(12, static_cast<int>(label.size()));
  };
  for (const auto& s : scenarios) {
    std::snprintf(buf, sizeof(buf), " %*s", width(s), s.c_str());
    out_ << buf;
  }
  out_ << '\n';
  for (const auto& row : rows) {
    std::snprintf(buf, sizeof(buf), "%-34s", row.c_str());
    out_ << buf;
    for (const auto& s : scenarios) {
      auto it = grid.find({row, s});
      if (it != grid.end() && it->second->ok())
        std::snprintf(buf, sizeof(buf), " %*.2f", width(s),
                      it->second->result.median_total * 1e3);
      else
        std::snprintf(buf, sizeof(buf), " %*s", width(s), "FAIL");
      out_ << buf;
    }
    out_ << '\n';
  }
}

// Figure 3: per level, the independence deviation E(k,s) - M(k,s) under
// each buffering mode (3a, 3b) and the optimized mode's gain
// M_default - M_optimized (3c), in ms. A failed cell, and every value that
// reads one, renders as FAIL.
void AsciiSink::finish_deviation() {
  analysis::LatencyTable buffered, immediate;
  for (const auto& o : buffered_) {
    if (!o.ok()) continue;
    auto& table = o.cell.config.buffering == tls::Buffering::kDefault
                      ? buffered
                      : immediate;
    table[{o.cell.config.ka, o.cell.config.sa}] = o.result.median_total;
  }
  char buf[128];
  // One level's KA x SA grid; `value` gives each cell in seconds.
  auto print_grid = [&](const LevelCombos& level, auto value) {
    std::snprintf(buf, sizeof(buf), "  %s:\n  %-14s", level.label, "");
    out_ << buf;
    for (const char* sa : level.sas) {
      std::snprintf(buf, sizeof(buf), " %14s", sa);
      out_ << buf;
    }
    out_ << '\n';
    for (const char* ka : level.kas) {
      std::snprintf(buf, sizeof(buf), "  %-14s", ka);
      out_ << buf;
      for (const char* sa : level.sas) {
        std::optional<double> v = value(ka, sa);
        if (v)
          std::snprintf(buf, sizeof(buf), " %+14.2f", *v * 1e3);
        else
          std::snprintf(buf, sizeof(buf), " %14s", "FAIL");
        out_ << buf;
      }
      out_ << '\n';
    }
  };

  for (const auto* table : {&buffered, &immediate}) {
    out_ << '\n'
         << (table == &buffered ? "Figure 3a: default OpenSSL behaviour"
                                : "Figure 3b: optimized behaviour")
         << " (deviation E(k,s) - M(k,s) in ms; positive = faster than "
            "predicted)\n";
    for (const auto& level : fig3_levels()) {
      print_grid(level, [&](const char* ka,
                            const char* sa) -> std::optional<double> {
        try {
          return analysis::deviation_analysis(*table, {{ka, sa}})
              .front()
              .deviation;
        } catch (const std::invalid_argument&) {
          return std::nullopt;  // an input cell failed, so it is not there
        }
      });
    }
  }

  out_ << "\nFigure 3c: improvement of the optimized behaviour "
          "(M_default - M_optimized in ms; positive = optimized faster)\n";
  for (const auto& level : fig3_levels()) {
    print_grid(level, [&](const char* ka,
                          const char* sa) -> std::optional<double> {
      auto b = buffered.find({ka, sa});
      auto i = immediate.find({ka, sa});
      if (b == buffered.end() || i == immediate.end()) return std::nullopt;
      return b->second - i->second;
    });
  }
  print_failed_cells();
}

// Figure 4: KAs (measured with rsa:2048) and SAs (with x25519) ranked by
// log median latency. The shared x25519/rsa:2048 cell ranks in both lists,
// as it appeared in both of the paper's sweeps; failed cells are listed
// after the rankings instead.
void AsciiSink::finish_ranking() {
  std::vector<std::pair<std::string, double>> kas, sas;
  for (const auto& o : buffered_) {
    if (!o.ok()) continue;
    if (o.cell.config.sa == "rsa:2048")
      kas.emplace_back(o.cell.config.ka, o.result.median_total);
    if (o.cell.config.ka == "x25519")
      sas.emplace_back(o.cell.config.sa, o.result.median_total);
  }
  out_ << "Figure 4: algorithms ranked by log handshake latency (bucket 0 = "
          "fastest, 10 = slowest)\n"
       << "\nKey agreements (with rsa:2048):\n"
       << analysis::render_ranking(analysis::rank_by_latency(kas))
       << "\nSignature algorithms (with x25519):\n"
       << analysis::render_ranking(analysis::rank_by_latency(sas));
  print_failed_cells();
}

void AsciiSink::print_failed_cells() {
  const char* title = "\nFailed cells:\n";
  for (const auto& o : buffered_) {
    if (o.ok()) continue;
    out_ << title << "  " << o.cell.id << ": " << o.error << '\n';
    title = "";
  }
}

void AsciiSink::finish_whitebox() {
  if (buffered_.empty()) return;
  constexpr int kLibs = static_cast<int>(perf::Lib::kCount);
  char buf[256];
  out_ << "\nLibrary distribution (% of CPU time per side)\n";
  std::snprintf(buf, sizeof(buf), "%-34s | %-42s | %-42s\n", "", "server",
                "client");
  out_ << buf;
  std::snprintf(buf, sizeof(buf), "%-15s %-18s |", "KA", "SA");
  out_ << buf;
  for (int side = 0; side < 2; ++side) {
    for (int lib = 0; lib < kLibs; ++lib) {
      std::string name(perf::lib_name(static_cast<perf::Lib>(lib)));
      std::snprintf(buf, sizeof(buf), " %6.6s", name.c_str());
      out_ << buf;
    }
    out_ << " |";
  }
  out_ << '\n';
  for (const auto& o : buffered_) {
    const auto& r = o.result;
    std::snprintf(buf, sizeof(buf), "%-15s %-18s |", o.cell.config.ka.c_str(),
                  o.cell.config.sa.c_str());
    out_ << buf;
    for (const auto* shares : {&r.server_shares, &r.client_shares}) {
      for (int lib = 0; lib < kLibs; ++lib) {
        std::snprintf(buf, sizeof(buf), " %5.1f%%", shares->share[lib] * 100);
        out_ << buf;
      }
      out_ << " |";
    }
    out_ << '\n';
  }

  auto worst = [&](double (*metric)(const testbed::ExperimentResult&))
      -> const CellOutcome& {
    return *std::max_element(
        buffered_.begin(), buffered_.end(),
        [&](const CellOutcome& a, const CellOutcome& b) {
          return metric(a.result) < metric(b.result);
        });
  };
  const CellOutcome& amp = worst(amplification);
  const CellOutcome& cpu = worst(cpu_ratio);
  std::snprintf(buf, sizeof(buf),
                "\nWorst amplification factor: %.1fx (%s/%s); QUIC mandates "
                "at most 3x before address validation.\n",
                amplification(amp.result), amp.cell.config.ka.c_str(),
                amp.cell.config.sa.c_str());
  out_ << buf;
  std::snprintf(buf, sizeof(buf),
                "Worst server/client CPU asymmetry: %.1fx (%s/%s).\n",
                cpu_ratio(cpu.result), cpu.cell.config.ka.c_str(),
                cpu.cell.config.sa.c_str());
  out_ << buf;
}

}  // namespace pqtls::campaign
