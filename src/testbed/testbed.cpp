#include "testbed/testbed.hpp"

#include <chrono>
#include <cmath>

#include "analysis/stats.hpp"
#include "crypto/catalog.hpp"
#include "pki/merkle.hpp"
#include "session/session.hpp"
#include "sim/event_loop.hpp"
#include "tcp/tcp.hpp"
#include "tls/server_context.hpp"
#include "trace/trace.hpp"

namespace pqtls::testbed {

namespace {

using crypto::Drbg;
using perf::Lib;
using sim::EventLoop;

// White-box bookkeeping constants for the harness-side categories. The
// per-connection harness overhead is a documented ExperimentConfig field
// (harness_overhead_s), shared with the loadgen subsystem.
constexpr double kPythonPerHandshake = 120e-6;
constexpr double kLibcPerHandshake = 40e-6;
constexpr double kIxgbePerPacket = 1.5e-6;
// Modeled in-kernel cost per received packet (interrupts, softirq, skb
// handling) that the simulated TCP does not spend for real; the paper's
// perf profiles attribute a substantial share to the kernel.
constexpr double kKernelPerPacket = 15e-6;

double elapsed_seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// A host couples a TLS endpoint with a TCP endpoint. Compute time of the
// TLS processing is re-injected as virtual time: flights are scheduled on
// the event loop at the offset at which they were produced. In measured
// mode the charge is real wall time; with a cost model installed (modeled
// mode) it is the deterministic accumulated operation cost instead.
class Host {
 public:
  Host(EventLoop& loop, net::Link& out, perf::Profiler* profiler,
       std::size_t initial_cwnd, const perf::CostModel* costs = nullptr)
      : loop_(loop),
        tcp_(loop, out, initial_cwnd),
        profiler_(profiler),
        costs_(costs) {
    tcp_.set_on_receive([this](BytesView data) { on_app_data(data); });
  }

  tcp::TcpEndpoint& tcp() { return tcp_; }

  /// Trace flight emissions (size + the compute cost that produced them)
  /// under `who` (e.g. "tls:client").
  void set_trace(trace::Recorder* recorder, std::string who) {
    trace_ = recorder;
    trace_who_ = std::move(who);
  }

  void set_client(std::unique_ptr<tls::ClientConnection> client) {
    client_ = std::move(client);
    if (costs_) client_->set_cost_model(costs_);
    if (trace_) client_->set_trace(trace_, trace_who_);
  }
  void set_server(std::unique_ptr<tls::ServerConnection> server) {
    server_ = std::move(server);
    if (costs_) server_->set_cost_model(costs_);
    if (trace_) server_->set_trace(trace_, trace_who_);
  }

  void start_client_handshake() {
    run_measured([&](const tls::FlightSink& sink) { client_->start(sink); });
  }

  bool complete() const {
    if (client_) return client_->handshake_complete();
    if (server_) return server_->handshake_complete();
    return false;
  }
  bool failed() const {
    if (client_ && client_->failed()) return true;
    if (server_ && server_->failed()) return true;
    return false;
  }

  std::span<const perf::ChargeLedger> legs() const {
    return client_ ? client_->legs() : server_->legs();
  }

  /// Wall time spent in TLS processing since the last call (lets the
  /// harness separate in-kernel packet work from application time).
  double take_app_wall() {
    double v = app_wall_;
    app_wall_ = 0;
    return v;
  }

 private:
  void on_app_data(BytesView data) {
    // Single-core host model: if the previous computation (in virtual time)
    // is still running, the newly arrived bytes wait — this is what makes a
    // slow client decapsulation delay the client Finished even though the
    // kernel already ACKed the packets.
    if (loop_.now() < busy_until_) {
      loop_.schedule_at(busy_until_,
                        [this, copy = Bytes(data.begin(), data.end())]() {
                          on_app_data(copy);
                        });
      return;
    }
    run_measured([&](const tls::FlightSink& sink) {
      if (client_)
        client_->on_data(data, sink);
      else
        server_->on_data(data, sink);
    });
  }

  template <typename Fn>
  void run_measured(Fn&& fn) {
    auto t0 = std::chrono::steady_clock::now();
    double crypto_before =
        profiler_ ? profiler_->total(Lib::kLibcrypto) : 0.0;
    std::vector<std::pair<double, Bytes>> flights;
    fn([&](BytesView flight) {
      // Modeled mode: the flight leaves at the cost accrued so far in this
      // processing step, mirroring the measured-offset behaviour.
      flights.emplace_back(costs_ ? conn_modeled_cost() : elapsed_seconds(t0),
                           Bytes(flight.begin(), flight.end()));
    });
    double wall = costs_ ? take_conn_modeled_cost() + costs_->step()
                         : elapsed_seconds(t0);
    app_wall_ += wall;
    busy_until_ = loop_.now() + wall;
    if (profiler_) {
      double crypto_delta =
          profiler_->total(Lib::kLibcrypto) - crypto_before;
      profiler_->add(Lib::kLibssl, std::max(0.0, wall - crypto_delta));
    }
    for (auto& [offset, bytes] : flights) {
      loop_.schedule_in(offset, [this, cost = offset,
                                 data = std::move(bytes)]() {
        // Recorded at the scheduled departure (not at emission) so the
        // trace stays time-ordered; `cost` is the compute charge accrued
        // when the flight was produced.
        if (trace_)
          trace_->record("tls", "flight", trace_who_)
              .arg("size", static_cast<double>(data.size()))
              .arg("cost", cost);
        if (profiler_) {
          // Socket write / segmentation happens in the kernel.
          perf::Scope scope(profiler_, Lib::kKernel);
          tcp_.send(data);
        } else {
          tcp_.send(data);
        }
      });
    }
  }

  double conn_modeled_cost() const {
    return client_ ? client_->modeled_cost() : server_->modeled_cost();
  }
  double take_conn_modeled_cost() {
    return client_ ? client_->take_modeled_cost()
                   : server_->take_modeled_cost();
  }

  EventLoop& loop_;
  tcp::TcpEndpoint tcp_;
  perf::Profiler* profiler_;
  const perf::CostModel* costs_;
  std::unique_ptr<tls::ClientConnection> client_;
  std::unique_ptr<tls::ServerConnection> server_;
  double busy_until_ = 0;
  double app_wall_ = 0;
  trace::Recorder* trace_ = nullptr;
  std::string trace_who_;
};

// Passive tap: reconstructs the paper's measurable events from packet
// observations alone (no decryption): CH = first client payload packet,
// SH = first server payload packet, Client Finished = first client payload
// packet after the SH.
class Timestamper {
 public:
  void set_trace(trace::Recorder* recorder) { trace_ = recorder; }

  void on_client_packet(const net::Packet& p, double now) {
    ++client_packets_;
    client_bytes_ += p.wire_size();
    if (p.payload.empty()) return;
    if (t_ch_ < 0) {
      t_ch_ = now;
      mark("ch");
    } else if (t_sh_ >= 0) {
      // Latest client payload before completion: the Client Finished (under
      // HelloRetryRequest the retried ClientHello precedes it; the
      // experiment loop stops at completion, so later traffic never lands
      // here).
      t_fin_ = now;
      mark("fin");
    }
  }
  void on_server_packet(const net::Packet& p, double now) {
    ++server_packets_;
    server_bytes_ += p.wire_size();
    if (p.payload.empty()) return;
    if (t_ch_ >= 0 && t_sh_ < 0) {
      t_sh_ = now;
      mark("sh");
    }
  }

  double part_a() const { return t_sh_ - t_ch_; }
  double part_b() const { return t_fin_ - t_sh_; }
  double total() const { return t_fin_ - t_ch_; }
  bool complete() const { return t_ch_ >= 0 && t_sh_ >= 0 && t_fin_ >= 0; }

  std::size_t client_packets() const { return client_packets_; }
  std::size_t server_packets() const { return server_packets_; }
  std::size_t client_bytes() const { return client_bytes_; }
  std::size_t server_bytes() const { return server_bytes_; }

 private:
  // CH/SH/FIN marks, recorded as the passive tap classifies them. The FIN
  // mark follows t_fin_: the LAST recorded fin event is the one the sample
  // reports (earlier ones are client payloads that were later superseded,
  // e.g. a retried ClientHello under HelloRetryRequest).
  void mark(const char* name) {
    if (trace_) trace_->record("testbed", name, "tap");
  }

  double t_ch_ = -1, t_sh_ = -1, t_fin_ = -1;
  std::size_t client_packets_ = 0, server_packets_ = 0;
  std::size_t client_bytes_ = 0, server_bytes_ = 0;
  trace::Recorder* trace_ = nullptr;
};

// Mint one session ticket through an in-memory full handshake (plain
// flight pumping — no links, no event loop, no tap): resumption samples
// measure the resumed wire exchange only, never the priming connection.
std::optional<session::SessionTicket> mint_ticket(
    const tls::ClientConfig& base, const tls::ServerConfig& scfg,
    Drbg client_rng, Drbg server_rng) {
  tls::ClientConfig ccfg = base;
  ccfg.request_ticket = true;
  ccfg.resume = nullptr;
  tls::ClientConnection client(ccfg, std::move(client_rng));
  tls::ServerConnection server(scfg, std::move(server_rng));
  std::vector<Bytes> to_server, to_client;
  client.start(
      [&](BytesView d) { to_server.emplace_back(d.begin(), d.end()); });
  for (int round = 0;
       round < 30 && !(to_server.empty() && to_client.empty()); ++round) {
    std::vector<Bytes> in = std::move(to_server);
    to_server.clear();
    for (const Bytes& flight : in)
      server.on_data(flight, [&](BytesView d) {
        to_client.emplace_back(d.begin(), d.end());
      });
    in = std::move(to_client);
    to_client.clear();
    for (const Bytes& flight : in)
      client.on_data(flight, [&](BytesView d) {
        to_server.emplace_back(d.begin(), d.end());
      });
  }
  if (!client.handshake_complete()) return std::nullopt;
  return client.take_ticket();
}

}  // namespace

const std::vector<Scenario>& standard_scenarios() {
  // Parameters from the paper's Table 4 footnotes: LTE-M over 15 km and a
  // measured 5G deployment.
  static const std::vector<Scenario> scenarios = {
      {"No Emulation", {}},
      {"High Loss (10%)", {.loss = 0.10, .delay_s = 0, .rate_bps = 0}},
      {"Low Bandwidth (1 Mbit/s)", {.loss = 0, .delay_s = 0, .rate_bps = 1e6}},
      {"High Delay (1s RTT)", {.loss = 0, .delay_s = 0.5, .rate_bps = 0}},
      {"LTE-M", {.loss = 0.10, .delay_s = 0.1, .rate_bps = 1e6}},
      {"5G", {.loss = 0.04, .delay_s = 0.022, .rate_bps = 880e6}},
  };
  return scenarios;
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  // All algorithm resolution goes through the catalog: unknown names throw
  // std::invalid_argument listing the valid ones.
  const crypto::AlgorithmCatalog& catalog = crypto::AlgorithmCatalog::instance();
  const kem::Kem* ka = catalog.require_kem(config.ka).kem;
  const sig::Signer* sa = catalog.require_signer(config.sa).signer;

  ExperimentResult result;
  result.ka = config.ka;
  result.sa = config.sa;

  Drbg master(config.seed);
  std::uint64_t pki_seed = config.pki_seed ? config.pki_seed : config.seed;
  // The profile overload delegates leaf-only profiles to the plain cache,
  // so the default configuration resolves to exactly the historical
  // material (byte-identical golden rows).
  const tls::ServerContext& context =
      tls::server_context(*ka, *sa, config.chain_profile, pki_seed);
  const perf::CostModel* costs = config.time_model == TimeModel::kModeled
                                     ? &perf::CostModel::builtin()
                                     : nullptr;

  // Endpoint configs are handshake-invariant; assemble them once from the
  // cached context so the per-sample loop pays no keygen or chain copies.
  tls::ClientConfig ccfg = context.client_config();
  if (!config.client_wrong_guess.empty()) {
    // Precomputed share for the wrong group; advertising the server's
    // group as a fallback forces a HelloRetryRequest.
    ccfg.ka = catalog.require_kem(config.client_wrong_guess).kem;
    ccfg.also_supported = {ka};
  }
  tls::ServerConfig scfg = context.server_config(config.buffering);

  // Certificate-flight transport. Gated on the knob: kFull (the default)
  // leaves both endpoint configs untouched, so pre-existing rows never see
  // the subsystem. Merkle mode pins the tree head over the leaf (a pure,
  // DRBG-free computation) and hands the client the root, the server the
  // inclusion proof.
  if (config.cert_mode != tls::CertMode::kFull) {
    ccfg.cert_mode = config.cert_mode;
    scfg.cert_mode = config.cert_mode;
    if (config.cert_mode == tls::CertMode::kMerkle &&
        !context.chain.certificates.empty()) {
      pki::MerkleBundle bundle =
          pki::pin_certificate(context.chain.certificates[0]);
      ccfg.merkle_root = bundle.root;
      scfg.merkle_proof = bundle.proof.encode();
    }
  }

  // Session resumption: everything below is gated on the knob so a ratio of
  // zero leaves the master DRBG fork stream and the endpoint configs
  // untouched — full-handshake rows stay byte-identical to a build without
  // the subsystem. The store validates tickets statelessly, so one minted
  // ticket serves every resumed sample.
  std::optional<session::TicketStore> tickets;
  std::optional<session::SessionTicket> ticket;
  tls::ClientConfig resumed_ccfg;
  if (config.resumption_ratio > 0) {
    tickets.emplace(master.fork("tickets"));
    scfg.tickets = &*tickets;
    scfg.accept_early_data = config.early_data;
    ticket = mint_ticket(ccfg, scfg, master.fork("prime-client"),
                         master.fork("prime-server"));
    if (!ticket) return result;  // priming must succeed; ok stays false
    resumed_ccfg = ccfg;
    resumed_ccfg.resume = &*ticket;
    resumed_ccfg.psk_only = config.psk_only_resumption;
    if (config.early_data)
      resumed_ccfg.early_data = Bytes(64, 0xE5);  // fixed 0-RTT payload
  }

  perf::Profiler server_profiler, client_profiler;
  perf::Profiler* sp = config.white_box ? &server_profiler : nullptr;
  perf::Profiler* cp = config.white_box ? &client_profiler : nullptr;

  std::size_t total_client_packets = 0, total_server_packets = 0;
  auto wall_start = std::chrono::steady_clock::now();

  for (int i = 0; i < config.sample_handshakes; ++i) {
    if (config.max_wall_seconds > 0 &&
        elapsed_seconds(wall_start) > config.max_wall_seconds) {
      result.timed_out = true;
      return result;  // partial samples, ok stays false
    }
    Drbg hs_rng = master.fork("handshake" + std::to_string(i));
    EventLoop loop;
    Timestamper tap;

    net::Link c2s(loop, config.netem, hs_rng.fork("link-c2s"));
    net::Link s2c(loop, config.netem, hs_rng.fork("link-s2c"));
    c2s.set_tap([&](const net::Packet& p) { tap.on_client_packet(p, loop.now()); });
    s2c.set_tap([&](const net::Packet& p) { tap.on_server_packet(p, loop.now()); });

    Host client_host(loop, c2s, cp, config.initial_cwnd_segments, costs);
    Host server_host(loop, s2c, sp, config.initial_cwnd_segments, costs);

    // Trace the first sample only: one representative connection per cell.
    // The recorder's clock is bound to this sample's loop and unbound
    // before the loop dies (the guard below), so a recorder outliving the
    // experiment never dereferences a dead clock.
    trace::Recorder* rec = (i == 0) ? config.trace : nullptr;
    struct ClockGuard {
      trace::Recorder* rec;
      ~ClockGuard() {
        if (rec) rec->set_clock(nullptr);
      }
    } clock_guard{rec};
    if (rec) {
      rec->set_clock(&loop);
      c2s.set_trace(rec, "c2s");
      s2c.set_trace(rec, "s2c");
      client_host.tcp().set_trace(rec, "client");
      server_host.tcp().set_trace(rec, "server");
      client_host.set_trace(rec, "tls:client");
      server_host.set_trace(rec, "tls:server");
      tap.set_trace(rec);
    }
    // Kernel time = packet-processing wall time minus any nested TLS
    // application time (which attributes itself to libcrypto/libssl).
    c2s.set_deliver([&](const net::Packet& p) {
      if (sp) {
        auto t0 = std::chrono::steady_clock::now();
        server_host.take_app_wall();
        server_host.tcp().on_packet(p);
        double wall = elapsed_seconds(t0);
        sp->add(Lib::kKernel,
                kKernelPerPacket +
                    std::max(0.0, wall - server_host.take_app_wall()));
      } else {
        server_host.tcp().on_packet(p);
      }
    });
    s2c.set_deliver([&](const net::Packet& p) {
      if (cp) {
        auto t0 = std::chrono::steady_clock::now();
        client_host.take_app_wall();
        client_host.tcp().on_packet(p);
        double wall = elapsed_seconds(t0);
        cp->add(Lib::kKernel,
                kKernelPerPacket +
                    std::max(0.0, wall - client_host.take_app_wall()));
      } else {
        client_host.tcp().on_packet(p);
      }
    });

    bool resumed_sample =
        ticket.has_value() &&
        static_cast<long long>((i + 1) * config.resumption_ratio) >
            static_cast<long long>(i * config.resumption_ratio);
    client_host.set_client(std::make_unique<tls::ClientConnection>(
        resumed_sample ? resumed_ccfg : ccfg, hs_rng.fork("client"), cp));
    server_host.set_server(std::make_unique<tls::ServerConnection>(
        scfg, hs_rng.fork("server"), sp));

    // Client connects, then starts TLS once TCP is established.
    server_host.tcp().listen();
    client_host.tcp().set_on_connected(
        [&]() { client_host.start_client_handshake(); });
    double t_syn = loop.now();
    client_host.tcp().connect();

    // Run until both sides complete (bounded horizon: 120 virtual seconds).
    double completed_at = -1;
    while (loop.run_one()) {
      if (client_host.failed() || server_host.failed()) break;
      if (client_host.complete() && server_host.complete()) {
        completed_at = loop.now();
        break;
      }
      if (loop.now() > 120.0) break;
    }
    if (completed_at < 0 || !tap.complete()) continue;  // lost-sample

    // Graceful teardown, as the sequential-handshake tooling does between
    // connections; the FIN/ACK exchange counts toward the PCAP byte totals.
    client_host.tcp().close();
    server_host.tcp().close();
    loop.run(completed_at + 2.0);

    HandshakeSample sample;
    sample.client_retransmissions = client_host.tcp().retransmissions();
    sample.server_retransmissions = server_host.tcp().retransmissions();
    sample.part_a = tap.part_a();
    sample.part_b = tap.part_b();
    sample.total = tap.total();
    sample.cycle = completed_at - t_syn;
    sample.client_bytes = tap.client_bytes();
    sample.server_bytes = tap.server_bytes();
    sample.client_packets = tap.client_packets();
    sample.server_packets = tap.server_packets();
    result.samples.push_back(sample);
    if (costs && result.client_legs.empty()) {
      result.client_legs.assign(client_host.legs().begin(),
                                client_host.legs().end());
      result.server_legs.assign(server_host.legs().begin(),
                                server_host.legs().end());
    }
    total_client_packets += tap.client_packets();
    total_server_packets += tap.server_packets();

    if (config.white_box) {
      server_profiler.add(Lib::kPython, kPythonPerHandshake);
      client_profiler.add(Lib::kPython, kPythonPerHandshake);
      server_profiler.add(Lib::kLibc, kLibcPerHandshake);
      client_profiler.add(Lib::kLibc, kLibcPerHandshake);
      server_profiler.add(Lib::kIxgbe,
                          kIxgbePerPacket * static_cast<double>(
                                                tap.server_packets()));
      client_profiler.add(Lib::kIxgbe,
                          kIxgbePerPacket * static_cast<double>(
                                                tap.client_packets()));
    }
  }

  if (result.samples.empty()) return result;
  result.ok = true;

  std::vector<double> part_a, part_b, total, cycles, cbytes, sbytes;
  for (const auto& s : result.samples) {
    part_a.push_back(s.part_a);
    part_b.push_back(s.part_b);
    total.push_back(s.total);
    cycles.push_back(s.cycle);
    cbytes.push_back(static_cast<double>(s.client_bytes));
    sbytes.push_back(static_cast<double>(s.server_bytes));
  }
  result.median_part_a = analysis::median(part_a);
  result.median_part_b = analysis::median(part_b);
  result.median_total = analysis::median(total);
  result.client_bytes = static_cast<std::size_t>(analysis::median(cbytes));
  result.server_bytes = static_cast<std::size_t>(analysis::median(sbytes));

  double mean_cycle = analysis::mean(cycles) + config.harness_overhead_s;
  // llround, not a truncating cast: a 60 s total of 22999.7 handshakes
  // should report 23000, not floor to 22999.
  result.total_handshakes_60s = static_cast<long>(std::llround(60.0 / mean_cycle));
  result.handshakes_per_second = 1.0 / mean_cycle;

  if (config.white_box) {
    double n = static_cast<double>(result.samples.size());
    result.server_cpu_ms = server_profiler.total() / n * 1e3;
    result.client_cpu_ms = client_profiler.total() / n * 1e3;
    for (int lib = 0; lib < static_cast<int>(Lib::kCount); ++lib) {
      result.server_shares.share[lib] =
          server_profiler.share(static_cast<Lib>(lib));
      result.client_shares.share[lib] =
          client_profiler.share(static_cast<Lib>(lib));
    }
    double n_samples = static_cast<double>(result.samples.size());
    result.client_packets =
        static_cast<double>(total_client_packets) / n_samples;
    result.server_packets =
        static_cast<double>(total_server_packets) / n_samples;
  }
  return result;
}

}  // namespace pqtls::testbed
