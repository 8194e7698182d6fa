// Load-generation subsystem: a discrete-event, multi-connection capacity
// model for a PQ-TLS server under concurrent handshake load. The paper's
// white-box throughput (Table 3) extrapolates a single-connection rate
// (1/mean_cycle); this module instead models what K-core servers behind a
// balancer do when many handshakes arrive at once: crypto steps are charged
// from perf::CostModel onto contended run queues, so queueing delay, tail
// latency, accept-queue overflow, and client abandonment emerge naturally.
// Everything runs in virtual time on sim::ShardedEventLoop with explicit
// seeds — results are bit-reproducible at any campaign worker count and
// any shard count (DESIGN.md §6f).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "loadgen/balancer.hpp"
#include "net/link.hpp"
#include "testbed/testbed.hpp"

namespace pqtls::trace {
class Recorder;
}

namespace pqtls::loadgen {

/// How client connections are generated.
enum class Arrival {
  kPoisson,  // open-loop: exponential interarrivals at `offered_rate`
  kClosed,   // closed-loop: `clients` concurrent clients with think time
};

/// Run-queue discipline for handshake CPU jobs on the server cores.
enum class Policy {
  kFifo,  // first-come first-served (arrival order)
  kSjf,   // shortest job first (by modeled cost, FIFO tie-break)
};

/// One client population sharing a link class in a fleet run. Weights are
/// relative draw probabilities for open-loop arrivals and churn clients and
/// a proportional split of the fixed closed-loop pool.
struct ClientClass {
  std::string name = "default";
  net::NetemConfig netem{.loss = 0, .delay_s = 0.005, .rate_bps = 0};
  double weight = 1.0;
};

struct LoadConfig {
  std::string ka = "x25519";
  std::string sa = "rsa:2048";

  Arrival arrival = Arrival::kPoisson;
  /// Open-loop offered load in handshakes/second. Ignored when
  /// `load_factor` is set.
  double offered_rate = 500;
  /// When > 0, the offered rate is this fraction of the analytic capacity
  /// bound (cores / server CPU per handshake) — the natural way to express
  /// "90% load" independent of the algorithm pair. Poisson only.
  double load_factor = 0;
  /// Closed-loop population and mean think time (exponential).
  int clients = 64;
  double think_s = 0.01;

  /// Server model: cores contended by handshake crypto jobs.
  int cores = 1;
  Policy policy = Policy::kFifo;
  /// Accept-queue bound: maximum connections concurrently in progress at
  /// the server (queued, on-core, or awaiting a client flight). A SYN
  /// arriving beyond this is dropped and counted.
  int backlog = 256;
  /// Client abandonment: a handshake not complete this long after its SYN
  /// is abandoned (counted as timed out; queued work for it is discarded).
  double timeout_s = 2.0;

  /// Measurement window: arrivals stop at warmup_s + duration_s; metrics
  /// cover events inside [warmup_s, warmup_s + duration_s).
  double duration_s = 10.0;
  double warmup_s = 1.0;

  /// Network between the client population and the server: one-way delay
  /// and a shared serialization rate per direction (certificate-chain bytes
  /// queue behind each other on the server egress; SYNs serialize on a
  /// pipe of their own, see DESIGN.md §6f). Loss drops a flight with no
  /// retransmission — the connection surfaces as a timeout.
  net::NetemConfig netem{.loss = 0, .delay_s = 0.005, .rate_bps = 0};

  /// Per-connection server-side harness/accept overhead, charged to a core
  /// before the first crypto step. Shares the testbed's calibration knob
  /// (testbed::ExperimentConfig::harness_overhead_s).
  double harness_overhead_s = testbed::ExperimentConfig{}.harness_overhead_s;

  std::uint64_t seed = 0x715b3d;
  /// Seed for the calibration handshake's PKI material (0 = use `seed`);
  /// campaigns pin it to the base seed so cells share cached chains.
  std::uint64_t pki_seed = 0;

  /// Fraction of connections that resume from a session ticket: connection
  /// i resumes iff floor((i+1)*r) > floor(i*r) (the testbed's deterministic
  /// interleaving — no extra randomness, so a ratio of 0 is bit-identical
  /// to the pre-resumption engine). Resumed connections use a second
  /// calibrated profile with no signature/chain-verify CPU and no
  /// certificate bytes on the wire.
  double resumption_ratio = 0;

  /// Certificate hierarchy served by the calibration handshake (testbed
  /// knob passthrough). The default leaf-only profile with kFull transport
  /// keeps the calibration — and every cached profile — bit-identical to
  /// the pre-hierarchy engine.
  pki::ChainProfile chain_profile;
  tls::CertMode cert_mode = tls::CertMode::kFull;

  /// Server-side batching factor for public-key operations: the calibrated
  /// profile prices the server leg's encapsulation with
  /// CostModel::kem_encaps_batched(ka, batch), modeling a server that runs
  /// same-key encapsulations in batches of this size
  /// (kem::Kem::encapsulate_batch). 1 (the default) prices the unbatched
  /// cost exactly — bit-identical profiles. Purely a cost-model knob.
  int batch = 1;

  // ---- fleet (DESIGN.md §6f) ----
  // The defaults describe one server fed by one client population; the
  // knobs below scale it out.

  /// Number of servers behind the balancer, each with `cores` cores and
  /// its own `backlog` accept queue.
  int servers = 1;
  BalancerKind balancer = BalancerKind::kRoundRobin;
  /// Event-loop shards for the fleet engine; 0 or 1 runs serial. Results
  /// are bit-identical at any shard count (ShardedEventLoop contract), so
  /// this is purely a wall-clock knob.
  std::uint32_t shards = 1;
  /// Client churn: Poisson arrivals of new closed-loop clients
  /// (clients/second) with exponentially distributed lifetime; a churn
  /// client issues think-separated connections until it departs. 0 = off.
  double churn_rate = 0;
  double churn_lifetime_s = 30.0;
  /// Heterogeneous client link classes; empty = one class built from
  /// `netem` above. The fleet lookahead is the minimum class delay.
  std::vector<ClientClass> client_classes;
  /// SLO threshold on p99 handshake latency (seconds); fleet campaign rows
  /// report slo_ms and a within_slo verdict against it.
  double slo_s = 0.05;

  /// Row-schema selector for the campaign sinks: true when any fleet knob
  /// differs from its default, so the row carries the fleet columns.
  bool is_fleet() const {
    return servers > 1 || balancer != BalancerKind::kRoundRobin ||
           shards > 1 || churn_rate > 0 || !client_classes.empty();
  }
};

/// Per-handshake work profile: wire volumes and CPU step costs calibrated
/// from one modeled testbed handshake (real tls::Connection over simulated
/// TCP). Each *_cpu field is one leg of that connection's charge ledger,
/// priced by perf::CostModel::price, plus the load model's own dispatch
/// steps.
struct HandshakeProfile {
  /// Uplink wire budget attributed to the client Finished flight (sealed
  /// Finished record plus its ACK frames); the rest of `client_bytes`
  /// travels with the SYN and the ClientHello flight.
  static constexpr std::size_t kFinishedWire = 200;

  // Client-side costs are latency-only (clients are not the contended
  // resource); server-side costs occupy a core.
  double client_hello_cpu = 0;   // client leg 0 + 1 step: key share, CH
  double server_flight_cpu = 0;  // server leg 0 + 1 step: CH -> SH..Fin
  double client_finish_cpu = 0;  // client leg 1 + 2 steps: decaps, verify, Fin
  double server_finish_cpu = 0;  // server leg 1 + 1 step: client Fin, ticket
  std::size_t client_bytes = 0;  // uplink wire volume per handshake
  std::size_t server_bytes = 0;  // downlink wire volume per handshake

  double server_cpu() const { return server_flight_cpu + server_finish_cpu; }
};

/// Calibrated profile for (ka, sa): runs one 2-sample modeled-time testbed
/// experiment (cached per (ka, sa, pki_seed, resumed, chain profile, cert
/// mode, batch), thread-safe) and reads the wire volumes and the first
/// sample's charge ledgers from it; CPU steps are those ledgers priced by
/// perf::CostModel::builtin() (see HandshakeProfile). `resumed` calibrates
/// the session-resumption variant: the testbed run resumes every sample
/// (psk_dhe_ke), so no certificate chain, signature or verify is charged.
/// `chain_profile`/`cert_mode` calibrate the hierarchy variants with
/// whatever tls::Connection charges for them. Throws std::invalid_argument
/// for unknown algorithms.
const HandshakeProfile& calibrated_profile(
    const std::string& ka, const std::string& sa, std::uint64_t pki_seed,
    bool resumed = false, const pki::ChainProfile& chain_profile = {},
    tls::CertMode cert_mode = tls::CertMode::kFull, int batch = 1);

/// Analytic capacity bound in handshakes/second: cores / (per-connection
/// harness overhead + server CPU per handshake). Achieved rates saturate
/// below this line.
double analytic_capacity(const LoadConfig& config,
                         const HandshakeProfile& profile);

struct LoadMetrics {
  bool ok = false;  // at least one handshake completed in the window

  double offered_rate = 0;       // realized arrivals/s in the window
  double achieved_rate = 0;      // completions/s in the window
  double analytic_capacity = 0;  // cores / server CPU (see above)

  // Handshake latency (SYN to handshake completion), seconds. NaN when the
  // measurement window saw zero completions (ok=false) — a window with no
  // data has no percentiles, and 0.0 would read as "instant".
  double p50 = 0, p90 = 0, p99 = 0, p999 = 0;
  double mean_latency = 0;

  double mean_queue_depth = 0;   // time-averaged waiting jobs (not on-core)
  double core_utilization = 0;   // busy core-seconds / (cores * window)

  long long arrivals = 0;   // SYNs reaching the server in the window
  long long completed = 0;
  long long dropped = 0;    // backlog overflow
  long long timed_out = 0;  // client abandonment

  double server_cpu_s = 0;         // per handshake, from the profile
  std::size_t client_bytes = 0;    // per handshake, from the profile
  std::size_t server_bytes = 0;

  // ---- fleet ----
  long long sim_events = 0;     // discrete events the simulation processed
  // Least/most utilized server; both equal core_utilization for one server.
  double min_server_util = 0;
  double max_server_util = 0;
  long long churn_arrived = 0;  // churn clients that joined in the window
  long long churn_departed = 0;  // (both zero without churn)
};

/// Simulate one load configuration to completion and report metrics.
/// Deterministic: depends only on the config (including seeds), never on
/// the shard count. When `recorder` is non-null, every `trace_every`-th
/// connection's path through the fleet is recorded (cat "fleet": balancer
/// decision, SYN arrival, queue handoff, core completion) —
/// Perfetto-loadable via trace::Recorder::write_chrome_trace. Tracing
/// forces a single shard (the recorder is not thread-safe); by the sharded
/// loop's determinism contract the metrics are unchanged.
LoadMetrics run_load(const LoadConfig& config,
                     trace::Recorder* recorder = nullptr,
                     std::uint32_t trace_every = 1000);

}  // namespace pqtls::loadgen
