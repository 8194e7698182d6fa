// The three-node measurement testbed: client and server hosts connected by
// two unidirectional links with a passive timestamper tapping both (the
// paper's optical-splitter setup), plus netem-style impairment for the
// constrained-environment scenarios. Cryptographic computation runs for
// real and its measured wall time advances the simulated clock; the network
// is emulated (DESIGN.md section 1).
#pragma once

#include <array>
#include <optional>
#include <string>

#include "kem/kem.hpp"
#include "net/link.hpp"
#include "perf/profiler.hpp"
#include "pki/certificate.hpp"
#include "sig/sig.hpp"
#include "tls/connection.hpp"

namespace pqtls::trace {
class Recorder;
}

namespace pqtls::testbed {

/// How cryptographic computation advances the simulated clock.
enum class TimeModel {
  /// Paper-fidelity: the measured wall time of the real computation is the
  /// virtual time charge. Faithful but noisy — repeated runs differ.
  kMeasured,
  /// Deterministic: every operation is charged a fixed cost from
  /// perf::CostModel. Bit-reproducible at any campaign worker count.
  kModeled,
};

struct ExperimentConfig {
  std::string ka = "x25519";
  std::string sa = "rsa:2048";
  net::NetemConfig netem;  // applied to both directions
  tls::Buffering buffering = tls::Buffering::kImmediate;
  /// Handshakes sampled for medians. The paper ran for a fixed 60 s wall
  /// period (1k-30k handshakes); we sample a fixed count and report the
  /// 60 s total analytically from the mean cycle time.
  int sample_handshakes = 25;
  std::uint64_t seed = 0x715b3d;
  /// Seed for deterministic PKI generation (certificate chains). Campaigns
  /// derive a distinct `seed` per cell but pin `pki_seed` to the campaign
  /// base seed so concurrent cells share the cached chains (RSA/SPHINCS+
  /// key generation is by far the most expensive setup step). 0 = use
  /// `seed`, preserving the single-experiment behaviour.
  std::uint64_t pki_seed = 0;
  bool white_box = false;
  TimeModel time_model = TimeModel::kMeasured;
  /// Abort the experiment once it has consumed this much real wall time
  /// (checked between samples; 0 = no limit). The partial result is
  /// returned with ok=false and timed_out=true.
  double max_wall_seconds = 0;
  /// Per-connection harness overhead added to the measured cycle time when
  /// extrapolating handshake rates (socket churn, process loop of the
  /// paper's sequential tooling): x25519/rsa:2048 completed 22.3k
  /// handshakes in 60 s at a 1.7 ms median latency, implying ~0.9 ms of
  /// per-connection overhead. The loadgen subsystem charges the same knob
  /// to a server core per accepted connection, so both rate models share
  /// one calibration constant.
  double harness_overhead_s = 0.9e-3;
  /// TCP initial congestion window in segments (Linux default: 10). The
  /// paper's conclusion flags this as the key tuning knob for keeping large
  /// PQ handshakes at 1 RTT; see the ablation_initial_cwnd campaign.
  std::size_t initial_cwnd_segments = 10;
  /// When set, the client pre-computes its key share for this group instead
  /// of `ka` (while still supporting `ka`): the server answers with
  /// HelloRetryRequest and the handshake costs 2 RTTs. Empty = 1-RTT, the
  /// paper's configuration.
  std::string client_wrong_guess;
  /// Fraction of sampled handshakes resumed from a session ticket
  /// (RFC 8446 2.2). When > 0 the server gets a TicketStore and one untimed
  /// in-memory priming handshake mints the ticket; sample i then resumes
  /// iff floor((i+1)*r) > floor(i*r), a deterministic interleaving that
  /// needs no extra randomness. Everything is gated on the knob: 0 (the
  /// default) leaves the DRBG fork stream and endpoint configs bit-identical
  /// to the pre-resumption testbed.
  double resumption_ratio = 0;
  /// Resumed samples additionally offer 0-RTT early data, and the server is
  /// configured to accept it.
  bool early_data = false;
  /// Resumed samples offer psk_ke (no fresh key share, no (EC)DHE) instead
  /// of the default psk_dhe_ke.
  bool psk_only_resumption = false;
  /// Optional flight recorder. The FIRST sample records packet, TCP, TLS
  /// and timestamper events (one representative connection per cell);
  /// later samples run untraced. Null (the default) leaves every hook a
  /// single pointer check, so results are identical with tracing off.
  trace::Recorder* trace = nullptr;
  /// Certificate hierarchy served by the server: root → intermediates →
  /// leaf, with per-level signature placement (pki::ChainProfile). The
  /// default leaf-only profile uses the pre-existing PKI cache, so every
  /// historical golden row stays byte-identical.
  pki::ChainProfile chain_profile;
  /// Certificate-flight transport: full chain (default), RFC 8879
  /// compressed, or a Merkle inclusion proof against a pinned tree head.
  /// kFull with a leaf-only profile is the untouched legacy path; any other
  /// combination routes through the profile-aware context cache.
  tls::CertMode cert_mode = tls::CertMode::kFull;
};

struct HandshakeSample {
  double part_a = 0;  // CH -> SH (seconds)
  double part_b = 0;  // SH -> Client Finished
  double total = 0;   // CH -> Client Finished
  double cycle = 0;   // TCP SYN -> handshake completion (for rate estimates)
  std::size_t client_bytes = 0;
  std::size_t server_bytes = 0;
  std::size_t client_packets = 0;
  std::size_t server_packets = 0;
  /// TCP retransmission counts at sample end (teardown included). A trace
  /// of this sample must reconcile exactly: its tcp/retransmit event count
  /// per endpoint equals these.
  std::size_t client_retransmissions = 0;
  std::size_t server_retransmissions = 0;
};

struct LibraryShares {
  std::array<double, static_cast<int>(perf::Lib::kCount)> share{};
};

struct ExperimentResult {
  bool ok = false;
  bool timed_out = false;  // hit ExperimentConfig::max_wall_seconds
  std::string ka, sa;
  std::vector<HandshakeSample> samples;

  // Black-box metrics (Table 2 / Table 4).
  double median_part_a = 0;      // seconds
  double median_part_b = 0;
  double median_total = 0;
  std::size_t client_bytes = 0;  // per handshake (median)
  std::size_t server_bytes = 0;
  long total_handshakes_60s = 0;

  // White-box metrics (Table 3); populated when white_box was set.
  double handshakes_per_second = 0;
  double server_cpu_ms = 0;  // CPU cost per handshake
  double client_cpu_ms = 0;
  LibraryShares server_shares;
  LibraryShares client_shares;
  double server_packets = 0;  // per handshake
  double client_packets = 0;

  // Modeled mode: the per-leg charge ledgers of the first completed
  // sample's connections (tls::HandshakeCore::legs); empty in measured
  // mode, where nothing is charged.
  std::vector<perf::ChargeLedger> client_legs;
  std::vector<perf::ChargeLedger> server_legs;
};

/// Run one experiment configuration (sequence of sampled handshakes).
ExperimentResult run_experiment(const ExperimentConfig& config);

/// The paper's emulated network scenarios (Table 4 footnotes).
struct Scenario {
  std::string name;
  net::NetemConfig netem;
};
const std::vector<Scenario>& standard_scenarios();

}  // namespace pqtls::testbed
