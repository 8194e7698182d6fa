// TLS 1.3 handshake state machines (1-RTT, server-authenticated), generic
// over the KEM (key agreement) and signature algorithm — the system under
// measurement in the paper. Both roles are thin drivers over a shared
// HandshakeCore: the core owns the record pump, handshake-message
// reassembly, transcript/key-schedule state, deterministic cost accounting
// and failure policy, and dispatches complete messages through a per-role
// state table; the drivers implement per-message handlers in terms of the
// tls/messages codec and never touch wire bytes directly. The server
// implements both OpenSSL message-buffering behaviours analysed in the
// paper's section 4: the default 4096-byte internal buffer (flushed when
// exceeded or when the CertificateVerify flight completes) and the
// optimized immediate mode that pushes ServerHello and Certificate as soon
// as they are computed.
#pragma once

#include <array>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "kem/kem.hpp"
#include "perf/cost_model.hpp"
#include "perf/profiler.hpp"
#include "pki/certificate.hpp"
#include "session/session.hpp"
#include "sig/sig.hpp"
#include "tls/key_schedule.hpp"
#include "tls/messages.hpp"
#include "tls/record_layer.hpp"
#include "tls/spec.hpp"
#include "trace/trace.hpp"

namespace pqtls::tls {

/// Server message-assembly behaviour (paper section 4).
enum class Buffering {
  kDefault,    // buffer until CertificateVerify; flush on 4096 B overflow
  kImmediate,  // push ServerHello and Certificate as soon as computed
};

/// How the server's certificate flight travels on a full handshake.
/// On the client this is the offer (extensions in the ClientHello); on the
/// server it is the preference, applied only when the client offered it —
/// otherwise the server falls back to the plain Certificate message.
enum class CertMode {
  kFull,        // plain Certificate message (RFC 8446)
  kCompressed,  // CompressedCertificate (RFC 8879, built-in codec)
  kMerkle,      // leaf + inclusion proof against a pinned tree head
};

struct ServerConfig {
  const kem::Kem* ka = nullptr;
  const sig::Signer* sa = nullptr;
  pki::CertificateChain chain;  // leaf first (leaf + issuing root)
  /// The leaf's secret key loaded by `sa`; required for full handshakes.
  /// Configs built from one ServerContext share it.
  std::shared_ptr<const sig::SigningKey> leaf_key;
  Buffering buffering = Buffering::kImmediate;
  std::size_t buffer_limit = 4096;

  /// Session resumption (RFC 8446 2.2/4.6.1): with a ticket store attached
  /// the server issues a NewSessionTicket after each completed handshake
  /// whose client advertised psk_key_exchange_modes, and accepts PSK
  /// resumption offers carrying tickets the store validates. Null disables
  /// resumption entirely (the PR 1-6 behaviour, bit for bit).
  session::TicketStore* tickets = nullptr;
  /// Accept 0-RTT early data on resumed connections (RFC 8446 4.2.10).
  /// When false, offered early data is skipped record-by-record.
  bool accept_early_data = false;
  std::uint32_t ticket_lifetime_s = 7200;
  std::uint32_t max_early_data = 16384;
  /// Server clock for ticket issue/validate timestamps.
  std::uint64_t now_ms = 1'800'000'000'000ull;

  /// Certificate-flight preference for full handshakes. kCompressed and
  /// kMerkle take effect only when the client offers the matching
  /// extension; kMerkle additionally requires `merkle_proof`.
  CertMode cert_mode = CertMode::kFull;
  /// Encoded pki::MerkleProof pinning chain.certificates[0] (the leaf) into
  /// the tree head the client trusts. Required for kMerkle.
  Bytes merkle_proof;
};

struct ClientConfig {
  /// Group the client pre-computes its key share for (the 1-RTT guess).
  const kem::Kem* ka = nullptr;
  /// Further groups advertised in supported_groups without a key share; if
  /// the server insists on one of these, it answers with HelloRetryRequest
  /// and the handshake costs a second round trip (the paper configured its
  /// measurements so this never happened; the ablation_hrr campaign
  /// measures it).
  std::vector<const kem::Kem*> also_supported;
  const sig::Signer* sa = nullptr;  // expected server SA
  pki::TrustAnchor root;            // checked and loaded once
  std::uint64_t now = 1'800'000'000;

  /// Resume from a cached ticket (borrowed; must outlive the connection).
  /// Null = full handshake. The ticket's KA/SA names must match what the
  /// server expects or it falls back to a full handshake.
  const session::SessionTicket* resume = nullptr;
  /// Offer psk_ke (no key share) instead of psk_dhe_ke when resuming.
  bool psk_only = false;
  /// Advertise psk_key_exchange_modes on full handshakes too, asking the
  /// server for a NewSessionTicket after Finished.
  bool request_ticket = false;
  /// 0-RTT application data to send alongside a resumption offer.
  Bytes early_data;
  /// Client clock for the obfuscated ticket age (RFC 8446 4.2.11).
  std::uint64_t now_ms = 1'800'000'000'000ull;

  /// Certificate-flight offer for full handshakes: kCompressed adds the
  /// compress_certificate extension, kMerkle the Merkle offer (which also
  /// requires `merkle_root`). Offers are dropped on the post-HRR retry and
  /// when resuming; the server may always decline by sending a plain
  /// Certificate.
  CertMode cert_mode = CertMode::kFull;
  /// Pinned 32-byte Merkle tree head the client trusts (out-of-band
  /// distribution, like a trust anchor). Required for kMerkle.
  Bytes merkle_root;
};

/// Receives output flights; each call corresponds to one TCP write (the
/// harness timestamps calls to attribute compute time between flights).
using FlightSink = std::function<void(BytesView)>;

/// Shared handshake engine beneath both connection roles. Derived classes
/// declare a table of (state, expected message, handler) rules; the core
/// pumps records, reassembles handshake messages and dispatches each one
/// through the table. A message arriving in a state with no matching rule
/// fails the handshake — with a fatal unexpected_message alert on the wire
/// when the role's per-state policy (Derived::alert_on_unexpected) says so,
/// silently otherwise (the server's behaviour for garbage instead of a
/// ClientHello, before any keys exist).
template <typename Derived>
class HandshakeCore {
 public:
  /// Deterministic virtual-time accounting (the testbed's modeled time
  /// mode): with a cost model installed, every cryptographic operation
  /// accumulates its modeled cost; the harness drains the accumulator
  /// after each processing step and advances the simulated clock by it.
  void set_cost_model(const perf::CostModel* costs) { costs_ = costs; }
  double modeled_cost() const { return modeled_cost_; }
  double take_modeled_cost() {
    double v = modeled_cost_;
    modeled_cost_ = 0;
    return v;
  }

  /// Most legs a connection runs (the client's ClientHello, retried
  /// ClientHello, Finished and post-handshake legs).
  static constexpr std::size_t kMaxLegs = 4;
  /// The charges made so far, one ledger per leg: a leg collects every
  /// charge up to and including the connection's next flight, so the last
  /// entry is the leg still open. Client legs: ClientHello (+0-RTT),
  /// [retried ClientHello after HelloRetryRequest], server flight through
  /// the client Finished, post-handshake. Server legs: [HelloRetryRequest],
  /// ClientHello through the server Finished, client Finished +
  /// NewSessionTicket. All zero without a cost model. Priced with
  /// perf::CostModel::price, the legs sum to the modeled cost.
  std::span<const perf::ChargeLedger> legs() const {
    return {legs_.data(), leg_ + 1};
  }

  /// Install a flight recorder; `who` labels this connection (e.g.
  /// "tls:client"). State transitions driven by dispatched handshake
  /// messages are recorded as tls/state events. Null detaches; the hooks
  /// cost one pointer check when detached.
  void set_trace(trace::Recorder* recorder, std::string who) {
    trace_ = recorder;
    trace_who_ = std::move(who);
  }

 protected:
  HandshakeCore(crypto::Drbg rng, perf::Profiler* profiler)
      : rng_(std::move(rng)), profiler_(profiler) {}

  Derived& self() { return static_cast<Derived&>(*this); }

  /// Feed transport bytes: decrypt records (tolerating dummy CCS), charge
  /// modeled per-byte cost, reassemble handshake messages across record
  /// boundaries and dispatch each complete one through the rule table.
  void pump(BytesView data, const FlightSink& sink) {
    records_.feed(data);
    for (;;) {
      std::optional<Record> record;
      {
        perf::Scope scope(profiler_, perf::Lib::kLibcrypto);  // record decryption
        record = records_.pop();
      }
      if (records_.failed()) return self().fail();
      if (!record) return;
      charge(perf::Op::kPerByte, record->payload.size());
      if (record->type == ContentType::kChangeCipherSpec) continue;
      if (record->type == ContentType::kApplicationData) {
        // Mid-handshake application data is only legal as 0-RTT early
        // data; the role decides (server buffers or drops, client fails).
        if (!self().on_app_data_record(record->payload)) return self().fail();
        continue;
      }
      if (record->type != ContentType::kHandshake) return self().fail();
      append(handshake_buffer_, record->payload);
      // Extract complete handshake messages.
      while (handshake_buffer_.size() >= 4) {
        std::size_t len = (std::size_t{handshake_buffer_[1]} << 16) |
                          (std::size_t{handshake_buffer_[2]} << 8) |
                          handshake_buffer_[3];
        if (handshake_buffer_.size() < 4 + len) break;
        Bytes full(handshake_buffer_.begin(),
                   handshake_buffer_.begin() + 4 + len);
        Bytes body(handshake_buffer_.begin() + 4,
                   handshake_buffer_.begin() + 4 + len);
        std::uint8_t type = full[0];
        handshake_buffer_.erase(handshake_buffer_.begin(),
                                handshake_buffer_.begin() + 4 + len);
        dispatch(type, body, full, sink);
        if (self().terminal()) return;
      }
    }
  }

  /// Route one complete handshake message through Derived's rule table.
  void dispatch(std::uint8_t type, BytesView body, BytesView full,
                const FlightSink& sink) {
    for (const auto& rule : Derived::rules()) {
      if (rule.state != self().state_) continue;
      if (type == static_cast<std::uint8_t>(rule.expect)) {
        const char* before = Derived::state_name(self().state_);
        (self().*(rule.handler))(body, full, sink);
        trace_state(before);
        return;
      }
      // A state may hold several rules (e.g. wait_certificate accepts the
      // plain, compressed, and Merkle certificate flights); keep scanning.
      // Determinism is still per (state, message) — the verifier checks it.
    }
    const char* before = Derived::state_name(self().state_);
    if (Derived::alert_on_unexpected(self().state_))
      fail_alert(sink, fatal_unexpected_message());
    else
      self().fail();
    trace_state(before);
  }

  /// Record a tls/state event if the state moved away from `before`.
  void trace_state(const char* before) {
    if (!trace_) return;
    const char* after = Derived::state_name(self().state_);
    if (before == after) return;
    trace_->record("tls", "state", trace_who_)
        .arg("from", before)
        .arg("to", after);
  }

  /// Abort with a fatal alert on the wire (RFC 8446 6.2): handshake_failure
  /// for handler-level rejects, unexpected_message for rule-table misses.
  void fail_alert(const FlightSink& sink,
                  const Bytes& body = fatal_handshake_failure()) {
    Bytes alert = records_.seal(ContentType::kAlert, body);
    self().fail();
    sink(alert);
  }

  /// One charge site: its terms are recorded in the open leg's ledger and
  /// priced for this connection's algorithms (Derived::cost_ka/cost_sa),
  /// and their sum is added to the modeled cost as one double. A no-op
  /// without a cost model.
  void charge(std::initializer_list<perf::Charge> site) {
    if (!costs_) return;
    double seconds = 0;
    for (const perf::Charge& term : site) {
      legs_[leg_].add(term.op, term.count);
      seconds += costs_->price(term.op, term.count, self().cost_ka(),
                               self().cost_sa());
    }
    modeled_cost_ += seconds;
  }
  void charge(perf::Op op, std::uint64_t count = 1) { charge({{op, count}}); }
  /// The connection finished a flight: later charges open the next leg.
  void end_leg() {
    if (leg_ + 1 < kMaxLegs) ++leg_;
  }

  crypto::Drbg rng_;
  perf::Profiler* profiler_;
  const perf::CostModel* costs_ = nullptr;
  double modeled_cost_ = 0;
  std::array<perf::ChargeLedger, kMaxLegs> legs_{};
  std::size_t leg_ = 0;
  RecordLayer records_;
  KeySchedule key_schedule_;
  Bytes handshake_buffer_;  // handshake-message reassembly
  trace::Recorder* trace_ = nullptr;
  std::string trace_who_;
};

class ClientConnection : public HandshakeCore<ClientConnection> {
 public:
  ClientConnection(const ClientConfig& config, crypto::Drbg rng,
                   perf::Profiler* profiler = nullptr);

  /// Emit the ClientHello flight.
  void start(const FlightSink& sink);
  /// Feed transport bytes; may emit the client Finished flight.
  void on_data(BytesView data, const FlightSink& sink);

  bool handshake_complete() const { return state_ == State::kComplete; }
  bool failed() const { return state_ == State::kFailed; }
  const Bytes& exporter_secret() const { return key_schedule_.client_application_traffic(); }

  /// True when the completed handshake was a PSK resumption (no
  /// Certificate/CertificateVerify on the wire).
  bool resumed() const { return resumed_; }
  /// True when the server's chain arrived as a Merkle certificate flight
  /// and was authenticated against the pinned tree head.
  bool merkle_used() const { return merkle_used_; }
  /// True when the server accepted the 0-RTT early data we offered.
  bool early_data_accepted() const { return early_data_accepted_; }
  /// The NewSessionTicket received on this connection (if any), converted
  /// to a cacheable client ticket. Consumes the stored ticket.
  std::optional<session::SessionTicket> take_ticket() {
    auto out = std::move(ticket_);
    ticket_.reset();
    return out;
  }

  /// Introspection seam for the static verifier: the rule table plus its
  /// declared outcomes, as data (see tls/spec.hpp). Built from rules(), so
  /// the spec cannot drift from the dispatch table.
  static StateMachineSpec spec();
  /// Number of entries in rules(), exported so tests can assert the spec
  /// stays in lockstep with the executable table.
  static std::size_t rule_count();

 private:
  friend class HandshakeCore<ClientConnection>;

  enum class State {
    kStart,
    kWaitServerHello,
    kWaitEncryptedExtensions,
    kWaitEncryptedExtensionsPsk,
    kWaitCertificate,
    kWaitCertificateVerify,
    kWaitFinished,
    kWaitFinishedPsk,
    kWaitFinishedPskEarly,
    kWaitSessionTicket,
    kComplete,
    kFailed,
  };

  struct Rule {
    State state;
    HandshakeType expect;
    void (ClientConnection::*handler)(BytesView body, BytesView full,
                                      const FlightSink& sink);
  };
  /// The client always answers an unexpected handshake message with a
  /// fatal unexpected_message alert (it initiated; keys exist from SH on).
  static bool alert_on_unexpected(State) { return true; }
  static std::span<const Rule> rules();
  static const char* state_name(State state);

  bool terminal() const {
    return state_ == State::kComplete || state_ == State::kFailed;
  }
  void fail() { state_ = State::kFailed; }
  /// The client never receives application data mid-handshake.
  bool on_app_data_record(BytesView) { return false; }
  /// Algorithms charge() prices: the group of the key share in flight
  /// (after a HelloRetryRequest, the one the server demanded).
  std::string_view cost_ka() const { return active_ka_->name(); }
  std::string_view cost_sa() const { return config_.sa->name(); }
  /// True while a resumption offer with early data is outstanding.
  bool early_offered() const {
    return psk_offered_ && !config_.early_data.empty();
  }

  void send_client_hello(const FlightSink& sink);
  void on_server_hello(BytesView body, BytesView full, const FlightSink& sink);
  void on_retry_request(const ServerHello& hrr, BytesView full,
                        const FlightSink& sink);
  void on_encrypted_extensions(BytesView body, BytesView full,
                               const FlightSink& sink);
  void on_encrypted_extensions_psk(BytesView body, BytesView full,
                                   const FlightSink& sink);
  void on_certificate(BytesView body, BytesView full, const FlightSink& sink);
  void on_compressed_certificate(BytesView body, BytesView full,
                                 const FlightSink& sink);
  void on_merkle_certificate(BytesView body, BytesView full,
                             const FlightSink& sink);
  void on_certificate_verify(BytesView body, BytesView full,
                             const FlightSink& sink);
  void on_server_finished(BytesView body, BytesView full,
                          const FlightSink& sink);
  void on_finished_psk(BytesView body, BytesView full, const FlightSink& sink);
  void on_finished_psk_early(BytesView body, BytesView full,
                             const FlightSink& sink);
  void on_new_session_ticket(BytesView body, BytesView full,
                             const FlightSink& sink);
  /// Shared tail of every server-Finished handler: verify, send the client
  /// flight (EndOfEarlyData when 0-RTT was accepted), derive application
  /// and resumption-master secrets, wipe.
  void finish_handshake(BytesView body, BytesView full, const FlightSink& sink,
                        bool early_accepted);

  ClientConfig config_;
  State state_ = State::kStart;
  const kem::Kem* active_ka_ = nullptr;  // after HRR may differ from config
  Bytes kem_secret_key_;
  pki::CertificateChain peer_chain_;
  bool merkle_used_ = false;  // chain authenticated via inclusion proof
  bool hrr_seen_ = false;
  bool psk_offered_ = false;
  bool resumed_ = false;
  bool early_data_accepted_ = false;
  std::optional<session::SessionTicket> ticket_;
};

class ServerConnection : public HandshakeCore<ServerConnection> {
 public:
  ServerConnection(const ServerConfig& config, crypto::Drbg rng,
                   perf::Profiler* profiler = nullptr);

  /// Feed transport bytes; emits server flights and completes on client
  /// Finished.
  void on_data(BytesView data, const FlightSink& sink);

  bool handshake_complete() const { return state_ == State::kComplete; }
  bool failed() const { return state_ == State::kFailed; }

  /// True when this handshake was resumed from a validated ticket.
  bool resumed() const { return resumed_; }
  /// True when 0-RTT early data was accepted on this connection.
  bool early_data_accepted() const { return early_accepted_; }
  /// 0-RTT application data received before EndOfEarlyData.
  const Bytes& early_data() const { return early_data_; }

  /// Introspection seam for the static verifier (see ClientConnection).
  static StateMachineSpec spec();
  static std::size_t rule_count();

 private:
  friend class HandshakeCore<ServerConnection>;

  enum class State {
    kWaitClientHello,
    kWaitEndOfEarlyData,
    kWaitClientFinished,
    kComplete,
    kFailed,
  };

  struct Rule {
    State state;
    HandshakeType expect;
    void (ServerConnection::*handler)(BytesView body, BytesView full,
                                      const FlightSink& sink);
  };
  /// Garbage instead of a ClientHello is dropped silently (no keys exist
  /// yet, and answering pre-handshake noise would aid port scanners); once
  /// the server has committed to a connection, an out-of-place message is
  /// answered with a fatal unexpected_message alert like the client's.
  static bool alert_on_unexpected(State state) {
    return state == State::kWaitClientFinished ||
           state == State::kWaitEndOfEarlyData;
  }
  static std::span<const Rule> rules();
  static const char* state_name(State state);

  bool terminal() const {
    return state_ == State::kComplete || state_ == State::kFailed;
  }
  void fail() { state_ = State::kFailed; }
  std::string_view cost_ka() const { return config_.ka->name(); }
  std::string_view cost_sa() const { return config_.sa->name(); }
  /// Application data mid-handshake: accepted 0-RTT records are buffered
  /// until EndOfEarlyData; before the ClientHello (trial-decryption skip
  /// mode off) or after the handshake it is a protocol violation.
  bool on_app_data_record(BytesView payload) {
    if (state_ == State::kWaitEndOfEarlyData) {
      append(early_data_, payload);
      return true;
    }
    return false;
  }

  void on_client_hello(BytesView body, BytesView full, const FlightSink& sink);
  void send_retry_request(const ClientHello& hello, BytesView full,
                          const FlightSink& sink);
  void on_end_of_early_data(BytesView body, BytesView full,
                            const FlightSink& sink);
  void on_client_finished(BytesView body, BytesView full,
                          const FlightSink& sink);
  void send_new_session_ticket(const FlightSink& sink);
  // Buffered-send helpers implementing the two OpenSSL behaviours.
  void queue(Bytes record_bytes, const FlightSink& sink, bool message_done);
  void flush(const FlightSink& sink);

  ServerConfig config_;
  State state_ = State::kWaitClientHello;
  Bytes pending_;  // output buffer (default mode)
  bool hrr_sent_ = false;
  bool want_ticket_ = false;    // client sent psk_key_exchange_modes
  bool resumed_ = false;
  bool early_accepted_ = false;
  Bytes early_data_;
  TrafficKeys client_hs_keys_;  // deferred read keys while 0-RTT is read
};

}  // namespace pqtls::tls
