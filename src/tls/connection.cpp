#include "tls/connection.hpp"

#include <algorithm>
#include <stdexcept>

#include "crypto/ct.hpp"
#include "pki/merkle.hpp"
#include "tls/cert_compress.hpp"

namespace pqtls::tls {

namespace {

using perf::Lib;
using perf::Scope;

/// Every handshake type either connection's codec knows — the alphabet the
/// verifier's completeness check sweeps each state against.
std::vector<std::uint8_t> handshake_alphabet() {
  return {static_cast<std::uint8_t>(HandshakeType::kClientHello),
          static_cast<std::uint8_t>(HandshakeType::kServerHello),
          static_cast<std::uint8_t>(HandshakeType::kNewSessionTicket),
          static_cast<std::uint8_t>(HandshakeType::kEndOfEarlyData),
          static_cast<std::uint8_t>(HandshakeType::kEncryptedExtensions),
          static_cast<std::uint8_t>(HandshakeType::kCertificate),
          static_cast<std::uint8_t>(HandshakeType::kCertificateVerify),
          static_cast<std::uint8_t>(HandshakeType::kFinished),
          static_cast<std::uint8_t>(HandshakeType::kCompressedCertificate),
          static_cast<std::uint8_t>(HandshakeType::kMerkleCertificate)};
}

std::uint8_t code(HandshakeType type) {
  return static_cast<std::uint8_t>(type);
}

}  // namespace

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

std::span<const ClientConnection::Rule> ClientConnection::rules() {
  static constexpr Rule kRules[] = {
      {State::kWaitServerHello, HandshakeType::kServerHello,
       &ClientConnection::on_server_hello},
      {State::kWaitEncryptedExtensions, HandshakeType::kEncryptedExtensions,
       &ClientConnection::on_encrypted_extensions},
      {State::kWaitEncryptedExtensionsPsk, HandshakeType::kEncryptedExtensions,
       &ClientConnection::on_encrypted_extensions_psk},
      {State::kWaitCertificate, HandshakeType::kCertificate,
       &ClientConnection::on_certificate},
      {State::kWaitCertificate, HandshakeType::kCompressedCertificate,
       &ClientConnection::on_compressed_certificate},
      {State::kWaitCertificate, HandshakeType::kMerkleCertificate,
       &ClientConnection::on_merkle_certificate},
      {State::kWaitCertificateVerify, HandshakeType::kCertificateVerify,
       &ClientConnection::on_certificate_verify},
      {State::kWaitFinished, HandshakeType::kFinished,
       &ClientConnection::on_server_finished},
      {State::kWaitFinishedPsk, HandshakeType::kFinished,
       &ClientConnection::on_finished_psk},
      {State::kWaitFinishedPskEarly, HandshakeType::kFinished,
       &ClientConnection::on_finished_psk_early},
      {State::kWaitSessionTicket, HandshakeType::kNewSessionTicket,
       &ClientConnection::on_new_session_ticket},
  };
  return kRules;
}

std::size_t ClientConnection::rule_count() { return rules().size(); }

StateMachineSpec ClientConnection::spec() {
  StateMachineSpec spec;
  spec.role = "client";
  spec.initial = state_name(State::kStart);
  spec.done = state_name(State::kComplete);
  spec.error = state_name(State::kFailed);
  for (State s : {State::kStart, State::kWaitServerHello,
                  State::kWaitEncryptedExtensions,
                  State::kWaitEncryptedExtensionsPsk, State::kWaitCertificate,
                  State::kWaitCertificateVerify, State::kWaitFinished,
                  State::kWaitFinishedPsk, State::kWaitFinishedPskEarly,
                  State::kWaitSessionTicket, State::kComplete,
                  State::kFailed}) {
    spec.states.push_back(state_name(s));
    if (!spec.is_terminal(state_name(s)) && alert_on_unexpected(s))
      spec.alert_states.push_back(state_name(s));
  }
  spec.alphabet = handshake_alphabet();
  // start(): emit ClientHello, arm for the ServerHello. Five variants:
  // a full handshake, a PSK resumption offer, a resumption offer with
  // 0-RTT early data, and full handshakes offering certificate
  // compression or Merkle-tree certificates — each flavors the
  // ClientHello differently so the product explorer drives the server
  // down every acceptance path.
  spec.starts = {
      SpecStart{"full", state_name(State::kStart),
                state_name(State::kWaitServerHello),
                {{code(HandshakeType::kClientHello), "plain"}}},
      SpecStart{"resume", state_name(State::kStart),
                state_name(State::kWaitServerHello),
                {{code(HandshakeType::kClientHello), "psk"}}},
      SpecStart{"resume_early", state_name(State::kStart),
                state_name(State::kWaitServerHello),
                {{code(HandshakeType::kClientHello), "psk_early"}}},
      SpecStart{"full_compress", state_name(State::kStart),
                state_name(State::kWaitServerHello),
                {{code(HandshakeType::kClientHello), "compress"}}},
      SpecStart{"full_merkle", state_name(State::kStart),
                state_name(State::kWaitServerHello),
                {{code(HandshakeType::kClientHello), "merkle"}}},
  };
  // Declared outcomes per rule, keyed by the rule's (state, message); a
  // rule with no declared outcomes is a verifier error, so a new table
  // entry cannot land without teaching the spec its behaviour.
  auto outcomes_for = [](const Rule& rule) -> std::vector<SpecOutcome> {
    const auto fail_name = std::string(state_name(State::kFailed));
    SpecOutcome reject{.label = "reject",
                       .next = fail_name,
                       .emits = {},
                       .once = false,
                       .alert = true,
                       .on_flavors = {}};
    auto ok = [](std::string next) {
      return SpecOutcome{.label = "ok",
                         .next = std::move(next),
                         .emits = {},
                         .once = false,
                         .alert = false,
                         .on_flavors = {}};
    };
    // The client flight closing the handshake: plain Finished when it does
    // not want a ticket, a want_ticket-flavored Finished when it asked for
    // one (psk_key_exchange_modes in its ClientHello) and so arms
    // kWaitSessionTicket for the server's NewSessionTicket.
    auto finish_outcomes = [&](std::vector<SpecEmit> prefix) {
      std::vector<SpecEmit> plain = prefix, ticket = std::move(prefix);
      plain.push_back({code(HandshakeType::kFinished), "plain"});
      ticket.push_back({code(HandshakeType::kFinished), "want_ticket"});
      SpecOutcome accept = ok(state_name(State::kComplete));
      accept.emits = std::move(plain);
      SpecOutcome with_ticket{.label = "ok_ticket",
                              .next = state_name(State::kWaitSessionTicket),
                              .emits = std::move(ticket),
                              .once = false,
                              .alert = false,
                              .on_flavors = {}};
      return std::vector<SpecOutcome>{accept, with_ticket, reject};
    };
    switch (rule.state) {
      case State::kWaitServerHello: {
        // A plain ServerHello advances the full handshake; a psk-flavored
        // one (pre_shared_key accepted) selects the resumption arm; the
        // HRR flavor re-key-shares and re-enters the wait (at most once,
        // hrr_seen_ — and the retry drops any PSK offer).
        SpecOutcome accept = ok(state_name(State::kWaitEncryptedExtensions));
        accept.on_flavors = {"plain"};
        SpecOutcome resume{
            .label = "resume",
            .next = state_name(State::kWaitEncryptedExtensionsPsk),
            .emits = {},
            .once = false,
            .alert = false,
            .on_flavors = {"psk"}};
        SpecOutcome hrr{.label = "hrr",
                        .next = state_name(State::kWaitServerHello),
                        .emits = {{code(HandshakeType::kClientHello), "plain"}},
                        .once = true,
                        .alert = false,
                        .on_flavors = {"hrr"}};
        return {accept, resume, hrr, reject};
      }
      case State::kWaitEncryptedExtensions: {
        // A full handshake must never see the early_data acceptance.
        SpecOutcome accept = ok(state_name(State::kWaitCertificate));
        accept.on_flavors = {"plain"};
        return {accept, reject};
      }
      case State::kWaitEncryptedExtensionsPsk: {
        // plain EE: 0-RTT declined (or never offered), straight to the
        // server Finished; early_ok EE: early data accepted, the closing
        // flight must carry EndOfEarlyData.
        SpecOutcome accept = ok(state_name(State::kWaitFinishedPsk));
        accept.on_flavors = {"plain"};
        SpecOutcome early{.label = "early_ok",
                          .next = state_name(State::kWaitFinishedPskEarly),
                          .emits = {},
                          .once = false,
                          .alert = false,
                          .on_flavors = {"early_ok"}};
        return {accept, early, reject};
      }
      case State::kWaitCertificate:
        // Three rules share this state (plain, compressed, and Merkle
        // certificate flights); each authenticates the chain its own way
        // and arms the same CertificateVerify wait.
        return {ok(state_name(State::kWaitCertificateVerify)), reject};
      case State::kWaitCertificateVerify:
        return {ok(state_name(State::kWaitFinished)), reject};
      case State::kWaitFinished:
        return finish_outcomes({});
      case State::kWaitFinishedPsk:
        return finish_outcomes({});
      case State::kWaitFinishedPskEarly:
        return finish_outcomes({{code(HandshakeType::kEndOfEarlyData),
                                 "plain"}});
      case State::kWaitSessionTicket:
        return {ok(state_name(State::kComplete)), reject};
      default:
        throw std::logic_error(
            "client rule without declared spec outcomes for state " +
            std::string(state_name(rule.state)));
    }
  };
  for (const Rule& rule : rules()) {
    SpecTransition t;
    t.from = state_name(rule.state);
    t.message = code(rule.expect);
    t.message_name = handshake_type_name(t.message);
    t.outcomes = outcomes_for(rule);
    spec.transitions.push_back(std::move(t));
  }
  return spec;
}

ClientConnection::ClientConnection(const ClientConfig& config, crypto::Drbg rng,
                                   perf::Profiler* profiler)
    : HandshakeCore<ClientConnection>(std::move(rng), profiler),
      config_(config),
      active_ka_(config.ka) {}

const char* ClientConnection::state_name(State state) {
  switch (state) {
    case State::kStart: return "start";
    case State::kWaitServerHello: return "wait_server_hello";
    case State::kWaitEncryptedExtensions: return "wait_encrypted_extensions";
    case State::kWaitEncryptedExtensionsPsk:
      return "wait_encrypted_extensions_psk";
    case State::kWaitCertificate: return "wait_certificate";
    case State::kWaitCertificateVerify: return "wait_certificate_verify";
    case State::kWaitFinished: return "wait_finished";
    case State::kWaitFinishedPsk: return "wait_finished_psk";
    case State::kWaitFinishedPskEarly: return "wait_finished_psk_early";
    case State::kWaitSessionTicket: return "wait_session_ticket";
    case State::kComplete: return "complete";
    case State::kFailed: return "failed";
  }
  return "unknown";
}

void ClientConnection::start(const FlightSink& sink) {
  const char* before = state_name(state_);
  send_client_hello(sink);
  trace_state(before);  // kStart -> kWaitServerHello is not dispatch-driven
}

void ClientConnection::send_client_hello(const FlightSink& sink) {
  // A resumption offer rides only on the first flight: after a
  // HelloRetryRequest the retry is a clean full handshake (the ticket is
  // single-use and the binder transcript surgery is not worth modeling).
  bool resuming = config_.resume != nullptr && !hrr_seen_;
  psk_offered_ = resuming;
  if (resuming)
    key_schedule_.set_psk(config_.resume->psk);
  else
    key_schedule_.clear_psk();

  ClientHello hello;
  // Pre-compute the key share for the group we expect the server to select
  // (1-RTT handshake; the paper configured TLS so the 2-RTT fallback never
  // happened). After a HelloRetryRequest this runs again for the group the
  // server demanded. PSK-only resumption (psk_ke) needs no share at all.
  bool want_key_share = !(resuming && config_.psk_only);
  if (want_key_share) {
    kem::KeyPair kp;
    {
      Scope scope(profiler_, Lib::kLibcrypto);
      kp = active_ka_->generate_keypair(rng_);
    }
    charge(perf::Op::kKemKeygen);
    kem_secret_key_ = std::move(kp.secret_key);
    hello.key_share_group = group_id(*active_ka_);
    hello.key_share = std::move(kp.public_key);
    hello.has_key_share = true;
  }
  hello.random = rng_.bytes(32);
  hello.session_id = rng_.bytes(32);  // legacy_session_id (compat mode)
  hello.cipher_suites = {kAes128GcmSha256};
  hello.server_name = "pqtls-bench.example.net";
  // supported_groups: the share's group first, then further offers.
  hello.supported_groups.push_back(group_id(*active_ka_));
  for (const kem::Kem* extra : config_.also_supported)
    if (extra != active_ka_) hello.supported_groups.push_back(group_id(*extra));
  hello.signature_schemes = {scheme_id(*config_.sa)};
  // Certificate-flight offers ride only on the first full-handshake
  // ClientHello: resumption omits the certificate flight entirely, and the
  // post-HRR retry is kept a clean baseline handshake (mirroring the PSK
  // drop above).
  if (!resuming && !hrr_seen_) {
    hello.offer_cert_compression = config_.cert_mode == CertMode::kCompressed;
    hello.offer_merkle_cert =
        config_.cert_mode == CertMode::kMerkle && !config_.merkle_root.empty();
  }
  if (resuming || config_.request_ticket)
    hello.psk_modes = {config_.psk_only ? kPskModePsk : kPskModePskDhe};
  if (resuming) {
    hello.early_data = !config_.early_data.empty();
    hello.has_psk = true;
    hello.psk_identity = config_.resume->identity;
    hello.obfuscated_ticket_age =
        config_.resume->obfuscated_age(config_.now_ms);
    hello.psk_binder = Bytes(kPskBinderLen, 0);  // patched below
  }

  Bytes msg = encode_client_hello(hello);
  if (resuming) {
    // PSK binder (RFC 8446 4.2.11.2): HMAC over the ClientHello minus the
    // binders list, patched into the zero-filled placeholder.
    Bytes binder;
    {
      Scope scope(profiler_, Lib::kLibcrypto);
      binder = key_schedule_.psk_binder(
          BytesView(msg).first(msg.size() - kPskBinderSuffixLen));
    }
    charge(perf::Op::kKdf, 2);
    std::copy(binder.begin(), binder.end(), msg.end() - kPskBinderLen);
  }
  key_schedule_.update_transcript(msg);
  Bytes record = records_.seal(ContentType::kHandshake, msg);
  charge(perf::Op::kPerByte, record.size());
  state_ = State::kWaitServerHello;

  if (resuming && !config_.early_data.empty()) {
    // 0-RTT: client_early_traffic_secret over the (patched) ClientHello;
    // the early data travels in the same flight, and the write side stays
    // on these keys until EndOfEarlyData.
    {
      Scope scope(profiler_, Lib::kLibcrypto);
      Bytes early = key_schedule_.derive_early_traffic_secret();
      ct::Wiper early_guard(early);
      records_.set_write_keys(derive_traffic_keys(early));
    }
    charge(perf::Op::kKdf, 2);
    Bytes early_records =
        records_.seal(ContentType::kApplicationData, config_.early_data);
    charge(perf::Op::kPerByte, early_records.size());
    append(record, early_records);
  }
  sink(record);
  end_leg();
}

void ClientConnection::on_data(BytesView data, const FlightSink& sink) {
  if (terminal()) return;
  pump(data, sink);
}

void ClientConnection::on_server_hello(BytesView body, BytesView full,
                                       const FlightSink& sink) {
  std::optional<ServerHello> sh = parse_server_hello(body);
  if (!sh) return fail_alert(sink);
  if (sh->retry_request) return on_retry_request(*sh, full, sink);
  if (sh->cipher_suite != kAes128GcmSha256) return fail_alert(sink);
  // The server may only accept a PSK we actually offered.
  if (sh->psk_accepted && !psk_offered_) return fail_alert(sink);
  resumed_ = sh->psk_accepted;
  if (!resumed_) key_schedule_.clear_psk();  // declined: full handshake

  key_schedule_.update_transcript(full);
  Bytes shared;  // CT_SECRET: shared
  if (sh->has_key_share) {
    if (sh->key_share_group != group_id(*active_ka_)) return fail_alert(sink);
    std::optional<Bytes> decapsed;
    {
      Scope scope(profiler_, Lib::kLibcrypto);
      decapsed = active_ka_->decapsulate(kem_secret_key_, sh->key_share);
    }
    charge(perf::Op::kKemDecaps);
    // The decapsulation key share is one-shot; drop it immediately.
    ct::wipe(kem_secret_key_);
    kem_secret_key_.clear();
    if (!decapsed) return fail_alert(sink);
    shared = std::move(*decapsed);
  } else if (!resumed_ || !config_.psk_only) {
    // A key-share-free ServerHello is only legal for accepted psk_ke.
    return fail_alert(sink);
  }
  {
    Scope scope(profiler_, Lib::kLibcrypto);
    key_schedule_.derive_handshake_secrets(shared);
    records_.set_read_keys(
        derive_traffic_keys(key_schedule_.server_handshake_traffic()));
    // With 0-RTT still in flight the write side stays on the early keys
    // until EndOfEarlyData (or until the offer is declined in EE).
    if (!(resumed_ && early_offered()))
      records_.set_write_keys(
          derive_traffic_keys(key_schedule_.client_handshake_traffic()));
  }
  charge(perf::Op::kKdf, 3);
  ct::wipe(shared);  // traffic secrets are installed; drop the input
  state_ = resumed_ ? State::kWaitEncryptedExtensionsPsk
                    : State::kWaitEncryptedExtensions;
}

void ClientConnection::on_retry_request(const ServerHello& hrr, BytesView full,
                                        const FlightSink& sink) {
  // HelloRetryRequest (RFC 8446 4.1.3): the server rejected our key
  // share's group and demands another one we advertised.
  if (hrr_seen_) return fail_alert(sink);  // at most one retry
  hrr_seen_ = true;
  const kem::Kem* requested_ka = group_by_id(hrr.key_share_group);
  bool offered = requested_ka == config_.ka;
  for (const kem::Kem* extra : config_.also_supported)
    offered = offered || requested_ka == extra;
  if (!requested_ka || !offered) return fail_alert(sink);
  active_ka_ = requested_ka;
  // If the declined flight carried 0-RTT data the write side holds the
  // early keys; the retried ClientHello must go out in plaintext.
  records_.clear_write_keys();
  key_schedule_.convert_to_hrr_transcript();
  key_schedule_.update_transcript(full);
  send_client_hello(sink);
}

void ClientConnection::on_encrypted_extensions(BytesView body, BytesView full,
                                               const FlightSink& sink) {
  std::optional<EncryptedExtensions> ee = parse_encrypted_extensions(body);
  // early_data acceptance outside a resumed handshake is a violation.
  if (!ee || ee->early_data) return fail_alert(sink);
  key_schedule_.update_transcript(full);
  state_ = State::kWaitCertificate;
}

void ClientConnection::on_encrypted_extensions_psk(BytesView body,
                                                   BytesView full,
                                                   const FlightSink& sink) {
  std::optional<EncryptedExtensions> ee = parse_encrypted_extensions(body);
  if (!ee) return fail_alert(sink);
  // The server may only accept early data we offered.
  if (ee->early_data && !early_offered()) return fail_alert(sink);
  key_schedule_.update_transcript(full);
  if (ee->early_data) {
    early_data_accepted_ = true;
    state_ = State::kWaitFinishedPskEarly;
    return;
  }
  if (early_offered()) {
    // 0-RTT declined: the records already sent will be skipped; move the
    // write side onto the handshake keys (no EndOfEarlyData is sent).
    {
      Scope scope(profiler_, Lib::kLibcrypto);
      records_.set_write_keys(
          derive_traffic_keys(key_schedule_.client_handshake_traffic()));
    }
    charge(perf::Op::kKdf);
  }
  state_ = State::kWaitFinishedPsk;
}

void ClientConnection::on_certificate(BytesView body, BytesView full,
                                      const FlightSink& sink) {
  std::optional<pki::CertificateChain> chain = parse_certificate(body);
  if (!chain || chain->certificates.empty()) return fail_alert(sink);
  peer_chain_ = std::move(*chain);
  key_schedule_.update_transcript(full);
  state_ = State::kWaitCertificateVerify;
}

void ClientConnection::on_compressed_certificate(BytesView body, BytesView full,
                                                 const FlightSink& sink) {
  // Only legal when this client offered compression on this flight
  // (RFC 8879 4); offers are dropped on the post-HRR retry.
  if (config_.cert_mode != CertMode::kCompressed || hrr_seen_)
    return fail_alert(sink);
  std::optional<CompressedCertificate> cc = parse_compressed_certificate(body);
  if (!cc || cc->algorithm != kCertCompressionLz) return fail_alert(sink);
  std::optional<Bytes> plain;
  {
    Scope scope(profiler_, Lib::kLibcrypto);
    plain = lz_decompress(cc->compressed, cc->uncompressed_length);
  }
  charge(perf::Op::kPerByte, cc->uncompressed_length);
  if (!plain) return fail_alert(sink);
  std::optional<pki::CertificateChain> chain = parse_certificate(*plain);
  if (!chain || chain->certificates.empty()) return fail_alert(sink);
  peer_chain_ = std::move(*chain);
  // RFC 8879 5: the transcript carries the CompressedCertificate message
  // exactly as transmitted, never its decompressed form.
  key_schedule_.update_transcript(full);
  state_ = State::kWaitCertificateVerify;
}

void ClientConnection::on_merkle_certificate(BytesView body, BytesView full,
                                             const FlightSink& sink) {
  // Only legal when this client offered the Merkle mode on this flight
  // (and therefore holds a pinned tree head to verify against).
  if (config_.cert_mode != CertMode::kMerkle || hrr_seen_ ||
      config_.merkle_root.empty())
    return fail_alert(sink);
  std::optional<MerkleCertificate> mc = parse_merkle_certificate(body);
  if (!mc) return fail_alert(sink);
  std::optional<pki::Certificate> cert =
      pki::Certificate::decode(mc->leaf_certificate);
  std::optional<pki::MerkleProof> proof = pki::MerkleProof::decode(mc->proof);
  if (!cert || !proof) return fail_alert(sink);
  // The inclusion proof replaces chain verification; the leaf's validity
  // window and key algorithm are still checked like on_certificate's path.
  if (config_.now < cert->not_before || config_.now > cert->not_after)
    return fail_alert(sink);
  if (cert->key_algorithm != config_.sa->name()) return fail_alert(sink);
  bool included;
  {
    Scope scope(profiler_, Lib::kLibcrypto);
    included = pki::verify_inclusion(*cert, *proof, config_.merkle_root);
  }
  // The proof walk is log2(leaves)+1 hash compressions — one KDF's worth.
  charge(perf::Op::kKdf);
  if (!included) return fail_alert(sink);
  peer_chain_.certificates = {std::move(*cert)};
  merkle_used_ = true;
  key_schedule_.update_transcript(full);
  state_ = State::kWaitCertificateVerify;
}

void ClientConnection::on_certificate_verify(BytesView body, BytesView full,
                                             const FlightSink& sink) {
  std::optional<CertificateVerify> cv = parse_certificate_verify(body);
  if (!cv) return fail_alert(sink);
  const sig::Signer* signer = scheme_by_id(cv->scheme);
  if (!signer || signer != config_.sa) return fail_alert(sink);
  bool ok;
  {
    Scope scope(profiler_, Lib::kLibcrypto);
    ok = verify_certificate_verify(*signer,
                                   peer_chain_.certificates[0].subject_public_key,
                                   key_schedule_.transcript_hash(),
                                   cv->signature);
    // A Merkle-authenticated leaf was already proven against the pinned
    // tree head; there is no transmitted chain to walk.
    if (ok && !merkle_used_)
      ok = pki::verify_chain(peer_chain_, config_.root, config_.now);
  }
  // CertificateVerify plus one verification per transmitted chain
  // certificate. The root's self-signature was checked once, when the
  // trust anchor was built, so no handshake pays for it.
  charge(perf::Op::kVerify,
         merkle_used_ ? 1 : 1 + peer_chain_.certificates.size());
  if (!ok) return fail_alert(sink);
  key_schedule_.update_transcript(full);
  state_ = State::kWaitFinished;
}

void ClientConnection::on_server_finished(BytesView body, BytesView full,
                                          const FlightSink& sink) {
  finish_handshake(body, full, sink, /*early_accepted=*/false);
}

void ClientConnection::on_finished_psk(BytesView body, BytesView full,
                                       const FlightSink& sink) {
  finish_handshake(body, full, sink, /*early_accepted=*/false);
}

void ClientConnection::on_finished_psk_early(BytesView body, BytesView full,
                                             const FlightSink& sink) {
  finish_handshake(body, full, sink, /*early_accepted=*/true);
}

void ClientConnection::finish_handshake(BytesView body, BytesView full,
                                        const FlightSink& sink,
                                        bool early_accepted) {
  Bytes expected;
  {
    Scope scope(profiler_, Lib::kLibcrypto);
    expected = key_schedule_.finished_verify_data(
        key_schedule_.server_handshake_traffic(),
        key_schedule_.transcript_hash());
  }
  if (!ct::equal(expected, body)) return fail_alert(sink);
  key_schedule_.update_transcript(full);
  {
    // Application traffic secrets cover the transcript only through the
    // server Finished (RFC 8446 7.1) — derive them before EndOfEarlyData
    // or the client Finished enter the transcript.
    Scope scope(profiler_, Lib::kLibcrypto);
    key_schedule_.derive_application_secrets();
  }

  Bytes out;
  if (early_accepted) {
    // Close the 0-RTT stream: EndOfEarlyData under the early keys, then
    // switch the write side to the handshake keys (RFC 8446 4.5).
    Bytes eoed = encode_end_of_early_data();
    key_schedule_.update_transcript(eoed);
    {
      Scope scope(profiler_, Lib::kLibcrypto);
      out = records_.seal(ContentType::kHandshake, eoed);
      records_.set_write_keys(
          derive_traffic_keys(key_schedule_.client_handshake_traffic()));
    }
    charge(perf::Op::kKdf);
  }

  // Client flight: dummy CCS + Finished, one TCP write (the paper
  // observed both always in the same IP packet).
  Bytes verify;
  {
    Scope scope(profiler_, Lib::kLibcrypto);
    verify = key_schedule_.finished_verify_data(
        key_schedule_.client_handshake_traffic(),
        key_schedule_.transcript_hash());
  }
  Bytes fin = encode_finished(verify);
  key_schedule_.update_transcript(fin);
  append(out, records_.seal(ContentType::kChangeCipherSpec, ccs_payload()));
  {
    Scope scope(profiler_, Lib::kLibcrypto);
    append(out, records_.seal(ContentType::kHandshake, fin));
    // resumption_master_secret over the transcript through the client
    // Finished — derived on every handshake (not modeled-cost-charged so
    // full-handshake cells stay bit-identical to the pre-resumption model)
    // and the only handshake-stage secret wipe_handshake_secrets() keeps.
    key_schedule_.derive_resumption_master();
    // NewSessionTicket arrives post-handshake under the application keys.
    records_.set_read_keys(
        derive_traffic_keys(key_schedule_.server_application_traffic()));
  }
  // Two Finished MACs, the sealed flight, application-secret derivation.
  charge({{perf::Op::kKdf, 4}, {perf::Op::kPerByte, out.size()}});
  key_schedule_.wipe_handshake_secrets();
  state_ = config_.request_ticket ? State::kWaitSessionTicket
                                  : State::kComplete;
  sink(out);
  end_leg();
}

void ClientConnection::on_new_session_ticket(BytesView body, BytesView,
                                             const FlightSink& sink) {
  std::optional<NewSessionTicket> nst = parse_new_session_ticket(body);
  if (!nst) return fail_alert(sink);
  // Post-handshake message: never part of any transcript (RFC 8446 4.6.1).
  session::SessionTicket ticket;
  ticket.server_name = "pqtls-bench.example.net";
  ticket.ka = active_ka_->name();
  ticket.sa = config_.sa->name();
  ticket.identity = nst->ticket;
  {
    Scope scope(profiler_, Lib::kLibcrypto);
    ticket.psk = key_schedule_.resumption_psk(nst->nonce);
  }
  charge(perf::Op::kKdf);
  ticket.received_at_ms = config_.now_ms;
  ticket.lifetime_s = nst->lifetime_s;
  ticket.age_add = nst->age_add;
  ticket.max_early_data = nst->max_early_data;
  ticket_ = std::move(ticket);
  state_ = State::kComplete;
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

const char* ServerConnection::state_name(State state) {
  switch (state) {
    case State::kWaitClientHello: return "wait_client_hello";
    case State::kWaitEndOfEarlyData: return "wait_end_of_early_data";
    case State::kWaitClientFinished: return "wait_client_finished";
    case State::kComplete: return "complete";
    case State::kFailed: return "failed";
  }
  return "unknown";
}

std::span<const ServerConnection::Rule> ServerConnection::rules() {
  static constexpr Rule kRules[] = {
      {State::kWaitClientHello, HandshakeType::kClientHello,
       &ServerConnection::on_client_hello},
      {State::kWaitEndOfEarlyData, HandshakeType::kEndOfEarlyData,
       &ServerConnection::on_end_of_early_data},
      {State::kWaitClientFinished, HandshakeType::kFinished,
       &ServerConnection::on_client_finished},
  };
  return kRules;
}

std::size_t ServerConnection::rule_count() { return rules().size(); }

StateMachineSpec ServerConnection::spec() {
  StateMachineSpec spec;
  spec.role = "server";
  spec.initial = state_name(State::kWaitClientHello);
  spec.done = state_name(State::kComplete);
  spec.error = state_name(State::kFailed);
  for (State s : {State::kWaitClientHello, State::kWaitEndOfEarlyData,
                  State::kWaitClientFinished, State::kComplete,
                  State::kFailed}) {
    spec.states.push_back(state_name(s));
    if (!spec.is_terminal(state_name(s)) && alert_on_unexpected(s))
      spec.alert_states.push_back(state_name(s));
  }
  spec.alphabet = handshake_alphabet();
  auto outcomes_for = [](const Rule& rule) -> std::vector<SpecOutcome> {
    const auto fail_name = std::string(state_name(State::kFailed));
    SpecOutcome reject{.label = "reject",
                       .next = fail_name,
                       .emits = {},
                       .once = false,
                       .alert = true,
                       .on_flavors = {}};
    const std::vector<SpecEmit> full_flight = {
        {code(HandshakeType::kServerHello), "plain"},
        {code(HandshakeType::kEncryptedExtensions), "plain"},
        {code(HandshakeType::kCertificate), "plain"},
        {code(HandshakeType::kCertificateVerify), "plain"},
        {code(HandshakeType::kFinished), "plain"}};
    switch (rule.state) {
      case State::kWaitClientHello:
        // ok: the full server flight in one dispatch (SH, EE, Cert, CV,
        // Fin — the dummy CCS is not a handshake message); it also covers
        // declining a compression/Merkle offer, which falls back to the
        // plain Certificate. ok_compressed / ok_merkle: the client offered
        // and this server's preference matches, so the certificate travels
        // as CompressedCertificate (RFC 8879) or as a leaf plus inclusion
        // proof. resume / resume_early: a validated PSK offer collapses
        // the flight to SH, EE, Fin (no certificate material on the wire);
        // the early variant accepts the 0-RTT stream and waits for
        // EndOfEarlyData. fallback: a PSK offer whose ticket is
        // unknown/expired answers with the full flight instead (never an
        // alert). hrr: wrong key share but negotiable group, at most once
        // (hrr_sent_).
        return {SpecOutcome{.label = "ok",
                            .next = state_name(State::kWaitClientFinished),
                            .emits = full_flight,
                            .once = false,
                            .alert = false,
                            .on_flavors = {"plain", "compress", "merkle"}},
                SpecOutcome{
                    .label = "ok_compressed",
                    .next = state_name(State::kWaitClientFinished),
                    .emits = {{code(HandshakeType::kServerHello), "plain"},
                              {code(HandshakeType::kEncryptedExtensions),
                               "plain"},
                              {code(HandshakeType::kCompressedCertificate),
                               "plain"},
                              {code(HandshakeType::kCertificateVerify),
                               "plain"},
                              {code(HandshakeType::kFinished), "plain"}},
                    .once = false,
                    .alert = false,
                    .on_flavors = {"compress"}},
                SpecOutcome{
                    .label = "ok_merkle",
                    .next = state_name(State::kWaitClientFinished),
                    .emits = {{code(HandshakeType::kServerHello), "plain"},
                              {code(HandshakeType::kEncryptedExtensions),
                               "plain"},
                              {code(HandshakeType::kMerkleCertificate),
                               "plain"},
                              {code(HandshakeType::kCertificateVerify),
                               "plain"},
                              {code(HandshakeType::kFinished), "plain"}},
                    .once = false,
                    .alert = false,
                    .on_flavors = {"merkle"}},
                SpecOutcome{
                    .label = "resume",
                    .next = state_name(State::kWaitClientFinished),
                    .emits = {{code(HandshakeType::kServerHello), "psk"},
                              {code(HandshakeType::kEncryptedExtensions),
                               "plain"},
                              {code(HandshakeType::kFinished), "plain"}},
                    .once = false,
                    .alert = false,
                    .on_flavors = {"psk", "psk_early"}},
                SpecOutcome{
                    .label = "resume_early",
                    .next = state_name(State::kWaitEndOfEarlyData),
                    .emits = {{code(HandshakeType::kServerHello), "psk"},
                              {code(HandshakeType::kEncryptedExtensions),
                               "early_ok"},
                              {code(HandshakeType::kFinished), "plain"}},
                    .once = false,
                    .alert = false,
                    .on_flavors = {"psk_early"}},
                SpecOutcome{.label = "fallback",
                            .next = state_name(State::kWaitClientFinished),
                            .emits = full_flight,
                            .once = false,
                            .alert = false,
                            .on_flavors = {"psk", "psk_early"}},
                SpecOutcome{
                    .label = "hrr",
                    .next = state_name(State::kWaitClientHello),
                    .emits = {{code(HandshakeType::kServerHello), "hrr"}},
                    .once = true,
                    .alert = false,
                    .on_flavors = {}},
                reject};
      case State::kWaitEndOfEarlyData:
        return {SpecOutcome{.label = "ok",
                            .next = state_name(State::kWaitClientFinished),
                            .emits = {},
                            .once = false,
                            .alert = false,
                            .on_flavors = {}},
                reject};
      case State::kWaitClientFinished:
        // A want_ticket-flavored Finished (the client advertised
        // psk_key_exchange_modes) is answered with a NewSessionTicket.
        return {SpecOutcome{.label = "ok",
                            .next = state_name(State::kComplete),
                            .emits = {},
                            .once = false,
                            .alert = false,
                            .on_flavors = {"plain"}},
                SpecOutcome{
                    .label = "ok_ticket",
                    .next = state_name(State::kComplete),
                    .emits = {{code(HandshakeType::kNewSessionTicket),
                               "plain"}},
                    .once = false,
                    .alert = false,
                    .on_flavors = {"want_ticket"}},
                reject};
      default:
        throw std::logic_error(
            "server rule without declared spec outcomes for state " +
            std::string(state_name(rule.state)));
    }
  };
  for (const Rule& rule : rules()) {
    SpecTransition t;
    t.from = state_name(rule.state);
    t.message = code(rule.expect);
    t.message_name = handshake_type_name(t.message);
    t.outcomes = outcomes_for(rule);
    spec.transitions.push_back(std::move(t));
  }
  return spec;
}

ServerConnection::ServerConnection(const ServerConfig& config, crypto::Drbg rng,
                                   perf::Profiler* profiler)
    : HandshakeCore<ServerConnection>(std::move(rng), profiler),
      config_(config) {}

void ServerConnection::queue(Bytes record_bytes, const FlightSink& sink,
                             bool message_done) {
  if (config_.buffering == Buffering::kImmediate) {
    append(pending_, record_bytes);
    if (message_done) flush(sink);
    return;
  }
  // Default OpenSSL behaviour: accumulate; if appending would exceed the
  // buffer, flush what is pending first (this is what pushed the SH early
  // for large-certificate algorithms in the paper).
  if (!pending_.empty() &&
      pending_.size() + record_bytes.size() > config_.buffer_limit) {
    flush(sink);
  }
  append(pending_, record_bytes);
}

void ServerConnection::flush(const FlightSink& sink) {
  if (pending_.empty()) return;
  Bytes out;
  out.swap(pending_);
  sink(out);
}

void ServerConnection::on_data(BytesView data, const FlightSink& sink) {
  if (terminal()) return;
  pump(data, sink);
}

void ServerConnection::on_client_hello(BytesView body, BytesView full,
                                       const FlightSink& sink) {
  std::optional<ClientHello> hello = parse_client_hello(body);
  if (!hello) return fail_alert(sink);
  std::uint16_t client_scheme =
      hello->signature_schemes.empty() ? 0 : hello->signature_schemes.front();
  if (client_scheme != scheme_id(*config_.sa)) return fail_alert(sink);

  // Ticket bookkeeping: any psk_key_exchange_modes offer makes a completed
  // handshake end with a NewSessionTicket (when a store is attached).
  want_ticket_ = config_.tickets != nullptr && !hello->psk_modes.empty();

  // --- PSK resumption offer (RFC 8446 4.2.11) ---
  bool psk_ok = false;
  bool psk_only_mode = false;
  if (hello->has_psk && config_.tickets != nullptr) {
    std::optional<session::TicketState> ticket =
        config_.tickets->validate(hello->psk_identity, config_.now_ms);
    if (ticket && ticket->ka == config_.ka->name() &&
        ticket->sa == config_.sa->name()) {
      key_schedule_.set_psk(ticket->resumption_psk);
      Bytes expected_binder;
      {
        Scope scope(profiler_, Lib::kLibcrypto);
        expected_binder = key_schedule_.psk_binder(
            full.first(full.size() - kPskBinderSuffixLen));
      }
      charge(perf::Op::kKdf, 2);
      // A decryptable ticket with a wrong binder is an active attack:
      // abort with a fatal alert, never fall back (RFC 8446 4.2.11).
      if (!ct::equal(expected_binder, hello->psk_binder)) {
        key_schedule_.clear_psk();
        return fail_alert(sink);
      }
      bool mode_psk = false, mode_dhe = false;
      for (std::uint8_t mode : hello->psk_modes) {
        mode_psk = mode_psk || mode == kPskModePsk;
        mode_dhe = mode_dhe || mode == kPskModePskDhe;
      }
      bool share_ok = hello->has_key_share &&
                      hello->key_share_group == group_id(*config_.ka);
      if (mode_dhe && share_ok) {
        psk_ok = true;  // psk_dhe_ke: fresh KEM exchange under the PSK
      } else if (mode_psk) {
        psk_ok = true;  // psk_ke: no key share at all
        psk_only_mode = true;
      } else {
        key_schedule_.clear_psk();  // unusable modes: full fallback
      }
    }
    // Unknown/forged/expired ticket: silent fallback to a full handshake.
  }

  if (psk_ok) {
    key_schedule_.update_transcript(full);

    // Early-data acceptance is decided here; the early traffic secret is
    // bound to the transcript through this ClientHello only.
    bool accept_early = hello->early_data && config_.accept_early_data;
    Bytes early_secret;  // CT_SECRET: early_secret
    if (accept_early) {
      Scope scope(profiler_, Lib::kLibcrypto);
      early_secret = key_schedule_.derive_early_traffic_secret();
    }

    // --- ServerHello: PSK accepted, key share only for psk_dhe_ke ---
    std::optional<kem::Encapsulation> enc;
    ServerHello sh;
    if (!psk_only_mode) {
      {
        Scope scope(profiler_, Lib::kLibcrypto);
        enc = config_.ka->encapsulate(hello->key_share, rng_);
      }
      charge(perf::Op::kKemEncaps);
      if (!enc) return fail_alert(sink);
      sh.key_share_group = group_id(*config_.ka);
      sh.key_share = enc->ciphertext;
    } else {
      sh.has_key_share = false;
    }
    sh.random = rng_.bytes(32);
    sh.session_id = hello->session_id;  // echo
    sh.cipher_suite = kAes128GcmSha256;
    sh.psk_accepted = true;
    Bytes sh_msg = encode_server_hello(sh);
    key_schedule_.update_transcript(sh_msg);
    charge(perf::Op::kPerByte, sh_msg.size() + ccs_payload().size());
    queue(records_.seal(ContentType::kHandshake, sh_msg), sink, false);
    queue(records_.seal(ContentType::kChangeCipherSpec, ccs_payload()), sink,
          true);

    {
      Scope scope(profiler_, Lib::kLibcrypto);
      key_schedule_.derive_handshake_secrets(
          enc ? BytesView(enc->shared_secret) : BytesView{});
      records_.set_write_keys(
          derive_traffic_keys(key_schedule_.server_handshake_traffic()));
      // The read side handles the 0-RTT stream first when accepted; the
      // handshake keys are parked until EndOfEarlyData.
      client_hs_keys_ =
          derive_traffic_keys(key_schedule_.client_handshake_traffic());
      if (accept_early) {
        records_.set_read_keys(derive_traffic_keys(early_secret));
        ct::wipe(early_secret);
      } else {
        records_.set_read_keys(client_hs_keys_);
      }
    }
    charge(perf::Op::kKdf, 3);
    if (accept_early) charge(perf::Op::kKdf, 2);
    if (enc) ct::wipe(enc->shared_secret);
    // Offered-but-declined 0-RTT records are undecryptable under the
    // handshake keys: skip them without failing (RFC 8446 4.2.10).
    if (hello->early_data && !accept_early)
      records_.set_skip_undecryptable(true);

    // --- EncryptedExtensions (early_data echo when accepted) ---
    EncryptedExtensions ee;
    ee.early_data = accept_early;
    Bytes ee_msg = encode_encrypted_extensions(ee);
    key_schedule_.update_transcript(ee_msg);
    Bytes ee_sealed;
    {
      Scope scope(profiler_, Lib::kLibcrypto);
      ee_sealed = records_.seal(ContentType::kHandshake, ee_msg);
    }
    charge(perf::Op::kPerByte, ee_sealed.size());
    queue(std::move(ee_sealed), sink, false);

    // --- Finished (no Certificate / CertificateVerify on this path) ---
    Bytes verify;
    {
      Scope scope(profiler_, Lib::kLibcrypto);
      verify = key_schedule_.finished_verify_data(
          key_schedule_.server_handshake_traffic(),
          key_schedule_.transcript_hash());
    }
    Bytes fin_msg = encode_finished(verify);
    key_schedule_.update_transcript(fin_msg);
    Bytes fin_sealed;
    {
      Scope scope(profiler_, Lib::kLibcrypto);
      fin_sealed = records_.seal(ContentType::kHandshake, fin_msg);
    }
    charge({{perf::Op::kKdf, 2}, {perf::Op::kPerByte, fin_sealed.size()}});
    queue(std::move(fin_sealed), sink, true);
    flush(sink);
    end_leg();

    {
      Scope scope(profiler_, Lib::kLibcrypto);
      key_schedule_.derive_application_secrets();
    }
    resumed_ = true;
    early_accepted_ = accept_early;
    state_ = accept_early ? State::kWaitEndOfEarlyData
                          : State::kWaitClientFinished;
    return;
  }

  if (!hello->has_key_share ||
      hello->key_share_group != group_id(*config_.ka)) {
    return send_retry_request(*hello, full, sink);
  }

  key_schedule_.update_transcript(full);

  // --- ServerHello (includes the KEM encapsulation) ---
  std::optional<kem::Encapsulation> enc;
  {
    Scope scope(profiler_, Lib::kLibcrypto);
    enc = config_.ka->encapsulate(hello->key_share, rng_);
  }
  charge(perf::Op::kKemEncaps);
  if (!enc) return fail_alert(sink);

  ServerHello sh;
  sh.random = rng_.bytes(32);
  sh.session_id = hello->session_id;  // echo
  sh.cipher_suite = kAes128GcmSha256;
  sh.key_share_group = group_id(*config_.ka);
  sh.key_share = enc->ciphertext;
  Bytes sh_msg = encode_server_hello(sh);
  key_schedule_.update_transcript(sh_msg);
  charge(perf::Op::kPerByte, sh_msg.size() + ccs_payload().size());
  queue(records_.seal(ContentType::kHandshake, sh_msg), sink, false);
  queue(records_.seal(ContentType::kChangeCipherSpec, ccs_payload()), sink,
        true);

  {
    Scope scope(profiler_, Lib::kLibcrypto);
    key_schedule_.derive_handshake_secrets(enc->shared_secret);
    records_.set_write_keys(
        derive_traffic_keys(key_schedule_.server_handshake_traffic()));
    records_.set_read_keys(
        derive_traffic_keys(key_schedule_.client_handshake_traffic()));
  }
  charge(perf::Op::kKdf, 3);
  ct::wipe(enc->shared_secret);  // traffic secrets are installed; drop the input
  // A client whose resumption offer fell back to a full handshake may have
  // 0-RTT records in flight; they are undecryptable here and skipped.
  if (hello->early_data) records_.set_skip_undecryptable(true);

  // --- EncryptedExtensions ---
  Bytes ee_msg = encode_encrypted_extensions();
  key_schedule_.update_transcript(ee_msg);
  Bytes ee_sealed;
  {
    Scope scope(profiler_, Lib::kLibcrypto);
    ee_sealed = records_.seal(ContentType::kHandshake, ee_msg);
  }
  charge(perf::Op::kPerByte, ee_sealed.size());
  queue(std::move(ee_sealed), sink, false);

  // --- Certificate (plain, compressed, or Merkle inclusion proof) ---
  // The preference in config_ takes effect only when the client offered
  // the matching extension; anything else falls back to the plain
  // Certificate message, never to an alert.
  bool use_merkle = config_.cert_mode == CertMode::kMerkle &&
                    hello->offer_merkle_cert && !config_.merkle_proof.empty() &&
                    !config_.chain.certificates.empty();
  bool use_compressed = config_.cert_mode == CertMode::kCompressed &&
                        hello->offer_cert_compression;
  Bytes cert_msg;
  if (use_merkle) {
    MerkleCertificate mc;
    mc.leaf_certificate = config_.chain.certificates[0].encode();
    mc.proof = config_.merkle_proof;
    cert_msg = encode_merkle_certificate(mc);
  } else if (use_compressed) {
    Bytes cert_full = encode_certificate(config_.chain);
    CompressedCertificate cc;
    cc.algorithm = kCertCompressionLz;
    // Compress the Certificate body; the 4-byte handshake header is
    // reconstructed by the peer (RFC 8879 4).
    BytesView cert_body = BytesView(cert_full).subspan(4);
    cc.uncompressed_length = static_cast<std::uint32_t>(cert_body.size());
    {
      Scope scope(profiler_, Lib::kLibcrypto);
      cc.compressed = lz_compress(cert_body);
    }
    charge(perf::Op::kPerByte, cert_body.size());  // codec walk
    cert_msg = encode_compressed_certificate(cc);
  } else {
    cert_msg = encode_certificate(config_.chain);
  }
  key_schedule_.update_transcript(cert_msg);
  Bytes cert_sealed;
  {
    Scope scope(profiler_, Lib::kLibcrypto);
    cert_sealed = records_.seal(ContentType::kHandshake, cert_msg);
  }
  charge(perf::Op::kPerByte, cert_sealed.size());
  queue(std::move(cert_sealed), sink, true);

  // --- CertificateVerify (the handshake signature: expensive) ---
  CertificateVerify cv;
  cv.scheme = scheme_id(*config_.sa);
  {
    Scope scope(profiler_, Lib::kLibcrypto);
    cv.signature =
        sign_certificate_verify(*config_.sa, *config_.leaf_key,
                                key_schedule_.transcript_hash(), rng_);
  }
  charge(perf::Op::kSign);
  Bytes cv_msg = encode_certificate_verify(cv);
  key_schedule_.update_transcript(cv_msg);
  Bytes cv_sealed;
  {
    Scope scope(profiler_, Lib::kLibcrypto);
    cv_sealed = records_.seal(ContentType::kHandshake, cv_msg);
  }
  charge(perf::Op::kPerByte, cv_sealed.size());
  queue(std::move(cv_sealed), sink, false);

  // --- Finished ---
  Bytes verify;
  {
    Scope scope(profiler_, Lib::kLibcrypto);
    verify = key_schedule_.finished_verify_data(
        key_schedule_.server_handshake_traffic(),
        key_schedule_.transcript_hash());
  }
  Bytes fin_msg = encode_finished(verify);
  key_schedule_.update_transcript(fin_msg);
  Bytes fin_sealed;
  {
    Scope scope(profiler_, Lib::kLibcrypto);
    fin_sealed = records_.seal(ContentType::kHandshake, fin_msg);
  }
  // Server Finished MAC, the sealed record, application-secret derivation.
  charge({{perf::Op::kKdf, 2}, {perf::Op::kPerByte, fin_sealed.size()}});
  queue(std::move(fin_sealed), sink, true);
  flush(sink);  // default mode: everything (still) pending goes out now
  end_leg();

  {
    Scope scope(profiler_, Lib::kLibcrypto);
    key_schedule_.derive_application_secrets();
  }
  state_ = State::kWaitClientFinished;
}

void ServerConnection::send_retry_request(const ClientHello& hello,
                                          BytesView full,
                                          const FlightSink& sink) {
  // No usable key share. If the client at least supports our group, ask
  // for a retry (HelloRetryRequest): the 2-RTT fallback.
  bool supports_ours = false;
  for (std::uint16_t g : hello.supported_groups)
    supports_ours = supports_ours || g == group_id(*config_.ka);
  if (!supports_ours || hrr_sent_) return fail_alert(sink);
  hrr_sent_ = true;
  key_schedule_.update_transcript(full);
  key_schedule_.convert_to_hrr_transcript();

  ServerHello hrr;
  hrr.retry_request = true;
  hrr.session_id = hello.session_id;
  hrr.cipher_suite = kAes128GcmSha256;
  hrr.key_share_group = group_id(*config_.ka);  // group only, no key
  Bytes hrr_msg = encode_server_hello(hrr);
  key_schedule_.update_transcript(hrr_msg);
  Bytes hrr_record = records_.seal(ContentType::kHandshake, hrr_msg);
  charge(perf::Op::kPerByte, hrr_record.size());
  queue(std::move(hrr_record), sink, true);
  flush(sink);
  end_leg();
  // Stay in kWaitClientHello for the retried ClientHello.
}

void ServerConnection::on_end_of_early_data(BytesView body, BytesView full,
                                            const FlightSink& sink) {
  if (!body.empty()) return fail_alert(sink);
  key_schedule_.update_transcript(full);
  // The 0-RTT stream is closed; the client Finished arrives under the
  // parked handshake keys.
  {
    Scope scope(profiler_, Lib::kLibcrypto);
    records_.set_read_keys(client_hs_keys_);
  }
  charge(perf::Op::kKdf);
  state_ = State::kWaitClientFinished;
}

void ServerConnection::on_client_finished(BytesView body, BytesView full,
                                          const FlightSink& sink) {
  Bytes expected;
  {
    Scope scope(profiler_, Lib::kLibcrypto);
    expected = key_schedule_.finished_verify_data(
        key_schedule_.client_handshake_traffic(),
        key_schedule_.transcript_hash());
  }
  charge(perf::Op::kKdf);
  if (!ct::equal(expected, body)) return fail_alert(sink);
  key_schedule_.update_transcript(full);
  records_.set_skip_undecryptable(false);
  {
    Scope scope(profiler_, Lib::kLibcrypto);
    // Transcript now covers the client Finished — exactly the
    // resumption_master_secret point (RFC 8446 7.1). No modeled-cost
    // charge: full-handshake cells stay bit-identical to the
    // pre-resumption model.
    key_schedule_.derive_resumption_master();
  }
  if (want_ticket_) send_new_session_ticket(sink);
  key_schedule_.wipe_handshake_secrets();
  state_ = State::kComplete;
}

void ServerConnection::send_new_session_ticket(const FlightSink& sink) {
  // Post-handshake message under the server application traffic keys; it
  // never enters a handshake transcript (RFC 8446 4.6.1).
  {
    Scope scope(profiler_, Lib::kLibcrypto);
    records_.set_write_keys(
        derive_traffic_keys(key_schedule_.server_application_traffic()));
  }
  NewSessionTicket nst;
  nst.lifetime_s = config_.ticket_lifetime_s;
  nst.age_add = rng_.u32();
  nst.nonce = rng_.bytes(8);
  nst.max_early_data = config_.accept_early_data ? config_.max_early_data : 0;

  session::TicketState state;
  state.ka = config_.ka->name();
  state.sa = config_.sa->name();
  {
    Scope scope(profiler_, Lib::kLibcrypto);
    state.resumption_psk = key_schedule_.resumption_psk(nst.nonce);
  }
  state.issued_at_ms = config_.now_ms;
  state.lifetime_s = config_.ticket_lifetime_s;
  state.age_add = nst.age_add;
  state.nonce = nst.nonce;
  nst.ticket = config_.tickets->issue(state, rng_);

  Bytes msg = encode_new_session_ticket(nst);
  Bytes sealed;
  {
    Scope scope(profiler_, Lib::kLibcrypto);
    sealed = records_.seal(ContentType::kHandshake, msg);
  }
  // Ticket-PSK derivation, the AEAD seal, the record bytes.
  charge({{perf::Op::kKdf, 2}, {perf::Op::kPerByte, sealed.size()}});
  queue(std::move(sealed), sink, true);
  flush(sink);
}

}  // namespace pqtls::tls
