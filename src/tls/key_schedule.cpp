#include "tls/key_schedule.hpp"

#include "crypto/ct.hpp"
#include "tls/wire.hpp"

namespace pqtls::tls {

// The member secrets are annotated at their declarations in
// key_schedule.hpp; re-registering them here (namespace scope: tainted but
// not wipe-checked — wipe() / wipe_handshake_secrets() own that duty) lets
// the linter's taint pass follow them through this translation unit as
// well. The KEM shared secret arrives as a caller-owned view.
// CT_SECRET: handshake_secret_, master_secret_, client_hs_, server_hs_
// CT_SECRET: client_app_, server_app_, shared_secret -- inputs stay tainted
// CT_SECRET: psk_early_secret_, resumption_master_, psk -- resumption stage

using crypto::hkdf_expand_sha256;
using crypto::hkdf_extract_sha256;

namespace {

// Transcript-Hash("") = SHA-256 of the empty string: the context of every
// "derived" and "res binder" Derive-Secret (RFC 8446 section 7.1).
constexpr std::uint8_t kEmptyHash[32] = {
    0xe3, 0xb0, 0xc4, 0x42, 0x98, 0xfc, 0x1c, 0x14, 0x9a, 0xfb, 0xf4,
    0xc8, 0x99, 0x6f, 0xb9, 0x24, 0x27, 0xae, 0x41, 0xe4, 0x64, 0x9b,
    0x93, 0x4c, 0xa4, 0x95, 0x99, 0x1b, 0x78, 0x52, 0xb8, 0x55};

}  // namespace

Bytes hkdf_expand_label(BytesView secret, std::string_view label,
                        BytesView context, std::size_t length) {
  Writer w;
  w.u16(static_cast<std::uint16_t>(length));
  std::string full_label = "tls13 " + std::string(label);
  w.vec8(BytesView{reinterpret_cast<const std::uint8_t*>(full_label.data()),
                   full_label.size()});
  w.vec8(context);
  return hkdf_expand_sha256(secret, w.buffer(), length);
}

Bytes derive_secret(BytesView secret, std::string_view label,
                    BytesView transcript_hash) {
  return hkdf_expand_label(secret, label, transcript_hash, 32);
}

TrafficKeys derive_traffic_keys(BytesView traffic_secret) {
  TrafficKeys keys;
  keys.key = hkdf_expand_label(traffic_secret, "key", {}, 16);
  keys.iv = hkdf_expand_label(traffic_secret, "iv", {}, 12);
  return keys;
}

KeySchedule::KeySchedule() = default;

KeySchedule::~KeySchedule() {
  wipe_handshake_secrets();
  ct::wipe(master_secret_);
  ct::wipe(resumption_master_);
  ct::wipe(client_app_);
  ct::wipe(server_app_);
}

void KeySchedule::wipe_handshake_secrets() {
  ct::wipe(handshake_secret_);
  ct::wipe(client_hs_);
  ct::wipe(server_hs_);
  ct::wipe(psk_early_secret_);
  psk_early_secret_.clear();  // keep has_psk() truthful after the wipe
  // master_secret_ and resumption_master_ intentionally survive: tickets
  // are minted (server) and redeemed (client) after the handshake is done
  // and the handshake-stage secrets are gone. The destructor wipes both.
}

void KeySchedule::set_psk(BytesView psk) {
  ct::wipe(psk_early_secret_);
  psk_early_secret_ = hkdf_extract_sha256({}, psk);
}

void KeySchedule::clear_psk() {
  // Wipe AND empty: has_psk() keys off emptiness, so a wiped-but-sized
  // buffer would silently select the PSK schedule with an all-zero early
  // secret — diverging from a peer that never installed a PSK (the
  // declined-offer fallback would then never decrypt the server flight).
  ct::wipe(psk_early_secret_);
  psk_early_secret_.clear();
}

Bytes KeySchedule::psk_binder(BytesView truncated_client_hello) const {
  Bytes binder_key =  // CT_SECRET: binder_key
      derive_secret(psk_early_secret_, "res binder", kEmptyHash);
  ct::Wiper binder_guard(binder_key);
  crypto::Sha256 context = transcript_;
  context.update(truncated_client_hello);
  return finished_verify_data(binder_key, context.finish());
}

Bytes KeySchedule::derive_early_traffic_secret() const {
  return derive_secret(psk_early_secret_, "c e traffic", transcript_hash());
}

void KeySchedule::update_transcript(BytesView message) {
  transcript_.update(message);
}

Bytes KeySchedule::transcript_hash() const {
  crypto::Sha256 copy = transcript_;
  return copy.finish();
}

void KeySchedule::convert_to_hrr_transcript() {
  Bytes hash = transcript_hash();
  transcript_.reset();
  Bytes message_hash = {254, 0, 0, 32};  // HandshakeType message_hash
  append(message_hash, hash);
  update_transcript(message_hash);
}

void KeySchedule::derive_handshake_secrets(BytesView shared_secret) {
  Bytes zeros(32, 0);
  // With a PSK installed the early secret is HKDF-Extract(0, psk); without
  // one it is the RFC 7.1 zero-key extract. PSK-only handshakes pass an
  // empty shared secret, which the schedule replaces with 32 zero bytes.
  Bytes early_secret =  // CT_SECRET: early_secret
      has_psk() ? psk_early_secret_ : hkdf_extract_sha256({}, zeros);
  ct::Wiper early_guard(early_secret);
  Bytes derived = derive_secret(early_secret, "derived", kEmptyHash);  // CT_SECRET
  ct::Wiper derived_guard(derived);
  handshake_secret_ =
      hkdf_extract_sha256(derived, shared_secret.empty()
                                       ? BytesView(zeros)
                                       : shared_secret);
  Bytes th = transcript_hash();
  client_hs_ = derive_secret(handshake_secret_, "c hs traffic", th);
  server_hs_ = derive_secret(handshake_secret_, "s hs traffic", th);
}

void KeySchedule::derive_application_secrets() {
  Bytes derived = derive_secret(handshake_secret_, "derived", kEmptyHash);  // CT_SECRET
  ct::Wiper derived_guard(derived);
  Bytes zeros(32, 0);
  master_secret_ = hkdf_extract_sha256(derived, zeros);
  Bytes th = transcript_hash();
  client_app_ = derive_secret(master_secret_, "c ap traffic", th);
  server_app_ = derive_secret(master_secret_, "s ap traffic", th);
}

void KeySchedule::derive_resumption_master() {
  ct::wipe(resumption_master_);
  resumption_master_ =
      derive_secret(master_secret_, "res master", transcript_hash());
}

Bytes KeySchedule::resumption_psk(BytesView ticket_nonce) const {
  return hkdf_expand_label(resumption_master_, "resumption", ticket_nonce, 32);
}

Bytes KeySchedule::finished_verify_data(BytesView traffic_secret,
                                        BytesView th) const {
  Bytes finished_key =  // CT_SECRET: finished_key
      hkdf_expand_label(traffic_secret, "finished", {}, 32);
  ct::Wiper key_guard(finished_key);
  return crypto::hmac_sha256(finished_key, th);
}

}  // namespace pqtls::tls
