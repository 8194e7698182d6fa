// RFC 8446 section 7.1 key schedule with HKDF-SHA256, plus the transcript
// hash and traffic-key derivation for AES-128-GCM record protection.
#pragma once

#include "crypto/sha2.hpp"

namespace pqtls::tls {

/// HKDF-Expand-Label (RFC 8446 7.1).
Bytes hkdf_expand_label(BytesView secret, std::string_view label,
                        BytesView context, std::size_t length);

/// Derive-Secret.
Bytes derive_secret(BytesView secret, std::string_view label,
                    BytesView transcript_hash);

struct TrafficKeys {
  Bytes key;  // 16 bytes (AES-128-GCM)
  Bytes iv;   // 12 bytes
};

TrafficKeys derive_traffic_keys(BytesView traffic_secret);

/// The staged TLS 1.3 key schedule.
class KeySchedule {
 public:
  KeySchedule();
  /// Wipes every derived secret still held.
  ~KeySchedule();

  /// Feed handshake messages (header + body) into the transcript.
  void update_transcript(BytesView message);
  Bytes transcript_hash() const;

  /// HelloRetryRequest transcript surgery (RFC 8446 4.4.1): replace the
  /// transcript-so-far (ClientHello1) with a synthetic message_hash message
  /// containing its hash.
  void convert_to_hrr_transcript();

  /// Install a resumption PSK: the early secret becomes
  /// HKDF-Extract(0, psk) instead of HKDF-Extract(0, 0) (RFC 8446 7.1).
  /// Enables psk_binder() and early-traffic derivation.
  void set_psk(BytesView psk);
  bool has_psk() const { return !psk_early_secret_.empty(); }
  /// Drop an offered PSK (HelloRetryRequest, server fallback to full).
  void clear_psk();

  /// PSK binder (RFC 8446 4.2.11.2): HMAC over the transcript-so-far plus
  /// the truncated ClientHello, keyed by the "res binder" finished key.
  Bytes psk_binder(BytesView truncated_client_hello) const;

  /// client_early_traffic_secret over the transcript through ClientHello
  /// (0-RTT record protection). Caller wipes the returned secret.
  Bytes derive_early_traffic_secret() const;

  /// Mix in the (EC)DHE/KEM shared secret after ServerHello; derives the
  /// client/server handshake traffic secrets from the current transcript.
  /// An empty shared secret selects the PSK-only schedule (IKM = 32 zeros).
  void derive_handshake_secrets(BytesView shared_secret);
  /// Derive application traffic secrets (transcript through server Finished).
  void derive_application_secrets();

  /// resumption_master_secret over the transcript through client Finished.
  /// Must run before that transcript point is passed; survives
  /// wipe_handshake_secrets() so tickets can be minted/redeemed afterwards.
  void derive_resumption_master();
  bool has_resumption_master() const { return !resumption_master_.empty(); }
  /// Per-ticket PSK: HKDF-Expand-Label(resumption_master, "resumption",
  /// ticket_nonce, 32). Requires derive_resumption_master().
  Bytes resumption_psk(BytesView ticket_nonce) const;

  const Bytes& client_handshake_traffic() const { return client_hs_; }
  const Bytes& server_handshake_traffic() const { return server_hs_; }
  const Bytes& client_application_traffic() const { return client_app_; }
  const Bytes& server_application_traffic() const { return server_app_; }

  /// finished_key = HKDF-Expand-Label(traffic_secret, "finished", "", 32);
  /// verify_data = HMAC(finished_key, transcript_hash).
  Bytes finished_verify_data(BytesView traffic_secret,
                             BytesView transcript_hash) const;

  /// Zeroize the handshake-stage secrets once the handshake completes: the
  /// handshake traffic secrets plus the PSK/early-stage material. The
  /// master secret and resumption_master_secret deliberately survive —
  /// they are the inputs for ticket PSK derivation after completion (and
  /// the application traffic secrets stay live for record protection).
  void wipe_handshake_secrets();

 private:
  crypto::Sha256 transcript_;  // running hash; finished on a copy
  Bytes handshake_secret_;     // CT_SECRET
  Bytes master_secret_;        // CT_SECRET
  Bytes client_hs_, server_hs_;    // CT_SECRET: client_hs_, server_hs_
  Bytes client_app_, server_app_;  // CT_SECRET: client_app_, server_app_
  Bytes psk_early_secret_;   // CT_SECRET: psk_early_secret_
  Bytes resumption_master_;  // CT_SECRET: resumption_master_
};

}  // namespace pqtls::tls
