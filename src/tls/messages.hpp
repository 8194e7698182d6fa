// Typed TLS 1.3 handshake-message codec, shared by both connection ends:
// encoders produce the exact byte layout the paper's measurements depend
// on (extension order included), and parsers are strict and bounds-checked
// — truncated length prefixes, overlong vectors and malformed key shares
// return nullopt instead of reading out of bounds. ClientConnection and
// ServerConnection contain no wire-format knowledge of their own; they
// drive these structs and the shared state-machine core.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "kem/kem.hpp"
#include "pki/certificate.hpp"
#include "sig/sig.hpp"

namespace pqtls::tls {

enum class HandshakeType : std::uint8_t {
  kClientHello = 1,
  kServerHello = 2,
  kNewSessionTicket = 4,
  kEndOfEarlyData = 5,
  kEncryptedExtensions = 8,
  kCertificate = 11,
  kCertificateVerify = 15,
  kFinished = 20,
  kCompressedCertificate = 25,  // RFC 8879
  kMerkleCertificate = 26,      // synthetic, cf. draft-davidben-tls-merkle-tree-certs
};

enum class Extension : std::uint16_t {
  kServerName = 0,
  kSupportedGroups = 10,
  kSignatureAlgorithms = 13,
  kCompressCertificate = 27,  // RFC 8879
  kPreSharedKey = 41,
  kEarlyData = 42,
  kSupportedVersions = 43,
  kPskKeyExchangeModes = 45,
  kKeyShare = 51,
  kMerkleCertOffer = 58,  // synthetic trust-anchor offer (cf. tai drafts)
};

// PskKeyExchangeMode codepoints (RFC 8446 4.2.9).
constexpr std::uint8_t kPskModePsk = 0;     // psk_ke: PSK-only
constexpr std::uint8_t kPskModePskDhe = 1;  // psk_dhe_ke: PSK + (EC)DHE

// SHA-256 binders are 32 bytes; the pre_shared_key binders list trailer on
// a single-identity ClientHello is therefore a fixed 35-byte suffix (2-byte
// binders-list length + 1-byte binder length + 32-byte binder). The binder
// HMAC covers the ClientHello with exactly this suffix removed (4.2.11.2).
constexpr std::size_t kPskBinderLen = 32;
constexpr std::size_t kPskBinderSuffixLen = 2 + 1 + kPskBinderLen;

constexpr std::uint16_t kLegacyVersion = 0x0303;
constexpr std::uint16_t kTls13 = 0x0304;
constexpr std::uint16_t kAes128GcmSha256 = 0x1301;

// Stable synthetic codepoints for the negotiated algorithms (the OQS fork
// likewise assigns private-range codepoints per algorithm): groups are
// 0x0100 + KEM registry index, signature schemes 0x0200 + signer index.
std::uint16_t group_id(const kem::Kem& ka);
const kem::Kem* group_by_id(std::uint16_t id);
std::uint16_t scheme_id(const sig::Signer& sa);
const sig::Signer* scheme_by_id(std::uint16_t id);

/// Wrap a message body in the 4-byte handshake header (type + u24 length).
Bytes handshake_message(HandshakeType type, BytesView body);

/// The well-known HelloRetryRequest random value (RFC 8446 4.1.3).
const Bytes& hrr_random();
/// The dummy change_cipher_spec payload (middlebox compatibility mode).
const Bytes& ccs_payload();
/// Fatal handshake_failure alert body (level 2, description 40).
const Bytes& fatal_handshake_failure();
/// Fatal unexpected_message alert body (level 2, description 10) — sent
/// when a handshake message arrives in a state whose rule table has no
/// entry for it.
const Bytes& fatal_unexpected_message();

struct ClientHello {
  Bytes random;
  Bytes session_id;
  std::vector<std::uint16_t> cipher_suites;
  std::string server_name;
  std::vector<std::uint16_t> supported_groups;  // key-share group first
  std::vector<std::uint16_t> signature_schemes;
  std::uint16_t key_share_group = 0;
  Bytes key_share;
  bool has_key_share = false;
  // Resumption surface. psk_modes empty = no psk_key_exchange_modes
  // extension (and per RFC 8446 the server then never issues tickets).
  std::vector<std::uint8_t> psk_modes;
  bool early_data = false;
  bool has_psk = false;
  Bytes psk_identity;  // opaque server-issued ticket
  std::uint32_t obfuscated_ticket_age = 0;
  Bytes psk_binder;  // kPskBinderLen bytes (zero-filled before patching)
  // Certificate-flight negotiation surface (both are pure client offers the
  // server is free to decline by answering with a plain Certificate).
  bool offer_cert_compression = false;  // compress_certificate, RFC 8879
  bool offer_merkle_cert = false;       // Merkle-tree certificate mode
};

/// Full handshake message, extensions in the fixed order server_name,
/// supported_versions, supported_groups, signature_algorithms, key_share
/// (when has_key_share), psk_key_exchange_modes, early_data,
/// compress_certificate, merkle offer, and — mandatorily last
/// (RFC 8446 4.2.11) — pre_shared_key.
Bytes encode_client_hello(const ClientHello& hello);
std::optional<ClientHello> parse_client_hello(BytesView body);

struct ServerHello {
  Bytes random;  // hrr_random() when retry_request
  Bytes session_id;
  std::uint16_t cipher_suite = 0;
  std::uint16_t key_share_group = 0;
  Bytes key_share;  // KEM ciphertext; empty in a retry request
  bool retry_request = false;
  bool has_key_share = true;  // false in a PSK-only (psk_ke) answer
  bool psk_accepted = false;  // pre_shared_key ext, selected_identity 0
};

/// Extensions: supported_versions then key_share (group only for HRR,
/// omitted entirely for PSK-only), then pre_shared_key when accepted.
Bytes encode_server_hello(const ServerHello& hello);
std::optional<ServerHello> parse_server_hello(BytesView body);

struct EncryptedExtensions {
  bool early_data = false;  // server accepted the client's 0-RTT offer
};

Bytes encode_encrypted_extensions(const EncryptedExtensions& ee = {});
std::optional<EncryptedExtensions> parse_encrypted_extensions(BytesView body);

/// NewSessionTicket (RFC 8446 4.6.1). `nonce` feeds the per-ticket PSK
/// derivation (HKDF-Expand-Label(resumption_master_secret, "resumption",
/// nonce)); `ticket` is the server's self-encrypted state.
struct NewSessionTicket {
  std::uint32_t lifetime_s = 0;
  std::uint32_t age_add = 0;
  Bytes nonce;
  Bytes ticket;
  std::uint32_t max_early_data = 0;  // early_data extension when non-zero
};

Bytes encode_new_session_ticket(const NewSessionTicket& nst);
std::optional<NewSessionTicket> parse_new_session_ticket(BytesView body);

/// EndOfEarlyData (RFC 8446 4.5): empty body, sent under the 0-RTT keys.
Bytes encode_end_of_early_data();

/// Certificate message carrying a leaf-first chain (empty request context,
/// no per-certificate extensions). Empty-chain policy is the caller's.
Bytes encode_certificate(const pki::CertificateChain& chain);
std::optional<pki::CertificateChain> parse_certificate(BytesView body);

/// CompressedCertificate (RFC 8879 4): the algorithm both sides negotiated,
/// the exact length of the Certificate message body it decompresses to, and
/// the compressed payload.
struct CompressedCertificate {
  std::uint16_t algorithm = 0;
  std::uint32_t uncompressed_length = 0;  // u24 on the wire
  Bytes compressed;
};

Bytes encode_compressed_certificate(const CompressedCertificate& cc);
std::optional<CompressedCertificate> parse_compressed_certificate(
    BytesView body);

/// Largest Certificate body a CompressedCertificate may claim to expand to;
/// decompression bombs beyond this are rejected before allocation.
inline constexpr std::size_t kMaxUncompressedCertificate = 1u << 20;

/// Merkle-tree certificate flight: the leaf certificate plus the inclusion
/// proof against the client's pinned tree head — the intermediate chain
/// never touches the wire.
struct MerkleCertificate {
  Bytes leaf_certificate;  // encoded pki::Certificate
  Bytes proof;             // encoded pki::MerkleProof
};

Bytes encode_merkle_certificate(const MerkleCertificate& mc);
std::optional<MerkleCertificate> parse_merkle_certificate(BytesView body);

struct CertificateVerify {
  std::uint16_t scheme = 0;
  Bytes signature;
};

Bytes encode_certificate_verify(const CertificateVerify& cv);
std::optional<CertificateVerify> parse_certificate_verify(BytesView body);

Bytes encode_finished(BytesView verify_data);

/// CertificateVerify signing context (RFC 8446 4.4.3): 64 spaces, the
/// server context string, a zero byte, then the transcript hash.
Bytes certificate_verify_content(BytesView transcript_hash);

/// Sign/verify the CertificateVerify content for `transcript_hash` — the
/// one construction both the server's sign path and the client's verify
/// path must agree on, so it lives here rather than in either driver.
Bytes sign_certificate_verify(const sig::Signer& sa,
                              const sig::SigningKey& leaf_key,
                              BytesView transcript_hash, sig::Drbg& rng);
bool verify_certificate_verify(const sig::Signer& sa, BytesView public_key,
                               BytesView transcript_hash, BytesView signature);

}  // namespace pqtls::tls
