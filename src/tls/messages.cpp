#include "tls/messages.hpp"

#include "crypto/sha2.hpp"
#include "tls/cert_compress.hpp"
#include "tls/wire.hpp"

namespace pqtls::tls {

namespace {

std::uint16_t u16_at(const Bytes& data, std::size_t i) {
  return static_cast<std::uint16_t>((data[i] << 8) | data[i + 1]);
}

// Strict u16 list inside a vec16: the list must fill its prefix exactly.
std::optional<std::vector<std::uint16_t>> parse_u16_list(BytesView ext_data) {
  Reader r(ext_data);
  Bytes list = r.vec16();
  if (r.failed() || list.size() % 2 != 0) return std::nullopt;
  std::vector<std::uint16_t> out;
  for (std::size_t i = 0; i + 1 < list.size(); i += 2)
    out.push_back(u16_at(list, i));
  return out;
}

}  // namespace

std::uint16_t group_id(const kem::Kem& ka) {
  const auto& kems = kem::all_kems();
  for (std::size_t i = 0; i < kems.size(); ++i)
    if (kems[i] == &ka) return static_cast<std::uint16_t>(0x0100 + i);
  return 0x01ff;
}

const kem::Kem* group_by_id(std::uint16_t id) {
  const auto& kems = kem::all_kems();
  std::size_t idx = id - 0x0100;
  return idx < kems.size() ? kems[idx] : nullptr;
}

std::uint16_t scheme_id(const sig::Signer& sa) {
  const auto& sigs = sig::all_signers();
  for (std::size_t i = 0; i < sigs.size(); ++i)
    if (sigs[i] == &sa) return static_cast<std::uint16_t>(0x0200 + i);
  return 0x02ff;
}

const sig::Signer* scheme_by_id(std::uint16_t id) {
  const auto& sigs = sig::all_signers();
  std::size_t idx = id - 0x0200;
  return idx < sigs.size() ? sigs[idx] : nullptr;
}

Bytes handshake_message(HandshakeType type, BytesView body) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(type));
  w.vec24(body);
  return w.buffer();
}

const Bytes& hrr_random() {
  static const Bytes kHrrRandom = crypto::sha256(
      BytesView{reinterpret_cast<const std::uint8_t*>("HelloRetryRequest"),
                17});
  return kHrrRandom;
}

const Bytes& ccs_payload() {
  static const Bytes kCcsPayload = {0x01};
  return kCcsPayload;
}

const Bytes& fatal_handshake_failure() {
  // AlertDescription handshake_failure(40), AlertLevel fatal(2).
  static const Bytes kFatalHandshakeFailure = {2, 40};
  return kFatalHandshakeFailure;
}

const Bytes& fatal_unexpected_message() {
  // AlertDescription unexpected_message(10), AlertLevel fatal(2) — the
  // RFC 8446 6.2 answer to a handshake message the rule table rejects.
  static const Bytes kFatalUnexpectedMessage = {2, 10};
  return kFatalUnexpectedMessage;
}

Bytes encode_client_hello(const ClientHello& hello) {
  Writer body;
  body.u16(kLegacyVersion);
  body.raw(hello.random);
  body.vec8(hello.session_id);
  {
    Writer suites;
    for (std::uint16_t suite : hello.cipher_suites) suites.u16(suite);
    body.vec16(suites.buffer());
  }
  body.vec8(Bytes{0});  // legacy_compression_methods

  Writer exts;
  {  // server_name
    Writer sni;
    Writer list;
    list.u8(0);  // host_name
    list.vec16(BytesView{
        reinterpret_cast<const std::uint8_t*>(hello.server_name.data()),
        hello.server_name.size()});
    sni.vec16(list.buffer());
    exts.u16(static_cast<std::uint16_t>(Extension::kServerName));
    exts.vec16(sni.buffer());
  }
  {  // supported_versions
    Writer sv;
    Writer versions;
    versions.u16(kTls13);
    sv.vec8(versions.buffer());
    exts.u16(static_cast<std::uint16_t>(Extension::kSupportedVersions));
    exts.vec16(sv.buffer());
  }
  {  // supported_groups
    Writer sg;
    Writer groups;
    for (std::uint16_t group : hello.supported_groups) groups.u16(group);
    sg.vec16(groups.buffer());
    exts.u16(static_cast<std::uint16_t>(Extension::kSupportedGroups));
    exts.vec16(sg.buffer());
  }
  {  // signature_algorithms
    Writer sa;
    Writer schemes;
    for (std::uint16_t scheme : hello.signature_schemes) schemes.u16(scheme);
    sa.vec16(schemes.buffer());
    exts.u16(static_cast<std::uint16_t>(Extension::kSignatureAlgorithms));
    exts.vec16(sa.buffer());
  }
  if (hello.has_key_share) {  // key_share (absent in PSK-only offers)
    Writer ks;
    Writer entries;
    entries.u16(hello.key_share_group);
    entries.vec16(hello.key_share);
    ks.vec16(entries.buffer());
    exts.u16(static_cast<std::uint16_t>(Extension::kKeyShare));
    exts.vec16(ks.buffer());
  }
  if (!hello.psk_modes.empty()) {  // psk_key_exchange_modes
    Writer pm;
    pm.vec8(hello.psk_modes);
    exts.u16(static_cast<std::uint16_t>(Extension::kPskKeyExchangeModes));
    exts.vec16(pm.buffer());
  }
  if (hello.early_data) {  // early_data (empty in a ClientHello)
    exts.u16(static_cast<std::uint16_t>(Extension::kEarlyData));
    exts.vec16({});
  }
  if (hello.offer_cert_compression) {  // compress_certificate (RFC 8879)
    Writer cc;
    Writer algs;
    algs.u16(kCertCompressionLz);
    cc.vec8(algs.buffer());
    exts.u16(static_cast<std::uint16_t>(Extension::kCompressCertificate));
    exts.vec16(cc.buffer());
  }
  if (hello.offer_merkle_cert) {  // merkle-tree certificate offer (empty)
    exts.u16(static_cast<std::uint16_t>(Extension::kMerkleCertOffer));
    exts.vec16({});
  }
  if (hello.has_psk) {  // pre_shared_key MUST be the last extension
    Writer psk;
    {
      Writer identities;
      identities.vec16(hello.psk_identity);
      identities.u32(hello.obfuscated_ticket_age);
      psk.vec16(identities.buffer());
    }
    {
      Writer binders;
      Bytes binder = hello.psk_binder;
      binder.resize(kPskBinderLen, 0);
      binders.vec8(binder);
      psk.vec16(binders.buffer());
    }
    exts.u16(static_cast<std::uint16_t>(Extension::kPreSharedKey));
    exts.vec16(psk.buffer());
  }
  body.vec16(exts.buffer());
  return handshake_message(HandshakeType::kClientHello, body.buffer());
}

std::optional<ClientHello> parse_client_hello(BytesView body) {
  Reader r(body);
  ClientHello out;
  r.u16();  // legacy_version
  out.random = r.raw(32);
  out.session_id = r.vec8();
  Bytes suites = r.vec16();
  r.vec8();  // legacy_compression_methods
  Bytes exts = r.vec16();
  if (r.failed() || suites.size() % 2 != 0) return std::nullopt;
  for (std::size_t i = 0; i + 1 < suites.size(); i += 2)
    out.cipher_suites.push_back(u16_at(suites, i));

  Reader er(exts);
  while (!er.done()) {
    std::uint16_t ext_type = er.u16();
    Bytes ext_data = er.vec16();
    if (er.failed()) return std::nullopt;
    switch (static_cast<Extension>(ext_type)) {
      case Extension::kServerName: {
        Reader sr(ext_data);
        Bytes list = sr.vec16();
        Reader lr(list);
        lr.u8();  // name_type host_name
        Bytes host = lr.vec16();
        if (sr.failed() || lr.failed()) return std::nullopt;
        out.server_name.assign(host.begin(), host.end());
        break;
      }
      case Extension::kSupportedGroups: {
        auto groups = parse_u16_list(ext_data);
        if (!groups) return std::nullopt;
        out.supported_groups = std::move(*groups);
        break;
      }
      case Extension::kSignatureAlgorithms: {
        auto schemes = parse_u16_list(ext_data);
        if (!schemes) return std::nullopt;
        out.signature_schemes = std::move(*schemes);
        break;
      }
      case Extension::kKeyShare: {
        Reader sr(ext_data);
        Bytes entries = sr.vec16();
        Reader entry(entries);  // first entry only (single-share clients)
        out.key_share_group = entry.u16();
        out.key_share = entry.vec16();
        if (sr.failed() || entry.failed()) return std::nullopt;
        out.has_key_share = true;
        break;
      }
      case Extension::kPskKeyExchangeModes: {
        Reader pr(ext_data);
        Bytes modes = pr.vec8();
        if (pr.failed() || !pr.done() || modes.empty()) return std::nullopt;
        out.psk_modes.assign(modes.begin(), modes.end());
        break;
      }
      case Extension::kEarlyData: {
        if (!ext_data.empty()) return std::nullopt;
        out.early_data = true;
        break;
      }
      case Extension::kCompressCertificate: {
        Reader cr(ext_data);
        Bytes algs = cr.vec8();
        if (cr.failed() || !cr.done() || algs.size() % 2 != 0 || algs.empty())
          return std::nullopt;
        // Offered only if the client lists the one algorithm we implement.
        for (std::size_t i = 0; i + 1 < algs.size(); i += 2)
          if (u16_at(algs, i) == kCertCompressionLz)
            out.offer_cert_compression = true;
        break;
      }
      case Extension::kMerkleCertOffer: {
        if (!ext_data.empty()) return std::nullopt;
        out.offer_merkle_cert = true;
        break;
      }
      case Extension::kPreSharedKey: {
        Reader pr(ext_data);
        Bytes identities = pr.vec16();
        Bytes binders = pr.vec16();
        if (pr.failed() || !pr.done()) return std::nullopt;
        Reader ir(identities);  // first identity only (single-ticket clients)
        out.psk_identity = ir.vec16();
        out.obfuscated_ticket_age = ir.u32();
        if (ir.failed()) return std::nullopt;
        Reader br(binders);
        out.psk_binder = br.vec8();
        if (br.failed() || out.psk_binder.size() != kPskBinderLen)
          return std::nullopt;
        out.has_psk = true;
        break;
      }
      default:
        break;  // unknown extensions are skipped (their bytes are consumed)
    }
  }
  return out;
}

Bytes encode_server_hello(const ServerHello& hello) {
  Writer body;
  body.u16(kLegacyVersion);
  body.raw(hello.retry_request ? hrr_random() : hello.random);
  body.vec8(hello.session_id);
  body.u16(hello.cipher_suite);
  body.u8(0);  // legacy_compression_method
  {
    Writer exts;
    {
      Writer sv;
      sv.u16(kTls13);
      exts.u16(static_cast<std::uint16_t>(Extension::kSupportedVersions));
      exts.vec16(sv.buffer());
    }
    if (hello.has_key_share) {
      Writer ks;
      ks.u16(hello.key_share_group);
      if (!hello.retry_request) ks.vec16(hello.key_share);
      exts.u16(static_cast<std::uint16_t>(Extension::kKeyShare));
      exts.vec16(ks.buffer());
    }
    if (hello.psk_accepted) {
      Writer psk;
      psk.u16(0);  // selected_identity: single-ticket clients offer one
      exts.u16(static_cast<std::uint16_t>(Extension::kPreSharedKey));
      exts.vec16(psk.buffer());
    }
    body.vec16(exts.buffer());
  }
  return handshake_message(HandshakeType::kServerHello, body.buffer());
}

std::optional<ServerHello> parse_server_hello(BytesView body) {
  Reader r(body);
  ServerHello out;
  r.u16();  // legacy_version
  out.random = r.raw(32);
  out.session_id = r.vec8();
  out.cipher_suite = r.u16();
  r.u8();  // legacy_compression_method
  Bytes exts = r.vec16();
  if (r.failed()) return std::nullopt;
  out.retry_request = out.random == hrr_random();
  out.has_key_share = false;

  Reader er(exts);
  while (!er.done()) {
    std::uint16_t ext_type = er.u16();
    Bytes ext_data = er.vec16();
    if (er.failed()) return std::nullopt;
    switch (static_cast<Extension>(ext_type)) {
      case Extension::kKeyShare:
        if (out.retry_request) {
          // HelloRetryRequest carries the demanded group only, no key.
          if (ext_data.size() != 2) return std::nullopt;
          out.key_share_group = u16_at(ext_data, 0);
        } else {
          Reader kr(ext_data);
          out.key_share_group = kr.u16();
          out.key_share = kr.vec16();
          if (kr.failed() || !kr.done()) return std::nullopt;
        }
        out.has_key_share = true;
        break;
      case Extension::kPreSharedKey:
        // selected_identity; we only ever offer one, which must be chosen.
        if (ext_data.size() != 2 || u16_at(ext_data, 0) != 0)
          return std::nullopt;
        out.psk_accepted = true;
        break;
      default:
        break;
    }
  }
  return out;
}

Bytes encode_encrypted_extensions(const EncryptedExtensions& ee) {
  Writer w;
  Writer exts;
  if (ee.early_data) {
    exts.u16(static_cast<std::uint16_t>(Extension::kEarlyData));
    exts.vec16({});
  }
  w.vec16(exts.buffer());
  return handshake_message(HandshakeType::kEncryptedExtensions, w.buffer());
}

std::optional<EncryptedExtensions> parse_encrypted_extensions(BytesView body) {
  Reader r(body);
  Bytes exts = r.vec16();
  if (r.failed()) return std::nullopt;
  EncryptedExtensions out;
  Reader er(exts);
  while (!er.done()) {
    std::uint16_t ext_type = er.u16();
    Bytes ext_data = er.vec16();
    if (er.failed()) return std::nullopt;
    if (static_cast<Extension>(ext_type) == Extension::kEarlyData) {
      if (!ext_data.empty()) return std::nullopt;
      out.early_data = true;
    }
  }
  return out;
}

Bytes encode_new_session_ticket(const NewSessionTicket& nst) {
  Writer w;
  w.u32(nst.lifetime_s);
  w.u32(nst.age_add);
  w.vec8(nst.nonce);
  w.vec16(nst.ticket);
  Writer exts;
  if (nst.max_early_data > 0) {
    Writer ed;
    ed.u32(nst.max_early_data);
    exts.u16(static_cast<std::uint16_t>(Extension::kEarlyData));
    exts.vec16(ed.buffer());
  }
  w.vec16(exts.buffer());
  return handshake_message(HandshakeType::kNewSessionTicket, w.buffer());
}

std::optional<NewSessionTicket> parse_new_session_ticket(BytesView body) {
  Reader r(body);
  NewSessionTicket out;
  out.lifetime_s = r.u32();
  out.age_add = r.u32();
  out.nonce = r.vec8();
  out.ticket = r.vec16();
  Bytes exts = r.vec16();
  if (r.failed() || !r.done() || out.ticket.empty()) return std::nullopt;
  Reader er(exts);
  while (!er.done()) {
    std::uint16_t ext_type = er.u16();
    Bytes ext_data = er.vec16();
    if (er.failed()) return std::nullopt;
    if (static_cast<Extension>(ext_type) == Extension::kEarlyData) {
      if (ext_data.size() != 4) return std::nullopt;
      Reader dr(ext_data);
      out.max_early_data = dr.u32();
    }
  }
  return out;
}

Bytes encode_end_of_early_data() {
  return handshake_message(HandshakeType::kEndOfEarlyData, {});
}

Bytes encode_certificate(const pki::CertificateChain& chain) {
  Writer cert;
  cert.vec8({});  // certificate_request_context
  {
    Writer list;
    for (const auto& c : chain.certificates) {
      list.vec24(c.encode());
      list.vec16({});  // per-certificate extensions
    }
    cert.vec24(list.buffer());
  }
  return handshake_message(HandshakeType::kCertificate, cert.buffer());
}

std::optional<pki::CertificateChain> parse_certificate(BytesView body) {
  Reader r(body);
  r.vec8();  // certificate_request_context
  Bytes list = r.vec24();
  if (r.failed()) return std::nullopt;
  pki::CertificateChain chain;
  Reader lr(list);
  while (!lr.done()) {
    Bytes cert_data = lr.vec24();
    lr.vec16();  // extensions
    if (lr.failed()) return std::nullopt;
    auto cert = pki::Certificate::decode(cert_data);
    if (!cert) return std::nullopt;
    chain.certificates.push_back(std::move(*cert));
  }
  return chain;
}

Bytes encode_compressed_certificate(const CompressedCertificate& cc) {
  Writer w;
  w.u16(cc.algorithm);
  w.u24(cc.uncompressed_length);
  w.vec24(cc.compressed);
  return handshake_message(HandshakeType::kCompressedCertificate, w.buffer());
}

std::optional<CompressedCertificate> parse_compressed_certificate(
    BytesView body) {
  Reader r(body);
  CompressedCertificate cc;
  cc.algorithm = r.u16();
  cc.uncompressed_length = r.u24();
  cc.compressed = r.vec24();
  if (r.failed() || !r.done()) return std::nullopt;
  if (cc.uncompressed_length == 0 ||
      cc.uncompressed_length > kMaxUncompressedCertificate)
    return std::nullopt;
  return cc;
}

Bytes encode_merkle_certificate(const MerkleCertificate& mc) {
  Writer w;
  w.vec24(mc.leaf_certificate);
  w.vec16(mc.proof);
  return handshake_message(HandshakeType::kMerkleCertificate, w.buffer());
}

std::optional<MerkleCertificate> parse_merkle_certificate(BytesView body) {
  Reader r(body);
  MerkleCertificate mc;
  mc.leaf_certificate = r.vec24();
  mc.proof = r.vec16();
  if (r.failed() || !r.done() || mc.leaf_certificate.empty())
    return std::nullopt;
  return mc;
}

Bytes encode_certificate_verify(const CertificateVerify& cv) {
  Writer w;
  w.u16(cv.scheme);
  w.vec16(cv.signature);
  return handshake_message(HandshakeType::kCertificateVerify, w.buffer());
}

std::optional<CertificateVerify> parse_certificate_verify(BytesView body) {
  Reader r(body);
  CertificateVerify cv;
  cv.scheme = r.u16();
  cv.signature = r.vec16();
  if (r.failed()) return std::nullopt;
  return cv;
}

Bytes encode_finished(BytesView verify_data) {
  return handshake_message(HandshakeType::kFinished, verify_data);
}

Bytes certificate_verify_content(BytesView transcript_hash) {
  Bytes out(64, 0x20);
  static constexpr char kContext[] = "TLS 1.3, server CertificateVerify";
  append(out, BytesView{reinterpret_cast<const std::uint8_t*>(kContext),
                        sizeof(kContext) - 1});
  out.push_back(0);
  append(out, transcript_hash);
  return out;
}

// CT_SECRET: secret_key -- caller-owned signing-key view, wiped by its owner
Bytes sign_certificate_verify(const sig::Signer& sa,
                              const sig::SigningKey& leaf_key,
                              BytesView transcript_hash, sig::Drbg& rng) {
  return sa.sign_with(leaf_key, certificate_verify_content(transcript_hash),
                      rng);
}

bool verify_certificate_verify(const sig::Signer& sa, BytesView public_key,
                               BytesView transcript_hash,
                               BytesView signature) {
  return sa.verify(public_key, certificate_verify_content(transcript_hash),
                   signature);
}

}  // namespace pqtls::tls
