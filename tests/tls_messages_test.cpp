// Codec robustness tests for the shared handshake-message layer
// (tls/messages.hpp): round-trips through every encoder/parser pair, then
// malformed inputs — truncated length prefixes, overlong vectors, unknown
// handshake types, zero-length key shares — which must come back as parse
// errors (nullopt / false / connection failure), never out-of-bounds reads.
// CI runs the whole suite under ASan+UBSan, so any OOB access aborts.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "crypto/catalog.hpp"
#include "crypto/drbg.hpp"
#include "tls/connection.hpp"
#include "tls/messages.hpp"
#include "tls/record_layer.hpp"
#include "tls/server_context.hpp"
#include "tls/wire.hpp"

namespace pqtls::tls {
namespace {

using crypto::AlgorithmCatalog;
using crypto::Drbg;

BytesView body_of(const Bytes& message) {
  // Strip the 4-byte handshake header (type + u24 length).
  return BytesView{message.data() + 4, message.size() - 4};
}

ClientHello sample_client_hello() {
  Drbg rng(0xC0DEC);
  const AlgorithmCatalog& catalog = AlgorithmCatalog::instance();
  const kem::Kem* ka = catalog.require_kem("kyber512").kem;
  const sig::Signer* sa = catalog.require_signer("dilithium2").signer;
  ClientHello hello;
  hello.random = rng.bytes(32);
  hello.session_id = rng.bytes(32);
  hello.cipher_suites = {kAes128GcmSha256};
  hello.server_name = "pqtls-bench.example.net";
  hello.supported_groups = {group_id(*ka),
                            group_id(*catalog.require_kem("x25519").kem)};
  hello.signature_schemes = {scheme_id(*sa)};
  hello.key_share_group = group_id(*ka);
  hello.key_share = rng.bytes(ka->public_key_size());
  hello.has_key_share = true;
  return hello;
}

// Minimal ClientHello body carrying exactly one extension, so a test can
// inject a crafted extension payload without hand-writing the whole hello.
Bytes client_hello_with_extension(std::uint16_t ext_type, BytesView ext_data) {
  Drbg rng(0xBAD);
  Writer body;
  body.u16(kLegacyVersion);
  body.raw(rng.bytes(32));
  body.vec8({});  // empty session_id
  Writer suites;
  suites.u16(kAes128GcmSha256);
  body.vec16(suites.buffer());
  body.vec8(Bytes{0});  // legacy_compression_methods
  Writer exts;
  exts.u16(ext_type);
  exts.vec16(ext_data);
  body.vec16(exts.buffer());
  return body.buffer();
}

TEST(TlsMessages, ClientHelloRoundTrip) {
  ClientHello hello = sample_client_hello();
  Bytes msg = encode_client_hello(hello);
  ASSERT_EQ(msg[0], static_cast<std::uint8_t>(HandshakeType::kClientHello));
  auto parsed = parse_client_hello(body_of(msg));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->random, hello.random);
  EXPECT_EQ(parsed->session_id, hello.session_id);
  EXPECT_EQ(parsed->cipher_suites, hello.cipher_suites);
  EXPECT_EQ(parsed->server_name, hello.server_name);
  EXPECT_EQ(parsed->supported_groups, hello.supported_groups);
  EXPECT_EQ(parsed->signature_schemes, hello.signature_schemes);
  EXPECT_EQ(parsed->key_share_group, hello.key_share_group);
  EXPECT_EQ(parsed->key_share, hello.key_share);
  EXPECT_TRUE(parsed->has_key_share);
}

TEST(TlsMessages, ServerHelloRoundTrip) {
  Drbg rng(0x5E11);
  const kem::Kem* ka = AlgorithmCatalog::instance().require_kem("kyber512").kem;
  ServerHello hello;
  hello.random = rng.bytes(32);
  hello.session_id = rng.bytes(32);
  hello.cipher_suite = kAes128GcmSha256;
  hello.key_share_group = group_id(*ka);
  hello.key_share = rng.bytes(ka->ciphertext_size());
  Bytes msg = encode_server_hello(hello);
  auto parsed = parse_server_hello(body_of(msg));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->retry_request);
  EXPECT_EQ(parsed->random, hello.random);
  EXPECT_EQ(parsed->cipher_suite, hello.cipher_suite);
  EXPECT_EQ(parsed->key_share_group, hello.key_share_group);
  EXPECT_EQ(parsed->key_share, hello.key_share);
}

TEST(TlsMessages, HelloRetryRequestRoundTrip) {
  Drbg rng(0x4242);
  ServerHello hrr;
  hrr.retry_request = true;
  hrr.session_id = rng.bytes(32);
  hrr.cipher_suite = kAes128GcmSha256;
  hrr.key_share_group = 0x0103;
  Bytes msg = encode_server_hello(hrr);
  auto parsed = parse_server_hello(body_of(msg));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->retry_request);
  EXPECT_EQ(parsed->random, hrr_random());
  EXPECT_EQ(parsed->key_share_group, 0x0103);
  EXPECT_TRUE(parsed->key_share.empty());
}

TEST(TlsMessages, CertificateAndVerifyRoundTrip) {
  const AlgorithmCatalog& catalog = AlgorithmCatalog::instance();
  const sig::Signer& sa = *catalog.require_signer("falcon512").signer;
  const kem::Kem& ka = *catalog.require_kem("x25519").kem;
  const ServerContext& context = server_context(ka, sa, 0xFEED);

  Bytes cert_msg = encode_certificate(context.chain);
  auto chain = parse_certificate(body_of(cert_msg));
  ASSERT_TRUE(chain.has_value());
  ASSERT_EQ(chain->certificates.size(), context.chain.certificates.size());
  EXPECT_EQ(chain->certificates[0].encode(),
            context.chain.certificates[0].encode());

  Drbg rng(7);
  Bytes transcript(32, 0xAB);
  CertificateVerify cv;
  cv.scheme = scheme_id(sa);
  cv.signature =
      sign_certificate_verify(sa, *context.leaf_key, transcript, rng);
  Bytes cv_msg = encode_certificate_verify(cv);
  auto parsed = parse_certificate_verify(body_of(cv_msg));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->scheme, cv.scheme);
  EXPECT_TRUE(verify_certificate_verify(
      sa, context.chain.certificates[0].subject_public_key, transcript,
      parsed->signature));
  // Flipping a transcript bit must break verification.
  transcript[0] ^= 1;
  EXPECT_FALSE(verify_certificate_verify(
      sa, context.chain.certificates[0].subject_public_key, transcript,
      parsed->signature));
}

TEST(TlsMessages, CertificateVerifyContentLayout) {
  Bytes hash(32, 0xCD);
  Bytes content = certificate_verify_content(hash);
  static constexpr char kContext[] = "TLS 1.3, server CertificateVerify";
  ASSERT_EQ(content.size(), 64 + sizeof(kContext) - 1 + 1 + hash.size());
  for (int i = 0; i < 64; ++i) EXPECT_EQ(content[i], 0x20);
  EXPECT_EQ(content[64 + sizeof(kContext) - 1], 0u);
  EXPECT_TRUE(std::equal(hash.begin(), hash.end(),
                         content.end() - static_cast<long>(hash.size())));
}

TEST(TlsMessages, GroupAndSchemeIdsRoundTripEveryCatalogEntry) {
  const AlgorithmCatalog& catalog = AlgorithmCatalog::instance();
  for (const auto& info : catalog.kems())
    EXPECT_EQ(group_by_id(group_id(*info.kem)), info.kem) << info.name;
  for (const auto& info : catalog.signers())
    EXPECT_EQ(scheme_by_id(scheme_id(*info.signer)), info.signer) << info.name;
  EXPECT_EQ(group_by_id(0x01ff), nullptr);
  EXPECT_EQ(scheme_by_id(0x02ff), nullptr);
}

// Every strict prefix of a valid message must fail to parse — a truncated
// length prefix or vector can never be silently accepted or read past the
// end of the buffer.
TEST(TlsMessages, TruncatedPrefixesNeverParse) {
  Bytes ch = encode_client_hello(sample_client_hello());
  BytesView ch_body = body_of(ch);
  for (std::size_t len = 0; len < ch_body.size(); ++len)
    EXPECT_FALSE(parse_client_hello(ch_body.first(len)).has_value())
        << "client_hello prefix " << len;

  Drbg rng(0x7A);
  const kem::Kem* ka = AlgorithmCatalog::instance().require_kem("kyber512").kem;
  ServerHello sh;
  sh.random = rng.bytes(32);
  sh.session_id = rng.bytes(32);
  sh.cipher_suite = kAes128GcmSha256;
  sh.key_share_group = group_id(*ka);
  sh.key_share = rng.bytes(ka->ciphertext_size());
  Bytes sh_msg = encode_server_hello(sh);
  BytesView sh_body = body_of(sh_msg);
  for (std::size_t len = 0; len < sh_body.size(); ++len)
    EXPECT_FALSE(parse_server_hello(sh_body.first(len)).has_value())
        << "server_hello prefix " << len;

  const sig::Signer& sa =
      *AlgorithmCatalog::instance().require_signer("dilithium2").signer;
  const ServerContext& context =
      server_context(*ka, sa, 0xFEED);
  Bytes cert = encode_certificate(context.chain);
  BytesView cert_body = body_of(cert);
  for (std::size_t len = 0; len < cert_body.size(); ++len)
    EXPECT_FALSE(parse_certificate(cert_body.first(len)).has_value())
        << "certificate prefix " << len;

  CertificateVerify cv{scheme_id(sa), rng.bytes(64)};
  Bytes cv_msg = encode_certificate_verify(cv);
  BytesView cv_body = body_of(cv_msg);
  for (std::size_t len = 0; len < cv_body.size(); ++len)
    EXPECT_FALSE(parse_certificate_verify(cv_body.first(len)).has_value())
        << "certificate_verify prefix " << len;

  Bytes ee = encode_encrypted_extensions();
  BytesView ee_body = body_of(ee);
  for (std::size_t len = 0; len < ee_body.size(); ++len)
    EXPECT_FALSE(parse_encrypted_extensions(ee_body.first(len)))
        << "encrypted_extensions prefix " << len;
}

TEST(TlsMessages, OverlongVectorsRejected) {
  // session_id length byte claims 0xFF but only 4 bytes follow.
  Writer body;
  body.u16(kLegacyVersion);
  body.raw(Bytes(32, 0x11));
  body.u8(0xFF);
  body.raw(Bytes(4, 0x22));
  EXPECT_FALSE(parse_client_hello(body.buffer()).has_value());

  // supported_groups list whose inner vec16 claims more than the extension
  // holds.
  Writer groups;
  groups.u16(64);          // inner list length: 64 bytes...
  groups.raw(Bytes(2, 0));  // ...but only 2 present
  EXPECT_FALSE(parse_client_hello(client_hello_with_extension(
                   static_cast<std::uint16_t>(Extension::kSupportedGroups),
                   groups.buffer()))
                   .has_value());

  // Odd-length u16 list (cannot fill its prefix with whole codepoints).
  Writer odd;
  odd.vec16(Bytes(3, 0));
  EXPECT_FALSE(parse_client_hello(client_hello_with_extension(
                   static_cast<std::uint16_t>(Extension::kSignatureAlgorithms),
                   odd.buffer()))
                   .has_value());

  // key_share entry whose share length overruns the entry list.
  Writer ks;
  Writer entries;
  entries.u16(0x0100);
  entries.u16(100);         // share length: 100 bytes...
  entries.raw(Bytes(3, 0));  // ...but only 3 present
  ks.vec16(entries.buffer());
  EXPECT_FALSE(parse_client_hello(client_hello_with_extension(
                   static_cast<std::uint16_t>(Extension::kKeyShare),
                   ks.buffer()))
                   .has_value());
}

TEST(TlsMessages, ZeroLengthKeyShareRejected) {
  // Empty extension data: no client_shares vector at all.
  EXPECT_FALSE(parse_client_hello(
                   client_hello_with_extension(
                       static_cast<std::uint16_t>(Extension::kKeyShare), {}))
                   .has_value());
  // Present but empty client_shares vector: no entry to read.
  Writer empty_list;
  empty_list.vec16({});
  EXPECT_FALSE(parse_client_hello(client_hello_with_extension(
                   static_cast<std::uint16_t>(Extension::kKeyShare),
                   empty_list.buffer()))
                   .has_value());
}

TEST(TlsMessages, ZeroLengthShareValueFailsHandshake) {
  // A syntactically well-formed key_share whose share value is empty parses
  // (the codec does not know key sizes) but must fail the handshake when the
  // server tries to encapsulate against it: one fatal alert, no ServerHello.
  ClientHello hello = sample_client_hello();
  hello.key_share.clear();
  Bytes msg = encode_client_hello(hello);
  auto parsed = parse_client_hello(body_of(msg));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->has_key_share);
  EXPECT_TRUE(parsed->key_share.empty());

  const AlgorithmCatalog& catalog = AlgorithmCatalog::instance();
  const kem::Kem& ka = *catalog.require_kem("kyber512").kem;
  const sig::Signer& sa = *catalog.require_signer("dilithium2").signer;
  const ServerContext& context = server_context(ka, sa, 0xFEED);
  ServerConnection server(context.server_config(), Drbg(2));
  RecordLayer plaintext;
  std::vector<Bytes> flights;
  server.on_data(plaintext.seal(ContentType::kHandshake, msg),
                 [&](BytesView d) { flights.emplace_back(d.begin(), d.end()); });
  EXPECT_TRUE(server.failed());
  ASSERT_EQ(flights.size(), 1u);
  EXPECT_EQ(flights[0][0], static_cast<std::uint8_t>(ContentType::kAlert));
}

TEST(TlsMessages, UnknownHandshakeTypeDrawsClientAlert) {
  const AlgorithmCatalog& catalog = AlgorithmCatalog::instance();
  const kem::Kem& ka = *catalog.require_kem("x25519").kem;
  const sig::Signer& sa = *catalog.require_signer("dilithium2").signer;
  const ServerContext& context = server_context(ka, sa, 0xFEED);
  ClientConnection client(context.client_config(), Drbg(1));
  client.start([](BytesView) {});

  Bytes bogus = handshake_message(static_cast<HandshakeType>(99), Bytes(8, 0));
  RecordLayer plaintext;
  std::vector<Bytes> flights;
  client.on_data(plaintext.seal(ContentType::kHandshake, bogus),
                 [&](BytesView d) { flights.emplace_back(d.begin(), d.end()); });
  EXPECT_TRUE(client.failed());
  // Client failure policy: a rule-table miss draws one fatal
  // unexpected_message alert record (RFC 8446 6.2).
  ASSERT_EQ(flights.size(), 1u);
  EXPECT_EQ(flights[0][0], static_cast<std::uint8_t>(ContentType::kAlert));
  Bytes alert_body(flights[0].end() - 2, flights[0].end());
  EXPECT_EQ(alert_body, fatal_unexpected_message());
}

TEST(TlsMessages, UnknownExtensionsAreSkipped) {
  ClientHello hello = sample_client_hello();
  Bytes msg = encode_client_hello(hello);
  // Append an unknown extension inside the extensions block: rebuild the
  // body with extra bytes spliced into the exts vector.
  BytesView body = body_of(msg);
  // extensions vec16 is the final field; splice an unknown ext before it
  // ends by rewriting the two length bytes.
  Bytes patched(body.begin(), body.end());
  Writer unknown;
  unknown.u16(0xFFAA);
  unknown.vec16(Bytes(5, 0x77));
  std::size_t exts_len_at = patched.size();
  // Find the exts length prefix: it is body minus the exts payload; easier
  // to recompute — parse original to find where exts start.
  // The last field layout is [len_hi len_lo exts...]; extend in place:
  std::uint16_t old_len = 0;
  {
    // Walk the fixed prefix: version(2) random(32) sid(1+n) suites(2+n)
    // comp(1+n) exts(2+...).
    Reader r(body);
    r.u16();
    r.raw(32);
    r.vec8();
    r.vec16();
    r.vec8();
    exts_len_at = body.size() - r.remaining();
    old_len = r.u16();
  }
  append(patched, unknown.buffer());
  std::uint16_t new_len =
      static_cast<std::uint16_t>(old_len + unknown.buffer().size());
  patched[exts_len_at] = static_cast<std::uint8_t>(new_len >> 8);
  patched[exts_len_at + 1] = static_cast<std::uint8_t>(new_len);
  auto parsed = parse_client_hello(patched);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->key_share, hello.key_share);
  EXPECT_EQ(parsed->server_name, hello.server_name);
}

TEST(TlsMessages, EncryptedExtensionsStrictInnerFraming) {
  EXPECT_TRUE(parse_encrypted_extensions(body_of(encode_encrypted_extensions())));
  // An extension header whose data length overruns the block must fail.
  Writer bad;
  Writer exts;
  exts.u16(0x000A);
  exts.u16(40);  // claims 40 bytes, none follow
  bad.vec16(exts.buffer());
  EXPECT_FALSE(parse_encrypted_extensions(bad.buffer()));
}

}  // namespace
}  // namespace pqtls::tls
