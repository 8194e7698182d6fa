// TLS 1.3 handshake tests: key schedule, record layer, and full client/server
// handshakes across representative KA x SA combinations and both buffering
// modes.
#include <gtest/gtest.h>

#include "kem/kem.hpp"
#include "pki/certificate.hpp"
#include "sig/sig.hpp"
#include "tls/connection.hpp"

namespace pqtls::tls {
namespace {

using crypto::Drbg;

TEST(KeySchedule, HkdfExpandLabelShape) {
  Bytes secret(32, 0x0b);
  Bytes out = hkdf_expand_label(secret, "key", {}, 16);
  EXPECT_EQ(out.size(), 16u);
  Bytes out2 = hkdf_expand_label(secret, "iv", {}, 12);
  EXPECT_EQ(out2.size(), 12u);
  EXPECT_NE(to_hex(out), to_hex(Bytes(16, 0)));
}

TEST(RecordLayerTest, PlaintextRoundTrip) {
  RecordLayer a, b;
  Bytes payload = {1, 2, 3, 4, 5};
  Bytes wire = a.seal(ContentType::kHandshake, payload);
  b.feed(wire);
  auto rec = b.pop();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->type, ContentType::kHandshake);
  EXPECT_EQ(rec->payload, payload);
  EXPECT_FALSE(b.pop().has_value());
}

TEST(RecordLayerTest, EncryptedRoundTripAndTamper) {
  TrafficKeys keys{Bytes(16, 0x42), Bytes(12, 0x17)};
  RecordLayer a, b;
  a.set_write_keys(keys);
  b.set_read_keys(keys);
  Bytes payload(100, 0xEE);
  Bytes wire = a.seal(ContentType::kHandshake, payload);
  b.feed(wire);
  auto rec = b.pop();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->type, ContentType::kHandshake);
  EXPECT_EQ(rec->payload, payload);

  Bytes wire2 = a.seal(ContentType::kHandshake, payload);
  wire2[10] ^= 1;
  b.feed(wire2);
  EXPECT_FALSE(b.pop().has_value());
  EXPECT_TRUE(b.failed());
}

TEST(RecordLayerTest, FragmentsLargePayloads) {
  RecordLayer a, b;
  Bytes payload(40000, 0xAB);  // SPHINCS+-sized certificate message
  Bytes wire = a.seal(ContentType::kHandshake, payload);
  b.feed(wire);
  Bytes reassembled;
  while (auto rec = b.pop()) {
    EXPECT_EQ(rec->type, ContentType::kHandshake);
    append(reassembled, rec->payload);
  }
  EXPECT_EQ(reassembled, payload);
}

TEST(RecordLayerTest, PartialFeedReassembly) {
  RecordLayer a, b;
  Bytes payload(300, 0x77);
  Bytes wire = a.seal(ContentType::kHandshake, payload);
  // Feed byte by byte.
  for (std::size_t i = 0; i < wire.size(); ++i) {
    b.feed(BytesView{wire.data() + i, 1});
    if (i + 1 < wire.size()) {
      EXPECT_FALSE(b.pop().has_value());
    }
  }
  auto rec = b.pop();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->payload, payload);
}

// ---- full handshakes ----

struct HandshakeSetup {
  ServerConfig server;
  ClientConfig client;
};

HandshakeSetup make_setup(const std::string& ka_name,
                          const std::string& sa_name, Buffering buffering) {
  const kem::Kem* ka = kem::find_kem(ka_name);
  const sig::Signer* sa = sig::find_signer(sa_name);
  EXPECT_NE(ka, nullptr) << ka_name;
  EXPECT_NE(sa, nullptr) << sa_name;

  Drbg rng(0x7157 + std::hash<std::string>{}(ka_name + sa_name));
  auto ca = pki::make_root_ca(*sa, "pqtls-bench root", rng);
  sig::SigKeyPair leaf_kp = sa->generate_keypair(rng);
  pki::Certificate leaf = pki::issue_certificate(
      ca, "pqtls-bench server", sa->name(), leaf_kp.public_key, rng);

  HandshakeSetup setup;
  setup.server.ka = ka;
  setup.server.sa = sa;
  setup.server.chain.certificates = {leaf, ca.certificate};
  setup.server.leaf_key = sa->load_signing_key(leaf_kp.secret_key);
  setup.server.buffering = buffering;
  setup.client.ka = ka;
  setup.client.sa = sa;
  setup.client.root = pki::TrustAnchor(ca.certificate);
  return setup;
}

// Run a full in-memory handshake; returns {client_bytes, server_bytes,
// server_flights}.
struct HandshakeResult {
  bool ok = false;
  std::size_t client_bytes = 0;
  std::size_t server_bytes = 0;
  int server_flights = 0;
};

HandshakeResult run_handshake(const HandshakeSetup& setup,
                              std::uint64_t seed = 1) {
  ClientConnection client(setup.client, Drbg(seed));
  ServerConnection server(setup.server, Drbg(seed + 1));
  HandshakeResult result;

  std::vector<Bytes> to_server, to_client;
  client.start([&](BytesView d) {
    to_server.emplace_back(d.begin(), d.end());
    result.client_bytes += d.size();
  });
  // Pump until quiescent.
  for (int round = 0; round < 20; ++round) {
    bool progress = false;
    for (auto& flight : to_server) {
      server.on_data(flight, [&](BytesView d) {
        to_client.emplace_back(d.begin(), d.end());
        result.server_bytes += d.size();
        ++result.server_flights;
      });
      progress = true;
    }
    to_server.clear();
    for (auto& flight : to_client) {
      client.on_data(flight, [&](BytesView d) {
        to_server.emplace_back(d.begin(), d.end());
        result.client_bytes += d.size();
      });
      progress = true;
    }
    to_client.clear();
    if (!progress) break;
  }
  result.ok = client.handshake_complete() && server.handshake_complete() &&
              !client.failed() && !server.failed();
  return result;
}

struct HandshakeCase {
  const char* ka;
  const char* sa;
};

class TlsHandshakeTest : public ::testing::TestWithParam<HandshakeCase> {};

TEST_P(TlsHandshakeTest, CompletesInBothBufferingModes) {
  const auto& param = GetParam();
  for (Buffering mode : {Buffering::kImmediate, Buffering::kDefault}) {
    auto setup = make_setup(param.ka, param.sa, mode);
    HandshakeResult result = run_handshake(setup);
    EXPECT_TRUE(result.ok) << param.ka << " + " << param.sa << " mode "
                           << static_cast<int>(mode);
    EXPECT_GT(result.client_bytes, 0u);
    EXPECT_GT(result.server_bytes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Combos, TlsHandshakeTest,
    ::testing::Values(HandshakeCase{"x25519", "rsa:2048"},
                      HandshakeCase{"x25519", "rsa:1024"},
                      HandshakeCase{"kyber512", "dilithium2"},
                      HandshakeCase{"kyber768", "dilithium3"},
                      HandshakeCase{"kyber1024", "dilithium5"},
                      HandshakeCase{"hqc128", "falcon512"},
                      HandshakeCase{"bikel1", "dilithium2"},
                      HandshakeCase{"p256", "falcon512"},
                      HandshakeCase{"x25519", "sphincs128"},
                      HandshakeCase{"p256_kyber512", "p256_dilithium2"},
                      HandshakeCase{"p384_kyber768", "p384_dilithium3"},
                      HandshakeCase{"kyber90s512", "dilithium2_aes"}),
    [](const auto& info) {
      std::string name = std::string(info.param.ka) + "_with_" + info.param.sa;
      for (char& c : name)
        if (c == ':') c = '_';
      return name;
    });

TEST(TlsHandshake, ImmediateModeSendsMoreFlights) {
  // rsa:1024 messages all fit the 4096 B buffer, so default mode batches the
  // full server flight while immediate mode pushes three.
  auto imm = make_setup("x25519", "rsa:1024", Buffering::kImmediate);
  auto def = make_setup("x25519", "rsa:1024", Buffering::kDefault);
  HandshakeResult r_imm = run_handshake(imm);
  HandshakeResult r_def = run_handshake(def);
  ASSERT_TRUE(r_imm.ok);
  ASSERT_TRUE(r_def.ok);
  EXPECT_GT(r_imm.server_flights, r_def.server_flights);
}

TEST(TlsHandshake, DefaultModeFlushesEarlyWhenBufferOverflows) {
  // dilithium2's certificate chain (~7 kB) exceeds the 4096 B buffer, so the
  // SH must be pushed early even in default mode: more than one flight.
  auto setup = make_setup("x25519", "dilithium2", Buffering::kDefault);
  HandshakeResult result = run_handshake(setup);
  ASSERT_TRUE(result.ok);
  EXPECT_GE(result.server_flights, 2);

  // rsa:1024's messages all fit: exactly one flight.
  auto small = make_setup("x25519", "rsa:1024", Buffering::kDefault);
  HandshakeResult r_small = run_handshake(small);
  ASSERT_TRUE(r_small.ok);
  EXPECT_EQ(r_small.server_flights, 1);
}

TEST(TlsHandshake, WrongRootCaFailsVerification) {
  auto setup = make_setup("kyber512", "dilithium2", Buffering::kImmediate);
  // Swap the client's trust anchor for an unrelated CA.
  Drbg rng(999);
  auto other_ca =
      pki::make_root_ca(*sig::find_signer("dilithium2"), "evil root", rng);
  setup.client.root = pki::TrustAnchor(other_ca.certificate);
  HandshakeResult result = run_handshake(setup);
  EXPECT_FALSE(result.ok);
}

TEST(TlsHandshake, MismatchedGroupFails) {
  auto setup = make_setup("kyber512", "dilithium2", Buffering::kImmediate);
  setup.client.ka = kem::find_kem("kyber768");  // server expects kyber512
  HandshakeResult result = run_handshake(setup);
  EXPECT_FALSE(result.ok);
}

}  // namespace
}  // namespace pqtls::tls
