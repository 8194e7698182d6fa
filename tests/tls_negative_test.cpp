// TLS negative-path and robustness tests: corrupted records, truncated
// streams, downgrade attempts, replay — the handshake must fail cleanly
// (no crash, no completion) whatever bytes arrive.
#include <gtest/gtest.h>

#include "tls/connection.hpp"
#include "tls/key_schedule.hpp"

namespace pqtls::tls {
namespace {

using crypto::Drbg;

struct Pair {
  ServerConfig server;
  ClientConfig client;
};

Pair make_pair(const std::string& ka = "kyber512",
               const std::string& sa = "dilithium2") {
  const sig::Signer* signer = sig::find_signer(sa);
  Drbg rng(0xDEAD);
  auto ca = pki::make_root_ca(*signer, "neg root", rng);
  auto leaf_kp = signer->generate_keypair(rng);
  auto leaf = pki::issue_certificate(ca, "neg server", signer->name(),
                                     leaf_kp.public_key, rng);
  Pair p;
  p.server.ka = kem::find_kem(ka);
  p.server.sa = signer;
  p.server.chain.certificates = {leaf};
  p.server.leaf_key = signer->load_signing_key(leaf_kp.secret_key);
  p.client.ka = kem::find_kem(ka);
  p.client.sa = signer;
  p.client.root = pki::TrustAnchor(ca.certificate);
  return p;
}

// Drive a handshake where every server->client flight is transformed by
// `mutate` (byte position relative to the concatenated server stream).
bool run_with_mutation(Pair& p, std::size_t flip_at) {
  ClientConnection client(p.client, Drbg(1));
  ServerConnection server(p.server, Drbg(2));
  std::vector<Bytes> to_server, to_client;
  std::size_t server_stream_pos = 0;
  client.start([&](BytesView d) { to_server.emplace_back(d.begin(), d.end()); });
  for (int round = 0; round < 16; ++round) {
    bool progress = !to_server.empty() || !to_client.empty();
    for (auto& f : to_server)
      server.on_data(f, [&](BytesView d) {
        Bytes copy(d.begin(), d.end());
        if (flip_at >= server_stream_pos &&
            flip_at < server_stream_pos + copy.size())
          copy[flip_at - server_stream_pos] ^= 0x01;
        server_stream_pos += copy.size();
        to_client.push_back(std::move(copy));
      });
    to_server.clear();
    for (auto& f : to_client)
      client.on_data(f, [&](BytesView d) {
        to_server.emplace_back(d.begin(), d.end());
      });
    to_client.clear();
    if (!progress) break;
  }
  return client.handshake_complete() && server.handshake_complete();
}

// Measure the clean server-stream length so mutation positions are valid.
std::size_t server_stream_length() {
  Pair p = make_pair();
  ClientConnection client(p.client, Drbg(1));
  ServerConnection server(p.server, Drbg(2));
  std::vector<Bytes> to_server, to_client;
  std::size_t total = 0;
  client.start([&](BytesView d) { to_server.emplace_back(d.begin(), d.end()); });
  for (int round = 0; round < 16; ++round) {
    for (auto& f : to_server)
      server.on_data(f, [&](BytesView d) {
        total += d.size();
        to_client.emplace_back(d.begin(), d.end());
      });
    to_server.clear();
    for (auto& f : to_client)
      client.on_data(f, [&](BytesView d) {
        to_server.emplace_back(d.begin(), d.end());
      });
    to_client.clear();
  }
  return total;
}

TEST(TlsNegative, AnyCorruptedServerByteBreaksTheHandshake) {
  // Sample positions across the whole server stream: ServerHello region,
  // the encrypted certificate region, and the tail (Finished).
  Pair clean = make_pair();
  ASSERT_TRUE(run_with_mutation(clean, static_cast<std::size_t>(-1)));
  std::size_t len = server_stream_length();
  ASSERT_GT(len, 100u);
  for (std::size_t pos : {std::size_t{7}, std::size_t{60}, len / 4, len / 2,
                          3 * len / 4, len - 20}) {
    Pair p = make_pair();
    EXPECT_FALSE(run_with_mutation(p, pos)) << "byte " << pos << "/" << len;
  }
}

TEST(TlsNegative, ClientRejectsGarbageInsteadOfServerHello) {
  Pair p = make_pair();
  ClientConnection client(p.client, Drbg(3));
  client.start([](BytesView) {});
  // A complete record carrying a complete bogus handshake message.
  Bytes garbage = {22, 3, 3, 0, 5, 0x99, 0, 0, 1, 0};
  client.on_data(garbage, [](BytesView) {});
  EXPECT_TRUE(client.failed());
}

TEST(TlsNegative, ServerRejectsGarbageInsteadOfClientHello) {
  Pair p = make_pair();
  ServerConnection server(p.server, Drbg(4));
  Bytes garbage = {22, 3, 3, 0, 4, 0x02, 0x00, 0x00, 0x00};
  Bytes out;
  server.on_data(garbage, [&](BytesView d) { append(out, d); });
  EXPECT_TRUE(server.failed());
  // Nothing but (at most) an alert goes out.
  if (!out.empty()) {
    EXPECT_EQ(out[0], 21);
  }
}

// --- Per-state alert policy (the model checker's completeness gap) -------
//
// The static verifier proved every (state, message) pair is handled; these
// three tests lock the *policy* for the rule-table-miss half: who answers
// with a fatal unexpected_message(10) alert and who stays silent.

TEST(TlsNegative, ClientAnswersUnexpectedMessageWithAlert10) {
  // A Certificate arriving while the client waits for ServerHello is a
  // known type with no rule in that state. Before the ServerHello no keys
  // exist, so the mandated alert is visible in plaintext on the wire.
  Pair p = make_pair();
  ClientConnection client(p.client, Drbg(20));
  client.start([](BytesView) {});
  Bytes certificate = {22, 3, 3, 0, 4, 11, 0, 0, 0};
  Bytes out;
  client.on_data(certificate, [&](BytesView d) { append(out, d); });
  EXPECT_TRUE(client.failed());
  ASSERT_GE(out.size(), 7u);
  EXPECT_EQ(out[0], 21);  // alert record
  EXPECT_EQ(out[5], 2);   // fatal
  EXPECT_EQ(out[6], 10);  // unexpected_message
}

TEST(TlsNegative, ServerDropsPreHandshakeNoiseSilently) {
  // Documented policy: before the server has committed to a connection
  // (initial state, no keys), an out-of-place handshake message is dropped
  // without a single byte in response — answering pre-handshake noise
  // would hand port scanners a protocol oracle.
  Pair p = make_pair();
  ServerConnection server(p.server, Drbg(21));
  Bytes finished = {22, 3, 3, 0, 4, 20, 0, 0, 0};
  Bytes out;
  server.on_data(finished, [&](BytesView d) { append(out, d); });
  EXPECT_TRUE(server.failed());
  EXPECT_TRUE(out.empty());
}

TEST(TlsNegative, ServerAlertsOnUnexpectedMessageMidHandshake) {
  // Once the server has sent its flight (wait_client_finished), the same
  // rule-table miss must be answered with an alert — this state silently
  // dead-ended before the completeness check flagged it. Replaying the
  // ClientHello puts a known-but-unexpected message in that state.
  Pair p = make_pair();
  ClientConnection client(p.client, Drbg(22));
  ServerConnection server(p.server, Drbg(23));
  Bytes ch;
  client.start([&](BytesView d) { ch.assign(d.begin(), d.end()); });
  Bytes server_flight;
  server.on_data(ch, [&](BytesView d) { append(server_flight, d); });
  ASSERT_FALSE(server.failed());
  ASSERT_FALSE(server.handshake_complete());  // waiting for Finished
  Bytes out;
  server.on_data(ch, [&](BytesView d) { append(out, d); });
  EXPECT_TRUE(server.failed());
  // Keys are installed, so the alert rides an encrypted (outer type 23)
  // record — not silence, and not a plaintext leak.
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0], 23);
}

TEST(TlsNegative, AlertRecordFailsClient) {
  Pair p = make_pair();
  ClientConnection client(p.client, Drbg(5));
  client.start([](BytesView) {});
  Bytes alert = {21, 3, 3, 0, 2, 2, 40};  // fatal handshake_failure
  client.on_data(alert, [](BytesView) {});
  EXPECT_TRUE(client.failed());
}

TEST(TlsNegative, TruncatedStreamNeverCompletes) {
  Pair p = make_pair();
  ClientConnection client(p.client, Drbg(6));
  ServerConnection server(p.server, Drbg(7));
  Bytes ch;
  client.start([&](BytesView d) { ch.assign(d.begin(), d.end()); });
  Bytes server_out;
  server.on_data(ch, [&](BytesView d) { append(server_out, d); });
  // Deliver all but the final byte: client must neither complete nor fail
  // spuriously — it is simply still waiting.
  client.on_data(BytesView{server_out.data(), server_out.size() - 1},
                 [](BytesView) {});
  EXPECT_FALSE(client.handshake_complete());
  EXPECT_FALSE(client.failed());
}

TEST(TlsNegative, ReplayedClientFinishedIsIgnored) {
  Pair p = make_pair();
  ClientConnection client(p.client, Drbg(8));
  ServerConnection server(p.server, Drbg(9));
  std::vector<Bytes> to_server, to_client;
  client.start([&](BytesView d) { to_server.emplace_back(d.begin(), d.end()); });
  Bytes last_client_flight;
  for (int round = 0; round < 8; ++round) {
    for (auto& f : to_server)
      server.on_data(f, [&](BytesView d) {
        to_client.emplace_back(d.begin(), d.end());
      });
    to_server.clear();
    for (auto& f : to_client)
      client.on_data(f, [&](BytesView d) {
        last_client_flight.assign(d.begin(), d.end());
        to_server.emplace_back(d.begin(), d.end());
      });
    to_client.clear();
  }
  ASSERT_TRUE(server.handshake_complete());
  // Replaying the Finished flight at the completed server must not crash or
  // regress the state machine.
  server.on_data(last_client_flight, [](BytesView) {});
  EXPECT_TRUE(server.handshake_complete());
}

TEST(TlsNegative, MismatchedSignatureAlgorithmFails) {
  Pair p = make_pair();
  p.client.sa = sig::find_signer("falcon512");  // server has dilithium2
  ClientConnection client(p.client, Drbg(10));
  ServerConnection server(p.server, Drbg(11));
  Bytes ch;
  client.start([&](BytesView d) { ch.assign(d.begin(), d.end()); });
  Bytes server_out;
  server.on_data(ch, [&](BytesView d) { server_out.assign(d.begin(), d.end()); });
  EXPECT_TRUE(server.failed());
  // The only thing on the wire is a fatal alert record (type 21).
  ASSERT_GE(server_out.size(), 7u);
  EXPECT_EQ(server_out[0], 21);
  EXPECT_EQ(server_out[5], 2);   // fatal
  EXPECT_EQ(server_out[6], 40);  // handshake_failure
}

TEST(TlsNegative, TamperedTrustAnchorFailsHandshake) {
  Pair p = make_pair();
  pki::Certificate root = p.client.root.certificate();
  root.signature[root.signature.size() / 2] ^= 0x01;  // bad self-signature
  p.client.root = pki::TrustAnchor(root);
  EXPECT_FALSE(run_with_mutation(p, static_cast<std::size_t>(-1)));
}

TEST(KeyScheduleVectors, EarlySecretMatchesRfc8448) {
  // HKDF-Extract(0, 0^32): the well-known TLS 1.3 early secret.
  Bytes zeros(32, 0);
  Bytes early = crypto::hkdf_extract_sha256({}, zeros);
  EXPECT_EQ(to_hex(early),
            "33ad0a1c607ec03b09e6cd9893680ce210adf300aa1f2660e1b22e10f170f92a");
  // Derive-Secret(early, "derived", "") from the RFC 8448 trace.
  Bytes empty_hash = crypto::sha256({});
  Bytes derived = derive_secret(early, "derived", empty_hash);
  EXPECT_EQ(to_hex(derived),
            "6f2615a108c702c5678f54fc9dbab69716c076189c48250cebeac3576c3611ba");
}

TEST(KeyScheduleVectors, TrafficKeysHaveAeadShape) {
  Bytes secret(32, 0x11);
  TrafficKeys keys = derive_traffic_keys(secret);
  EXPECT_EQ(keys.key.size(), 16u);
  EXPECT_EQ(keys.iv.size(), 12u);
  // Distinct labels ("key" vs "iv") must give unrelated bytes.
  EXPECT_NE(Bytes(keys.iv.begin(), keys.iv.end()),
            Bytes(keys.key.begin(), keys.key.begin() + 12));
}

TEST(KeyScheduleVectors, HrrTranscriptSurgery) {
  KeySchedule ks1, ks2;
  Bytes ch1 = {1, 0, 0, 3, 0xAA, 0xBB, 0xCC};
  ks1.update_transcript(ch1);
  ks1.convert_to_hrr_transcript();
  // Equivalent: a fresh transcript fed the synthetic message_hash message.
  Bytes hash = crypto::sha256(ch1);
  Bytes synthetic = {254, 0, 0, 32};
  append(synthetic, hash);
  ks2.update_transcript(synthetic);
  EXPECT_EQ(ks1.transcript_hash(), ks2.transcript_hash());
}

// The schedule keeps only a running hash; the test keeps the concatenated
// transcript itself as the independent reference. The sizes straddle the
// 64-byte SHA-256 block boundary.
TEST(KeyScheduleVectors, TranscriptHashMatchesConcatenation) {
  KeySchedule ks;
  Bytes all;
  EXPECT_EQ(ks.transcript_hash(), crypto::sha256({}));
  std::uint8_t fill = 1;
  for (std::size_t len : {0u, 1u, 63u, 64u, 65u, 4000u}) {
    Bytes message(len);
    for (auto& b : message) b = fill++;
    ks.update_transcript(message);
    append(all, message);
    Bytes first = ks.transcript_hash();
    EXPECT_EQ(first, crypto::sha256(all)) << "after " << len << " bytes";
    EXPECT_EQ(ks.transcript_hash(), first) << "repeat after " << len;
  }
}

// binder = HMAC(finished key of Derive-Secret(Extract(0, psk), "res binder",
// H("")), H(prior transcript || truncated ClientHello)), built here from the
// RFC-vector-checked primitives rather than from psk_binder() itself.
Bytes reference_binder(BytesView psk, BytesView prior, BytesView truncated) {
  Bytes binder_key = derive_secret(crypto::hkdf_extract_sha256({}, psk),
                                   "res binder", crypto::sha256({}));
  Bytes finished_key = hkdf_expand_label(binder_key, "finished", {}, 32);
  Bytes context(prior.begin(), prior.end());
  append(context, truncated);
  return crypto::hmac_sha256(finished_key, crypto::sha256(context));
}

TEST(KeyScheduleVectors, PskBinderCoversTranscript) {
  Bytes psk(32, 0x5A);
  Bytes truncated(300);
  for (std::size_t i = 0; i < truncated.size(); ++i)
    truncated[i] = static_cast<std::uint8_t>(i * 7);

  KeySchedule fresh;
  fresh.set_psk(psk);
  EXPECT_EQ(fresh.psk_binder(truncated), reference_binder(psk, {}, truncated));

  // Second ClientHello after HelloRetryRequest: the binder covers the
  // synthetic message_hash message and the HRR as well.
  Bytes ch1 = {1, 0, 0, 3, 0xAA, 0xBB, 0xCC};
  Bytes hrr(90, 0x33);
  hrr[0] = 2;
  KeySchedule ks;
  ks.update_transcript(ch1);
  ks.convert_to_hrr_transcript();
  ks.update_transcript(hrr);
  ks.set_psk(psk);
  Bytes prior = {254, 0, 0, 32};
  append(prior, crypto::sha256(ch1));
  append(prior, hrr);
  Bytes binder = ks.psk_binder(truncated);
  EXPECT_EQ(binder, reference_binder(psk, prior, truncated));
  EXPECT_NE(binder, fresh.psk_binder(truncated));
  // Computing the binder leaves the running transcript untouched.
  EXPECT_EQ(ks.transcript_hash(), crypto::sha256(prior));
}

// The handshake and application traffic secrets, rebuilt from the
// primitives with the empty-context hash computed here, for the (EC)DHE and
// the PSK-only schedules.
TEST(KeyScheduleVectors, TrafficSecretsMatchPrimitives) {
  const Bytes empty_hash = crypto::sha256({});
  const Bytes zeros(32, 0);
  const Bytes shared(32, 0x42);
  const Bytes psk(32, 0x5A);
  const Bytes hello(150, 0x16);
  const Bytes finished(36, 0x14);
  for (bool with_psk : {false, true}) {
    KeySchedule ks;
    if (with_psk) ks.set_psk(psk);
    ks.update_transcript(hello);
    ks.derive_handshake_secrets(with_psk ? BytesView{} : BytesView{shared});
    ks.update_transcript(finished);
    ks.derive_application_secrets();

    Bytes early = crypto::hkdf_extract_sha256({}, with_psk ? psk : zeros);
    Bytes handshake = crypto::hkdf_extract_sha256(
        derive_secret(early, "derived", empty_hash), with_psk ? zeros : shared);
    Bytes th1 = crypto::sha256(hello);
    EXPECT_EQ(ks.client_handshake_traffic(),
              derive_secret(handshake, "c hs traffic", th1))
        << "psk " << with_psk;
    EXPECT_EQ(ks.server_handshake_traffic(),
              derive_secret(handshake, "s hs traffic", th1))
        << "psk " << with_psk;

    Bytes master = crypto::hkdf_extract_sha256(
        derive_secret(handshake, "derived", empty_hash), zeros);
    Bytes both = hello;
    append(both, finished);
    Bytes th2 = crypto::sha256(both);
    EXPECT_EQ(ks.client_application_traffic(),
              derive_secret(master, "c ap traffic", th2))
        << "psk " << with_psk;
    EXPECT_EQ(ks.server_application_traffic(),
              derive_secret(master, "s ap traffic", th2))
        << "psk " << with_psk;
  }
}

}  // namespace
}  // namespace pqtls::tls
