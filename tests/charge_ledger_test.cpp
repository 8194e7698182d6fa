// The per-leg charge ledger of tls::Connection: every modeled charge is
// tagged with its perf::Op, so the priced legs of each side add up to the
// modeled clock for every handshake shape (full, HelloRetryRequest,
// resumed, 0-RTT, psk_ke, compressed, Merkle, deeper chains), measured
// mode charges nothing, and loadgen's calibrated profile is exactly the
// priced legs plus its own dispatch steps.
#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "crypto/catalog.hpp"
#include "crypto/drbg.hpp"
#include "loadgen/loadgen.hpp"
#include "perf/cost_model.hpp"
#include "pki/merkle.hpp"
#include "session/session.hpp"
#include "testbed/testbed.hpp"
#include "tls/connection.hpp"
#include "tls/server_context.hpp"

namespace pqtls {
namespace {

using crypto::AlgorithmCatalog;
using crypto::Drbg;
using perf::Op;

// Same PKI seed as the other TLS suites so server contexts are shared
// through the process-wide cache.
constexpr std::uint64_t kSeed = 0xFEED;

const perf::CostModel& costs() { return perf::CostModel::builtin(); }

const tls::ServerContext& context(const char* ka, const char* sa,
                                  const pki::ChainProfile& chain = {}) {
  const AlgorithmCatalog& catalog = AlgorithmCatalog::instance();
  return tls::server_context(*catalog.require_kem(ka).kem,
                             *catalog.require_signer(sa).signer, chain, kSeed);
}

// Pump flights between the endpoints until quiescent; `first_flight` and
// `server_first_flight` receive the sizes of each side's first flight.
// Returns true when both sides completed the handshake.
bool pump(tls::ClientConnection& client, tls::ServerConnection& server,
          std::size_t* first_flight = nullptr,
          std::size_t* server_first_flight = nullptr) {
  std::vector<Bytes> to_server, to_client;
  client.start([&](BytesView d) {
    if (first_flight) *first_flight = d.size();
    to_server.emplace_back(d.begin(), d.end());
  });
  for (int round = 0; round < 30; ++round) {
    if (to_server.empty() && to_client.empty()) break;
    std::vector<Bytes> in = std::move(to_server);
    to_server.clear();
    for (const Bytes& flight : in)
      server.on_data(flight, [&](BytesView d) {
        if (server_first_flight && *server_first_flight == 0)
          *server_first_flight = d.size();
        to_client.emplace_back(d.begin(), d.end());
      });
    in = std::move(to_client);
    to_client.clear();
    for (const Bytes& flight : in)
      client.on_data(flight, [&](BytesView d) {
        to_server.emplace_back(d.begin(), d.end());
      });
  }
  return client.handshake_complete() && server.handshake_complete();
}

struct LedgerRun {
  bool ok = false;
  std::vector<perf::ChargeLedger> client_legs, server_legs;
  double client_cost = 0, server_cost = 0;
  std::size_t client_hello_bytes = 0;
  std::size_t server_first_flight_bytes = 0;
};

LedgerRun handshake(const tls::ClientConfig& ccfg,
                    const tls::ServerConfig& scfg,
                    const perf::CostModel* model = &costs(),
                    std::uint64_t seed = 0x1ed6) {
  tls::ClientConnection client(ccfg, Drbg(seed));
  tls::ServerConnection server(scfg, Drbg(seed + 1));
  client.set_cost_model(model);
  server.set_cost_model(model);
  LedgerRun r;
  r.ok = pump(client, server, &r.client_hello_bytes,
              &r.server_first_flight_bytes);
  r.client_legs.assign(client.legs().begin(), client.legs().end());
  r.server_legs.assign(server.legs().begin(), server.legs().end());
  r.client_cost = client.modeled_cost();
  r.server_cost = server.modeled_cost();
  return r;
}

// Sum of the priced legs; `first_leg_ka` prices leg 0 for a client whose
// first key share was for another group (the HelloRetryRequest case).
double priced(std::span<const perf::ChargeLedger> legs, std::string_view ka,
              std::string_view sa, std::string_view first_leg_ka = {}) {
  double seconds = 0;
  for (std::size_t i = 0; i < legs.size(); ++i)
    seconds += costs().price(legs[i],
                             i == 0 && !first_leg_ka.empty() ? first_leg_ka
                                                             : ka,
                             sa);
  return seconds;
}

// Both sides' priced legs reproduce their modeled clocks (up to the
// rounding of summing per leg instead of per site).
void expect_legs_price_the_clock(const LedgerRun& r, std::string_view ka,
                                 std::string_view sa,
                                 std::string_view client_first_ka = {}) {
  ASSERT_TRUE(r.ok);
  EXPECT_GT(r.client_cost, 0);
  EXPECT_GT(r.server_cost, 0);
  EXPECT_NEAR(priced(r.client_legs, ka, sa, client_first_ka), r.client_cost,
              1e-12 * r.client_cost);
  EXPECT_NEAR(priced(r.server_legs, ka, sa), r.server_cost,
              1e-12 * r.server_cost);
}

// Full handshake with a ticket request against `store`: returns the ticket.
std::optional<session::SessionTicket> mint(const tls::ServerContext& ctx,
                                           session::TicketStore& store) {
  tls::ClientConfig ccfg = ctx.client_config();
  ccfg.request_ticket = true;
  tls::ServerConfig scfg = ctx.server_config();
  scfg.tickets = &store;
  tls::ClientConnection client(ccfg, Drbg(0x7ee7));
  tls::ServerConnection server(scfg, Drbg(0x7ee8));
  if (!pump(client, server)) return std::nullopt;
  return client.take_ticket();
}

TEST(ChargeLedger, FullHandshakeCountsArePinned) {
  const tls::ServerContext& ctx = context("kyber512", "dilithium2");
  LedgerRun r = handshake(ctx.client_config(), ctx.server_config());
  expect_legs_price_the_clock(r, "kyber512", "dilithium2");
  // Client: ClientHello, server flight through client Finished, and the
  // (empty) post-handshake leg. Server: flight, client Finished.
  ASSERT_EQ(r.client_legs.size(), 3u);
  ASSERT_EQ(r.server_legs.size(), 2u);

  const perf::ChargeLedger& hello = r.client_legs[0];
  EXPECT_EQ(hello[Op::kKemKeygen], 1u);
  EXPECT_EQ(hello[Op::kKdf], 0u);
  EXPECT_EQ(hello[Op::kPerByte], r.client_hello_bytes);

  const perf::ChargeLedger& finish = r.client_legs[1];
  EXPECT_EQ(finish[Op::kKemDecaps], 1u);
  EXPECT_EQ(finish[Op::kVerify], 2u);  // CertificateVerify + leaf
  EXPECT_EQ(finish[Op::kKdf], 7u);
  EXPECT_EQ(r.client_legs[2], perf::ChargeLedger{});

  const perf::ChargeLedger& flight = r.server_legs[0];
  EXPECT_EQ(flight[Op::kKemEncaps], 1u);
  EXPECT_EQ(flight[Op::kSign], 1u);
  EXPECT_EQ(flight[Op::kKdf], 5u);
  EXPECT_GT(flight[Op::kPerByte], r.client_hello_bytes);
  EXPECT_EQ(r.server_legs[1][Op::kKdf], 1u);  // client Finished MAC
}

TEST(ChargeLedger, HelloRetryRequestAddsALegPerSide) {
  const AlgorithmCatalog& catalog = AlgorithmCatalog::instance();
  const tls::ServerContext& ctx = context("kyber512", "dilithium2");
  tls::ClientConfig ccfg = ctx.client_config();
  ccfg.ka = catalog.require_kem("x25519").kem;  // wrong guess
  ccfg.also_supported = {catalog.require_kem("kyber512").kem};
  LedgerRun r = handshake(ccfg, ctx.server_config());
  expect_legs_price_the_clock(r, "kyber512", "dilithium2", "x25519");
  ASSERT_EQ(r.client_legs.size(), 4u);
  ASSERT_EQ(r.server_legs.size(), 3u);
  EXPECT_EQ(r.client_legs[0][Op::kKemKeygen], 1u);  // x25519 share
  EXPECT_EQ(r.client_legs[1][Op::kKemKeygen], 1u);  // kyber512 share
  EXPECT_EQ(r.server_legs[0][Op::kKemEncaps], 0u);  // HRR only
  // The HelloRetryRequest leg charges the ClientHello record it read (the
  // payload after the 5-byte record header) and the HRR record it sealed.
  EXPECT_GT(r.server_first_flight_bytes, 0u);
  EXPECT_EQ(r.server_legs[0][Op::kPerByte],
            r.client_hello_bytes - 5 + r.server_first_flight_bytes);
  EXPECT_EQ(r.server_legs[1][Op::kKemEncaps], 1u);
}

TEST(ChargeLedger, ResumedHandshakesPriceTheClock) {
  const tls::ServerContext& ctx = context("kyber512", "dilithium2");
  session::TicketStore store{Drbg(0x5e55)};
  std::optional<session::SessionTicket> ticket = mint(ctx, store);
  ASSERT_TRUE(ticket.has_value());
  tls::ServerConfig scfg = ctx.server_config();
  scfg.tickets = &store;
  scfg.accept_early_data = true;

  tls::ClientConfig ccfg = ctx.client_config();
  ccfg.resume = &*ticket;
  {
    SCOPED_TRACE("psk_dhe_ke");
    LedgerRun r = handshake(ccfg, scfg);
    expect_legs_price_the_clock(r, "kyber512", "dilithium2");
    EXPECT_EQ(r.client_legs[0][Op::kKdf], 2u);  // binder
    EXPECT_EQ(r.server_legs[0][Op::kKdf], 7u);
    EXPECT_EQ(r.client_legs[1][Op::kKdf], 7u);
    EXPECT_EQ(r.server_legs[1][Op::kKdf], 3u);  // Finished + ticket
    EXPECT_EQ(r.client_legs[1][Op::kVerify], 0u);
    EXPECT_EQ(r.server_legs[0][Op::kSign], 0u);
  }
  {
    SCOPED_TRACE("psk_dhe_ke + 0-RTT");
    tls::ClientConfig early = ccfg;
    early.early_data = Bytes(64, 0xE5);
    LedgerRun r = handshake(early, scfg);
    expect_legs_price_the_clock(r, "kyber512", "dilithium2");
    EXPECT_EQ(r.client_legs[0][Op::kKdf], 4u);
    EXPECT_EQ(r.server_legs[0][Op::kKdf], 9u);
    EXPECT_EQ(r.client_legs[1][Op::kKdf], 8u);
    EXPECT_EQ(r.server_legs[1][Op::kKdf], 4u);
  }
  {
    SCOPED_TRACE("psk_ke");
    tls::ClientConfig psk_only = ccfg;
    psk_only.psk_only = true;
    LedgerRun r = handshake(psk_only, scfg);
    expect_legs_price_the_clock(r, "kyber512", "dilithium2");
    EXPECT_EQ(r.client_legs[0][Op::kKemKeygen], 0u);
    EXPECT_EQ(r.server_legs[0][Op::kKemEncaps], 0u);
  }
}

TEST(ChargeLedger, TicketRequestChargesThePostHandshakeLeg) {
  const tls::ServerContext& ctx = context("kyber512", "dilithium2");
  session::TicketStore store{Drbg(0x5e56)};
  tls::ClientConfig ccfg = ctx.client_config();
  ccfg.request_ticket = true;
  tls::ServerConfig scfg = ctx.server_config();
  scfg.tickets = &store;
  LedgerRun r = handshake(ccfg, scfg);
  expect_legs_price_the_clock(r, "kyber512", "dilithium2");
  ASSERT_EQ(r.client_legs.size(), 3u);
  EXPECT_EQ(r.client_legs[2][Op::kKdf], 1u);  // ticket PSK
  EXPECT_GT(r.client_legs[2][Op::kPerByte], 0u);
  EXPECT_EQ(r.server_legs[1][Op::kKdf], 3u);
}

TEST(ChargeLedger, CertificateTransportsPriceTheClock) {
  for (tls::CertMode mode :
       {tls::CertMode::kCompressed, tls::CertMode::kMerkle}) {
    SCOPED_TRACE(static_cast<int>(mode));
    const tls::ServerContext& ctx = context("kyber512", "dilithium2");
    tls::ClientConfig ccfg = ctx.client_config();
    tls::ServerConfig scfg = ctx.server_config();
    ccfg.cert_mode = scfg.cert_mode = mode;
    if (mode == tls::CertMode::kMerkle) {
      pki::MerkleBundle bundle =
          pki::pin_certificate(ctx.chain.certificates[0]);
      ccfg.merkle_root = bundle.root;
      scfg.merkle_proof = bundle.proof.encode();
    }
    LedgerRun r = handshake(ccfg, scfg);
    expect_legs_price_the_clock(r, "kyber512", "dilithium2");
    if (mode == tls::CertMode::kMerkle) {
      EXPECT_EQ(r.client_legs[1][Op::kVerify], 1u);
      EXPECT_EQ(r.client_legs[1][Op::kKdf], 8u);  // + proof walk
    }
  }
}

TEST(ChargeLedger, DeeperChainVerifiesEveryCertificate) {
  pki::ChainProfile int2{"int2", "", {"dilithium2", "dilithium2"}};
  const tls::ServerContext& ctx = context("kyber512", "dilithium2", int2);
  LedgerRun r = handshake(ctx.client_config(), ctx.server_config());
  expect_legs_price_the_clock(r, "kyber512", "dilithium2");
  EXPECT_EQ(r.client_legs[1][Op::kVerify], 4u);  // CV + leaf + 2 int
}

TEST(ChargeLedger, MeasuredModeChargesNothing) {
  const tls::ServerContext& ctx = context("kyber512", "dilithium2");
  LedgerRun r = handshake(ctx.client_config(), ctx.server_config(), nullptr);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.client_cost, 0);
  EXPECT_EQ(r.server_cost, 0);
  for (const perf::ChargeLedger& leg : r.client_legs)
    EXPECT_EQ(leg, perf::ChargeLedger{});
  for (const perf::ChargeLedger& leg : r.server_legs)
    EXPECT_EQ(leg, perf::ChargeLedger{});

  // The testbed reports legs only when it prices them.
  testbed::ExperimentConfig cfg;
  cfg.ka = "kyber512";
  cfg.sa = "dilithium2";
  cfg.pki_seed = kSeed;
  cfg.sample_handshakes = 1;
  EXPECT_TRUE(testbed::run_experiment(cfg).client_legs.empty());
  cfg.time_model = testbed::TimeModel::kModeled;
  testbed::ExperimentResult modeled = testbed::run_experiment(cfg);
  ASSERT_TRUE(modeled.ok);
  EXPECT_EQ(modeled.client_legs.size(), 3u);
  EXPECT_EQ(modeled.server_legs.size(), 2u);
}

// ---------------------------------------------------------------------------
// loadgen's calibrated profile reads the ledger.

TEST(ChargeLedgerProfile, ResumedClientHelloIsTheSealedClientHello) {
  // The resumed ClientHello leg: the key share, the binder (two KDFs) and
  // the sealed ClientHello record, plus one dispatch step.
  const tls::ServerContext& ctx = context("kyber512", "dilithium2");
  session::TicketStore store{Drbg(0x5e57)};
  std::optional<session::SessionTicket> ticket = mint(ctx, store);
  ASSERT_TRUE(ticket.has_value());
  tls::ClientConfig ccfg = ctx.client_config();
  ccfg.resume = &*ticket;
  tls::ServerConfig scfg = ctx.server_config();
  scfg.tickets = &store;
  tls::ClientConnection client(ccfg, Drbg(0x11));
  tls::ServerConnection server(scfg, Drbg(0x12));
  std::size_t sealed_ch = 0;
  ASSERT_TRUE(pump(client, server, &sealed_ch));
  ASSERT_TRUE(client.resumed());

  const perf::CostModel& cm = perf::CostModel::builtin();
  const loadgen::HandshakeProfile& p = loadgen::calibrated_profile(
      "kyber512", "dilithium2", kSeed, /*resumed=*/true);
  EXPECT_DOUBLE_EQ(p.client_hello_cpu, cm.kem_keygen("kyber512") +
                                           2 * cm.kdf() +
                                           cm.per_byte(sealed_ch) + cm.step());
}

TEST(ChargeLedgerProfile, ServerCpuIsThePricedServerLegs) {
  const tls::ServerContext& ctx = context("kyber512", "dilithium2");
  LedgerRun r = handshake(ctx.client_config(), ctx.server_config());
  ASSERT_TRUE(r.ok);
  const perf::CostModel& cm = perf::CostModel::builtin();
  const loadgen::HandshakeProfile& p =
      loadgen::calibrated_profile("kyber512", "dilithium2", kSeed);
  EXPECT_DOUBLE_EQ(p.server_flight_cpu,
                   cm.price(r.server_legs[0], "kyber512", "dilithium2") +
                       cm.step());
  EXPECT_DOUBLE_EQ(p.server_finish_cpu,
                   cm.price(r.server_legs[1], "kyber512", "dilithium2") +
                       cm.step());
  EXPECT_DOUBLE_EQ(p.client_finish_cpu,
                   cm.price(r.client_legs[1], "kyber512", "dilithium2") +
                       2 * cm.step());

  // Batching amortizes only the server's encapsulation.
  const loadgen::HandshakeProfile& batched = loadgen::calibrated_profile(
      "kyber512", "dilithium2", kSeed, false, {}, tls::CertMode::kFull, 8);
  EXPECT_NEAR(p.server_flight_cpu - batched.server_flight_cpu,
              cm.kem_encaps("kyber512") - cm.kem_encaps_batched("kyber512", 8),
              1e-15);
  EXPECT_EQ(batched.client_finish_cpu, p.client_finish_cpu);
}

}  // namespace
}  // namespace pqtls
