// Static protocol verifier tests (src/verify + tls/spec):
//
//  * the shipped rule tables satisfy every property (the CTest gate the
//    pqtls_verify tool also enforces);
//  * mutation checks — deleting any single rule, duplicating a rule, or
//    retargeting an outcome at an unknown state makes the verifier fail,
//    so the properties are demonstrably non-vacuous;
//  * the report JSON and joint-graph DOT are byte-locked against goldens;
//  * lockstep — the exported StateMachineSpec stays in sync with
//    ClientConnection::rules() / ServerConnection::rules(), and every
//    state transition observed in real handshakes (1-RTT, HRR, and a
//    garbage-reject) is an edge the spec declares.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>

#include "testbed/testbed.hpp"
#include "tls/connection.hpp"
#include "tls/spec.hpp"
#include "trace/trace.hpp"
#include "verify/verify.hpp"

namespace pqtls {
namespace {

using tls::SpecOutcome;
using tls::SpecTransition;
using tls::StateMachineSpec;
using verify::PropertyResult;
using verify::Report;

std::string golden(const std::string& name) {
  std::ifstream in(std::string(PQTLS_TEST_DATA_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing golden file " << name;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

const PropertyResult* property(const Report& report, const std::string& name) {
  for (const PropertyResult& p : report.properties)
    if (p.name == name) return &p;
  return nullptr;
}

// ---- the shipped tables pass everything ----

TEST(Verify, ShippedSpecsPassAllProperties) {
  Report report = verify::run_all(tls::client_spec(), tls::server_spec());
  for (const PropertyResult& p : report.properties)
    EXPECT_TRUE(p.passed) << p.name << ": "
                          << (p.violations.empty() ? "" : p.violations[0]);
  EXPECT_TRUE(verify::all_passed(report));
  // The paper's handshake plus the resumption and certificate-hierarchy
  // subsystems: 12 client states x 11 rules (wait_certificate also accepts
  // the compressed and Merkle certificate flights), 5 server states x 3
  // rules, and a joint graph that both completes and rejects.
  EXPECT_EQ(report.client_states, 12u);
  EXPECT_EQ(report.client_rules, 11u);
  EXPECT_EQ(report.server_states, 5u);
  EXPECT_EQ(report.server_rules, 3u);
  // All completion paths (1-RTT, PSK, 0-RTT, ticketed) converge on the
  // same quiescent complete/complete joint state; the HRR retry keeps its
  // own copy via the spent-retry flag, hence exactly two.
  EXPECT_EQ(report.joint_done, 2u);
  EXPECT_GE(report.joint_error, 1u);  // explicit rejections exist
}

TEST(Verify, CompletenessIsNotVacuous) {
  // Every client non-terminal state alerts on unexpected input; the server
  // documents exactly one silent state (pre-ClientHello garbage).
  Report report = verify::run_all(tls::client_spec(), tls::server_spec());
  const PropertyResult* client = property(report, "client.completeness");
  const PropertyResult* server = property(report, "server.completeness");
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);
  auto has_note = [](const PropertyResult& p, const std::string& needle) {
    return std::any_of(p.notes.begin(), p.notes.end(),
                       [&](const std::string& n) {
                         return n.find(needle) != std::string::npos;
                       });
  };
  EXPECT_TRUE(has_note(*client, "unexpected_message alert: 89"));
  EXPECT_TRUE(has_note(*client, "silently by documented policy: 0"));
  EXPECT_TRUE(has_note(*server, "silently by documented policy: 9"));
}

// ---- mutation checks: the properties actually constrain the tables ----

void erase_rule(StateMachineSpec& spec, const std::string& from) {
  auto it = std::remove_if(
      spec.transitions.begin(), spec.transitions.end(),
      [&](const SpecTransition& t) { return t.from == from; });
  ASSERT_NE(it, spec.transitions.end()) << "no rule out of " << from;
  spec.transitions.erase(it, spec.transitions.end());
}

TEST(VerifyMutation, DeletingServerHelloRuleFails) {
  StateMachineSpec client = tls::client_spec();
  erase_rule(client, "wait_server_hello");
  Report report = verify::run_all(client, tls::server_spec());
  EXPECT_FALSE(verify::all_passed(report));
  // The gap is caught structurally (a dead-end, unreachable tail states)
  // and behaviourally (the joint handshake can no longer complete).
  EXPECT_FALSE(property(report, "client.completeness")->passed);
  EXPECT_FALSE(property(report, "client.reachability")->passed);
  EXPECT_FALSE(property(report, "joint.reaches_done")->passed);
}

TEST(VerifyMutation, DeletingClientHelloRuleFails) {
  StateMachineSpec server = tls::server_spec();
  auto it = std::remove_if(server.transitions.begin(),
                           server.transitions.end(),
                           [](const SpecTransition& t) {
                             return t.from == "wait_client_hello";
                           });
  server.transitions.erase(it, server.transitions.end());
  Report report = verify::run_all(tls::client_spec(), server);
  EXPECT_FALSE(verify::all_passed(report));
  EXPECT_FALSE(property(report, "server.reachability")->passed);
  EXPECT_FALSE(property(report, "joint.reaches_done")->passed);
}

TEST(VerifyMutation, DeletingClientFinishedRuleFails) {
  StateMachineSpec client = tls::client_spec();
  erase_rule(client, "wait_finished");
  Report report = verify::run_all(client, tls::server_spec());
  EXPECT_FALSE(verify::all_passed(report));
  // The resumption arm still completes, so the gap is structural: the
  // full-handshake tail dead-ends in wait_finished.
  EXPECT_FALSE(property(report, "client.completeness")->passed);
}

TEST(VerifyMutation, DeletingResumptionEeRuleFails) {
  // Dropping the client's PSK EncryptedExtensions rule orphans the whole
  // resumption arm: wait_encrypted_extensions_psk dead-ends and the
  // Finished-psk states become unreachable.
  StateMachineSpec client = tls::client_spec();
  erase_rule(client, "wait_encrypted_extensions_psk");
  Report report = verify::run_all(client, tls::server_spec());
  EXPECT_FALSE(verify::all_passed(report));
  EXPECT_FALSE(property(report, "client.completeness")->passed);
  EXPECT_FALSE(property(report, "client.reachability")->passed);
}

TEST(VerifyMutation, DeletingSessionTicketRuleFails) {
  StateMachineSpec client = tls::client_spec();
  erase_rule(client, "wait_session_ticket");
  Report report = verify::run_all(client, tls::server_spec());
  EXPECT_FALSE(verify::all_passed(report));
  EXPECT_FALSE(property(report, "client.completeness")->passed);
}

TEST(VerifyMutation, DeletingEndOfEarlyDataRuleFails) {
  StateMachineSpec server = tls::server_spec();
  auto it = std::remove_if(server.transitions.begin(),
                           server.transitions.end(),
                           [](const SpecTransition& t) {
                             return t.from == "wait_end_of_early_data";
                           });
  server.transitions.erase(it, server.transitions.end());
  Report report = verify::run_all(tls::client_spec(), server);
  EXPECT_FALSE(verify::all_passed(report));
  EXPECT_FALSE(property(report, "server.completeness")->passed);
}

TEST(VerifyMutation, DeletingCompressedCertificateRuleFailsCoverage) {
  // The decline path masks the gap from every progress property: a client
  // without the CompressedCertificate rule still completes plain
  // handshakes, and the compress offer dead-ends in a clean alert terminal.
  // Only emission coverage notices the server can send a message the
  // client no longer has a rule for.
  StateMachineSpec client = tls::client_spec();
  auto it = std::remove_if(
      client.transitions.begin(), client.transitions.end(),
      [](const SpecTransition& t) {
        return t.from == "wait_certificate" &&
               t.message ==
                   static_cast<std::uint8_t>(
                       tls::HandshakeType::kCompressedCertificate);
      });
  ASSERT_NE(it, client.transitions.end());
  client.transitions.erase(it, client.transitions.end());
  Report report = verify::run_all(client, tls::server_spec());
  EXPECT_FALSE(verify::all_passed(report));
  const PropertyResult* coverage =
      property(report, "joint.emission_coverage");
  ASSERT_NE(coverage, nullptr);
  EXPECT_FALSE(coverage->passed);
  ASSERT_FALSE(coverage->violations.empty());
  EXPECT_NE(coverage->violations[0].find("orphan emission"),
            std::string::npos);
}

TEST(VerifyMutation, DeletingMerkleCertificateRuleFailsCoverage) {
  StateMachineSpec client = tls::client_spec();
  auto it = std::remove_if(
      client.transitions.begin(), client.transitions.end(),
      [](const SpecTransition& t) {
        return t.from == "wait_certificate" &&
               t.message == static_cast<std::uint8_t>(
                                tls::HandshakeType::kMerkleCertificate);
      });
  ASSERT_NE(it, client.transitions.end());
  client.transitions.erase(it, client.transitions.end());
  Report report = verify::run_all(client, tls::server_spec());
  EXPECT_FALSE(verify::all_passed(report));
  EXPECT_FALSE(property(report, "joint.emission_coverage")->passed);
}

TEST(VerifyMutation, DeletingServerCompressedOutcomeFailsCoverage) {
  // The mirror-image mutation: without the server's ok_compressed outcome
  // nothing ever emits CompressedCertificate, so the client's rule for it
  // is dead code the joint exploration cannot reach.
  StateMachineSpec server = tls::server_spec();
  bool erased = false;
  for (SpecTransition& t : server.transitions) {
    if (t.from != "wait_client_hello") continue;
    auto it = std::remove_if(
        t.outcomes.begin(), t.outcomes.end(),
        [](const SpecOutcome& o) { return o.label == "ok_compressed"; });
    erased = it != t.outcomes.end();
    t.outcomes.erase(it, t.outcomes.end());
  }
  ASSERT_TRUE(erased);
  Report report = verify::run_all(tls::client_spec(), server);
  EXPECT_FALSE(verify::all_passed(report));
  const PropertyResult* coverage =
      property(report, "joint.emission_coverage");
  ASSERT_NE(coverage, nullptr);
  EXPECT_FALSE(coverage->passed);
  ASSERT_FALSE(coverage->violations.empty());
  EXPECT_NE(coverage->violations[0].find("dead rule"), std::string::npos);
}

TEST(VerifyMutation, DeletingServerMerkleOutcomeFailsCoverage) {
  StateMachineSpec server = tls::server_spec();
  bool erased = false;
  for (SpecTransition& t : server.transitions) {
    if (t.from != "wait_client_hello") continue;
    auto it = std::remove_if(
        t.outcomes.begin(), t.outcomes.end(),
        [](const SpecOutcome& o) { return o.label == "ok_merkle"; });
    erased = it != t.outcomes.end();
    t.outcomes.erase(it, t.outcomes.end());
  }
  ASSERT_TRUE(erased);
  Report report = verify::run_all(tls::client_spec(), server);
  EXPECT_FALSE(verify::all_passed(report));
  EXPECT_FALSE(property(report, "joint.emission_coverage")->passed);
}

TEST(VerifyMutation, RetargetedResumeOutcomeBreaksDeterminism) {
  // Pointing the client's ServerHello "resume" outcome at a state that
  // does not exist must fail structurally.
  StateMachineSpec client = tls::client_spec();
  bool retargeted = false;
  for (SpecTransition& t : client.transitions)
    if (t.from == "wait_server_hello")
      for (SpecOutcome& o : t.outcomes)
        if (o.label == "resume") {
          o.next = "limbo";
          retargeted = true;
        }
  ASSERT_TRUE(retargeted);
  Report report = verify::run_all(client, tls::server_spec());
  EXPECT_FALSE(property(report, "client.determinism")->passed);
}

TEST(VerifyMutation, DuplicateRuleBreaksDeterminism) {
  StateMachineSpec client = tls::client_spec();
  ASSERT_FALSE(client.transitions.empty());
  client.transitions.push_back(client.transitions.front());
  Report report = verify::run_all(client, tls::server_spec());
  const PropertyResult* det = property(report, "client.determinism");
  ASSERT_NE(det, nullptr);
  EXPECT_FALSE(det->passed);
}

TEST(VerifyMutation, OutcomeIntoUnknownStateBreaksDeterminism) {
  StateMachineSpec server = tls::server_spec();
  ASSERT_FALSE(server.transitions.empty());
  ASSERT_FALSE(server.transitions.front().outcomes.empty());
  server.transitions.front().outcomes.front().next = "limbo";
  Report report = verify::run_all(tls::client_spec(), server);
  const PropertyResult* det = property(report, "server.determinism");
  ASSERT_NE(det, nullptr);
  EXPECT_FALSE(det->passed);
}

// ---- golden-locked artifacts ----

TEST(VerifyGolden, ReportJsonMatchesGolden) {
  Report report = verify::run_all(tls::client_spec(), tls::server_spec());
  EXPECT_EQ(verify::render_report_json(report), golden("verify_report.json"))
      << "regenerate with: pqtls_verify --all --report "
         "tests/golden/verify_report.json";
}

TEST(VerifyGolden, JointGraphDotMatchesGolden) {
  verify::JointGraph graph;
  verify::run_all(tls::client_spec(), tls::server_spec(), &graph);
  EXPECT_EQ(verify::render_dot(graph), golden("joint_graph.dot"))
      << "regenerate with: pqtls_verify --all --dot "
         "tests/golden/joint_graph.dot";
}

// ---- lockstep: the spec cannot drift from the executable rule tables ----

TEST(SpecLockstep, SpecMirrorsRuleTables) {
  StateMachineSpec client = tls::client_spec();
  StateMachineSpec server = tls::server_spec();
  // One SpecTransition per Rule — spec() is built by iterating rules(), and
  // rule_count() re-exports the table size, so a new rule without declared
  // outcomes throws in spec() and a removed rule changes this count.
  EXPECT_EQ(client.transitions.size(), tls::ClientConnection::rule_count());
  EXPECT_EQ(server.transitions.size(), tls::ServerConnection::rule_count());
  for (const StateMachineSpec* spec : {&client, &server}) {
    std::set<std::pair<std::string, std::uint8_t>> keys;
    for (const SpecTransition& t : spec->transitions) {
      EXPECT_TRUE(keys.insert({t.from, t.message}).second)
          << spec->role << ": duplicate rule (" << t.from << ", "
          << t.message_name << ")";
      EXPECT_NE(std::find(spec->states.begin(), spec->states.end(), t.from),
                spec->states.end());
      EXPECT_NE(std::find(spec->alphabet.begin(), spec->alphabet.end(),
                          t.message),
                spec->alphabet.end());
      for (const SpecOutcome& o : t.outcomes)
        EXPECT_NE(std::find(spec->states.begin(), spec->states.end(), o.next),
                  spec->states.end())
            << spec->role << ": outcome into undeclared state " << o.next;
    }
  }
}

// Declared (from -> to) edges of a role: the start action, every rule
// outcome, and the implicit unexpected-input edge into the error state.
std::set<std::pair<std::string, std::string>> declared_edges(
    const StateMachineSpec& spec) {
  std::set<std::pair<std::string, std::string>> edges;
  for (const tls::SpecStart& s : spec.starts)
    edges.insert({s.from, s.next});
  for (const SpecTransition& t : spec.transitions)
    for (const SpecOutcome& o : t.outcomes) edges.insert({t.from, o.next});
  for (const std::string& state : spec.states)
    if (!spec.is_terminal(state)) edges.insert({state, spec.error});
  return edges;
}

struct TracedRun {
  trace::Recorder recorder;
  bool ok = false;
};

/// Drive a full in-memory handshake with tracing on both endpoints.
/// `client_guess` != server KA (with fallback support) exercises HRR;
/// `garbage_first` feeds a junk record to the server instead.
TracedRun traced_handshake(const std::string& server_ka,
                           const std::string& client_guess,
                           bool garbage_first = false) {
  const sig::Signer* sa = sig::find_signer("dilithium2");
  crypto::Drbg setup_rng(0x7171);
  auto ca = pki::make_root_ca(*sa, "verify root", setup_rng);
  auto leaf_kp = sa->generate_keypair(setup_rng);
  auto leaf = pki::issue_certificate(ca, "verify server", sa->name(),
                                     leaf_kp.public_key, setup_rng);
  tls::ServerConfig server_config;
  server_config.ka = kem::find_kem(server_ka);
  server_config.sa = sa;
  server_config.chain.certificates = {leaf};
  server_config.leaf_key = sa->load_signing_key(leaf_kp.secret_key);
  tls::ClientConfig client_config;
  client_config.ka = kem::find_kem(client_guess);
  if (client_guess != server_ka)
    client_config.also_supported.push_back(kem::find_kem(server_ka));
  client_config.sa = sa;
  client_config.root = pki::TrustAnchor(ca.certificate);

  TracedRun run;
  tls::ClientConnection client(client_config, crypto::Drbg(1));
  tls::ServerConnection server(server_config, crypto::Drbg(2));
  client.set_trace(&run.recorder, "tls:client");
  server.set_trace(&run.recorder, "tls:server");
  std::vector<Bytes> to_server, to_client;
  if (garbage_first) {
    Bytes junk = {0x17, 0x03, 0x03, 0x00, 0x04, 1, 2, 3, 4};
    server.on_data(junk, [&](BytesView d) {
      to_client.emplace_back(d.begin(), d.end());
    });
  }
  client.start([&](BytesView d) {
    to_server.emplace_back(d.begin(), d.end());
  });
  for (int round = 0; round < 30; ++round) {
    if (to_server.empty() && to_client.empty()) break;
    for (auto& f : to_server)
      server.on_data(f, [&](BytesView d) {
        to_client.emplace_back(d.begin(), d.end());
      });
    to_server.clear();
    for (auto& f : to_client)
      client.on_data(f, [&](BytesView d) {
        to_server.emplace_back(d.begin(), d.end());
      });
    to_client.clear();
  }
  run.ok = client.handshake_complete() && server.handshake_complete();
  return run;
}

void expect_trace_within_spec(const trace::Recorder& recorder) {
  auto client_edges = declared_edges(tls::client_spec());
  auto server_edges = declared_edges(tls::server_spec());
  std::size_t observed = 0;
  for (const trace::Event& e : recorder.events()) {
    if (e.cat != "tls" || e.name != "state") continue;
    std::string from, to;
    for (const auto& [key, value] : e.str) {
      if (key == "from") from = value;
      if (key == "to") to = value;
    }
    const auto& edges = e.who == "tls:client" ? client_edges : server_edges;
    EXPECT_TRUE(edges.count({from, to}))
        << e.who << " moved " << from << " -> " << to
        << ", an edge the spec does not declare";
    ++observed;
  }
  EXPECT_GT(observed, 0u) << "handshake produced no tls/state events";
}

TEST(SpecLockstep, OneRttHandshakeStaysWithinDeclaredEdges) {
  TracedRun run = traced_handshake("kyber768", "kyber768");
  EXPECT_TRUE(run.ok);
  expect_trace_within_spec(run.recorder);
  // The full success path is walked: every client state appears.
  std::set<std::string> visited;
  for (const trace::Event& e : run.recorder.events())
    for (const auto& [key, value] : e.str)
      if (key == "to") visited.insert(value);
  EXPECT_TRUE(visited.count("complete"));
}

TEST(SpecLockstep, HrrHandshakeStaysWithinDeclaredEdges) {
  TracedRun run = traced_handshake("kyber768", "x25519");
  EXPECT_TRUE(run.ok);
  expect_trace_within_spec(run.recorder);
}

TEST(SpecLockstep, GarbageRejectStaysWithinDeclaredEdges) {
  TracedRun run = traced_handshake("kyber768", "kyber768",
                                   /*garbage_first=*/true);
  expect_trace_within_spec(run.recorder);
}

TEST(SpecLockstep, ResumedHandshakeStaysWithinDeclaredEdges) {
  // First handshake mints a ticket; the resumed one (with 0-RTT) must walk
  // only edges the enlarged spec declares.
  const sig::Signer* sa = sig::find_signer("dilithium2");
  crypto::Drbg setup_rng(0x7272);
  auto ca = pki::make_root_ca(*sa, "verify root", setup_rng);
  auto leaf_kp = sa->generate_keypair(setup_rng);
  auto leaf = pki::issue_certificate(ca, "verify server", sa->name(),
                                     leaf_kp.public_key, setup_rng);
  session::TicketStore store{crypto::Drbg(0x7373)};
  tls::ServerConfig server_config;
  server_config.ka = kem::find_kem("kyber768");
  server_config.sa = sa;
  server_config.chain.certificates = {leaf};
  server_config.leaf_key = sa->load_signing_key(leaf_kp.secret_key);
  server_config.tickets = &store;
  server_config.accept_early_data = true;
  tls::ClientConfig client_config;
  client_config.ka = kem::find_kem("kyber768");
  client_config.sa = sa;
  client_config.root = pki::TrustAnchor(ca.certificate);
  client_config.request_ticket = true;

  auto run_handshake = [&](tls::ClientConnection& client,
                           tls::ServerConnection& server) {
    std::vector<Bytes> to_server, to_client;
    client.start([&](BytesView d) {
      to_server.emplace_back(d.begin(), d.end());
    });
    for (int round = 0; round < 30; ++round) {
      if (to_server.empty() && to_client.empty()) break;
      for (auto& f : to_server)
        server.on_data(f, [&](BytesView d) {
          to_client.emplace_back(d.begin(), d.end());
        });
      to_server.clear();
      for (auto& f : to_client)
        client.on_data(f, [&](BytesView d) {
          to_server.emplace_back(d.begin(), d.end());
        });
      to_client.clear();
    }
    return client.handshake_complete() && server.handshake_complete();
  };

  tls::ClientConnection first(client_config, crypto::Drbg(1));
  tls::ServerConnection first_server(server_config, crypto::Drbg(2));
  ASSERT_TRUE(run_handshake(first, first_server));
  auto ticket = first.take_ticket();
  ASSERT_TRUE(ticket.has_value());

  trace::Recorder recorder;
  tls::ClientConfig resume_config = client_config;
  resume_config.resume = &*ticket;
  resume_config.early_data = {0xDE, 0xAD, 0xBE, 0xEF};
  tls::ClientConnection resumed(resume_config, crypto::Drbg(3));
  tls::ServerConnection resumed_server(server_config, crypto::Drbg(4));
  resumed.set_trace(&recorder, "tls:client");
  resumed_server.set_trace(&recorder, "tls:server");
  ASSERT_TRUE(run_handshake(resumed, resumed_server));
  EXPECT_TRUE(resumed.resumed());
  EXPECT_TRUE(resumed.early_data_accepted());
  expect_trace_within_spec(recorder);
}

}  // namespace
}  // namespace pqtls
