// pqbench: runs one workload of the repository benchmark in its own process
// and prints its metrics as JSON.
//
//   pqbench <workload> [--seed S] [--seconds T] [--trace-dir DIR]
//                      [--golden-dir DIR] [--wrong-early-data]
//
// Workloads: full_lattice, full_sphincs, resume_0rtt, campaigns, loadgen_sim
// (benchmark/README.md says what each runs and why).
//
// Every layer is measured from outside, by timing calls into its public
// functions. The first stdout line is the run manifest, the last one the
// result. Set-up runs several times, each time with fresh PKI material drawn
// from its own seed, and reports the median; the last repetition uses the
// run's seed and its state is kept. The workload then runs closed-loop for
// --seconds (0 = one op per caller). With --trace-dir every second op is
// traced: the per-layer metrics aggregate the traced ops, the untraced ones
// give the tracing overhead, and the algorithm and kernel ladder runs
// afterwards. Spans go to DIR/<workload>.trace.json as Chrome trace-event
// JSON, which Perfetto loads.
//
// Exit code: 0 when every correctness check passed, 1 when one failed or the
// run threw, 2 on a usage error.
#include <time.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/runner.hpp"
#include "campaign/sinks.hpp"
#include "crypto/aes.hpp"
#include "crypto/backend/backend.hpp"
#include "crypto/catalog.hpp"
#include "crypto/drbg.hpp"
#include "crypto/haraka.hpp"
#include "crypto/keccak.hpp"
#include "crypto/sha2.hpp"
#include "loadgen/loadgen.hpp"
#include "loadgen/sweep.hpp"
#include "perf/profiler.hpp"
#include "pki/certificate.hpp"
#include "session/session.hpp"
#include "tls/connection.hpp"
#include "tls/key_schedule.hpp"
#include "tls/server_context.hpp"

namespace {

using namespace pqtls;
using Clock = std::chrono::steady_clock;

// Load threads per workload: the reference host has four cores, and two
// leave room for the benchmark's own bookkeeping and for other tenants.
constexpr int kCallers = 2;
// The campaign goldens were generated at this base seed. Benchmark seed S
// maps to base seed kBaseSeed + S, so the default seed 0 replays them.
constexpr std::uint64_t kBaseSeed = 0x715b3d;
// Set-up repetitions; a campaigns repetition is a whole cold pass.
constexpr int kSetupReps = 5;
constexpr int kCampaignSetupReps = 3;
// Trace files keep the spans of every kSpanEvery-th traced handshake; the
// per-layer metrics still aggregate every traced op.
constexpr long long kSpanEvery = 10;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
double micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// VmHWM is this process's own high-water mark; getrusage's ru_maxrss would
// also count the parent's footprint, which Linux carries across exec.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0;
}

// SplitMix64 finalizer: independent per-op seeds from the run seed.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c = 0) {
  return mix(mix(mix(a) ^ b) ^ c);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

// ---------------------------------------------------------------------------
// Options, results, spans.

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  std::string trace_dir;
  std::string golden_dir = PQBENCH_GOLDEN_DIR;
  bool wrong_early_data = false;  // self-test fault: expect the wrong payload

  bool traced() const { return !trace_dir.empty(); }
  std::uint64_t base_seed() const { return kBaseSeed + seed; }
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// Every per-layer metric a traced run reports, with its unit. Layers a
// workload's own ops do not exercise are measured by fixed rungs.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"tls.client_hello_us", "us"},
    {"tls.server_flight_us", "us"},
    {"tls.client_finish_us", "us"},
    {"tls.server_finish_us", "us"},
    {"tls.self_us", "us"},
    {"tls.wire_bytes", "bytes"},
    {"tls.flights", "count"},
    {"tls.server_hs_per_core_s", "1/cpu-s"},
    {"perf.server_libcrypto_share", "ratio"},
    {"perf.client_libcrypto_share", "ratio"},
    {"kem.keygen_us", "us"},
    {"kem.encaps_us", "us"},
    {"kem.decaps_us", "us"},
    {"sig.sign_us", "us"},
    {"sig.verify_us", "us"},
    {"pki.verify_chain_us", "us"},
    {"crypto.shake128_mbps", "MB/s"},
    {"crypto.kyber_ntt_ns", "ns"},
    {"crypto.dilithium_ntt_ns", "ns"},
    {"crypto.haraka512_mbps", "MB/s"},
    {"crypto.aes_gcm_mbps", "MB/s"},
    {"crypto.sha256_mbps", "MB/s"},
    {"crypto.hkdf_expand_ns", "ns"},
    {"session.tickets_issued", "count"},
    {"session.tickets_redeemed", "count"},
    {"session.resumed_ratio", "ratio"},
    {"session.early_data_accepted_ratio", "ratio"},
    {"campaign.table4a_s", "s"},
    {"campaign.resumption_s", "s"},
    {"campaign.cert_chains_s", "s"},
    {"campaign.fleet_s", "s"},
    {"campaign.loadgen_batch_s", "s"},
    {"campaign.worker_busy_ratio", "ratio"},
    {"testbed.libcrypto_share", "ratio"},
    {"testbed.libssl_share", "ratio"},
    {"testbed.kernel_share", "ratio"},
    {"loadgen.cell_events_per_s", "1/s"},
    {"loadgen.calibrate_ms", "ms"},
    {"loadgen.sweep_s", "s"},
    {"loadgen.fleet_s", "s"},
    {"loadgen.sim_hs_per_s", "1/s"},
    {"loadgen.completed", "count"},
    {"loadgen.dropped", "count"},
    {"loadgen.timed_out", "count"},
    {"sim.sweep_events_per_s", "1/s"},
    {"sim.fleet_events_per_s", "1/s"},
    {"sim.events_per_hs", "count"},
    {"sim.shard_speedup", "ratio"},
    {"trace.overhead_pct", "%"},
};

struct Report {
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layers;

  void layer(const char* name, double value) {
    for (const auto& [known, unit] : kLayerMetrics)
      if (std::strcmp(known, name) == 0)
        return layers.push_back({name, value, unit});
    throw std::logic_error(std::string("undeclared layer metric ") + name);
  }
};

// The measurement window every workload reduces to: the wall time of each
// completed op, split by whether the op was traced.
struct Window {
  double wall_s = 0;
  std::vector<double> op_s;
  std::vector<double> traced_op_s;

  long long ops() const {
    return static_cast<long long>(op_s.size() + traced_op_s.size());
  }
};

// End-to-end metrics, from the whole window (untraced runs trace no op).
void add_e2e(Report& r, double setup_s, const Window& w) {
  std::vector<double> all = w.op_s;
  all.insert(all.end(), w.traced_op_s.begin(), w.traced_op_s.end());
  r.e2e = {
      {"setup_s", setup_s, "s"},
      {"ops_per_s", ratio(static_cast<double>(w.ops()), w.wall_s), "1/s"},
      {"op_p50_ms", 1e3 * median(all), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

// Traced ops interleave with untraced ones under the same host conditions,
// so the median ratio isolates what tracing costs.
void add_overhead(Report& r, const Window& w) {
  r.layer("trace.overhead_pct",
          100 * (ratio(median(w.traced_op_s), median(w.op_s)) - 1));
}

// One timed region; the spans of one op point at its root through `parent`.
struct Span {
  const char* name;
  double start_us;
  double end_us;
  std::uint64_t id;
  std::uint64_t parent;  // 0 = root
  int tid;
};

// Spans are buffered per thread (no locking on the hot path), merged after
// the threads join, and written once at exit as Chrome trace-event JSON.
class SpanLog {
 public:
  double us(Clock::time_point t) const { return micros(origin_, t); }
  void merge(std::vector<Span>& spans) {
    spans_.insert(spans_.end(), spans.begin(), spans.end());
    spans.clear();
  }
  bool write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":" << json_string(s.name)
          << ",\"cat\":\"pqbench\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
          << ",\"ts\":" << json_number(s.start_us)
          << ",\"dur\":" << json_number(s.end_us - s.start_us)
          << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
          << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// Runs fn(caller) on `callers` threads (inline for one) and joins them.
void on_callers(int callers, const std::function<void(int)>& fn) {
  if (callers == 1) return fn(0);
  std::vector<std::thread> threads;
  for (int t = 0; t < callers; ++t) threads.emplace_back(fn, t);
  for (auto& th : threads) th.join();
}

// Whether a caller starts op `i`: at least `min_ops` ops, then more until
// `seconds` have passed.
struct Budget {
  double seconds = 0;
  long long min_ops = 1;
  Clock::time_point start = Clock::now();

  bool more(long long i) const {
    return i < min_ops || (seconds > 0 && since(start) < seconds);
  }
};

// A traced run traces every second op and needs one of each kind.
Budget window_budget(const Options& o) { return {o.seconds, o.traced() ? 2 : 1}; }
bool traced_op(const Options& o, long long i) { return o.traced() && i % 2 == 1; }

// Runs set-up `reps` times, passing each repetition its PKI seed (fresh ones,
// then the run's own for the last); returns the median wall time.
double timed_setup(const Options& o, int reps,
                   const std::function<void(std::uint64_t)>& rep) {
  std::vector<double> s;
  for (int r = 0; r < reps; ++r) {
    auto t0 = Clock::now();
    rep(r == reps - 1 ? o.base_seed() : mix(o.base_seed(), 0x5e7, r));
    s.push_back(since(t0));
  }
  return median(s);
}

// ---------------------------------------------------------------------------
// Algorithm and kernel ladder (traced runs).

// Median wall time of fn() in microseconds over at least `min_calls` calls
// and at least `min_s` seconds.
double ladder_us(const std::function<void()>& fn, int min_calls = 20,
                 double min_s = 0.05) {
  std::vector<double> us;
  auto t0 = Clock::now();
  while (static_cast<int>(us.size()) < min_calls || since(t0) < min_s) {
    auto a = Clock::now();
    fn();
    us.push_back(micros(a, Clock::now()));
  }
  return median(us);
}

// kem/sig/pki rung: direct calls with the pair's server-context keys.
// Returns what one handshake of this pair spends in these ops.
double algorithm_ladder(const tls::ServerContext& ctx, bool resumed,
                        std::uint64_t seed, Report& r) {
  crypto::Drbg rng(mix(seed, 0x1add));
  const kem::Kem& ka = *ctx.ka;
  const sig::Signer& sa = *ctx.sa;
  kem::KeyPair kp = ka.generate_keypair(rng);
  auto enc = ka.encapsulate(kp.public_key, rng);
  if (!enc) throw std::runtime_error("ladder: encapsulation failed");
  const Bytes message = rng.bytes(64);
  const Bytes signature = sa.sign(ctx.leaf_secret_key, message, rng);
  const Bytes& leaf_pk = ctx.chain.certificates.front().subject_public_key;
  const std::uint64_t now = tls::ClientConfig{}.now;
  bool ok = true;
  double keygen = ladder_us([&] { ok &= !ka.generate_keypair(rng).public_key.empty(); });
  double encaps = ladder_us([&] { ok &= ka.encapsulate(kp.public_key, rng).has_value(); });
  double decaps = ladder_us([&] { ok &= ka.decapsulate(kp.secret_key, enc->ciphertext).has_value(); });
  double sign = ladder_us([&] { ok &= !sa.sign(ctx.leaf_secret_key, message, rng).empty(); }, 5);
  double verify = ladder_us([&] { ok &= sa.verify(leaf_pk, message, signature); });
  double chain = ladder_us([&] { ok &= pki::verify_chain(ctx.chain, ctx.root, now); });
  if (!ok) throw std::runtime_error("ladder: an operation failed");
  r.layer("kem.keygen_us", keygen);
  r.layer("kem.encaps_us", encaps);
  r.layer("kem.decaps_us", decaps);
  r.layer("sig.sign_us", sign);
  r.layer("sig.verify_us", verify);
  r.layer("pki.verify_chain_us", chain);
  // A full handshake runs each KEM op once, one signature and its verify,
  // and the chain walk; a resumption (psk_dhe_ke) only the KEM ops.
  double kem_ops = keygen + encaps + decaps;
  return resumed ? kem_ops : kem_ops + sign + verify + chain;
}

// crypto rung. Throughputs are MB/s of input processed.
void kernel_ladder(Report& r) {
  constexpr std::size_t kChunk = 16384;
  Bytes data(kChunk, 0x5a);
  auto mbps = [](double us_per_chunk) { return kChunk / us_per_chunk; };

  r.layer("crypto.shake128_mbps", mbps(ladder_us([&] {
    crypto::Shake xof(128);
    xof.absorb(BytesView(data.data(), 32));
    xof.squeeze(data.data(), kChunk);
  })));

  // The kernels keep coefficients canonical, so repeated application stays
  // in range; a batch per timing lifts the sub-microsecond calls above
  // clock noise.
  constexpr int kNtts = 64;
  std::int16_t kpoly[256];
  std::int32_t dpoly[256];
  for (int i = 0; i < 256; ++i) {
    kpoly[i] = static_cast<std::int16_t>((i * 13) % 3329);
    dpoly[i] = (i * 7919) % 8380417;
  }
  const auto& kyber = crypto::backend::kyber_kernels();
  const auto& dilithium = crypto::backend::dilithium_kernels();
  r.layer("crypto.kyber_ntt_ns", 1e3 / kNtts * ladder_us([&] {
    for (int i = 0; i < kNtts; ++i) kyber.ntt(kpoly);
  }));
  r.layer("crypto.dilithium_ntt_ns", 1e3 / kNtts * ladder_us([&] {
    for (int i = 0; i < kNtts; ++i) dilithium.ntt(dpoly);
  }));

  crypto::Haraka haraka;
  r.layer("crypto.haraka512_mbps", mbps(ladder_us([&] {
    for (std::size_t off = 0; off + 64 <= kChunk; off += 64)
      haraka.haraka512(data.data() + off, data.data() + off / 2);
  })));

  crypto::AesGcm gcm(Bytes(16, 0x42));
  const Bytes nonce(12, 0x24);
  r.layer("crypto.aes_gcm_mbps", mbps(ladder_us([&] {
    data[0] = gcm.seal(nonce, {}, data)[0];
  })));
  r.layer("crypto.sha256_mbps", mbps(ladder_us([&] {
    data[1] = crypto::sha256(data)[0];
  })));
  const Bytes secret(32, 0x33);
  r.layer("crypto.hkdf_expand_ns", 1e3 * ladder_us([&] {
    data[2] = tls::hkdf_expand_label(secret, "key", {}, 16)[0];
  }, 200));
}

// ---------------------------------------------------------------------------
// Handshake workloads: real TLS 1.3 handshakes through in-memory flights.

struct Pair {
  const char* ka;
  const char* sa;
  bool resume;  // resume_0rtt: psk_dhe_ke from the previous ticket + 0-RTT
};

enum Flight { kClientHello, kServerFlight, kClientFinish, kServerFinish, kFlightKinds };
constexpr const char* kFlightSpan[kFlightKinds] = {
    "tls.client_hello", "tls.server_flight", "tls.client_finish",
    "tls.server_finish"};
constexpr const char* kFlightMetric[kFlightKinds] = {
    "tls.client_hello_us", "tls.server_flight_us", "tls.client_finish_us",
    "tls.server_finish_us"};

// What the traced handshakes of one caller add up to.
struct HsTrace {
  long long ops = 0;
  double flight_us[kFlightKinds] = {};
  double server_cpu_s = 0;
  double server_wall_s = 0;
  double client_wall_s = 0;
  double wire_bytes = 0;
  double flights = 0;
  long long resumed = 0;
  long long early_accepted = 0;
  perf::Profiler client_prof;
  perf::Profiler server_prof;
  std::vector<Span> spans;
};

// One closed-loop caller: its endpoint configs and, when resuming, the
// ticket its previous connection received.
struct Caller {
  tls::ClientConfig client;
  tls::ServerConfig server;
  Bytes expected_early_data;
  std::optional<session::SessionTicket> ticket;
};

struct HsSetup {
  const tls::ServerContext* ctx = nullptr;
  std::unique_ptr<session::TicketStore> store;
  std::vector<Caller> callers;
};

// Runs one handshake and returns true when it passed every check. A
// resumption must resume on both ends, have its 0-RTT data accepted and
// delivered intact, and yield the ticket for the next one. `tr` (nullable)
// receives per-flight timings; `log` (nullable) receives spans.
bool handshake(Caller& c, bool resume, bool must_resume, std::uint64_t rng_seed,
               std::uint64_t op_id, int tid, HsTrace* tr, const SpanLog* log) {
  std::optional<session::SessionTicket> next_ticket;
  bool ok = false;
  {
    c.client.resume = resume && c.ticket ? &*c.ticket : nullptr;
    const bool resuming = c.client.resume != nullptr;
    if (must_resume && !resuming) return false;
    tls::ClientConnection client(c.client, crypto::Drbg(rng_seed),
                                 tr ? &tr->client_prof : nullptr);
    tls::ServerConnection server(c.server, crypto::Drbg(mix(rng_seed)),
                                 tr ? &tr->server_prof : nullptr);
    std::vector<Bytes> to_server, to_client;
    double bytes = 0, flights = 0;
    tls::FlightSink client_out = [&](BytesView d) {
      to_server.emplace_back(d.begin(), d.end());
      bytes += static_cast<double>(d.size());
      ++flights;
    };
    tls::FlightSink server_out = [&](BytesView d) {
      to_client.emplace_back(d.begin(), d.end());
      bytes += static_cast<double>(d.size());
      ++flights;
    };
    std::uint64_t child = op_id;
    auto step = [&](Flight f, const std::function<void()>& call) {
      if (!tr) return call();
      const bool server_side = f == kServerFlight || f == kServerFinish;
      double cpu0 = server_side ? thread_cpu_s() : 0;
      auto a = Clock::now();
      call();
      auto b = Clock::now();
      double us = micros(a, b);
      tr->flight_us[f] += us;
      if (server_side) {
        tr->server_cpu_s += thread_cpu_s() - cpu0;
        tr->server_wall_s += 1e-6 * us;
      } else {
        tr->client_wall_s += 1e-6 * us;
      }
      if (log) tr->spans.push_back({kFlightSpan[f], log->us(a), log->us(b), ++child, op_id, tid});
    };

    // The client's first flight, then rounds of server and client flights
    // until both sides go quiet. The client's ticket receipt (after the
    // server's Finished processing) counts as client_finish.
    step(kClientHello, [&] { client.start(client_out); });
    for (int round = 0; round < 8 && !(to_server.empty() && to_client.empty()); ++round) {
      for (const Bytes& f : std::exchange(to_server, {}))
        step(round == 0 ? kServerFlight : kServerFinish, [&] { server.on_data(f, server_out); });
      for (const Bytes& f : std::exchange(to_client, {}))
        step(kClientFinish, [&] { client.on_data(f, client_out); });
    }
    ok = client.handshake_complete() && server.handshake_complete();
    if (resume) {
      if (resuming)
        ok = ok && client.resumed() && server.resumed() &&
             client.early_data_accepted() && server.early_data_accepted() &&
             server.early_data() == c.expected_early_data;
      next_ticket = client.take_ticket();
      ok = ok && next_ticket.has_value();
    }
    if (tr && ok) {
      ++tr->ops;
      tr->wire_bytes += bytes;
      tr->flights += flights;
      tr->resumed += client.resumed();
      tr->early_accepted += server.early_data_accepted();
    }
  }
  // The finished connection borrowed the old ticket; replace it only now.
  c.ticket = std::move(next_ticket);
  return ok;
}

// Builds the server context, ticket store and callers for one set-up
// repetition, then warms every caller up (a resuming caller's first
// handshake is the full one that mints its first ticket). Warm-ups run on
// this thread: a burst of fresh threads lands on one or two vCPUs at the
// scheduler's whim, which made the set-up time bimodal.
HsSetup set_up_handshakes(const Pair& p, std::uint64_t pki_seed,
                          const Options& o, int callers, Report& r) {
  constexpr int kWarmup = 25;
  const auto& catalog = crypto::AlgorithmCatalog::instance();
  HsSetup s;
  s.ctx = &tls::server_context(*catalog.require_kem(p.ka).kem,
                               *catalog.require_signer(p.sa).signer, pki_seed);
  s.store = std::make_unique<session::TicketStore>(crypto::Drbg(mix(pki_seed, 0x71c)));
  for (int t = 0; t < callers; ++t) {
    Caller c;
    c.client = s.ctx->client_config();
    c.server = s.ctx->server_config();
    if (p.resume) {
      c.client.request_ticket = true;
      c.client.early_data = crypto::Drbg(mix(o.seed, 0xea7, t)).bytes(1024);
      c.expected_early_data = c.client.early_data;
      if (o.wrong_early_data) c.expected_early_data[0] ^= 0x01;
      c.server.tickets = s.store.get();
      c.server.accept_early_data = true;
    }
    s.callers.push_back(std::move(c));
  }
  for (int t = 0; t < callers; ++t)
    for (int i = 0; i < kWarmup; ++i) {
      ++r.attempted;
      r.failed += !handshake(s.callers[t], p.resume, p.resume && i > 0,
                             mix(pki_seed, t, i), 0, t, nullptr, nullptr);
    }
  return s;
}

// Runs the callers closed-loop within `budget`. With `traces` (one per
// caller) every second op is timed per flight, and with `log` every
// kSpanEvery-th traced op also records spans.
Window handshake_window(HsSetup& s, bool resume, std::uint64_t stream,
                        const Budget& budget, const Options& o, Report& r,
                        std::vector<HsTrace>* traces, const SpanLog* log) {
  const int callers = static_cast<int>(s.callers.size());
  std::vector<Window> per_caller(callers);
  std::vector<long long> attempted(callers, 0), failed(callers, 0);
  Window w;
  auto t0 = Clock::now();
  on_callers(callers, [&](int t) {
    for (long long i = 0; budget.more(i); ++i) {
      const bool traced = traces && traced_op(o, i);
      HsTrace* tr = traced ? &(*traces)[t] : nullptr;
      // Root span id = op index (spread over callers), children follow it.
      std::uint64_t op = static_cast<std::uint64_t>(i * callers + t + 1) << 5;
      bool sampled = tr && log && i / 2 % kSpanEvery == 0;
      auto a = Clock::now();
      bool ok = handshake(s.callers[t], resume, resume, mix(stream, t, i), op,
                          t, tr, sampled ? log : nullptr);
      auto b = Clock::now();
      ++attempted[t];
      if (!ok) {
        ++failed[t];
        continue;
      }
      (traced ? per_caller[t].traced_op_s : per_caller[t].op_s).push_back(1e-6 * micros(a, b));
      if (sampled) tr->spans.push_back({"handshake", log->us(a), log->us(b), op, 0, t});
    }
  });
  w.wall_s = since(t0);
  for (int t = 0; t < callers; ++t) {
    r.attempted += attempted[t];
    r.failed += failed[t];
    const Window& c = per_caller[t];
    w.op_s.insert(w.op_s.end(), c.op_s.begin(), c.op_s.end());
    w.traced_op_s.insert(w.traced_op_s.end(), c.traced_op_s.begin(), c.traced_op_s.end());
  }
  return w;
}

// tls/perf layers from the traced ops of a window, plus the kem/sig/pki
// rung for the same pair, from which tls.self_us is derived.
void add_handshake_layers(const HsSetup& s, bool resume,
                          const std::vector<HsTrace>& traces, const Options& o,
                          Report& r) {
  double n = 0, flight_us[kFlightKinds] = {}, server_cpu_s = 0;
  double server_wall_s = 0, client_wall_s = 0, wire_bytes = 0, flights = 0;
  double client_crypto = 0, server_crypto = 0;
  for (const auto& tr : traces) {
    n += static_cast<double>(tr.ops);
    for (int f = 0; f < kFlightKinds; ++f) flight_us[f] += tr.flight_us[f];
    server_cpu_s += tr.server_cpu_s;
    server_wall_s += tr.server_wall_s;
    client_wall_s += tr.client_wall_s;
    wire_bytes += tr.wire_bytes;
    flights += tr.flights;
    client_crypto += tr.client_prof.total(perf::Lib::kLibcrypto);
    server_crypto += tr.server_prof.total(perf::Lib::kLibcrypto);
  }
  double flights_us = 0;
  for (int f = 0; f < kFlightKinds; ++f) {
    r.layer(kFlightMetric[f], ratio(flight_us[f], n));
    flights_us += ratio(flight_us[f], n);
  }
  r.layer("tls.wire_bytes", ratio(wire_bytes, n));
  r.layer("tls.flights", ratio(flights, n));
  r.layer("tls.server_hs_per_core_s", ratio(n, server_cpu_s));
  // The connections attribute only crypto calls; the rest of each flight's
  // wall time is protocol code.
  r.layer("perf.server_libcrypto_share", ratio(server_crypto, server_wall_s));
  r.layer("perf.client_libcrypto_share", ratio(client_crypto, client_wall_s));
  // Derived, not a span: the flights' total minus what the same op mix
  // costs as direct calls.
  double op_mix_us = algorithm_ladder(*s.ctx, resume, o.seed, r);
  r.layer("tls.self_us", flights_us - op_mix_us);
}

// session layer from the traced ops of a resuming window: the ticket
// store's counters over the window and the resumed and 0-RTT shares.
void add_session_layers(const std::vector<HsTrace>& traces, std::uint64_t issued,
                        std::uint64_t redeemed, Report& r) {
  double n = 0, resumed = 0, early = 0;
  for (const auto& tr : traces) {
    n += static_cast<double>(tr.ops);
    resumed += static_cast<double>(tr.resumed);
    early += static_cast<double>(tr.early_accepted);
  }
  r.layer("session.tickets_issued", static_cast<double>(issued));
  r.layer("session.tickets_redeemed", static_cast<double>(redeemed));
  r.layer("session.resumed_ratio", ratio(resumed, n));
  r.layer("session.early_data_accepted_ratio", ratio(early, n));
}

// A handshake window with every second op traced; adds the handshake (and,
// when resuming, session) layers and hands the spans to `log` (nullable).
Window traced_handshakes(HsSetup& setup, bool resume, const Budget& budget,
                         const Options& o, Report& r, SpanLog* log) {
  std::vector<HsTrace> traces(setup.callers.size());
  std::uint64_t issued = setup.store->issued(), redeemed = setup.store->redeemed();
  Window w = handshake_window(setup, resume, mix(o.seed, 0x7ace), budget, o, r,
                              &traces, log);
  add_handshake_layers(setup, resume, traces, o, r);
  if (resume)
    add_session_layers(traces, setup.store->issued() - issued,
                       setup.store->redeemed() - redeemed, r);
  if (log)
    for (auto& tr : traces) log->merge(tr.spans);
  return w;
}

// The session rung for workloads whose handshakes never resume: 64
// kyber512/dilithium2 resumptions with 0-RTT on one caller, every second
// one traced.
void session_rung(const Options& o, Report& r) {
  HsSetup setup = set_up_handshakes({"kyber512", "dilithium2", true},
                                    o.base_seed(), o, 1, r);
  std::vector<HsTrace> traces(1);
  std::uint64_t issued = setup.store->issued(), redeemed = setup.store->redeemed();
  handshake_window(setup, true, mix(o.seed, 0x5e55), {0, 64}, o, r, &traces, nullptr);
  add_session_layers(traces, setup.store->issued() - issued,
                     setup.store->redeemed() - redeemed, r);
}

// The per-flight and session rungs for workloads that run no handshakes of
// their own: 64 kyber512/dilithium2 handshakes on one caller, every second
// one traced.
void handshake_rung(const Options& o, Report& r) {
  HsSetup setup = set_up_handshakes({"kyber512", "dilithium2", false},
                                    o.base_seed(), o, 1, r);
  traced_handshakes(setup, false, {0, 64}, o, r, nullptr);
  session_rung(o, r);
}

// ---------------------------------------------------------------------------
// campaigns: one pass = table4a (samples=3), resumption, cert_chains, fleet
// and loadgen_batch at their defaults, 2 workers, base seed kBaseSeed + S.
// An op is one warm pass.

constexpr const char* kCampaigns[] = {"table4a", "resumption", "cert_chains",
                                      "fleet", "loadgen_batch"};
constexpr const char* kCampaignMetric[] = {
    "campaign.table4a_s", "campaign.resumption_s", "campaign.cert_chains_s",
    "campaign.fleet_s", "campaign.loadgen_batch_s"};
// Samples per cell of the table campaigns (table4a, and table3 in traced runs).
constexpr int kTableSamples = 3;

// Records what the runner reports per cell.
struct CellLog final : campaign::Sink {
  long long cells = 0;
  long long failed = 0;
  double busy_s = 0;
  double load_events = 0;
  double load_wall_s = 0;

  void cell(const campaign::CellOutcome& o) override {
    ++cells;
    failed += !o.ok();
    busy_s += o.wall_seconds;
    if (o.cell.loadgen) {
      load_events += static_cast<double>(o.load.sim_events);
      load_wall_s += o.wall_seconds;
    }
  }
};

struct Pass {
  std::vector<std::string> rows;  // JSONL per campaign, in kCampaigns order
  std::vector<double> campaign_s;
  CellLog cells;
  double wall_s = 0;
};

campaign::RunnerOptions campaign_options(const char* name, std::uint64_t base) {
  campaign::RunnerOptions opts;
  opts.workers = kCallers;
  opts.base_seed = base;
  if (std::strncmp(name, "table", 5) == 0) opts.samples = kTableSamples;
  return opts;
}

Pass campaign_pass(std::uint64_t base, const SpanLog* log, std::uint64_t pass_id,
                   std::vector<Span>& spans) {
  Pass p;
  auto t0 = Clock::now();
  std::uint64_t child = pass_id;
  for (const char* name : kCampaigns) {
    const campaign::CampaignSpec* spec = campaign::find_campaign(name);
    if (!spec) throw std::runtime_error(std::string("unknown campaign ") + name);
    std::ostringstream out;
    campaign::JsonlSink jsonl(out);
    auto a = Clock::now();
    campaign::run_campaign(*spec, campaign_options(name, base), {&jsonl, &p.cells});
    auto b = Clock::now();
    p.campaign_s.push_back(1e-6 * micros(a, b));
    p.rows.push_back(out.str());
    if (log) spans.push_back({name, log->us(a), log->us(b), ++child, pass_id, 0});
  }
  p.wall_s = since(t0);
  if (log) spans.push_back({"pass", log->us(t0), log->us(Clock::now()), pass_id, 0, 0});
  return p;
}

// Lines that differ between two JSONL texts (missing lines count).
long long differing_lines(const std::string& a, const std::string& b) {
  std::istringstream sa(a), sb(b);
  std::string la, lb;
  long long diff = 0;
  for (;;) {
    bool ha = static_cast<bool>(std::getline(sa, la));
    bool hb = static_cast<bool>(std::getline(sb, lb));
    if (!ha && !hb) return diff;
    diff += !(ha && hb && la == lb);
  }
}

// The goldens are read from the repository at run time, never copied.
long long golden_mismatches(const Pass& cold, const std::string& dir) {
  long long diff = 0;
  for (std::size_t i = 0; i < std::size(kCampaigns); ++i) {
    if (std::strcmp(kCampaigns[i], "table4a") == 0) continue;  // no golden
    std::ifstream in(dir + "/" + kCampaigns[i] + "_rows.jsonl", std::ios::binary);
    std::ostringstream golden;
    golden << in.rdbuf();
    long long d = in ? differing_lines(cold.rows[i], golden.str()) : 1;
    if (d) std::fprintf(stderr, "campaigns: %s differs from its golden in %lld rows\n",
                        kCampaigns[i], d);
    diff += d;
  }
  return diff;
}

// Averages the white-box library shares of the table4a cells.
struct ShareLog final : campaign::Sink {
  double share[3] = {};
  int cells = 0;
  void cell(const campaign::CellOutcome& o) override {
    if (!o.ok()) return;
    const auto& s = o.result.server_shares.share;
    share[0] += s[static_cast<int>(perf::Lib::kLibcrypto)];
    share[1] += s[static_cast<int>(perf::Lib::kLibssl)];
    share[2] += s[static_cast<int>(perf::Lib::kKernel)];
    ++cells;
  }
};

// campaign/testbed layers from traced passes, plus the white-box table3
// campaign in measured time: the testbed's per-library CPU split.
void add_campaign_layers(const std::vector<Pass>& passes, const Options& o,
                         Report& r) {
  for (std::size_t c = 0; c < std::size(kCampaigns); ++c) {
    std::vector<double> s;
    for (const Pass& p : passes) s.push_back(p.campaign_s[c]);
    r.layer(kCampaignMetric[c], median(s));
  }
  double busy = 0, wall = 0, events = 0, load_wall = 0;
  for (const Pass& p : passes) {
    busy += p.cells.busy_s;
    wall += p.wall_s;
    events += p.cells.load_events;
    load_wall += p.cells.load_wall_s;
  }
  r.layer("campaign.worker_busy_ratio", ratio(busy, kCallers * wall));
  r.layer("loadgen.cell_events_per_s", ratio(events, load_wall));

  campaign::RunnerOptions opts = campaign_options("table3", o.base_seed());
  opts.time_model = testbed::TimeModel::kMeasured;
  ShareLog shares;
  r.failed += campaign::run_campaign(*campaign::find_campaign("table3"), opts, {&shares});
  r.layer("testbed.libcrypto_share", ratio(shares.share[0], shares.cells));
  r.layer("testbed.libssl_share", ratio(shares.share[1], shares.cells));
  r.layer("testbed.kernel_share", ratio(shares.share[2], shares.cells));
}

// The campaign rung for the other workloads: one cold pass.
void campaign_rung(const Options& o, Report& r) {
  std::vector<Span> unused;
  std::vector<Pass> pass;
  pass.push_back(campaign_pass(o.base_seed(), nullptr, 0, unused));
  r.attempted += pass[0].cells.cells;
  r.failed += pass[0].cells.failed;
  add_campaign_layers(pass, o, r);
}

// ---------------------------------------------------------------------------
// loadgen_sim: one trial (the op) = a 12-point sweep on the classic
// single-server engine, then one fleet run; both simulate kyber512/
// dilithium2 servers from the calibrated profile.

// Event-loop shards of the fleet phase: its two load threads.
constexpr std::uint32_t kShards = 2;

loadgen::LoadConfig sweep_config(const Options& o, std::uint64_t pki_seed) {
  loadgen::LoadConfig c;
  c.ka = "kyber512";
  c.sa = "dilithium2";
  c.arrival = loadgen::Arrival::kPoisson;
  c.cores = 4;
  c.timeout_s = 1.0;
  c.duration_s = 1.0;
  c.warmup_s = 0.25;
  c.seed = mix(o.seed, 0x5eed);
  c.pki_seed = pki_seed;
  return c;
}

// 16 servers x 4 cores at 0.9x aggregate capacity, the fleet campaign's
// client mix and churn, sized to take about as long as the sweep.
loadgen::LoadConfig fleet_config(const Options& o, std::uint64_t pki_seed,
                                 std::uint32_t shards) {
  loadgen::LoadConfig c = sweep_config(o, pki_seed);
  c.servers = 16;
  c.balancer = loadgen::BalancerKind::kPowerOfTwo;
  c.load_factor = 0.9;
  c.shards = shards;
  c.churn_rate = 20.0;
  c.churn_lifetime_s = 1.0;
  c.client_classes = {
      {"wired", {.loss = 0, .delay_s = 0.005, .rate_bps = 0}, 0.6},
      {"lte-m", {.loss = 0.10, .delay_s = 0.1, .rate_bps = 1e6}, 0.2},
      {"5g", {.loss = 0.04, .delay_s = 0.022, .rate_bps = 880e6}, 0.2},
  };
  c.duration_s = 1.0;
  c.warmup_s = 0.2;
  return c;
}

struct Trial {
  loadgen::SweepResult sweep;
  loadgen::LoadMetrics fleet;
  double sweep_s = 0;
  double fleet_s = 0;
};

Trial run_trial(const loadgen::LoadConfig& sweep, const loadgen::LoadConfig& fleet,
                const SpanLog* log, std::uint64_t trial_id, std::vector<Span>& spans) {
  Trial t;
  auto a = Clock::now();
  t.sweep = loadgen::run_sweep(sweep, loadgen::SweepOptions{});
  auto b = Clock::now();
  t.fleet = loadgen::run_load(fleet);
  auto c = Clock::now();
  t.sweep_s = 1e-6 * micros(a, b);
  t.fleet_s = 1e-6 * micros(b, c);
  if (log) {
    spans.push_back({"loadgen.sweep", log->us(a), log->us(b), trial_id + 1, trial_id, 0});
    spans.push_back({"loadgen.fleet", log->us(b), log->us(c), trial_id + 2, trial_id, 0});
    spans.push_back({"trial", log->us(a), log->us(c), trial_id, 0, 0});
  }
  return t;
}

// Bit-for-bit equality of every field (NaN percentiles compare equal).
bool same_metrics(const loadgen::LoadMetrics& a, const loadgen::LoadMetrics& b) {
  auto eq = [](double x, double y) { return std::memcmp(&x, &y, sizeof x) == 0; };
  return a.ok == b.ok && eq(a.offered_rate, b.offered_rate) &&
         eq(a.achieved_rate, b.achieved_rate) &&
         eq(a.analytic_capacity, b.analytic_capacity) && eq(a.p50, b.p50) &&
         eq(a.p90, b.p90) && eq(a.p99, b.p99) && eq(a.p999, b.p999) &&
         eq(a.mean_latency, b.mean_latency) &&
         eq(a.mean_queue_depth, b.mean_queue_depth) &&
         eq(a.core_utilization, b.core_utilization) &&
         a.arrivals == b.arrivals && a.completed == b.completed &&
         a.dropped == b.dropped && a.timed_out == b.timed_out &&
         eq(a.server_cpu_s, b.server_cpu_s) && a.client_bytes == b.client_bytes &&
         a.server_bytes == b.server_bytes && a.sim_events == b.sim_events &&
         eq(a.min_server_util, b.min_server_util) &&
         eq(a.max_server_util, b.max_server_util) &&
         a.churn_arrived == b.churn_arrived && a.churn_departed == b.churn_departed;
}

// Failed checks of a trial: every run must complete handshakes and
// reproduce the reference trial exactly.
long long trial_failures(const Trial& t, const Trial& ref) {
  long long failed = !t.fleet.ok || !same_metrics(t.fleet, ref.fleet);
  if (t.sweep.points.size() != ref.sweep.points.size()) return failed + 1;
  for (std::size_t i = 0; i < t.sweep.points.size(); ++i)
    failed += !t.sweep.points[i].metrics.ok ||
              !same_metrics(t.sweep.points[i].metrics, ref.sweep.points[i].metrics);
  return failed;
}

// loadgen/sim layers from the traced trials; every trial simulates exactly
// the reference trial's work.
void add_loadgen_layers(const std::vector<double>& calibrate_ms, const Trial& ref,
                        std::uint64_t ref_pki_seed, const std::vector<Trial>& traced,
                        const Options& o, Report& r) {
  r.layer("loadgen.calibrate_ms", median(calibrate_ms));
  std::vector<double> sweep_s, fleet_s;
  for (const Trial& t : traced) {
    sweep_s.push_back(t.sweep_s);
    fleet_s.push_back(t.fleet_s);
  }
  double completed = 0, dropped = 0, timed_out = 0, sweep_events = 0;
  for (const auto& p : ref.sweep.points) {
    completed += static_cast<double>(p.metrics.completed);
    dropped += static_cast<double>(p.metrics.dropped);
    timed_out += static_cast<double>(p.metrics.timed_out);
    sweep_events += static_cast<double>(p.metrics.sim_events);
  }
  completed += static_cast<double>(ref.fleet.completed);
  dropped += static_cast<double>(ref.fleet.dropped);
  timed_out += static_cast<double>(ref.fleet.timed_out);
  const double fleet_events = static_cast<double>(ref.fleet.sim_events);
  r.layer("loadgen.sweep_s", median(sweep_s));
  r.layer("loadgen.fleet_s", median(fleet_s));
  r.layer("loadgen.sim_hs_per_s", ratio(completed, median(sweep_s) + median(fleet_s)));
  r.layer("loadgen.completed", completed);
  r.layer("loadgen.dropped", dropped);
  r.layer("loadgen.timed_out", timed_out);
  r.layer("sim.sweep_events_per_s", ratio(sweep_events, median(sweep_s)));
  r.layer("sim.fleet_events_per_s", ratio(fleet_events, median(fleet_s)));
  r.layer("sim.events_per_hs", ratio(fleet_events, static_cast<double>(ref.fleet.completed)));

  // The same fleet on one shard must give identical results; the wall-time
  // ratio is what the second shard buys.
  auto a = Clock::now();
  loadgen::LoadConfig one_shard = fleet_config(o, ref_pki_seed, 1);
  loadgen::LoadMetrics serial = loadgen::run_load(one_shard);
  double serial_s = since(a);
  r.attempted += 1;
  r.failed += !same_metrics(serial, ref.fleet);
  r.layer("sim.shard_speedup", ratio(serial_s, median(fleet_s)));
}

// The loadgen rung for the other workloads: a calibration for a PKI seed
// no other step uses (so it is cold) and one trial, its own reference.
void loadgen_rung(const Options& o, Report& r) {
  const std::uint64_t pki = mix(o.base_seed(), 0xca1);
  std::vector<Span> unused;
  auto a = Clock::now();
  loadgen::calibrated_profile("kyber512", "dilithium2", pki);
  std::vector<double> calibrate_ms{1e3 * since(a)};
  std::vector<Trial> trial;
  trial.push_back(run_trial(sweep_config(o, pki), fleet_config(o, pki, kShards),
                            nullptr, 0, unused));
  r.attempted += 1;
  r.failed += trial_failures(trial[0], trial[0]) > 0;
  add_loadgen_layers(calibrate_ms, trial[0], pki, trial, o, r);
}

// ---------------------------------------------------------------------------
// Workload drivers. A traced run measures the layers its own ops do not
// exercise with the rungs above, so every traced run reports every layer.

void run_handshakes(const Pair& p, const Options& o, Report& r, SpanLog* log) {
  std::optional<HsSetup> setup;
  double setup_s = timed_setup(o, kSetupReps, [&](std::uint64_t pki) {
    setup = set_up_handshakes(p, pki, o, kCallers, r);
  });
  Window w = o.traced()
                 ? traced_handshakes(*setup, p.resume, window_budget(o), o, r, log)
                 : handshake_window(*setup, p.resume, mix(o.seed, 0x0b5),
                                    window_budget(o), o, r, nullptr, nullptr);
  add_e2e(r, setup_s, w);
  if (!o.traced()) return;
  add_overhead(r, w);
  if (!p.resume) session_rung(o, r);
  loadgen_rung(o, r);
  campaign_rung(o, r);
  kernel_ladder(r);
}

void run_campaigns(const Options& o, Report& r, SpanLog* log) {
  // Set-up is the cold pass: it fills the PKI and calibration caches. The
  // last repetition, at the run's base seed, is the reference.
  Pass cold;
  std::vector<Span> spans;
  double setup_s = timed_setup(o, kCampaignSetupReps, [&](std::uint64_t base) {
    cold = campaign_pass(base, nullptr, 0, spans);
    r.attempted += cold.cells.cells;
    r.failed += cold.cells.failed;
  });
  if (o.seed == 0) r.failed += golden_mismatches(cold, o.golden_dir);

  // Warm passes must reproduce the cold pass byte for byte.
  Window w;
  std::vector<Pass> traced;
  const Budget budget = window_budget(o);
  for (long long i = 0; budget.more(i); ++i) {
    const bool trace = traced_op(o, i);
    Pass p = campaign_pass(o.base_seed(), trace ? log : nullptr,
                           static_cast<std::uint64_t>(i + 1) << 4, spans);
    r.attempted += p.cells.cells;
    r.failed += p.cells.failed;
    for (std::size_t c = 0; c < p.rows.size(); ++c)
      r.failed += differing_lines(p.rows[c], cold.rows[c]);
    w.wall_s += p.wall_s;
    (trace ? w.traced_op_s : w.op_s).push_back(p.wall_s);
    if (trace) traced.push_back(std::move(p));
  }
  add_e2e(r, setup_s, w);
  if (!o.traced()) return;

  log->merge(spans);
  add_overhead(r, w);
  add_campaign_layers(traced, o, r);
  handshake_rung(o, r);
  loadgen_rung(o, r);
  kernel_ladder(r);
}

void run_loadgen(const Options& o, Report& r, SpanLog* log) {
  // Set-up: calibrate the handshake profile for a fresh PKI seed, then run
  // the reference trial.
  Trial ref;
  std::vector<double> calibrate_ms;
  std::vector<Span> spans;
  double setup_s = timed_setup(o, kSetupReps, [&](std::uint64_t pki) {
    auto a = Clock::now();
    loadgen::calibrated_profile("kyber512", "dilithium2", pki);
    calibrate_ms.push_back(1e3 * since(a));
    ref = run_trial(sweep_config(o, pki), fleet_config(o, pki, kShards), nullptr, 0, spans);
    r.attempted += 1;
    r.failed += trial_failures(ref, ref) > 0;
  });
  const loadgen::LoadConfig sweep = sweep_config(o, o.base_seed());
  const loadgen::LoadConfig fleet = fleet_config(o, o.base_seed(), kShards);

  Window w;
  std::vector<Trial> traced;
  const Budget budget = window_budget(o);
  for (long long i = 0; budget.more(i); ++i) {
    const bool trace = traced_op(o, i);
    Trial t = run_trial(sweep, fleet, trace ? log : nullptr,
                        static_cast<std::uint64_t>(i + 1) << 2, spans);
    r.attempted += 1;
    r.failed += trial_failures(t, ref) > 0;
    w.wall_s += t.sweep_s + t.fleet_s;
    (trace ? w.traced_op_s : w.op_s).push_back(t.sweep_s + t.fleet_s);
    if (trace) traced.push_back(std::move(t));
  }
  add_e2e(r, setup_s, w);
  if (!o.traced()) return;

  log->merge(spans);
  add_overhead(r, w);
  add_loadgen_layers(calibrate_ms, ref, o.base_seed(), traced, o, r);
  handshake_rung(o, r);
  campaign_rung(o, r);
  kernel_ladder(r);
}

// ---------------------------------------------------------------------------
// Driver.

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) return line.substr(line.find(':') + 2);
  return "unknown";
}

bool cpu_flag(const std::string& flag) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("flags", 0) != 0) continue;
    std::istringstream words(line.substr(line.find(':') + 1));
    std::string w;
    while (words >> w)
      if (w == flag) return true;
    return false;
  }
  return false;
}

void print_manifest(const Options& o) {
  std::printf(
      "{\"manifest\":true,\"workload\":%s,\"seed\":%llu,\"backend\":%s,"
      "\"cpu\":%s,\"avx2\":%s,\"aes\":%s,\"sha_ni\":%s,\"nproc\":%u,"
      "\"compiler\":%s,\"build_type\":%s,\"flags\":%s}\n",
      json_string(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
      json_string(crypto::backend::active_name()).c_str(),
      json_string(cpu_model()).c_str(), cpu_flag("avx2") ? "true" : "false",
      cpu_flag("aes") ? "true" : "false", cpu_flag("sha_ni") ? "true" : "false",
      std::thread::hardware_concurrency(), json_string(PQBENCH_COMPILER).c_str(),
      json_string(PQBENCH_BUILD_TYPE).c_str(), json_string(PQBENCH_FLAGS).c_str());
  std::fflush(stdout);
}

void print_result(const Options& o, const Report& r) {
  auto object = [](const std::vector<Metric>& metrics) {
    std::string s = "{";
    for (const Metric& m : metrics)
      s += (s.size() > 1 ? "," : "") + json_string(m.name) + ":{\"value\":" +
           json_number(m.value) + ",\"unit\":" + json_string(m.unit) + "}";
    return s + "}";
  };
  // Declaration order; a metric no step reported prints as null.
  std::vector<Metric> layers;
  if (o.traced())
    for (const auto& [name, unit] : kLayerMetrics) {
      double v = std::nan("");
      for (const Metric& m : r.layers)
        if (m.name == name) v = m.value;
      layers.push_back({name, v, unit});
    }
  std::printf("{\"workload\":%s,\"seed\":%llu,\"correct\":%s,\"attempted\":%lld,"
              "\"failed\":%lld,\"metrics\":%s,\"layers\":%s}\n",
              json_string(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
              r.failed == 0 ? "true" : "false", r.attempted, r.failed,
              object(r.e2e).c_str(), object(layers).c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: pqbench <full_lattice|full_sphincs|resume_0rtt|campaigns|"
               "loadgen_sim> [--seed S] [--seconds T]\n"
               "               [--trace-dir DIR] [--golden-dir DIR] "
               "[--wrong-early-data]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  Options o;
  o.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--wrong-early-data") {
      o.wrong_early_data = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--seed") {
      o.seed = std::strtoull(value, &end, 0);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value, &end);
    } else if (arg == "--trace-dir") {
      o.trace_dir = value;
    } else if (arg == "--golden-dir") {
      o.golden_dir = value;
    } else {
      return usage();
    }
    if (end && (*end != '\0' || end == value)) return usage();
  }
  if (o.seconds < 0) return usage();

  static const Pair kLattice{"kyber768", "dilithium3", false};
  static const Pair kSphincs{"x25519", "sphincs128", false};
  static const Pair kResume{"kyber512", "dilithium2", true};
  const Pair* pair = nullptr;
  if (o.workload == "full_lattice") pair = &kLattice;
  else if (o.workload == "full_sphincs") pair = &kSphincs;
  else if (o.workload == "resume_0rtt") pair = &kResume;
  else if (o.workload != "campaigns" && o.workload != "loadgen_sim") return usage();

  print_manifest(o);
  Report r;
  std::unique_ptr<SpanLog> log;
  if (o.traced()) log = std::make_unique<SpanLog>();
  try {
    if (pair) run_handshakes(*pair, o, r, log.get());
    else if (o.workload == "campaigns") run_campaigns(o, r, log.get());
    else run_loadgen(o, r, log.get());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pqbench %s: %s\n", o.workload.c_str(), e.what());
    return 1;
  }
  if (log) {
    std::string path = o.trace_dir + "/" + o.workload + ".trace.json";
    if (!log->write(path)) {
      std::fprintf(stderr, "pqbench: cannot write %s\n", path.c_str());
      return 1;
    }
  }
  print_result(o, r);
  return r.failed == 0 ? 0 : 1;
}
