// The load engine behind run_load(): M servers × K cores behind a
// pluggable balancer, on the sharded discrete-event core
// (sim::ShardedEventLoop). The model is an actor system — one *frontend*
// actor (arrival processes, client churn, the balancer and its stale
// outstanding-connection mirror) plus one actor per server (accept queue,
// K cores, and the per-class client-side pipes of every connection it was
// handed). All cross-actor influence travels with at least one client link
// delay, which is exactly the sharded loop's lookahead, so results are
// bit-identical at any shard count (DESIGN.md §6f).
#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/stats.hpp"
#include "crypto/drbg.hpp"
#include "loadgen/loadgen.hpp"
#include "net/packet.hpp"
#include "sim/sharded_loop.hpp"
#include "trace/trace.hpp"

namespace pqtls::loadgen {

namespace {

using crypto::Drbg;

// Mirrors net::Link's line-rate default (rate_bps = 0 means the paper's
// 10 Gbit/s fiber).
constexpr double kLineRateBps = 10e9;

// Event argument layout: opcode in the top 5 bits, operands below.
enum class Op : std::uint64_t {
  // Frontend events (ctx = FleetEngine).
  kOpenArrive = 0,   // open-loop Poisson arrival tick
  kChurnArrive = 1,  // a new churn client joins
  kRetry = 2,        // a closed-loop client's think time elapsed
  kNotifyDone = 3,   // server -> balancer: connection completed
  kNotifyDrop = 4,   // server -> balancer: SYN refused (backlog)
  kNotifyAbandon = 5,  // client gave up; balancer mirror catches up
  // Server events (ctx = Server).
  kSynArrive = 6,  // handoff from the frontend: SYN at its nominal arrival
  kChSend = 7,     // client CPU done, ClientHello enters the uplink
  kChArrive = 8,   // ClientHello reaches the server run queue
  kJobDone = 9,    // a core finished a handshake CPU step
  kFinSend = 10,   // client Finished enters the uplink
  kFinArrive = 11, // client Finished reaches the server run queue
  kTimeout = 12,   // client abandonment deadline
};

constexpr int kOpShift = 59;
constexpr std::uint64_t kRestMask = (1ull << kOpShift) - 1;
constexpr std::uint32_t kOpenClient = 0xFFFFFF;  // 24-bit sentinel

std::uint64_t pack(Op op, std::uint64_t rest) {
  assert(rest <= kRestMask);
  return (static_cast<std::uint64_t>(op) << kOpShift) | rest;
}

double exp_sample(Drbg& rng, double mean) {
  if (mean <= 0) return 0;
  // rng.real() is in [0, 1), so the argument of log1p stays in (-1, 0].
  return -std::log1p(-rng.real()) * mean;
}

/// A handshake CPU step waiting for (or holding) a server core.
struct Job {
  std::uint32_t conn = 0;
  double cost = 0;
  std::uint64_t seq = 0;  // admission order; FIFO key and SJF tie-break
  bool final_stage = false;
};

struct JobOrder {
  bool sjf;
  bool operator()(const Job& a, const Job& b) const {
    if (sjf && a.cost != b.cost) return a.cost < b.cost;
    return a.seq < b.seq;
  }
};

/// Time-weighted average of a piecewise-constant quantity over the
/// measurement window [t0, t1): call advance(now, value_held_since_last)
/// immediately before every change of the quantity.
struct TimeAvg {
  double t0 = 0, t1 = 0;
  double last = 0, integral = 0;

  void advance(double now, double value) {
    double a = std::clamp(last, t0, t1);
    double b = std::clamp(now, t0, t1);
    integral += value * (b - a);
    last = now;
  }
  double mean() const { return t1 > t0 ? integral / (t1 - t0) : 0; }
};

/// Per-profile flight payload sizes: reproduce the calibrated per-direction
/// wire volume across the handshake's packets (SYN/SYN-ACK and each
/// flight's own frame carry net::kFrameOverhead).
struct Payloads {
  std::size_t ch = 0, fin = 0, flight = 0;

  explicit Payloads(const HandshakeProfile& profile) {
    constexpr std::size_t kFinishedWire = HandshakeProfile::kFinishedWire;
    std::size_t up = profile.client_bytes;
    std::size_t overhead = 2 * net::kFrameOverhead + kFinishedWire;
    ch = up > overhead + 64 ? up - overhead : 64;
    fin = kFinishedWire - net::kFrameOverhead;
    std::size_t down = profile.server_bytes;
    flight = down > 2 * net::kFrameOverhead + 64
                 ? down - 2 * net::kFrameOverhead
                 : 64;
  }
};

/// One client link class, resolved for the hot path.
struct ClassInfo {
  std::string name;
  double delay = 0;
  double loss = 0;
  double rate = kLineRateBps;  // bits/second, serialization
  double cum_weight = 0;       // cumulative, for the weighted class draw
};

/// Connection state owned by the server it was balanced onto. Everything a
/// server needs rides in the SYN handoff event, so no cross-thread
/// connection table exists.
struct SConn {
  double arrival = 0;         // SYN emission time at the client
  std::uint32_t gid = 0;      // global connection id (trace correlation)
  std::uint32_t client = kOpenClient;
  std::uint8_t cls = 0;
  bool resumed = false;
  bool traced = false;
  bool accepted = false;
  bool dropped = false;
  bool abandoned = false;
  bool done = false;
};

/// A closed-loop (fixed-pool or churn) client, owned by the frontend.
struct Client {
  std::uint8_t cls = 0;
  std::uint32_t conns = 0;  // per-client connection count (resumption rule)
  double depart_at = std::numeric_limits<double>::infinity();
  bool churn = false;
  bool departed = false;
};

class FleetEngine;

/// Per-server state; every field is touched only by the server's own actor
/// events (plus setup/finish on the main thread, outside run()).
struct Server {
  Server(FleetEngine* engine, int idx, Drbg loss, bool sjf, int cores,
         std::size_t classes)
      : eng(engine),
        index(idx),
        loss_rng(std::move(loss)),
        queue(JobOrder{sjf}),
        free_cores(cores),
        up_free(classes, 0.0),
        dn_free(classes, 0.0) {}

  FleetEngine* eng;
  int index;
  sim::ShardedEventLoop::ActorId actor = 0;
  Drbg loss_rng;

  std::vector<SConn> conns;
  std::set<Job, JobOrder> queue;
  std::uint64_t job_seq = 0;
  int free_cores;
  int in_system = 0;
  std::vector<double> up_free, dn_free;  // per-class pipe busy-until

  TimeAvg queue_depth, busy_cores;
  std::vector<double> latencies;  // in-window completions, arrival order
  long long arrivals = 0, dropped = 0, timed_out = 0;
};

class FleetEngine {
 public:
  // `resumed` is the resumption-variant profile, null when the ratio is 0;
  // capacity (and therefore load_factor) stays quoted against the full
  // profile so "0.9x load" means the same offered rate at every ratio.
  FleetEngine(const LoadConfig& config, const HandshakeProfile& profile,
              const HandshakeProfile* resumed, trace::Recorder* recorder,
              std::uint32_t trace_every)
      : config_(config),
        profile_(profile),
        resumed_profile_(resumed),
        recorder_(recorder),
        trace_every_(trace_every == 0 ? 1 : trace_every),
        capacity_(static_cast<double>(std::max(config.servers, 1)) *
                  analytic_capacity(config, profile)),
        t0_(config.warmup_s),
        t1_(config.warmup_s + config.duration_s),
        master_(config.seed),
        arrival_rng_(master_.fork("arrivals")),
        think_rng_(master_.fork("think")),
        class_rng_(master_.fork("class")),
        churn_rng_(master_.fork("churn")),
        churn_life_rng_(master_.fork("churn-life")),
        syn_loss_rng_(master_.fork("syn-loss")),
        balancer_(make_balancer(config.balancer, master_.fork("balancer"))),
        full_pay_(profile),
        resumed_pay_(resumed ? *resumed : profile) {
    if (config_.servers < 1)
      throw std::invalid_argument("loadgen: servers must be >= 1");
    build_classes();
    double lookahead = classes_[0].delay;
    for (const auto& c : classes_) lookahead = std::min(lookahead, c.delay);
    // The recorder is not thread-safe; one shard keeps tracing races-free
    // and, by the determinism contract, changes nothing else.
    std::uint32_t shards =
        recorder_ ? 1 : (config_.shards == 0 ? 1 : config_.shards);
    loop_ = std::make_unique<sim::ShardedEventLoop>(shards, lookahead);
    frontend_ = loop_->add_actor(0);
    servers_.reserve(static_cast<std::size_t>(config_.servers));
    for (int s = 0; s < config_.servers; ++s) {
      auto srv = std::make_unique<Server>(
          this, s, master_.fork("loss-s" + std::to_string(s)),
          config_.policy == Policy::kSjf, config_.cores, classes_.size());
      srv->actor = loop_->add_actor((static_cast<std::uint32_t>(s) + 1) %
                                    loop_->shards());
      srv->queue_depth.t0 = srv->busy_cores.t0 = t0_;
      srv->queue_depth.t1 = srv->busy_cores.t1 = t1_;
      servers_.push_back(std::move(srv));
    }
    outstanding_.assign(static_cast<std::size_t>(config_.servers), 0);
    syn_free_.assign(static_cast<std::size_t>(config_.servers) *
                         classes_.size(),
                     0.0);
  }

  LoadMetrics run() {
    if (config_.arrival == Arrival::kPoisson) {
      offered_ = config_.load_factor > 0 ? config_.load_factor * capacity_
                                         : config_.offered_rate;
      if (offered_ <= 0)
        throw std::invalid_argument("loadgen: offered rate must be > 0");
      double at = exp_sample(arrival_rng_, 1.0 / offered_);
      if (at < t1_) to_frontend(0, at, Op::kOpenArrive, 0);
    } else {
      if (config_.clients < 1 && config_.churn_rate <= 0)
        throw std::invalid_argument("loadgen: clients must be >= 1");
      // Client ids travel in a 24-bit event field whose all-ones value
      // marks open-loop connections.
      if (config_.clients >= static_cast<int>(kOpenClient))
        throw std::invalid_argument("loadgen: clients must be < 16777215");
      for (int i = 0; i < config_.clients; ++i) {
        Client cl;
        cl.cls = draw_class();
        clients_.push_back(cl);
        double at = exp_sample(think_rng_, config_.think_s);
        if (at < t1_)
          to_frontend(0, at, Op::kRetry, static_cast<std::uint64_t>(i));
      }
    }
    if (config_.churn_rate > 0) {
      double at = exp_sample(churn_rng_, 1.0 / config_.churn_rate);
      if (at < t1_) to_frontend(0, at, Op::kChurnArrive, 0);
    }
    double horizon = t1_ + config_.timeout_s + 5.0;
    std::uint64_t events = loop_->run(horizon);
    assert(loop_->past_schedules() == 0 &&
           "fleet engine violated the scheduling discipline");
    return finish(horizon, events);
  }

  // Event trampolines (PodEvent fn pointers).
  static void fe_tramp(void* ctx, double now, std::uint64_t arg) {
    static_cast<FleetEngine*>(ctx)->frontend_event(now, arg);
  }
  static void sv_tramp(void* ctx, double now, std::uint64_t arg) {
    auto* sv = static_cast<Server*>(ctx);
    sv->eng->server_event(*sv, now, arg);
  }

 private:
  bool in_window(double t) const { return t >= t0_ && t < t1_; }

  void build_classes() {
    double cum = 0;
    if (config_.client_classes.empty()) {
      classes_.push_back({"default", config_.netem.delay_s,
                          config_.netem.loss,
                          config_.netem.rate_bps > 0 ? config_.netem.rate_bps
                                                     : kLineRateBps,
                          1.0});
      return;
    }
    for (const auto& cc : config_.client_classes) {
      if (cc.weight <= 0)
        throw std::invalid_argument("loadgen: class weight must be > 0");
      cum += cc.weight;
      classes_.push_back({cc.name, cc.netem.delay_s, cc.netem.loss,
                          cc.netem.rate_bps > 0 ? cc.netem.rate_bps
                                                : kLineRateBps,
                          cum});
    }
    if (classes_.size() > 64)
      throw std::invalid_argument("loadgen: at most 64 client classes");
  }

  std::uint8_t draw_class() {
    if (classes_.size() == 1) return 0;
    double u = class_rng_.real() * classes_.back().cum_weight;
    for (std::size_t k = 0; k < classes_.size(); ++k)
      if (u < classes_[k].cum_weight) return static_cast<std::uint8_t>(k);
    return static_cast<std::uint8_t>(classes_.size() - 1);
  }

  // The testbed's deterministic resumption interleaving (see LoadConfig);
  // applied to the global connection id for open-loop arrivals and the
  // fixed closed-loop pool (warm ticket caches), and to the per-client
  // connection count for churn clients (a fresh arrival has no ticket, so
  // its first connection never resumes).
  bool resume_interleave(std::uint64_t j) const {
    double r = config_.resumption_ratio;
    return static_cast<long long>(static_cast<double>(j + 1) * r) >
           static_cast<long long>(static_cast<double>(j) * r);
  }

  const HandshakeProfile& prof(const SConn& c) const {
    return c.resumed ? *resumed_profile_ : profile_;
  }
  const Payloads& pay(const SConn& c) const {
    return c.resumed ? resumed_pay_ : full_pay_;
  }

  // ---- scheduling helpers ----

  void to_frontend(double now, double at, Op op, std::uint64_t rest) {
    loop_->schedule(now, frontend_, frontend_, at, &fe_tramp, this,
                    pack(op, rest));
  }
  void handoff(double now, Server& sv, double at, std::uint64_t rest) {
    loop_->schedule(now, frontend_, sv.actor, at, &sv_tramp, &sv,
                    pack(Op::kSynArrive, rest));
  }
  void self(Server& sv, double now, double at, Op op, std::uint64_t rest) {
    loop_->schedule(now, sv.actor, sv.actor, at, &sv_tramp, &sv,
                    pack(op, rest));
  }
  void notify(Server& sv, double now, double at, Op op,
              std::uint32_t client) {
    std::uint64_t rest =
        client | (static_cast<std::uint64_t>(sv.index) << 24);
    loop_->schedule(now, sv.actor, frontend_, at, &fe_tramp, this,
                    pack(op, rest));
  }

  // Shared serialization pipe: matches net::Link::send (busy-until per
  // direction, frame overhead included by the caller).
  static double tx_end(double& free_at, double now, std::size_t bytes,
                       double rate) {
    double start = std::max(now, free_at);
    double end = start + static_cast<double>(bytes) * 8.0 / rate;
    free_at = end;
    return end;
  }

  bool lost(Server& sv, const ClassInfo& ci) {
    return ci.loss > 0 && sv.loss_rng.real() < ci.loss;
  }

  trace::Event& trec(double now, std::string name, std::string who) {
    recorder_->set_manual_time(now);
    return recorder_->record("fleet", std::move(name), std::move(who));
  }

  // ---- frontend ----

  void frontend_event(double now, std::uint64_t arg) {
    const Op op = static_cast<Op>(arg >> kOpShift);
    const std::uint64_t rest = arg & kRestMask;
    switch (op) {
      case Op::kOpenArrive: {
        start_connection(-1, now);
        double next = now + exp_sample(arrival_rng_, 1.0 / offered_);
        if (next < t1_) to_frontend(now, next, Op::kOpenArrive, 0);
        return;
      }
      case Op::kChurnArrive: {
        auto c = static_cast<std::uint32_t>(clients_.size());
        if (c >= kOpenClient) return;  // client-id space exhausted
        Client cl;
        cl.cls = draw_class();
        cl.churn = true;
        cl.depart_at =
            now + exp_sample(churn_life_rng_, config_.churn_lifetime_s);
        clients_.push_back(cl);
        if (in_window(now)) ++churn_arrived_;
        start_connection(static_cast<int>(c), now);
        double next = now + exp_sample(churn_rng_, 1.0 / config_.churn_rate);
        if (next < t1_) to_frontend(now, next, Op::kChurnArrive, 0);
        return;
      }
      case Op::kRetry: {
        Client& cl = clients_[rest];
        if (cl.depart_at <= now) {
          if (!cl.departed) {
            cl.departed = true;
            if (in_window(now)) ++churn_departed_;
          }
          return;
        }
        start_connection(static_cast<int>(rest), now);
        return;
      }
      case Op::kNotifyDone:
      case Op::kNotifyDrop:
      case Op::kNotifyAbandon: {
        auto client = static_cast<std::uint32_t>(rest & kOpenClient);
        auto server = static_cast<std::size_t>(rest >> 24);
        --outstanding_[server];
        if (client != kOpenClient) {
          double at = now + exp_sample(think_rng_, config_.think_s);
          if (at < t1_) to_frontend(now, at, Op::kRetry, client);
        }
        return;
      }
      default:
        assert(false && "server opcode on the frontend actor");
        return;
    }
  }

  void start_connection(int client, double now) {
    std::uint64_t id = next_id_++;
    std::uint8_t cls;
    bool resumed = false;
    if (client >= 0) {
      Client& cl = clients_[static_cast<std::size_t>(client)];
      cls = cl.cls;
      std::uint32_t j = cl.conns++;
      if (resumed_profile_) resumed = resume_interleave(cl.churn ? j : id);
    } else {
      cls = draw_class();
      if (resumed_profile_) resumed = resume_interleave(id);
    }
    int s = balancer_->pick(outstanding_);
    bool traced = recorder_ && (id % trace_every_ == 0);
    if (traced)
      trec(now, "balancer_decision", "frontend")
          .arg("conn", static_cast<double>(id))
          .arg("server", static_cast<double>(s))
          .arg("outstanding", static_cast<double>(outstanding_[s]))
          .arg("class", classes_[cls].name);
    ++outstanding_[s];
    Server& sv = *servers_[static_cast<std::size_t>(s)];
    const ClassInfo& ci = classes_[cls];
    // The SYN's uplink serialization happens here, on the frontend's own
    // per-(server, class) pipe mirror: the server actor owns the shared
    // uplink only from the SYN-ACK on, and a conservative handoff cannot
    // consult server state without waiting out the lookahead. At line rate
    // the two pipes never contend, so the split is exact (one shared uplink
    // would give the same timings); heavily rate-limited classes see SYNs
    // serialized apart from the ClientHello/Finished frames.
    double txe =
        tx_end(syn_free_[static_cast<std::size_t>(s) * classes_.size() + cls],
               now, net::kFrameOverhead, ci.rate);
    bool syn_lost = ci.loss > 0 && syn_loss_rng_.real() < ci.loss;
    std::uint64_t rest =
        (id & 0xFFFFFF) |
        (static_cast<std::uint64_t>(
             client >= 0 ? static_cast<std::uint32_t>(client) : kOpenClient)
         << 24) |
        (static_cast<std::uint64_t>(cls) << 48) |
        (resumed ? 1ull << 54 : 0) | (traced ? 1ull << 55 : 0) |
        (syn_lost ? 1ull << 56 : 0);
    handoff(now, sv, txe + ci.delay, rest);
  }

  // ---- server ----

  void server_event(Server& sv, double now, std::uint64_t arg) {
    const Op op = static_cast<Op>(arg >> kOpShift);
    const std::uint64_t rest = arg & kRestMask;
    switch (op) {
      case Op::kSynArrive:
        on_syn(sv, now, rest);
        return;
      case Op::kChSend: {
        SConn& c = sv.conns[rest];
        if (c.abandoned) return;
        const ClassInfo& ci = classes_[c.cls];
        double txe = tx_end(sv.up_free[c.cls], now,
                            pay(c).ch + net::kFrameOverhead, ci.rate);
        if (!lost(sv, ci)) self(sv, now, txe + ci.delay, Op::kChArrive, rest);
        return;
      }
      case Op::kChArrive: {
        SConn& c = sv.conns[rest];
        if (c.abandoned) return;
        if (c.traced)
          trec(now, "queue_handoff", "server:" + std::to_string(sv.index))
              .arg("conn", static_cast<double>(c.gid))
              .arg("queue_depth", static_cast<double>(sv.queue.size()))
              .arg("stage", "server_flight");
        enqueue(sv, now,
                Job{static_cast<std::uint32_t>(rest),
                    config_.harness_overhead_s + prof(c).server_flight_cpu,
                    sv.job_seq++, /*final_stage=*/false});
        return;
      }
      case Op::kJobDone:
        on_job_done(sv, now, rest);
        return;
      case Op::kFinSend: {
        SConn& c = sv.conns[rest];
        if (c.abandoned) return;
        const ClassInfo& ci = classes_[c.cls];
        double txe = tx_end(sv.up_free[c.cls], now,
                            pay(c).fin + net::kFrameOverhead, ci.rate);
        if (!lost(sv, ci))
          self(sv, now, txe + ci.delay, Op::kFinArrive, rest);
        return;
      }
      case Op::kFinArrive: {
        SConn& c = sv.conns[rest];
        if (c.abandoned) return;
        if (c.traced)
          trec(now, "queue_handoff", "server:" + std::to_string(sv.index))
              .arg("conn", static_cast<double>(c.gid))
              .arg("queue_depth", static_cast<double>(sv.queue.size()))
              .arg("stage", "server_finish");
        enqueue(sv, now,
                Job{static_cast<std::uint32_t>(rest),
                    prof(c).server_finish_cpu, sv.job_seq++,
                    /*final_stage=*/true});
        return;
      }
      case Op::kTimeout: {
        SConn& c = sv.conns[rest];
        if (c.done || c.dropped) return;
        c.abandoned = true;
        if (c.accepted) --sv.in_system;
        if (in_window(now)) ++sv.timed_out;
        if (c.traced)
          trec(now, "abandon", "server:" + std::to_string(sv.index))
              .arg("conn", static_cast<double>(c.gid));
        notify(sv, now, now + classes_[c.cls].delay, Op::kNotifyAbandon,
               c.client);
        return;
      }
      default:
        assert(false && "frontend opcode on a server actor");
        return;
    }
  }

  // The serialized SYN reaches the accept queue (or, for a SYN lost on the
  // uplink, the record is parked until the client's abandonment clock
  // fires). `now` = emission + SYN serialization + propagation.
  void on_syn(Server& sv, double now, std::uint64_t rest) {
    auto idx = static_cast<std::uint32_t>(sv.conns.size());
    SConn c;
    c.gid = static_cast<std::uint32_t>(rest & 0xFFFFFF);
    c.client = static_cast<std::uint32_t>((rest >> 24) & kOpenClient);
    c.cls = static_cast<std::uint8_t>((rest >> 48) & 0x3F);
    c.resumed = (rest >> 54) & 1;
    c.traced = (rest >> 55) & 1;
    const ClassInfo& ci = classes_[c.cls];
    // Recover the client-side emission time (exact whenever the frontend's
    // SYN pipe was uncontended — always, at line rate).
    c.arrival = now - ci.delay - net::kFrameOverhead * 8.0 / ci.rate;
    if ((rest >> 56) & 1) {
      // Lost SYN: the server never sees it; only the client's abandonment
      // clock fires (and squares the balancer mirror via the notify).
      sv.conns.push_back(c);
      self(sv, now, std::max(now, c.arrival + config_.timeout_s),
           Op::kTimeout, idx);
      return;
    }
    if (in_window(now)) ++sv.arrivals;
    if (c.traced)
      trec(now, "syn_arrive", "server:" + std::to_string(sv.index))
          .arg("conn", static_cast<double>(c.gid))
          .arg("in_system", static_cast<double>(sv.in_system));
    if (sv.in_system >= config_.backlog) {
      c.dropped = true;
      sv.conns.push_back(c);
      if (in_window(now)) ++sv.dropped;
      notify(sv, now, now + ci.delay, Op::kNotifyDrop, c.client);
      return;
    }
    c.accepted = true;
    sv.conns.push_back(c);
    ++sv.in_system;
    // Abandonment clock runs from the client's SYN emission; max() guards
    // the timeout_s < delay corner (deadline already past on arrival).
    self(sv, now, std::max(now, c.arrival + config_.timeout_s), Op::kTimeout,
         idx);
    // SYN-ACK down the shared per-class pipe; a lost SYN-ACK (or any later
    // lost flight) surfaces as the timeout above.
    double txe = tx_end(sv.dn_free[c.cls], now, net::kFrameOverhead, ci.rate);
    if (!lost(sv, ci))
      self(sv, now, txe + ci.delay + prof(c).client_hello_cpu, Op::kChSend,
           idx);
  }

  void on_job_done(Server& sv, double now, std::uint64_t rest) {
    auto idx = static_cast<std::uint32_t>(rest & ((1ull << 40) - 1));
    bool final_stage = (rest >> 40) & 1;
    SConn& c = sv.conns[idx];
    // An abandoned in-service job still burned its core time (wasted
    // work); it just produces no flight.
    if (!c.abandoned) {
      const ClassInfo& ci = classes_[c.cls];
      if (final_stage) {
        c.done = true;
        --sv.in_system;
        double latency = now - c.arrival;
        if (in_window(now)) sv.latencies.push_back(latency);
        if (c.traced)
          trec(now, "complete", "server:" + std::to_string(sv.index))
              .arg("conn", static_cast<double>(c.gid))
              .arg("latency_ms", latency * 1e3);
        notify(sv, now, now + ci.delay, Op::kNotifyDone, c.client);
      } else {
        double txe = tx_end(sv.dn_free[c.cls], now,
                            pay(c).flight + net::kFrameOverhead, ci.rate);
        if (!lost(sv, ci))
          self(sv, now, txe + ci.delay + prof(c).client_finish_cpu,
               Op::kFinSend, idx);
      }
    }
    next_from_queue(sv, now);
  }

  void enqueue(Server& sv, double now, Job job) {
    if (sv.free_cores > 0) {
      claim_core(sv, now);
      run_on_core(sv, now, job);
    } else {
      sv.queue_depth.advance(now, static_cast<double>(sv.queue.size()));
      sv.queue.insert(job);
    }
  }

  void claim_core(Server& sv, double now) {
    sv.busy_cores.advance(now,
                          static_cast<double>(config_.cores - sv.free_cores));
    --sv.free_cores;
  }
  void release_core(Server& sv, double now) {
    sv.busy_cores.advance(now,
                          static_cast<double>(config_.cores - sv.free_cores));
    ++sv.free_cores;
  }

  void run_on_core(Server& sv, double now, const Job& job) {
    self(sv, now, now + job.cost, Op::kJobDone,
         job.conn | (job.final_stage ? 1ull << 40 : 0));
  }

  void next_from_queue(Server& sv, double now) {
    while (!sv.queue.empty()) {
      sv.queue_depth.advance(now, static_cast<double>(sv.queue.size()));
      Job job = *sv.queue.begin();
      sv.queue.erase(sv.queue.begin());
      if (sv.conns[job.conn].abandoned) continue;  // discard queued work
      run_on_core(sv, now, job);
      return;
    }
    release_core(sv, now);
  }

  // ---- aggregation ----

  LoadMetrics finish(double horizon, std::uint64_t events) {
    LoadMetrics m;
    m.analytic_capacity = capacity_;
    m.sim_events = static_cast<long long>(events);
    if (resumed_profile_) {
      double r = config_.resumption_ratio;
      m.server_cpu_s = config_.harness_overhead_s +
                       (1 - r) * profile_.server_cpu() +
                       r * resumed_profile_->server_cpu();
      m.client_bytes = static_cast<std::size_t>(std::llround(
          (1 - r) * static_cast<double>(profile_.client_bytes) +
          r * static_cast<double>(resumed_profile_->client_bytes)));
      m.server_bytes = static_cast<std::size_t>(std::llround(
          (1 - r) * static_cast<double>(profile_.server_bytes) +
          r * static_cast<double>(resumed_profile_->server_bytes)));
    } else {
      m.server_cpu_s = config_.harness_overhead_s + profile_.server_cpu();
      m.client_bytes = profile_.client_bytes;
      m.server_bytes = profile_.server_bytes;
    }

    // Deterministic aggregation order (server index), so fleet totals are
    // independent of shard layout and thread interleaving.
    std::vector<double> latencies;
    double busy_mean_sum = 0, queue_mean_sum = 0;
    // servers >= 1, so the loop always overwrites both bounds.
    double min_util = std::numeric_limits<double>::infinity();
    double max_util = 0;
    for (auto& sp : servers_) {
      Server& sv = *sp;
      // TimeAvg clamps to [t0, t1], so advancing to the horizon closes the
      // integrals exactly at the window end.
      sv.queue_depth.advance(horizon, static_cast<double>(sv.queue.size()));
      sv.busy_cores.advance(
          horizon, static_cast<double>(config_.cores - sv.free_cores));
      m.arrivals += sv.arrivals;
      m.dropped += sv.dropped;
      m.timed_out += sv.timed_out;
      latencies.insert(latencies.end(), sv.latencies.begin(),
                       sv.latencies.end());
      double util =
          config_.cores > 0 ? sv.busy_cores.mean() / config_.cores : 0;
      busy_mean_sum += sv.busy_cores.mean();
      queue_mean_sum += sv.queue_depth.mean();
      min_util = std::min(min_util, util);
      max_util = std::max(max_util, util);
    }
    m.completed = static_cast<long long>(latencies.size());
    m.offered_rate = static_cast<double>(m.arrivals) / config_.duration_s;
    m.achieved_rate = static_cast<double>(m.completed) / config_.duration_s;
    m.mean_queue_depth = queue_mean_sum;  // fleet-wide waiting jobs
    m.core_utilization =
        config_.cores > 0
            ? busy_mean_sum / (config_.cores * config_.servers)
            : 0;
    m.min_server_util = min_util;
    m.max_server_util = max_util;
    m.churn_arrived = churn_arrived_;
    m.churn_departed = churn_departed_;
    if (!latencies.empty()) {
      m.ok = true;
      m.mean_latency = analysis::mean(latencies);
      m.p50 = analysis::percentile(latencies, 50);
      m.p90 = analysis::percentile(latencies, 90);
      m.p99 = analysis::percentile(latencies, 99);
      m.p999 = analysis::percentile(latencies, 99.9);
    } else {
      // No completions: there is no latency distribution. NaN, not 0 —
      // "instantly fast" is the one thing an empty window does not mean.
      double nan = std::numeric_limits<double>::quiet_NaN();
      m.mean_latency = m.p50 = m.p90 = m.p99 = m.p999 = nan;
    }
    return m;
  }

  const LoadConfig& config_;
  const HandshakeProfile& profile_;
  const HandshakeProfile* resumed_profile_;
  trace::Recorder* recorder_;
  std::uint32_t trace_every_;
  double capacity_;
  double offered_ = 0;
  double t0_, t1_;

  Drbg master_;
  Drbg arrival_rng_, think_rng_, class_rng_, churn_rng_, churn_life_rng_;
  Drbg syn_loss_rng_;  // frontend-side SYN loss (per-class, fleet only)
  std::vector<double> syn_free_;  // frontend SYN-pipe mirror, [server][cls]
  std::unique_ptr<Balancer> balancer_;
  std::unique_ptr<sim::ShardedEventLoop> loop_;
  sim::ShardedEventLoop::ActorId frontend_ = 0;

  std::vector<ClassInfo> classes_;
  std::vector<std::unique_ptr<Server>> servers_;
  std::vector<int> outstanding_;  // the balancer's (stale) mirror
  std::vector<Client> clients_;
  std::uint64_t next_id_ = 0;
  long long churn_arrived_ = 0, churn_departed_ = 0;

  Payloads full_pay_, resumed_pay_;
};

}  // namespace

LoadMetrics run_load(const LoadConfig& config, trace::Recorder* recorder,
                     std::uint32_t trace_every) {
  std::uint64_t pki_seed = config.pki_seed ? config.pki_seed : config.seed;
  const HandshakeProfile& profile =
      calibrated_profile(config.ka, config.sa, pki_seed, /*resumed=*/false,
                         config.chain_profile, config.cert_mode, config.batch);
  const HandshakeProfile* resumed =
      config.resumption_ratio > 0
          ? &calibrated_profile(config.ka, config.sa, pki_seed,
                                /*resumed=*/true, config.chain_profile,
                                config.cert_mode, config.batch)
          : nullptr;
  FleetEngine engine(config, profile, resumed, recorder, trace_every);
  return engine.run();
}

}  // namespace pqtls::loadgen
