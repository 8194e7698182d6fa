// Event-dispatch microbenchmark (google-benchmark): the pooled PodEvent
// hot path of the sharded fleet loop against the std::function front-end
// of sim::EventLoop, over the same sim::EventQueue heap. The load engine
// exists to sustain ~10^6-connection runs, so the pooled path must
// stay decisively faster than per-event std::function churn — CI gates on
// the ratio via the --gate flag (see .github/workflows/ci.yml).
//
//   sim_dispatch [--gate] [benchmark args...]
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>

#include "sim/event_queue.hpp"
#include "sim/sharded_loop.hpp"

namespace {

using pqtls::sim::EventQueue;
using pqtls::sim::PodEvent;

// Steady-state churn at a fixed queue depth: pop the earliest event,
// dispatch it, push a successor a pseudo-random interval ahead. This is
// the loadgen inner loop shape — every handshake stage pops one event and
// schedules the next.
constexpr std::size_t kDepth = 4096;

struct Counter {
  std::uint64_t fired = 0;
};

void pod_fire(void* ctx, double, std::uint64_t arg) {
  static_cast<Counter*>(ctx)->fired += arg;
}

// xorshift jitter keeps the heap's shape realistic (pure FIFO would stay
// trivially balanced) and identical across both benchmarks.
inline std::uint64_t next_jitter(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

void bm_dispatch_pooled(benchmark::State& state) {
  EventQueue<PodEvent> queue;
  queue.reserve(kDepth + 1);
  Counter counter;
  std::uint64_t jitter = 0x9e3779b97f4a7c15ull;
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < kDepth; ++i)
    queue.push(static_cast<double>(next_jitter(jitter) % 1000), seq++,
               PodEvent{&pod_fire, &counter, 1});
  for (auto _ : state) {
    auto entry = queue.pop();
    entry.payload.fn(entry.payload.ctx, entry.time, entry.payload.arg);
    queue.push(entry.time + static_cast<double>(next_jitter(jitter) % 1000),
               seq++, PodEvent{&pod_fire, &counter, 1});
  }
  benchmark::DoNotOptimize(counter.fired);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void bm_dispatch_function(benchmark::State& state) {
  EventQueue<std::function<void()>> queue;
  queue.reserve(kDepth + 1);
  Counter counter;
  std::uint64_t jitter = 0x9e3779b97f4a7c15ull;
  std::uint64_t seq = 0;
  // The captures mirror a typical simulator call site ([this, id, t,
  // resumed, ...]): more than two words, so every push heap-allocates the closure
  // (std::function's small-buffer optimization holds only 16 bytes).
  auto make = [&counter](std::uint64_t arg) {
    double deadline = static_cast<double>(arg);
    std::uint64_t id = arg ^ 0xdeadbeef;
    bool resumed = (arg & 1) != 0;
    return [&counter, arg, deadline, id, resumed] {
      counter.fired += arg + id + (resumed ? 1 : 0) +
                       static_cast<std::uint64_t>(deadline == 0);
    };
  };
  for (std::size_t i = 0; i < kDepth; ++i)
    queue.push(static_cast<double>(next_jitter(jitter) % 1000), seq++,
               make(1));
  for (auto _ : state) {
    auto entry = queue.pop();
    entry.payload();
    queue.push(entry.time + static_cast<double>(next_jitter(jitter) % 1000),
               seq++, make(1));
  }
  benchmark::DoNotOptimize(counter.fired);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

BENCHMARK(bm_dispatch_pooled);
BENCHMARK(bm_dispatch_function);

// --gate: run both loops outside the benchmark harness and fail (exit 1)
// unless the pooled path clears a conservative speed floor. The ratio
// varies with allocator and load, so the gate only catches regressions
// that erase the pooled path's advantage outright.
template <typename Fn>
double events_per_second(Fn&& loop_body, std::uint64_t iters) {
  auto t0 = std::chrono::steady_clock::now();
  loop_body(iters);
  double s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                 .count();
  return s > 0 ? static_cast<double>(iters) / s : 0;
}

int run_gate() {
  constexpr std::uint64_t kIters = 2'000'000;
  Counter counter;
  std::uint64_t jitter = 0x9e3779b97f4a7c15ull;

  double pooled = events_per_second(
      [&](std::uint64_t n) {
        EventQueue<PodEvent> queue;
        queue.reserve(kDepth + 1);
        std::uint64_t seq = 0;
        for (std::size_t i = 0; i < kDepth; ++i)
          queue.push(static_cast<double>(next_jitter(jitter) % 1000), seq++,
                     PodEvent{&pod_fire, &counter, 1});
        for (std::uint64_t i = 0; i < n; ++i) {
          auto entry = queue.pop();
          entry.payload.fn(entry.payload.ctx, entry.time, entry.payload.arg);
          queue.push(
              entry.time + static_cast<double>(next_jitter(jitter) % 1000),
              seq++, PodEvent{&pod_fire, &counter, 1});
        }
      },
      kIters);

  double fn = events_per_second(
      [&](std::uint64_t n) {
        EventQueue<std::function<void()>> queue;
        queue.reserve(kDepth + 1);
        std::uint64_t seq = 0;
        auto make = [&counter](std::uint64_t arg) {
          double deadline = static_cast<double>(arg);
          std::uint64_t id = arg ^ 0xdeadbeef;
          bool resumed = (arg & 1) != 0;
          return [&counter, arg, deadline, id, resumed] {
            counter.fired += arg + id + (resumed ? 1 : 0) +
                             static_cast<std::uint64_t>(deadline == 0);
          };
        };
        for (std::size_t i = 0; i < kDepth; ++i)
          queue.push(static_cast<double>(next_jitter(jitter) % 1000), seq++,
                     make(1));
        for (std::uint64_t i = 0; i < n; ++i) {
          auto entry = queue.pop();
          entry.payload();
          queue.push(
              entry.time + static_cast<double>(next_jitter(jitter) % 1000),
              seq++, make(1));
        }
      },
      kIters);

  double ratio = fn > 0 ? pooled / fn : 0;
  std::printf("pooled  %10.2fM events/s\nstdfunc %10.2fM events/s\n"
              "ratio   %10.2fx (gate: pooled >= 1.2x std::function)\n",
              pooled / 1e6, fn / 1e6, ratio);
  benchmark::DoNotOptimize(counter.fired);
  if (ratio < 1.2) {
    std::fprintf(stderr,
                 "FAIL: pooled dispatch no longer beats std::function\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--gate") == 0) return run_gate();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
