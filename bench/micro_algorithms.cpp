// Per-algorithm microbenchmarks (google-benchmark): keygen / encapsulate /
// decapsulate for every KEM and sign / verify for every SA, signing both
// through the byte API and through a key loaded once. These
// are the per-operation costs behind the paper's end-to-end latencies and
// directly support its white-box attribution (methodology supplement).
//
// The backend rows time the dispatchable kernels (Kyber/Dilithium NTT,
// Haraka permutation, the scalar and 4-way Keccak-f[1600], the SHA-256
// block function, BIKE's GF(2)[x] product) under every compiled backend,
// and the batch rows time encapsulate_batch / verify_batch against their
// sequential loops.
//
//   micro_algorithms [--gate] [benchmark args...]
//
// --gate: time the portable vs optimized kernels outside the benchmark
// harness and fail (exit 1) unless the optimized ones clear conservative
// speed floors (AVX2 NTT round-trips >= 2x portable, the 4-way Keccak >= 2x
// four scalar permutations, SHA-NI SHA-256 >= 2x portable over a 4 KiB
// message, the PCLMULQDQ GF(2)[x] product at BIKE-L3's r = 24659 >= 2x
// portable); each check exits 0 with a note when the binary or CPU lacks
// its ISA (portable-only builds must stay green). CI runs this as the
// smoke-backend speedup step.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "crypto/backend/backend.hpp"
#include "crypto/backend/kernels.hpp"
#include "crypto/catalog.hpp"
#include "crypto/drbg.hpp"
#include "crypto/gf2.hpp"
#include "crypto/keccak.hpp"
#include "kem/kem.hpp"
#include "sig/sig.hpp"

namespace {

using pqtls::Bytes;
using pqtls::crypto::Drbg;
namespace backend = pqtls::crypto::backend;

void bm_kem_keygen(benchmark::State& state, const pqtls::kem::Kem* kem) {
  Drbg rng(1);
  for (auto _ : state) {
    auto kp = kem->generate_keypair(rng);
    benchmark::DoNotOptimize(kp.public_key.data());
  }
}

void bm_kem_encaps(benchmark::State& state, const pqtls::kem::Kem* kem) {
  Drbg rng(2);
  auto kp = kem->generate_keypair(rng);
  for (auto _ : state) {
    auto enc = kem->encapsulate(kp.public_key, rng);
    benchmark::DoNotOptimize(enc->ciphertext.data());
  }
}

void bm_kem_decaps(benchmark::State& state, const pqtls::kem::Kem* kem) {
  Drbg rng(3);
  auto kp = kem->generate_keypair(rng);
  auto enc = kem->encapsulate(kp.public_key, rng);
  for (auto _ : state) {
    auto ss = kem->decapsulate(kp.secret_key, enc->ciphertext);
    benchmark::DoNotOptimize(ss->data());
  }
}

// Deterministic Dilithium signing fixes its rejection-loop count per
// message, so one fixed message times one draw of a geometric
// distribution. Sign rows rotate over 64 messages: the reported time is
// the mean, and the p90_us counter the 90th percentile of single signs.
constexpr std::size_t kSignMessages = 64;

template <typename SignFn>
void time_signs(benchmark::State& state, Drbg& rng, SignFn sign) {
  std::vector<Bytes> messages;
  for (std::size_t i = 0; i < kSignMessages; ++i)
    messages.push_back(rng.bytes(64));
  std::vector<double> us;
  std::size_t next = 0;
  for (auto _ : state) {
    auto t0 = std::chrono::steady_clock::now();
    Bytes sig = sign(messages[next++ % kSignMessages]);
    us.push_back(std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
    benchmark::DoNotOptimize(sig.data());
  }
  if (us.empty()) return;
  auto p90 = us.begin() + static_cast<std::ptrdiff_t>(us.size() * 9 / 10);
  std::nth_element(us.begin(), p90, us.end());
  state.counters["p90_us"] = *p90;
}

void bm_sig_sign(benchmark::State& state, const pqtls::sig::Signer* sa) {
  Drbg rng(4);
  auto kp = sa->generate_keypair(rng);
  time_signs(state, rng, [&](const Bytes& msg) {
    return sa->sign(kp.secret_key, msg, rng);
  });
}

// The same signs through a key loaded once: the difference to sig_sign is
// the per-key work (unpacking, expansion, NTTs/FFTs) the hoist removes.
void bm_sig_sign_loaded(benchmark::State& state,
                        const pqtls::sig::Signer* sa) {
  Drbg rng(4);
  auto kp = sa->generate_keypair(rng);
  auto key = sa->load_signing_key(kp.secret_key);
  time_signs(state, rng, [&](const Bytes& msg) {
    return sa->sign_with(*key, msg, rng);
  });
}

void bm_sig_verify(benchmark::State& state, const pqtls::sig::Signer* sa) {
  Drbg rng(5);
  auto kp = sa->generate_keypair(rng);
  Bytes msg = rng.bytes(64);
  Bytes sig = sa->sign(kp.secret_key, msg, rng);
  for (auto _ : state) {
    bool ok = sa->verify(kp.public_key, msg, sig);
    benchmark::DoNotOptimize(ok);
  }
}

// ---- backend kernel rows: portable vs vectorized, same random inputs ----

void bm_kyber_ntt(benchmark::State& state,
                  const backend::KyberKernels* kernels) {
  Drbg rng(6);
  std::int16_t poly[256];
  for (auto& c : poly) c = static_cast<std::int16_t>(rng.uniform(3329));
  for (auto _ : state) {
    kernels->ntt(poly);
    kernels->invntt(poly);  // round-trip keeps coefficients canonical
    benchmark::DoNotOptimize(poly[0]);
  }
}

void bm_dilithium_ntt(benchmark::State& state,
                      const backend::DilithiumKernels* kernels) {
  Drbg rng(7);
  std::int32_t poly[256];
  for (auto& c : poly) c = static_cast<std::int32_t>(rng.uniform(8380417));
  for (auto _ : state) {
    kernels->ntt(poly);
    kernels->invntt(poly);
    benchmark::DoNotOptimize(poly[0]);
  }
}

void bm_haraka512(benchmark::State& state,
                  const backend::HarakaKernels* kernels) {
  Drbg rng(8);
  Bytes rc = rng.bytes(640);
  std::uint8_t s[64];
  Bytes seed = rng.bytes(64);
  std::memcpy(s, seed.data(), sizeof s);
  for (auto _ : state) {
    kernels->permute512(s, rc.data());
    benchmark::DoNotOptimize(s[0]);
  }
}

void bm_keccak_f1600(benchmark::State& state) {
  std::uint64_t s[25] = {1};
  for (auto _ : state) {
    pqtls::crypto::keccak_f1600(s);
    benchmark::DoNotOptimize(s[0]);
  }
}

void bm_keccak_f1600x4(benchmark::State& state,
                       const backend::KeccakKernels* kernels) {
  std::uint64_t s[100] = {1, 2, 3, 4};
  for (auto _ : state) {
    kernels->permute_x4(s);
    benchmark::DoNotOptimize(s[0]);
  }
}

// One 4 KiB message (64 blocks) per iteration.
void bm_sha256(benchmark::State& state,
               const backend::Sha256Kernels* kernels) {
  Drbg rng(12);
  Bytes msg = rng.bytes(4096);
  std::uint32_t h[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (auto _ : state) {
    kernels->compress(h, msg.data(), msg.size() / 64);
    benchmark::DoNotOptimize(h[0]);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(msg.size()));
}

// The r = 24659 (BIKE-L3) ring product before its fold mod x^r - 1:
// Karatsuba down to the kernel, 386 x 386 words.
constexpr std::size_t kGf2Words = (24659 + 63) / 64;

void bm_gf2_mul(benchmark::State& state, const backend::Gf2Kernels* kernels) {
  Drbg rng(14);
  std::vector<std::uint64_t> a(kGf2Words), b(kGf2Words), out(2 * kGf2Words);
  for (std::size_t i = 0; i < kGf2Words; ++i) {
    a[i] = rng.u64();
    b[i] = rng.u64();
  }
  for (auto _ : state) {
    pqtls::crypto::gf2_mul_words(out.data(), a.data(), b.data(), kGf2Words,
                                 *kernels);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}

// ---- batched server ops: amortized per-key work vs sequential loops ----

void bm_kem_encaps_batch(benchmark::State& state, const pqtls::kem::Kem* kem,
                         std::size_t count) {
  Drbg rng(9);
  auto kp = kem->generate_keypair(rng);
  for (auto _ : state) {
    auto batch = kem->encapsulate_batch(kp.public_key, count, rng);
    benchmark::DoNotOptimize(batch.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}

void bm_sig_verify_batch(benchmark::State& state,
                         const pqtls::sig::Signer* sa, std::size_t count) {
  Drbg rng(10);
  auto kp = sa->generate_keypair(rng);
  std::vector<Bytes> messages, signatures;
  for (std::size_t i = 0; i < count; ++i) {
    messages.push_back(rng.bytes(64));
    signatures.push_back(sa->sign(kp.secret_key, messages.back(), rng));
  }
  std::vector<pqtls::BytesView> msg_views(messages.begin(), messages.end());
  std::vector<pqtls::BytesView> sig_views(signatures.begin(),
                                          signatures.end());
  for (auto _ : state) {
    auto verdicts = sa->verify_batch(kp.public_key, msg_views, sig_views);
    benchmark::DoNotOptimize(verdicts.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}

struct Registrar {
  Registrar() {
    const auto& catalog = pqtls::crypto::AlgorithmCatalog::instance();
    for (const auto& info : catalog.kems()) {
      if (info.hybrid) continue;  // hybrids = sum of their parts
      benchmark::RegisterBenchmark(("kem_keygen/" + info.name).c_str(),
                                   bm_kem_keygen, info.kem)
          ->Unit(benchmark::kMicrosecond)
          ->MinTime(0.05);
      benchmark::RegisterBenchmark(("kem_encaps/" + info.name).c_str(),
                                   bm_kem_encaps, info.kem)
          ->Unit(benchmark::kMicrosecond)
          ->MinTime(0.05);
      benchmark::RegisterBenchmark(("kem_decaps/" + info.name).c_str(),
                                   bm_kem_decaps, info.kem)
          ->Unit(benchmark::kMicrosecond)
          ->MinTime(0.05);
    }
    for (const auto& info : catalog.signers()) {
      if (info.hybrid) continue;
      if (info.name == "rsa:4096") continue;  // keygen too slow for a micro
      // SPHINCS+ s-variants sign in seconds; the all_sphincs campaign
      // covers them.
      if (!info.headline) continue;
      benchmark::RegisterBenchmark(("sig_sign/" + info.name).c_str(),
                                   bm_sig_sign, info.signer)
          ->Unit(benchmark::kMicrosecond)
          ->MinTime(0.05);
      benchmark::RegisterBenchmark(("sig_sign_loaded/" + info.name).c_str(),
                                   bm_sig_sign_loaded, info.signer)
          ->Unit(benchmark::kMicrosecond)
          ->MinTime(0.05);
      benchmark::RegisterBenchmark(("sig_verify/" + info.name).c_str(),
                                   bm_sig_verify, info.signer)
          ->Unit(benchmark::kMicrosecond)
          ->MinTime(0.05);
    }

    // Dispatchable kernels, one row per compiled backend. cpu_supports
    // guards the registration: a binary with AVX2 kernels compiled in must
    // not execute them on a CPU without the ISA.
    benchmark::RegisterBenchmark("ntt_kyber/portable", bm_kyber_ntt,
                                 &backend::detail::kKyberPortable)
        ->MinTime(0.05);
    benchmark::RegisterBenchmark("ntt_dilithium/portable", bm_dilithium_ntt,
                                 &backend::detail::kDilithiumPortable)
        ->MinTime(0.05);
    benchmark::RegisterBenchmark("haraka512/portable", bm_haraka512,
                                 &backend::detail::kHarakaPortable)
        ->MinTime(0.05);
    benchmark::RegisterBenchmark("keccak_f1600/portable", bm_keccak_f1600)
        ->MinTime(0.05);
    benchmark::RegisterBenchmark("keccak_f1600x4/portable", bm_keccak_f1600x4,
                                 &backend::detail::kKeccakPortable)
        ->MinTime(0.05);
    if (backend::available(backend::Backend::kAvx2)) {
      benchmark::RegisterBenchmark("ntt_kyber/avx2", bm_kyber_ntt,
                                   backend::detail::kyber_avx2())
          ->MinTime(0.05);
      benchmark::RegisterBenchmark("ntt_dilithium/avx2", bm_dilithium_ntt,
                                   backend::detail::dilithium_avx2())
          ->MinTime(0.05);
      benchmark::RegisterBenchmark("keccak_f1600x4/avx2", bm_keccak_f1600x4,
                                   backend::detail::keccak_avx2())
          ->MinTime(0.05);
    }
    if (backend::available(backend::Backend::kAesni)) {
      benchmark::RegisterBenchmark("haraka512/aesni", bm_haraka512,
                                   backend::detail::haraka_aesni())
          ->MinTime(0.05);
    }
    benchmark::RegisterBenchmark("sha256_4k/portable", bm_sha256,
                                 &backend::detail::kSha256Portable)
        ->MinTime(0.05);
    if (backend::detail::sha256_shani() && backend::detail::cpu_has_shani()) {
      benchmark::RegisterBenchmark("sha256_4k/shani", bm_sha256,
                                   backend::detail::sha256_shani())
          ->MinTime(0.05);
    }

    benchmark::RegisterBenchmark("gf2_mul/portable", bm_gf2_mul,
                                 &backend::detail::kGf2Portable)
        ->Unit(benchmark::kMicrosecond)
        ->MinTime(0.05);
    if (backend::detail::gf2_pclmul() && backend::detail::cpu_has_pclmul()) {
      benchmark::RegisterBenchmark("gf2_mul/pclmul", bm_gf2_mul,
                                   backend::detail::gf2_pclmul())
          ->Unit(benchmark::kMicrosecond)
          ->MinTime(0.05);
    }

    // Batched server ops against their sequential equivalents (batch 1).
    const pqtls::kem::Kem* kyber = catalog.require_kem("kyber768").kem;
    const pqtls::sig::Signer* dilithium =
        catalog.require_signer("dilithium2").signer;
    for (std::size_t count : {std::size_t{1}, std::size_t{8},
                              std::size_t{32}}) {
      benchmark::RegisterBenchmark(
          ("kem_encaps_batch/kyber768/b" + std::to_string(count)).c_str(),
          bm_kem_encaps_batch, kyber, count)
          ->Unit(benchmark::kMicrosecond)
          ->MinTime(0.05);
      benchmark::RegisterBenchmark(
          ("sig_verify_batch/dilithium2/b" + std::to_string(count)).c_str(),
          bm_sig_verify_batch, dilithium, count)
          ->Unit(benchmark::kMicrosecond)
          ->MinTime(0.05);
    }
  }
};
const Registrar registrar;

// --gate: time the kernels outside the benchmark harness and fail unless
// the optimized ones clear conservative floors. The true speedups are
// higher; the floors only catch regressions that erase the optimization
// outright. Each timing is the best of several runs, which filters out
// preemption on a busy host.
template <typename Call>
double best_seconds_per_call(Call call, int iters) {
  double best = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) call();
    double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    best = std::min(best, s / iters);
  }
  return best;
}

int avx2_gate() {
  if (!backend::available(backend::Backend::kAvx2)) {
    std::printf("backend speedup gate skipped (AVX2 %s)\n",
                backend::compiled(backend::Backend::kAvx2)
                    ? "not supported by this CPU"
                    : "not compiled in");
    return 0;
  }
  constexpr int kIters = 20'000;
  constexpr double kNttFloor = 2.0;     // AVX2 NTT round-trip vs portable
  constexpr double kKeccakFloor = 2.0;  // AVX2 x4 vs four scalar calls

  Drbg rng(11);
  std::int16_t kpoly[256];
  for (auto& c : kpoly) c = static_cast<std::int16_t>(rng.uniform(3329));
  std::int32_t dpoly[256];
  for (auto& c : dpoly) c = static_cast<std::int32_t>(rng.uniform(8380417));
  auto ntt_roundtrip = [](const auto& kernels, auto* poly) {
    return [&kernels, poly] {
      kernels.ntt(poly);
      kernels.invntt(poly);
      benchmark::DoNotOptimize(poly[0]);
    };
  };
  double k_portable = best_seconds_per_call(
      ntt_roundtrip(backend::detail::kKyberPortable, kpoly), kIters);
  double k_avx2 = best_seconds_per_call(
      ntt_roundtrip(*backend::detail::kyber_avx2(), kpoly), kIters);
  double d_portable = best_seconds_per_call(
      ntt_roundtrip(backend::detail::kDilithiumPortable, dpoly), kIters);
  double d_avx2 = best_seconds_per_call(
      ntt_roundtrip(*backend::detail::dilithium_avx2(), dpoly), kIters);

  std::uint64_t state[100] = {1, 2, 3, 4};
  double keccak_scalar = best_seconds_per_call(
      [&] {
        pqtls::crypto::keccak_f1600(state);
        benchmark::DoNotOptimize(state[0]);
      },
      kIters);
  double keccak_x4 = best_seconds_per_call(
      [&] {
        backend::detail::keccak_avx2()->permute_x4(state);
        benchmark::DoNotOptimize(state[0]);
      },
      kIters);

  double k_ratio = k_portable / k_avx2;
  double d_ratio = d_portable / d_avx2;
  double x4_ratio = 4 * keccak_scalar / keccak_x4;
  std::printf("kyber ntt      portable %8.0f ns  avx2 %8.0f ns  %5.2fx\n",
              k_portable * 1e9, k_avx2 * 1e9, k_ratio);
  std::printf("dilithium ntt  portable %8.0f ns  avx2 %8.0f ns  %5.2fx\n",
              d_portable * 1e9, d_avx2 * 1e9, d_ratio);
  std::printf("keccak-f1600   4x scalar %7.0f ns  avx2 x4 %5.0f ns  %5.2fx\n",
              4 * keccak_scalar * 1e9, keccak_x4 * 1e9, x4_ratio);
  std::printf("gate: avx2 >= %.1fx portable for both NTTs, x4 Keccak >= "
              "%.1fx four scalar permutations\n",
              kNttFloor, kKeccakFloor);
  if (k_ratio < kNttFloor || d_ratio < kNttFloor) {
    std::fprintf(stderr, "FAIL: AVX2 NTT no longer beats portable\n");
    return 1;
  }
  if (x4_ratio < kKeccakFloor) {
    std::fprintf(stderr, "FAIL: AVX2 4-way Keccak below its floor\n");
    return 1;
  }
  return 0;
}

int sha256_gate() {
  const backend::Sha256Kernels* shani = backend::detail::sha256_shani();
  if (shani == nullptr || !backend::detail::cpu_has_shani()) {
    std::printf("SHA-256 speedup gate skipped (SHA-NI %s)\n",
                shani == nullptr ? "not compiled in"
                                 : "not supported by this CPU");
    return 0;
  }
  constexpr int kIters = 2'000;
  constexpr double kShaFloor = 2.0;  // SHA-NI vs portable over 4 KiB

  Drbg rng(13);
  Bytes msg = rng.bytes(4096);
  std::uint32_t h[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  auto hash_4k = [&](const backend::Sha256Kernels& kernels) {
    return [&kernels, &msg, &h] {
      kernels.compress(h, msg.data(), msg.size() / 64);
      benchmark::DoNotOptimize(h[0]);
    };
  };
  double portable = best_seconds_per_call(
      hash_4k(backend::detail::kSha256Portable), kIters);
  double accelerated = best_seconds_per_call(hash_4k(*shani), kIters);
  double ratio = portable / accelerated;
  std::printf("sha-256 4 KiB  portable %8.0f ns  sha-ni %6.0f ns  %5.2fx\n",
              portable * 1e9, accelerated * 1e9, ratio);
  std::printf("gate: sha-ni >= %.1fx portable SHA-256\n", kShaFloor);
  if (ratio < kShaFloor) {
    std::fprintf(stderr, "FAIL: SHA-NI SHA-256 below its floor\n");
    return 1;
  }
  return 0;
}

int gf2_gate() {
  const backend::Gf2Kernels* pclmul = backend::detail::gf2_pclmul();
  if (pclmul == nullptr || !backend::detail::cpu_has_pclmul()) {
    std::printf("GF(2) speedup gate skipped (PCLMULQDQ %s)\n",
                pclmul == nullptr ? "not compiled in"
                                  : "not supported by this CPU");
    return 0;
  }
  constexpr double kGf2Floor = 2.0;  // PCLMULQDQ vs portable at r = 24659

  Drbg rng(15);
  std::vector<std::uint64_t> a(kGf2Words), b(kGf2Words), out(2 * kGf2Words);
  for (std::size_t i = 0; i < kGf2Words; ++i) {
    a[i] = rng.u64();
    b[i] = rng.u64();
  }
  auto product = [&](const backend::Gf2Kernels& kernels) {
    return [&kernels, &a, &b, &out] {
      pqtls::crypto::gf2_mul_words(out.data(), a.data(), b.data(), kGf2Words,
                                   kernels);
      benchmark::DoNotOptimize(out.data());
      benchmark::ClobberMemory();
    };
  };
  double portable =
      best_seconds_per_call(product(backend::detail::kGf2Portable), 20);
  double accelerated = best_seconds_per_call(product(*pclmul), 200);
  double ratio = portable / accelerated;
  std::printf("gf2 r=24659    portable %8.0f ns  pclmul %6.0f ns  %5.2fx\n",
              portable * 1e9, accelerated * 1e9, ratio);
  std::printf("gate: pclmul >= %.1fx portable GF(2)[x] product\n", kGf2Floor);
  if (ratio < kGf2Floor) {
    std::fprintf(stderr, "FAIL: PCLMULQDQ GF(2) product below its floor\n");
    return 1;
  }
  return 0;
}

int run_gate() {
  const int avx2 = avx2_gate();
  const int sha256 = sha256_gate();
  const int gf2 = gf2_gate();
  return avx2 != 0 ? avx2 : sha256 != 0 ? sha256 : gf2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--gate") == 0) return run_gate();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
