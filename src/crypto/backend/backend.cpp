#include "crypto/backend/backend.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "crypto/backend/kernels.hpp"

namespace pqtls::crypto::backend {
namespace {

constexpr int kUninitialized = -1;

// Process-wide selection. -1 until first use, then a Backend value; the
// first reader folds PQTLS_BACKEND in, an explicit select() overrides.
std::atomic<int> g_selection{kUninitialized};

bool parse(std::string_view text, Backend& out) {
  if (text == "portable") {
    out = Backend::kPortable;
  } else if (text == "avx2") {
    out = Backend::kAvx2;
  } else if (text == "aesni") {
    out = Backend::kAesni;
  } else if (text == "auto") {
    out = Backend::kAuto;
  } else {
    return false;
  }
  return true;
}

void warn_unavailable(Backend b) {
  std::fprintf(stderr,
               "pqtls: backend '%s' is not available on this machine "
               "(compiled=%d, cpu=%d); affected kernels fall back to "
               "portable\n",
               std::string(name(b)).c_str(), compiled(b) ? 1 : 0,
               cpu_supports(b) ? 1 : 0);
}

Backend env_selection() {
  const char* env = std::getenv("PQTLS_BACKEND");
  if (env == nullptr || *env == '\0') {
    return Backend::kAuto;
  }
  Backend b = Backend::kAuto;
  if (!parse(env, b)) {
    std::fprintf(stderr,
                 "pqtls: ignoring unknown PQTLS_BACKEND='%s' "
                 "(want portable|avx2|aesni|auto)\n",
                 env);
    return Backend::kAuto;
  }
  if (b != Backend::kAuto && b != Backend::kPortable && !available(b)) {
    warn_unavailable(b);
  }
  return b;
}

Backend current() {
  int v = g_selection.load(std::memory_order_relaxed);
  if (v == kUninitialized) {
    // Racing first readers all compute the same env answer, so the CAS
    // loser simply re-reads an identical value (or a select() override).
    int parsed = static_cast<int>(env_selection());
    int expected = kUninitialized;
    g_selection.compare_exchange_strong(expected, parsed,
                                        std::memory_order_relaxed);
    v = g_selection.load(std::memory_order_relaxed);
  }
  return static_cast<Backend>(v);
}

bool want_avx2() {
  Backend sel = current();
  return (sel == Backend::kAvx2 || sel == Backend::kAuto) &&
         cpu_supports(Backend::kAvx2);
}

// The AVX2 backend is only "compiled" when every family it covers is.
bool avx2_compiled() {
  return detail::kyber_avx2() != nullptr &&
         detail::dilithium_avx2() != nullptr &&
         detail::keccak_avx2() != nullptr;
}

// SHA-NI and PCLMULQDQ ride on the "aesni" selection too: those x86
// extensions ship on the same CPUs as AES-NI, and a separate Backend value
// would change active_name(). Each still needs its own CPUID bit.
bool want_aesni(bool cpu_has_extension) {
  Backend sel = current();
  return (sel == Backend::kAesni || sel == Backend::kAuto) &&
         cpu_has_extension;
}

bool want_aesni() { return want_aesni(cpu_supports(Backend::kAesni)); }

}  // namespace

bool detail::cpu_has_shani() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("sha") != 0 &&
         __builtin_cpu_supports("sse4.1") != 0;
#else
  return false;
#endif
}

bool detail::cpu_has_pclmul() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("pclmul") != 0 &&
         __builtin_cpu_supports("sse2") != 0;
#else
  return false;
#endif
}

std::string_view name(Backend b) {
  switch (b) {
    case Backend::kPortable:
      return "portable";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kAesni:
      return "aesni";
    case Backend::kAuto:
      return "auto";
  }
  return "portable";
}

bool compiled(Backend b) {
  switch (b) {
    case Backend::kAvx2:
      return avx2_compiled();
    case Backend::kAesni:
      return detail::haraka_aesni() != nullptr;
    case Backend::kPortable:
    case Backend::kAuto:
      return true;
  }
  return false;
}

bool cpu_supports(Backend b) {
#if defined(__x86_64__) || defined(__i386__)
  switch (b) {
    case Backend::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case Backend::kAesni:
      return __builtin_cpu_supports("aes") != 0 &&
             __builtin_cpu_supports("sse2") != 0;
    case Backend::kPortable:
    case Backend::kAuto:
      return true;
  }
  return false;
#else
  return b == Backend::kPortable || b == Backend::kAuto;
#endif
}

bool available(Backend b) { return compiled(b) && cpu_supports(b); }

Backend selection() { return current(); }

bool select(std::string_view backend_name) {
  Backend b = Backend::kAuto;
  if (!parse(backend_name, b)) {
    return false;
  }
  if (b != Backend::kAuto && b != Backend::kPortable && !available(b)) {
    warn_unavailable(b);
  }
  g_selection.store(static_cast<int>(b), std::memory_order_relaxed);
  return true;
}

std::string_view active_name() {
  const bool avx2 = want_avx2() && avx2_compiled();
  const bool aesni = want_aesni() && detail::haraka_aesni() != nullptr;
  if (avx2 && aesni) {
    return "avx2+aesni";
  }
  if (avx2) {
    return "avx2";
  }
  if (aesni) {
    return "aesni";
  }
  return "portable";
}

const KyberKernels& kyber_kernels() {
  if (want_avx2()) {
    if (const KyberKernels* k = detail::kyber_avx2()) {
      return *k;
    }
  }
  return detail::kKyberPortable;
}

const DilithiumKernels& dilithium_kernels() {
  if (want_avx2()) {
    if (const DilithiumKernels* k = detail::dilithium_avx2()) {
      return *k;
    }
  }
  return detail::kDilithiumPortable;
}

const HarakaKernels& haraka_kernels() {
  if (want_aesni()) {
    if (const HarakaKernels* k = detail::haraka_aesni()) {
      return *k;
    }
  }
  return detail::kHarakaPortable;
}

const KeccakKernels& keccak_kernels() {
  if (want_avx2()) {
    if (const KeccakKernels* k = detail::keccak_avx2()) {
      return *k;
    }
  }
  return detail::kKeccakPortable;
}

const Sha256Kernels& sha256_kernels() {
  if (want_aesni(detail::cpu_has_shani())) {
    if (const Sha256Kernels* k = detail::sha256_shani()) {
      return *k;
    }
  }
  return detail::kSha256Portable;
}

const Gf2Kernels& gf2_kernels() {
  if (want_aesni(detail::cpu_has_pclmul())) {
    if (const Gf2Kernels* k = detail::gf2_pclmul()) {
      return *k;
    }
  }
  return detail::kGf2Portable;
}

}  // namespace pqtls::crypto::backend
