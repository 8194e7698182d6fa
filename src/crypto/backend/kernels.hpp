// Internal: the concrete kernel tables each backend file exports. Only
// backend.cpp (dispatch) and the micro-benches/tests include this; product
// code goes through backend.hpp accessors.
#pragma once

#include "crypto/backend/backend.hpp"

namespace pqtls::crypto::backend::detail {

// Portable reference kernels — always compiled, always available.
extern const KyberKernels kKyberPortable;
extern const DilithiumKernels kDilithiumPortable;
extern const HarakaKernels kHarakaPortable;
extern const KeccakKernels kKeccakPortable;
extern const Sha256Kernels kSha256Portable;
extern const Gf2Kernels kGf2Portable;

// FIPS 180-4 SHA-256 round constants K0..K63, shared by both SHA-256
// kernels.
extern const std::uint32_t kSha256RoundConstants[64];

// Optimized kernels. Each returns nullptr when the binary was built
// without the matching ISA support (non-x86 target, or the toolchain
// rejected -mavx2/-maes/-msha/-mpclmul); callers must still check the CPU.
const KyberKernels* kyber_avx2();
const DilithiumKernels* dilithium_avx2();
const HarakaKernels* haraka_aesni();
const KeccakKernels* keccak_avx2();
const Sha256Kernels* sha256_shani();
const Gf2Kernels* gf2_pclmul();

// True when the running CPU has the SHA extensions and SSE4.1 that
// sha256_shani() needs. No Backend value names them: the "aesni" and
// "auto" selections use SHA-NI wherever this holds.
bool cpu_has_shani();
// True when the running CPU has PCLMULQDQ, which gf2_pclmul() needs; like
// SHA-NI it rides on the "aesni" and "auto" selections.
bool cpu_has_pclmul();

}  // namespace pqtls::crypto::backend::detail
