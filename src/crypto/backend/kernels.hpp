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

// Optimized kernels. Each returns nullptr when the binary was built
// without the matching ISA support (non-x86 target, or the toolchain
// rejected -mavx2/-maes); callers must still check cpu_supports().
const KyberKernels* kyber_avx2();
const DilithiumKernels* dilithium_avx2();
const HarakaKernels* haraka_aesni();
const KeccakKernels* keccak_avx2();

}  // namespace pqtls::crypto::backend::detail
