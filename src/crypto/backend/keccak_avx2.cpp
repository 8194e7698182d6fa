// AVX2 4-way Keccak-f[1600]: the shared unrolled round function
// (keccak_f1600.hpp) instantiated on a 4 x u64 vector, so each 256-bit
// register holds the same lane of four independent states. The state is
// already lane-interleaved (word i of state j at 4 * i + j), so loading a
// vector is loading one lane of all four states.
#include <cstdint>

#include "crypto/backend/kernels.hpp"

#if defined(PQTLS_HAVE_AVX2)

#include <cstring>

#include "crypto/backend/keccak_f1600.hpp"

namespace pqtls::crypto::backend::detail {
namespace {

using Lanes = std::uint64_t __attribute__((vector_size(32)));

void permute_x4(std::uint64_t* state) {
  Lanes s[25];
  std::memcpy(s, state, sizeof s);
  keccak_f1600(s);
  std::memcpy(state, s, sizeof s);
}

const KeccakKernels kKeccakAvx2{&permute_x4};

}  // namespace

const KeccakKernels* keccak_avx2() { return &kKeccakAvx2; }

}  // namespace pqtls::crypto::backend::detail

#else  // !PQTLS_HAVE_AVX2

namespace pqtls::crypto::backend::detail {

const KeccakKernels* keccak_avx2() { return nullptr; }

}  // namespace pqtls::crypto::backend::detail

#endif
