// Portable 4-way Keccak-f[1600]: four calls of the scalar permutation on
// the de-interleaved states. This is the reference the AVX2 kernel must
// match lane for lane.
#include <cstdint>

#include "crypto/backend/kernels.hpp"
#include "crypto/keccak.hpp"

namespace pqtls::crypto::backend::detail {
namespace {

void permute_x4(std::uint64_t* state) {
  for (int j = 0; j < 4; ++j) {
    std::uint64_t lane[25];
    for (int i = 0; i < 25; ++i) lane[i] = state[4 * i + j];
    keccak_f1600(lane);
    for (int i = 0; i < 25; ++i) state[4 * i + j] = lane[i];
  }
}

}  // namespace

const KeccakKernels kKeccakPortable{&permute_x4};

}  // namespace pqtls::crypto::backend::detail
