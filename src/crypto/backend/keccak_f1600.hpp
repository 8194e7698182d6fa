// Internal: the Keccak-f[1600] permutation as one fully unrolled round
// function templated over the lane type. `Lane` is std::uint64_t for the
// scalar kernel every sponge uses (crypto/keccak.cpp) and a 4 x u64 vector
// for the 4-way kernel (keccak_avx2.cpp): each operation below (xor, and,
// not, shifts by constants) acts lanewise, so one template serves both.
//
// Everything here has internal linkage on purpose: keccak_avx2.cpp is
// compiled with -mavx2, and an externally visible instantiation from that
// file could be picked by the linker for the scalar callers too, putting
// AVX2 instructions on the portable path.
#pragma once

#include <cstdint>

namespace pqtls::crypto::backend::detail {
namespace {

constexpr std::uint64_t kKeccakRoundConstants[24] = {
    0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808aULL,
    0x8000000080008000ULL, 0x000000000000808bULL, 0x0000000080000001ULL,
    0x8000000080008081ULL, 0x8000000000008009ULL, 0x000000000000008aULL,
    0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000aULL,
    0x000000008000808bULL, 0x800000000000008bULL, 0x8000000000008089ULL,
    0x8000000000008003ULL, 0x8000000000008002ULL, 0x8000000000000080ULL,
    0x000000000000800aULL, 0x800000008000000aULL, 0x8000000080008081ULL,
    0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL};

// Forced inlining keeps the whole permutation in one register-allocated
// body; GCC at -O2 would otherwise call the round twice per iteration.
#define PQTLS_KECCAK_INLINE inline __attribute__((always_inline))

template <int N, typename Lane>
PQTLS_KECCAK_INLINE Lane keccak_rol(Lane x) {
  static_assert(N > 0 && N < 64);
  return (x << N) | (x >> (64 - N));
}

// Chi on one output plane: out[x] = b[x] ^ (~b[x+1] & b[x+2]).
template <typename Lane>
PQTLS_KECCAK_INLINE void keccak_chi(Lane* out, Lane b0, Lane b1, Lane b2,
                                    Lane b3, Lane b4) {
  out[0] = b0 ^ (~b1 & b2);
  out[1] = b1 ^ (~b2 & b3);
  out[2] = b2 ^ (~b3 & b4);
  out[3] = b3 ^ (~b4 & b0);
  out[4] = b4 ^ (~b0 & b1);
}

// One round a -> e, lanes laid out as a[x + 5y]. Theta folds into the
// rho+pi gather: output plane Y, column X reads input lane
// ((X + 3Y) mod 5) + 5X rotated by its rho offset, then chi and iota.
template <typename Lane>
PQTLS_KECCAK_INLINE void keccak_round(const Lane* a, Lane* e,
                                      std::uint64_t rc) {
  const Lane c0 = a[0] ^ a[5] ^ a[10] ^ a[15] ^ a[20];
  const Lane c1 = a[1] ^ a[6] ^ a[11] ^ a[16] ^ a[21];
  const Lane c2 = a[2] ^ a[7] ^ a[12] ^ a[17] ^ a[22];
  const Lane c3 = a[3] ^ a[8] ^ a[13] ^ a[18] ^ a[23];
  const Lane c4 = a[4] ^ a[9] ^ a[14] ^ a[19] ^ a[24];
  const Lane d0 = c4 ^ keccak_rol<1>(c1);
  const Lane d1 = c0 ^ keccak_rol<1>(c2);
  const Lane d2 = c1 ^ keccak_rol<1>(c3);
  const Lane d3 = c2 ^ keccak_rol<1>(c4);
  const Lane d4 = c3 ^ keccak_rol<1>(c0);

  keccak_chi(e + 0, a[0] ^ d0, keccak_rol<44>(a[6] ^ d1),
             keccak_rol<43>(a[12] ^ d2), keccak_rol<21>(a[18] ^ d3),
             keccak_rol<14>(a[24] ^ d4));
  e[0] ^= rc;
  keccak_chi(e + 5, keccak_rol<28>(a[3] ^ d3), keccak_rol<20>(a[9] ^ d4),
             keccak_rol<3>(a[10] ^ d0), keccak_rol<45>(a[16] ^ d1),
             keccak_rol<61>(a[22] ^ d2));
  keccak_chi(e + 10, keccak_rol<1>(a[1] ^ d1), keccak_rol<6>(a[7] ^ d2),
             keccak_rol<25>(a[13] ^ d3), keccak_rol<8>(a[19] ^ d4),
             keccak_rol<18>(a[20] ^ d0));
  keccak_chi(e + 15, keccak_rol<27>(a[4] ^ d4), keccak_rol<36>(a[5] ^ d0),
             keccak_rol<10>(a[11] ^ d1), keccak_rol<15>(a[17] ^ d2),
             keccak_rol<56>(a[23] ^ d3));
  keccak_chi(e + 20, keccak_rol<62>(a[2] ^ d2), keccak_rol<55>(a[8] ^ d3),
             keccak_rol<39>(a[14] ^ d4), keccak_rol<41>(a[15] ^ d0),
             keccak_rol<2>(a[21] ^ d1));
}

// All 24 rounds in place, ping-ponging between two local states.
template <typename Lane>
inline void keccak_f1600(Lane* state) {
  Lane a[25], e[25];
  for (int i = 0; i < 25; ++i) a[i] = state[i];
  for (int round = 0; round < 24; round += 2) {
    keccak_round(a, e, kKeccakRoundConstants[round]);
    keccak_round(e, a, kKeccakRoundConstants[round + 1]);
  }
  for (int i = 0; i < 25; ++i) state[i] = a[i];
}

#undef PQTLS_KECCAK_INLINE

}  // namespace
}  // namespace pqtls::crypto::backend::detail
