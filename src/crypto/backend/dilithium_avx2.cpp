// AVX2 kernels for the Dilithium NTT domain (q = 8380417). Coefficients
// are int32 in [0, q); products need 46 bits, so each __m256i of 8
// coefficients is split into even/odd 64-bit half-lanes and multiplied
// with _mm256_mul_epu32. Montgomery arithmetic uses R = 2^32 with a
// conditional subtract back to canonical after every step, making the
// results bit-identical to the portable %-based kernels. Twiddles are
// premultiplied by R at static init from the same 1753^bitrev8(i) table.
// Every layer is vectorized: the len >= 8 layers pair whole vectors, and
// the len 4/2/1 layers pair lanes inside one vector (see Tail below).
#include <cstdint>

#include "crypto/backend/kernels.hpp"

#if defined(PQTLS_HAVE_AVX2)

#include <immintrin.h>

namespace pqtls::crypto::backend::detail {
namespace {

constexpr int kN = 256;
constexpr std::int32_t kQ = 8380417;
constexpr std::int64_t kInv256 = 8347681;  // 256^{-1} mod q

struct Tables {
  std::int64_t zeta_m[256];  // zeta * 2^32 mod q (Montgomery form)
  std::uint32_t nqinv;       // -q^{-1} mod 2^32
  std::int64_t r2;           // 2^64 mod q
  std::int64_t inv256_m;     // kInv256 * 2^32 mod q
  Tables() {
    auto bitrev8 = [](int x) {
      int r = 0;
      for (int b = 0; b < 8; ++b)
        if (x & (1 << b)) r |= 1 << (7 - b);
      return r;
    };
    for (int i = 0; i < 256; ++i) {
      int e = bitrev8(i);
      std::int64_t v = 1;
      for (int j = 0; j < e; ++j) v = (v * 1753) % kQ;
      zeta_m[i] = (v << 32) % kQ;
    }
    // Newton iteration for q^{-1} mod 2^32 (q odd), then negate.
    std::uint32_t qinv = 1;
    for (int i = 0; i < 5; ++i)
      qinv *= 2u - static_cast<std::uint32_t>(kQ) * qinv;
    nqinv = ~qinv + 1u;
    std::int64_t r1 = (static_cast<std::int64_t>(1) << 32) % kQ;
    r2 = (r1 * r1) % kQ;
    inv256_m = (kInv256 << 32) % kQ;
  }
};
const Tables kT;

inline __m256i q32() { return _mm256_set1_epi32(kQ); }
inline __m256i q64() { return _mm256_set1_epi64x(kQ); }

// [0, 2q) -> [0, q) on 8 int32 lanes.
inline __m256i csub32(__m256i a) {
  __m256i lt = _mm256_cmpgt_epi32(q32(), a);
  return _mm256_sub_epi32(a, _mm256_andnot_si256(lt, q32()));
}

// Montgomery reduction of four 64-bit lanes holding nonnegative t < 2^46:
// returns t * 2^{-32} mod q canonical in the low half of each lane.
inline __m256i mredc64(__m256i t) {
  const __m256i mask32 = _mm256_set1_epi64x(0xFFFFFFFF);
  __m256i m = _mm256_and_si256(
      _mm256_mul_epu32(t, _mm256_set1_epi64x(
                              static_cast<long long>(kT.nqinv))),
      mask32);
  __m256i r =
      _mm256_srli_epi64(_mm256_add_epi64(t, _mm256_mul_epu32(m, q64())), 32);
  // r < 2^14 + q, one conditional subtract.
  __m256i lt = _mm256_cmpgt_epi64(q64(), r);
  return _mm256_sub_epi64(r, _mm256_andnot_si256(lt, q64()));
}

// Split 8 canonical int32 lanes into even/odd 64-bit half-vectors
// (zero-extended: values < q keep the sign bit clear).
inline void split(__m256i v, __m256i& ev, __m256i& od) {
  ev = _mm256_and_si256(v, _mm256_set1_epi64x(0xFFFFFFFF));
  od = _mm256_srli_epi64(v, 32);
}

inline __m256i join(__m256i ev, __m256i od) {
  return _mm256_or_si256(ev, _mm256_slli_epi64(od, 32));
}

// 8 canonical coefficients times a Montgomery-form constant zm (< q).
inline __m256i mmul8(__m256i v, __m256i zm) {
  __m256i ev, od;
  split(v, ev, od);
  return join(mredc64(_mm256_mul_epu32(ev, zm)),
              mredc64(_mm256_mul_epu32(od, zm)));
}

// The len 4/2/1 layers butterfly lane pairs (top, top + D) inside one
// 8-lane vector. tops/bottoms gather the four top/bottom lanes into the low
// halves of the 64-bit lanes (pair order; _mm256_mul_epu32 ignores the high
// halves), and spread puts the four pair results back on both lanes of each
// pair, so a blend picks the top or bottom result per lane. One mredc64
// per vector per layer, as in the wide layers.
template <int D>
struct Tail;

template <>
struct Tail<4> {
  static constexpr int kBottom = 0xF0;
  static __m256i tops(__m256i v) {
    return _mm256_cvtepu32_epi64(_mm256_castsi256_si128(v));
  }
  static __m256i bottoms(__m256i v) {
    return _mm256_cvtepu32_epi64(_mm256_extracti128_si256(v, 1));
  }
  static __m256i spread(__m256i t) {
    return _mm256_permutevar8x32_epi32(
        t, _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6));
  }
};

template <>
struct Tail<2> {
  static constexpr int kBottom = 0xCC;
  static __m256i tops(__m256i v) {
    return _mm256_shuffle_epi32(v, _MM_SHUFFLE(1, 1, 0, 0));
  }
  static __m256i bottoms(__m256i v) {
    return _mm256_shuffle_epi32(v, _MM_SHUFFLE(3, 3, 2, 2));
  }
  static __m256i spread(__m256i t) {
    return _mm256_shuffle_epi32(t, _MM_SHUFFLE(2, 0, 2, 0));
  }
};

template <>
struct Tail<1> {
  static constexpr int kBottom = 0xAA;
  static __m256i tops(__m256i v) { return v; }
  static __m256i bottoms(__m256i v) { return _mm256_srli_epi64(v, 32); }
  static __m256i spread(__m256i t) {
    return _mm256_shuffle_epi32(t, _MM_SHUFFLE(2, 2, 0, 0));
  }
};

// Cooley-Tukey: top = a + zeta*b, bottom = a - zeta*b. zm holds the four
// pairs' Montgomery twiddles in pair order.
template <int D>
inline __m256i fwd_tail(__m256i v, __m256i zm) {
  __m256i a = Tail<D>::tops(v);
  __m256i t = mredc64(_mm256_mul_epu32(Tail<D>::bottoms(v), zm));
  __m256i sum = csub32(_mm256_add_epi32(a, t));
  __m256i diff = csub32(_mm256_add_epi32(_mm256_sub_epi32(a, t), q32()));
  return _mm256_blend_epi32(Tail<D>::spread(sum), Tail<D>::spread(diff),
                            Tail<D>::kBottom);
}

// Gentleman-Sande: top = a + b, bottom = zeta*(b - a).
template <int D>
inline __m256i inv_tail(__m256i v, __m256i zm) {
  __m256i a = Tail<D>::tops(v);
  __m256i b = Tail<D>::bottoms(v);
  __m256i sum = csub32(_mm256_add_epi32(a, b));
  __m256i d = csub32(_mm256_add_epi32(_mm256_sub_epi32(b, a), q32()));
  __m256i t = mredc64(_mm256_mul_epu32(d, zm));
  return _mm256_blend_epi32(Tail<D>::spread(sum), Tail<D>::spread(t),
                            Tail<D>::kBottom);
}

inline __m256i load_zm4(int i) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(kT.zeta_m + i));
}

void ntt(std::int32_t* r) {
  int k = 0;
  for (int len = 128; len >= 8; len >>= 1) {
    for (int start = 0; start < kN; start += 2 * len) {
      __m256i zm = _mm256_set1_epi64x(kT.zeta_m[++k]);
      for (int j = start; j < start + len; j += 8) {
        __m256i a =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r + j));
        __m256i b =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r + j + len));
        __m256i t = mmul8(b, zm);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(r + j + len),
            csub32(_mm256_add_epi32(_mm256_sub_epi32(a, t), q32())));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(r + j),
                            csub32(_mm256_add_epi32(a, t)));
      }
    }
  }
  // Block b (coefficients 8b..8b+7) takes twiddle 32+b at len 4, 64+2b and
  // 65+2b at len 2, and 128+4b..131+4b at len 1.
  for (int b = 0; b < kN / 8; ++b) {
    auto* p = reinterpret_cast<__m256i*>(r + 8 * b);
    __m256i v = _mm256_loadu_si256(p);
    v = fwd_tail<4>(v, _mm256_set1_epi64x(kT.zeta_m[32 + b]));
    v = fwd_tail<2>(v, _mm256_permute4x64_epi64(load_zm4(64 + 2 * b),
                                                _MM_SHUFFLE(1, 1, 0, 0)));
    v = fwd_tail<1>(v, load_zm4(128 + 4 * b));
    _mm256_storeu_si256(p, v);
  }
}

void invntt(std::int32_t* r) {
  // The forward tail's twiddles, walked backwards: block b takes
  // 255-4b..252-4b at len 1, 127-2b and 126-2b at len 2, 63-b at len 4.
  for (int b = 0; b < kN / 8; ++b) {
    auto* p = reinterpret_cast<__m256i*>(r + 8 * b);
    __m256i v = _mm256_loadu_si256(p);
    v = inv_tail<1>(v, _mm256_permute4x64_epi64(load_zm4(252 - 4 * b),
                                                _MM_SHUFFLE(0, 1, 2, 3)));
    v = inv_tail<2>(v, _mm256_permute4x64_epi64(load_zm4(124 - 2 * b),
                                                _MM_SHUFFLE(2, 2, 3, 3)));
    v = inv_tail<4>(v, _mm256_set1_epi64x(kT.zeta_m[63 - b]));
    _mm256_storeu_si256(p, v);
  }
  int k = 32;
  for (int len = 8; len <= 128; len <<= 1) {
    for (int start = 0; start < kN; start += 2 * len) {
      __m256i zm = _mm256_set1_epi64x(kT.zeta_m[--k]);
      for (int j = start; j < start + len; j += 8) {
        __m256i a =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r + j));
        __m256i b =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r + j + len));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(r + j),
                            csub32(_mm256_add_epi32(a, b)));
        __m256i d = csub32(_mm256_add_epi32(_mm256_sub_epi32(b, a), q32()));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(r + j + len),
                            mmul8(d, zm));
      }
    }
  }
  __m256i f = _mm256_set1_epi64x(kT.inv256_m);
  for (int j = 0; j < kN; j += 8) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r + j));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(r + j), mmul8(v, f));
  }
}

void pointwise_acc(std::int32_t* r, const std::int32_t* a,
                   const std::int32_t* b) {
  const __m256i r2 = _mm256_set1_epi64x(kT.r2);
  for (int j = 0; j < kN; j += 8) {
    __m256i av = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + j));
    __m256i bv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    __m256i rv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r + j));
    __m256i ae, ao, be, bo;
    split(av, ae, ao);
    split(bv, be, bo);
    // a*b*R^{-1}, then * R^2 * R^{-1} -> plain a*b mod q.
    __m256i pe = mredc64(_mm256_mul_epu32(mredc64(_mm256_mul_epu32(ae, be)),
                                          r2));
    __m256i po = mredc64(_mm256_mul_epu32(mredc64(_mm256_mul_epu32(ao, bo)),
                                          r2));
    __m256i d = join(pe, po);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(r + j),
                        csub32(_mm256_add_epi32(rv, d)));
  }
}

const DilithiumKernels kDilithiumAvx2{&ntt, &invntt, &pointwise_acc};

}  // namespace

const DilithiumKernels* dilithium_avx2() { return &kDilithiumAvx2; }

}  // namespace pqtls::crypto::backend::detail

#else  // !PQTLS_HAVE_AVX2

namespace pqtls::crypto::backend::detail {

const DilithiumKernels* dilithium_avx2() { return nullptr; }

}  // namespace pqtls::crypto::backend::detail

#endif
