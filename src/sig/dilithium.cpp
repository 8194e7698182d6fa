#include "sig/dilithium.hpp"

#include <array>
#include <span>
#include <stdexcept>

#include "crypto/backend/backend.hpp"
#include "crypto/ct.hpp"
#include "crypto/expand.hpp"
#include "crypto/keccak.hpp"

namespace pqtls::sig {

namespace {

using crypto::Shake;

constexpr int kN = 256;
constexpr std::int32_t kQ = 8380417;
constexpr int kD = 13;

using Poly = std::array<std::int32_t, kN>;
using PolyVec = std::vector<Poly>;

std::int32_t freduce(std::int64_t a) {
  a %= kQ;
  if (a < 0) a += kQ;
  return static_cast<std::int32_t>(a);
}

// Centered representative in (-q/2, q/2].
std::int32_t centered(std::int32_t a) {
  return a > kQ / 2 ? a - kQ : a;
}

// NTT-domain kernels route through the runtime-selected backend
// (crypto/backend): portable reference or AVX2, bit-identical either way.

void ntt(Poly& r) { crypto::backend::dilithium_kernels().ntt(r.data()); }

void invntt(Poly& r) { crypto::backend::dilithium_kernels().invntt(r.data()); }

void poly_pointwise_acc(Poly& r, const Poly& a, const Poly& b) {
  crypto::backend::dilithium_kernels().pointwise_acc(r.data(), a.data(),
                                                     b.data());
}

void poly_add(Poly& r, const Poly& a) {
  for (int i = 0; i < kN; ++i) r[i] = freduce(static_cast<std::int64_t>(r[i]) + a[i]);
}

void poly_sub(Poly& r, const Poly& a) {
  for (int i = 0; i < kN; ++i) r[i] = freduce(static_cast<std::int64_t>(r[i]) - a[i]);
}

std::int32_t inf_norm(const Poly& a) {
  std::int32_t m = 0;
  for (auto c : a) {
    std::int32_t v = centered(c);
    if (v < 0) v = -v;
    if (v > m) m = v;
  }
  return m;
}

// Power2Round: a = a1 * 2^d + a0 with a0 in (-2^{d-1}, 2^{d-1}].
void power2round(std::int32_t a, std::int32_t& a1, std::int32_t& a0) {
  a1 = (a + (1 << (kD - 1)) - 1) >> kD;
  a0 = a - (a1 << kD);
}

// Decompose: a = a1 * alpha + a0 with a0 in (-alpha/2, alpha/2].
void decompose(std::int32_t a, std::int32_t alpha, std::int32_t& a1,
               std::int32_t& a0) {
  a1 = (a + 127) >> 7;
  if (alpha == 2 * ((kQ - 1) / 88)) {
    a1 = (a1 * 11275 + (1 << 23)) >> 24;
    a1 ^= ((43 - a1) >> 31) & a1;
  } else {  // alpha == 2 * ((q-1)/32)
    a1 = (a1 * 1025 + (1 << 21)) >> 22;
    a1 &= 15;
  }
  a0 = a - a1 * alpha;
  a0 -= (((kQ - 1) / 2 - a0) >> 31) & kQ;
}

std::int32_t use_hint(std::int32_t a, bool hint, std::int32_t gamma2) {
  std::int32_t a1, a0;
  decompose(a, 2 * gamma2, a1, a0);
  if (!hint) return a1;
  if (gamma2 == (kQ - 1) / 88) {
    if (a0 > 0) return (a1 == 43) ? 0 : a1 + 1;
    return (a1 == 0) ? 43 : a1 - 1;
  }
  if (a0 > 0) return (a1 + 1) & 15;
  return (a1 - 1) & 15;
}

// Challenge polynomial with tau +-1 coefficients (SampleInBall).
Poly sample_in_ball(BytesView c_tilde, int tau) {
  Shake xof(256);
  xof.absorb(c_tilde);
  // Squeezed a SHAKE256 block at a time: the same byte stream as squeezing
  // the 8 sign bytes and then one byte per draw.
  std::uint8_t buf[136];
  xof.squeeze(buf, sizeof buf);
  std::uint64_t signs = load_le64(buf);
  std::size_t pos = 8;
  Poly c{};
  for (int i = kN - tau; i < kN; ++i) {
    std::uint8_t j;
    do {
      if (pos == sizeof buf) {
        xof.squeeze(buf, sizeof buf);
        pos = 0;
      }
      j = buf[pos++];
    } while (j > i);
    c[i] = c[j];
    c[j] = (signs & 1) ? kQ - 1 : 1;
    signs >>= 1;
  }
  return c;
}

// --- packing ---

void pack_t1(Bytes& out, const Poly& t1) {  // 10 bits
  for (int i = 0; i < kN / 4; ++i) {
    const std::int32_t* a = &t1[4 * i];
    out.push_back(static_cast<std::uint8_t>(a[0]));
    out.push_back(static_cast<std::uint8_t>((a[0] >> 8) | (a[1] << 2)));
    out.push_back(static_cast<std::uint8_t>((a[1] >> 6) | (a[2] << 4)));
    out.push_back(static_cast<std::uint8_t>((a[2] >> 4) | (a[3] << 6)));
    out.push_back(static_cast<std::uint8_t>(a[3] >> 2));
  }
}

Poly unpack_t1(BytesView in) {
  Poly r{};
  for (int i = 0; i < kN / 4; ++i) {
    const std::uint8_t* b = in.data() + 5 * i;
    r[4 * i] = (b[0] | (std::int32_t{b[1]} << 8)) & 0x3ff;
    r[4 * i + 1] = ((b[1] >> 2) | (std::int32_t{b[2]} << 6)) & 0x3ff;
    r[4 * i + 2] = ((b[2] >> 4) | (std::int32_t{b[3]} << 4)) & 0x3ff;
    r[4 * i + 3] = ((b[3] >> 6) | (std::int32_t{b[4]} << 2)) & 0x3ff;
  }
  return r;
}

void pack_eta(Bytes& out, const Poly& s, int eta) {
  if (eta == 2) {  // 3 bits, value stored as eta - s
    for (int i = 0; i < kN / 8; ++i) {
      std::uint8_t t[8];
      for (int j = 0; j < 8; ++j)
        t[j] = static_cast<std::uint8_t>(2 - centered(s[8 * i + j]));
      out.push_back(static_cast<std::uint8_t>(t[0] | (t[1] << 3) | (t[2] << 6)));
      out.push_back(static_cast<std::uint8_t>((t[2] >> 2) | (t[3] << 1) |
                                              (t[4] << 4) | (t[5] << 7)));
      out.push_back(static_cast<std::uint8_t>((t[5] >> 1) | (t[6] << 2) |
                                              (t[7] << 5)));
    }
  } else {  // eta == 4, 4 bits
    for (int i = 0; i < kN / 2; ++i) {
      std::uint8_t a = static_cast<std::uint8_t>(4 - centered(s[2 * i]));
      std::uint8_t b = static_cast<std::uint8_t>(4 - centered(s[2 * i + 1]));
      out.push_back(static_cast<std::uint8_t>(a | (b << 4)));
    }
  }
}

Poly unpack_eta(BytesView in, int eta) {
  Poly r{};
  if (eta == 2) {
    for (int i = 0; i < kN / 8; ++i) {
      const std::uint8_t* b = in.data() + 3 * i;
      std::uint8_t t[8];
      t[0] = b[0] & 7;
      t[1] = (b[0] >> 3) & 7;
      t[2] = ((b[0] >> 6) | (b[1] << 2)) & 7;
      t[3] = (b[1] >> 1) & 7;
      t[4] = (b[1] >> 4) & 7;
      t[5] = ((b[1] >> 7) | (b[2] << 1)) & 7;
      t[6] = (b[2] >> 2) & 7;
      t[7] = (b[2] >> 5) & 7;
      for (int j = 0; j < 8; ++j) r[8 * i + j] = freduce(2 - t[j]);
    }
  } else {
    for (int i = 0; i < kN / 2; ++i) {
      r[2 * i] = freduce(4 - (in[i] & 0xf));
      r[2 * i + 1] = freduce(4 - (in[i] >> 4));
    }
  }
  return r;
}

void pack_t0(Bytes& out, const Poly& t0) {  // 13 bits, stored as 2^12 - t0
  for (int i = 0; i < kN / 8; ++i) {
    std::uint32_t t[8];
    for (int j = 0; j < 8; ++j)
      t[j] = static_cast<std::uint32_t>((1 << (kD - 1)) - centered(t0[8 * i + j]));
    out.push_back(static_cast<std::uint8_t>(t[0]));
    out.push_back(static_cast<std::uint8_t>((t[0] >> 8) | (t[1] << 5)));
    out.push_back(static_cast<std::uint8_t>(t[1] >> 3));
    out.push_back(static_cast<std::uint8_t>((t[1] >> 11) | (t[2] << 2)));
    out.push_back(static_cast<std::uint8_t>((t[2] >> 6) | (t[3] << 7)));
    out.push_back(static_cast<std::uint8_t>(t[3] >> 1));
    out.push_back(static_cast<std::uint8_t>((t[3] >> 9) | (t[4] << 4)));
    out.push_back(static_cast<std::uint8_t>(t[4] >> 4));
    out.push_back(static_cast<std::uint8_t>((t[4] >> 12) | (t[5] << 1)));
    out.push_back(static_cast<std::uint8_t>((t[5] >> 7) | (t[6] << 6)));
    out.push_back(static_cast<std::uint8_t>(t[6] >> 2));
    out.push_back(static_cast<std::uint8_t>((t[6] >> 10) | (t[7] << 3)));
    out.push_back(static_cast<std::uint8_t>(t[7] >> 5));
  }
}

Poly unpack_t0(BytesView in) {
  Poly r{};
  for (int i = 0; i < kN / 8; ++i) {
    const std::uint8_t* b = in.data() + 13 * i;
    std::uint32_t t[8];
    t[0] = (b[0] | (std::uint32_t{b[1]} << 8)) & 0x1fff;
    t[1] = ((b[1] >> 5) | (std::uint32_t{b[2]} << 3) |
            (std::uint32_t{b[3]} << 11)) & 0x1fff;
    t[2] = ((b[3] >> 2) | (std::uint32_t{b[4]} << 6)) & 0x1fff;
    t[3] = ((b[4] >> 7) | (std::uint32_t{b[5]} << 1) |
            (std::uint32_t{b[6]} << 9)) & 0x1fff;
    t[4] = ((b[6] >> 4) | (std::uint32_t{b[7]} << 4) |
            (std::uint32_t{b[8]} << 12)) & 0x1fff;
    t[5] = ((b[8] >> 1) | (std::uint32_t{b[9]} << 7)) & 0x1fff;
    t[6] = ((b[9] >> 6) | (std::uint32_t{b[10]} << 2) |
            (std::uint32_t{b[11]} << 10)) & 0x1fff;
    t[7] = ((b[11] >> 3) | (std::uint32_t{b[12]} << 5)) & 0x1fff;
    for (int j = 0; j < 8; ++j)
      r[8 * i + j] = freduce(static_cast<std::int64_t>(1 << (kD - 1)) - t[j]);
  }
  return r;
}

void pack_z(Bytes& out, const Poly& z, std::int32_t gamma1) {
  if (gamma1 == (1 << 17)) {  // 18 bits, stored as gamma1 - z
    for (int i = 0; i < kN / 4; ++i) {
      std::uint32_t t[4];
      for (int j = 0; j < 4; ++j)
        t[j] = static_cast<std::uint32_t>(gamma1 - centered(z[4 * i + j]));
      out.push_back(static_cast<std::uint8_t>(t[0]));
      out.push_back(static_cast<std::uint8_t>(t[0] >> 8));
      out.push_back(static_cast<std::uint8_t>((t[0] >> 16) | (t[1] << 2)));
      out.push_back(static_cast<std::uint8_t>(t[1] >> 6));
      out.push_back(static_cast<std::uint8_t>((t[1] >> 14) | (t[2] << 4)));
      out.push_back(static_cast<std::uint8_t>(t[2] >> 4));
      out.push_back(static_cast<std::uint8_t>((t[2] >> 12) | (t[3] << 6)));
      out.push_back(static_cast<std::uint8_t>(t[3] >> 2));
      out.push_back(static_cast<std::uint8_t>(t[3] >> 10));
    }
  } else {  // 20 bits
    for (int i = 0; i < kN / 2; ++i) {
      std::uint32_t t0 = static_cast<std::uint32_t>(gamma1 - centered(z[2 * i]));
      std::uint32_t t1 =
          static_cast<std::uint32_t>(gamma1 - centered(z[2 * i + 1]));
      out.push_back(static_cast<std::uint8_t>(t0));
      out.push_back(static_cast<std::uint8_t>(t0 >> 8));
      out.push_back(static_cast<std::uint8_t>((t0 >> 16) | (t1 << 4)));
      out.push_back(static_cast<std::uint8_t>(t1 >> 4));
      out.push_back(static_cast<std::uint8_t>(t1 >> 12));
    }
  }
}

Poly unpack_z(BytesView in, std::int32_t gamma1) {
  Poly r{};
  if (gamma1 == (1 << 17)) {
    for (int i = 0; i < kN / 4; ++i) {
      const std::uint8_t* b = in.data() + 9 * i;
      std::uint32_t t[4];
      t[0] = (b[0] | (std::uint32_t{b[1]} << 8) | (std::uint32_t{b[2]} << 16)) &
             0x3ffff;
      t[1] = ((b[2] >> 2) | (std::uint32_t{b[3]} << 6) |
              (std::uint32_t{b[4]} << 14)) & 0x3ffff;
      t[2] = ((b[4] >> 4) | (std::uint32_t{b[5]} << 4) |
              (std::uint32_t{b[6]} << 12)) & 0x3ffff;
      t[3] = ((b[6] >> 6) | (std::uint32_t{b[7]} << 2) |
              (std::uint32_t{b[8]} << 10)) & 0x3ffff;
      for (int j = 0; j < 4; ++j)
        r[4 * i + j] = freduce(static_cast<std::int64_t>(gamma1) - t[j]);
    }
  } else {
    for (int i = 0; i < kN / 2; ++i) {
      const std::uint8_t* b = in.data() + 5 * i;
      std::uint32_t t0 = (b[0] | (std::uint32_t{b[1]} << 8) |
                          (std::uint32_t{b[2]} << 16)) & 0xfffff;
      std::uint32_t t1 = ((b[2] >> 4) | (std::uint32_t{b[3]} << 4) |
                          (std::uint32_t{b[4]} << 12)) & 0xfffff;
      r[2 * i] = freduce(static_cast<std::int64_t>(gamma1) - t0);
      r[2 * i + 1] = freduce(static_cast<std::int64_t>(gamma1) - t1);
    }
  }
  return r;
}

void pack_w1(Bytes& out, const Poly& w1, std::int32_t gamma2) {
  if (gamma2 == (kQ - 1) / 88) {  // 6 bits
    for (int i = 0; i < kN / 4; ++i) {
      const std::int32_t* a = &w1[4 * i];
      out.push_back(static_cast<std::uint8_t>(a[0] | (a[1] << 6)));
      out.push_back(static_cast<std::uint8_t>((a[1] >> 2) | (a[2] << 4)));
      out.push_back(static_cast<std::uint8_t>((a[2] >> 4) | (a[3] << 2)));
    }
  } else {  // 4 bits
    for (int i = 0; i < kN / 2; ++i)
      out.push_back(static_cast<std::uint8_t>(w1[2 * i] | (w1[2 * i + 1] << 4)));
  }
}

// Hint encoding: omega bytes of positions + k bytes of per-poly counts.
bool pack_hints(Bytes& out, const std::vector<std::array<bool, kN>>& h,
                int omega) {
  Bytes positions;
  Bytes counts;
  for (const auto& poly : h) {
    for (int i = 0; i < kN; ++i)
      if (poly[i]) positions.push_back(static_cast<std::uint8_t>(i));
    counts.push_back(static_cast<std::uint8_t>(positions.size()));
  }
  if (positions.size() > static_cast<std::size_t>(omega)) return false;
  positions.resize(omega, 0);
  append(out, positions);
  append(out, counts);
  return true;
}

bool unpack_hints(BytesView in, int omega, int k,
                  std::vector<std::array<bool, kN>>& h) {
  h.assign(k, {});
  std::size_t prev = 0;
  for (int i = 0; i < k; ++i) {
    std::size_t cnt = in[omega + i];
    if (cnt < prev || cnt > static_cast<std::size_t>(omega)) return false;
    for (std::size_t j = prev; j < cnt; ++j) {
      // positions within a polynomial must be strictly increasing
      if (j > prev && in[j] <= in[j - 1]) return false;
      h[i][in[j]] = true;
    }
    prev = cnt;
  }
  for (std::size_t j = prev; j < static_cast<std::size_t>(omega); ++j)
    if (in[j] != 0) return false;
  return true;
}

// --- seed expansion: SHAKE (default) or AES-256-CTR ("aes" variant) ---

// Stream (seed, nonce): SHAKE128 for the 32-byte rho, SHAKE256 for the
// 64-byte rho'; the nonce appended as two little-endian bytes.
crypto::StreamKind stream_kind(bool use_aes, BytesView seed) {
  return {use_aes, seed.size() == 32 ? 128 : 256, 2};
}

// The k x l matrix A (ExpandA), row-major: a[i * l + j] holds the uniform
// polynomial mod q of the stream (rho, (i << 8) | j), by 23-bit rejection.
PolyVec expand_matrix(bool use_aes, BytesView rho, int k, int l) {
  const std::size_t n = static_cast<std::size_t>(k) * l;
  PolyVec a(n);
  std::uint16_t nonces[64];
  int count[64] = {};
  for (std::size_t idx = 0; idx < n; ++idx)
    nonces[idx] = static_cast<std::uint16_t>(((idx / l) << 8) | (idx % l));
  constexpr std::size_t kBlock = 168;  // one SHAKE128 block, 56 triples
  crypto::sample_streams<kBlock>(
      stream_kind(use_aes, rho), rho, {nonces, n},
      [&](std::size_t t, const std::uint8_t* buf) {
        for (std::size_t b = 0; b + 3 <= kBlock && count[t] < kN; b += 3) {
          std::int32_t v = buf[b] | (std::int32_t{buf[b + 1]} << 8) |
                           ((std::int32_t{buf[b + 2]} & 0x7f) << 16);
          if (v < kQ) a[t][count[t]++] = v;
        }
        return count[t] == kN;
      });
  return a;
}

// Short secret polynomials (ExpandS), eta in {2, 4}: out[t] from the
// stream (rho', nonce0 + t), rejection-sampling nibbles.
void expand_s(bool use_aes, BytesView rho_prime, std::uint16_t nonce0,
              int eta, std::span<Poly> out) {
  std::uint16_t nonces[16];
  int count[16] = {};
  for (std::size_t t = 0; t < out.size(); ++t)
    nonces[t] = static_cast<std::uint16_t>(nonce0 + t);
  crypto::sample_streams<136>(  // one SHAKE256 block
      stream_kind(use_aes, rho_prime), rho_prime, {nonces, out.size()},
      [&](std::size_t t, const std::uint8_t* buf) {
        for (std::size_t b = 0; b < 136 && count[t] < kN; ++b) {
          for (int nib = 0; nib < 2 && count[t] < kN; ++nib) {
            int v = nib ? (buf[b] >> 4) : (buf[b] & 0xf);
            if (eta == 2) {
              if (v < 15) out[t][count[t]++] = freduce(2 - (v % 5));
            } else {
              if (v < 9) out[t][count[t]++] = freduce(4 - v);
            }
          }
        }
        return count[t] == kN;
      });
}

// Mask polynomials y (ExpandMask), coefficients in (-gamma1, gamma1]:
// out[t] from the stream (rho', nonce0 + t).
void expand_mask(bool use_aes, BytesView rho_prime, std::uint16_t nonce0,
                 std::int32_t gamma1, std::span<Poly> out) {
  constexpr std::size_t kMaxPolys = 8;
  constexpr std::size_t kMaxBytes = kN * 20 / 8;
  const std::size_t len = gamma1 == (1 << 17) ? kN * 18 / 8 : kMaxBytes;
  std::uint16_t nonces[kMaxPolys];
  std::uint8_t bufs[kMaxPolys][kMaxBytes];
  std::uint8_t* dst[kMaxPolys];
  for (std::size_t t = 0; t < out.size(); ++t) {
    nonces[t] = static_cast<std::uint16_t>(nonce0 + t);
    dst[t] = bufs[t];
  }
  crypto::read_streams(stream_kind(use_aes, rho_prime), rho_prime,
                       {nonces, out.size()}, {dst, out.size()}, len);
  for (std::size_t t = 0; t < out.size(); ++t)
    out[t] = unpack_z({bufs[t], len}, gamma1);  // the same bit packing
}

}  // namespace

DilithiumSigner::DilithiumSigner(int level, bool use_aes)
    : level_(level), use_aes_(use_aes) {
  switch (level) {
    case 2:
      k_ = 4; l_ = 4; eta_ = 2; tau_ = 39; beta_ = 78;
      gamma1_ = 1 << 17; gamma2_ = (kQ - 1) / 88; omega_ = 80;
      break;
    case 3:
      k_ = 6; l_ = 5; eta_ = 4; tau_ = 49; beta_ = 196;
      gamma1_ = 1 << 19; gamma2_ = (kQ - 1) / 32; omega_ = 55;
      break;
    case 5:
      k_ = 8; l_ = 7; eta_ = 2; tau_ = 60; beta_ = 120;
      gamma1_ = 1 << 19; gamma2_ = (kQ - 1) / 32; omega_ = 75;
      break;
    default:
      throw std::invalid_argument("Dilithium level must be 2, 3, or 5");
  }
  name_ = "dilithium" + std::to_string(level) + (use_aes ? "_aes" : "");
}

std::size_t DilithiumSigner::public_key_size() const { return 32 + 320 * k_; }

std::size_t DilithiumSigner::secret_key_size() const {
  std::size_t eta_bytes = eta_ == 2 ? 96 : 128;
  return 3 * 32 + (k_ + l_) * eta_bytes + 416 * k_;
}

std::size_t DilithiumSigner::signature_size() const {
  std::size_t z_bytes = gamma1_ == (1 << 17) ? 576 : 640;
  return 32 + l_ * z_bytes + omega_ + k_;
}

SigKeyPair DilithiumSigner::generate_keypair(Drbg& rng) const {
  Bytes zeta = rng.bytes(32);
  Bytes expanded = crypto::shake256(zeta, 128);
  BytesView rho{expanded.data(), 32};
  BytesView rho_prime{expanded.data() + 32, 64};
  BytesView key{expanded.data() + 96, 32};

  // s1 takes nonces 0..l-1 and s2 l..l+k-1: one run of l + k streams.
  PolyVec s(l_ + k_);
  expand_s(use_aes_, rho_prime, 0, eta_, s);
  PolyVec s1(s.begin(), s.begin() + l_), s2(s.begin() + l_, s.end());

  PolyVec s1_hat = s1;
  for (auto& p : s1_hat) ntt(p);

  const PolyVec a = expand_matrix(use_aes_, rho, k_, l_);
  PolyVec t(k_);
  for (int i = 0; i < k_; ++i) {
    Poly acc{};
    for (int j = 0; j < l_; ++j)
      poly_pointwise_acc(acc, a[static_cast<std::size_t>(i) * l_ + j],
                         s1_hat[j]);
    invntt(acc);
    poly_add(acc, s2[i]);
    t[i] = acc;
  }

  PolyVec t1(k_), t0(k_);
  for (int i = 0; i < k_; ++i) {
    for (int c = 0; c < kN; ++c) {
      std::int32_t hi, lo;
      power2round(t[i][c], hi, lo);
      t1[i][c] = hi;
      t0[i][c] = freduce(lo);
    }
  }

  Bytes pk(rho.begin(), rho.end());
  for (const auto& p : t1) pack_t1(pk, p);
  Bytes tr = crypto::shake256(pk, 32);

  Bytes sk(rho.begin(), rho.end());
  append(sk, key);
  append(sk, tr);
  for (const auto& p : s1) pack_eta(sk, p, eta_);
  for (const auto& p : s2) pack_eta(sk, p, eta_);
  for (const auto& p : t0) pack_t0(sk, p);
  return {pk, sk};
}

namespace {

// Everything signing needs that depends on the secret key alone (FIPS 204
// permits precomputing it): K, tr, the expanded matrix A and the NTTs of
// s1, s2 and t0. Loading it once takes ExpandA and the 17 (dilithium3)
// secret NTTs out of every signature.
struct DilithiumSigningKey final : SigningKey {
  using SigningKey::SigningKey;
  ~DilithiumSigningKey() override {
    ct::wipe(key);
    ct::wipe(s1_hat);
    ct::wipe(s2_hat);
    ct::wipe(t0_hat);
  }

  Bytes key;  // CT_SECRET
  Bytes tr;
  PolyVec a_hat;  // row-major: a_hat[i * l + j]
  PolyVec s1_hat, s2_hat, t0_hat;  // CT_SECRET: s1_hat, s2_hat, t0_hat
};

// Public-key-only verification state: the expanded matrix A, the NTT of
// t1 * 2^d, and tr = H(pk). Empty (verifying nothing) for a public key of
// the wrong length.
struct DilithiumVerifyingKey final : VerifyingKey {
  using VerifyingKey::VerifyingKey;

  PolyVec a;       // row-major: a[i * l + j]
  PolyVec t1_hat;  // per i: NTT(t1[i] << d)
  Bytes tr;        // H(pk, 32)
};

}  // namespace

std::shared_ptr<const SigningKey> DilithiumSigner::load_signing_key(
    BytesView secret_key) const {
  if (secret_key.size() != secret_key_size())
    throw std::invalid_argument(name_ + ": secret key must be " +
                                std::to_string(secret_key_size()) + " bytes");
  auto loaded = std::make_shared<DilithiumSigningKey>(*this);
  std::size_t eta_bytes = eta_ == 2 ? 96 : 128;
  std::size_t off = 0;
  BytesView rho = secret_key.subspan(off, 32); off += 32;
  BytesView key = secret_key.subspan(off, 32); off += 32;
  BytesView tr = secret_key.subspan(off, 32); off += 32;
  loaded->key.assign(key.begin(), key.end());
  loaded->tr.assign(tr.begin(), tr.end());
  loaded->a_hat = expand_matrix(use_aes_, rho, k_, l_);
  loaded->s1_hat.resize(l_);
  loaded->s2_hat.resize(k_);
  loaded->t0_hat.resize(k_);
  for (auto& p : loaded->s1_hat) {
    p = unpack_eta(secret_key.subspan(off, eta_bytes), eta_);
    ntt(p);
    off += eta_bytes;
  }
  for (auto& p : loaded->s2_hat) {
    p = unpack_eta(secret_key.subspan(off, eta_bytes), eta_);
    ntt(p);
    off += eta_bytes;
  }
  for (auto& p : loaded->t0_hat) {
    p = unpack_t0(secret_key.subspan(off, 416));
    ntt(p);
    off += 416;
  }
  return loaded;
}

Bytes DilithiumSigner::sign(BytesView secret_key, BytesView message,
                            Drbg& rng) const {
  return sign_with(*load_signing_key(secret_key), message, rng);
}

Bytes DilithiumSigner::sign_with(const SigningKey& signing_key,
                                 BytesView message, Drbg& rng) const {
  (void)rng;  // deterministic signing per the round-3 default
  const auto& sk = own<DilithiumSigningKey>(signing_key);

  Bytes mu = crypto::shake256(concat(sk.tr, message), 64);
  Bytes rho_prime = crypto::shake256(concat(sk.key, mu), 64);

  for (std::uint16_t kappa = 0;; kappa = static_cast<std::uint16_t>(kappa + l_)) {
    PolyVec y(l_);
    expand_mask(use_aes_, rho_prime, kappa, gamma1_, y);
    PolyVec y_hat = y;
    for (auto& p : y_hat) ntt(p);

    PolyVec w(k_);
    for (int i = 0; i < k_; ++i) {
      Poly acc{};
      for (int j = 0; j < l_; ++j)
        poly_pointwise_acc(
            acc, sk.a_hat[static_cast<std::size_t>(i) * l_ + j], y_hat[j]);
      invntt(acc);
      w[i] = acc;
    }

    PolyVec w1(k_);
    for (int i = 0; i < k_; ++i) {
      for (int c = 0; c < kN; ++c) {
        std::int32_t hi, lo;
        decompose(w[i][c], 2 * gamma2_, hi, lo);
        w1[i][c] = hi;
      }
    }

    Bytes w1_packed;
    for (const auto& p : w1) pack_w1(w1_packed, p, gamma2_);
    Bytes c_tilde = crypto::shake256(concat(mu, w1_packed), 32);
    Poly c = sample_in_ball(c_tilde, tau_);
    Poly c_hat = c;
    ntt(c_hat);

    // z = y + c s1
    PolyVec z(l_);
    bool reject = false;
    for (int i = 0; i < l_; ++i) {
      Poly cs1{};
      poly_pointwise_acc(cs1, c_hat, sk.s1_hat[i]);
      invntt(cs1);
      z[i] = y[i];
      poly_add(z[i], cs1);
      if (inf_norm(z[i]) >= gamma1_ - beta_) {
        reject = true;
        break;
      }
    }
    if (reject) continue;

    // r0 = LowBits(w - c s2); check norm
    PolyVec w_cs2(k_);
    for (int i = 0; i < k_; ++i) {
      Poly cs2{};
      poly_pointwise_acc(cs2, c_hat, sk.s2_hat[i]);
      invntt(cs2);
      w_cs2[i] = w[i];
      poly_sub(w_cs2[i], cs2);
      for (int cc = 0; cc < kN; ++cc) {
        std::int32_t hi, lo;
        decompose(w_cs2[i][cc], 2 * gamma2_, hi, lo);
        if (lo >= gamma2_ - beta_ || lo <= -(gamma2_ - beta_)) {
          reject = true;
          break;
        }
      }
      if (reject) break;
    }
    if (reject) continue;

    // hints
    std::vector<std::array<bool, kN>> h(k_);
    int hint_weight = 0;
    for (int i = 0; i < k_ && !reject; ++i) {
      Poly ct0{};
      poly_pointwise_acc(ct0, c_hat, sk.t0_hat[i]);
      invntt(ct0);
      if (inf_norm(ct0) >= gamma2_) {
        reject = true;
        break;
      }
      for (int cc = 0; cc < kN; ++cc) {
        // r = w - cs2 + ct0; hint set iff HighBits changes
        std::int32_t r = freduce(static_cast<std::int64_t>(w_cs2[i][cc]) +
                                 ct0[cc]);
        std::int32_t hi1, lo1, hi2, lo2;
        decompose(w_cs2[i][cc], 2 * gamma2_, hi1, lo1);
        decompose(r, 2 * gamma2_, hi2, lo2);
        h[i][cc] = hi1 != hi2;
        if (h[i][cc]) ++hint_weight;
      }
    }
    if (reject || hint_weight > omega_) continue;

    Bytes sig(c_tilde.begin(), c_tilde.end());
    for (const auto& p : z) pack_z(sig, p, gamma1_);
    if (!pack_hints(sig, h, omega_)) continue;
    return sig;
  }
}

std::shared_ptr<const VerifyingKey> DilithiumSigner::load_verifying_key(
    BytesView public_key) const {
  auto loaded = std::make_shared<DilithiumVerifyingKey>(*this);
  if (public_key.size() != public_key_size()) return loaded;
  BytesView rho = public_key.subspan(0, 32);
  loaded->a = expand_matrix(use_aes_, rho, k_, l_);
  loaded->t1_hat.resize(k_);
  for (int i = 0; i < k_; ++i) {
    Poly t1 = unpack_t1(public_key.subspan(32 + 320 * i, 320));
    for (auto& cc : t1) cc = freduce(static_cast<std::int64_t>(cc) << kD);
    ntt(t1);
    loaded->t1_hat[i] = t1;
  }
  loaded->tr = crypto::shake256(public_key, 32);
  return loaded;
}

bool DilithiumSigner::verify(BytesView public_key, BytesView message,
                             BytesView signature) const {
  return verify_with(*load_verifying_key(public_key), message, signature);
}

bool DilithiumSigner::verify_with(const VerifyingKey& verifying_key,
                                  BytesView message,
                                  BytesView signature) const {
  const auto& ctx = own<DilithiumVerifyingKey>(verifying_key);
  if (ctx.a.empty() || signature.size() != signature_size()) return false;
  std::size_t z_bytes = gamma1_ == (1 << 17) ? 576 : 640;
  BytesView c_tilde = signature.subspan(0, 32);
  PolyVec z(l_);
  for (int i = 0; i < l_; ++i) {
    z[i] = unpack_z(signature.subspan(32 + i * z_bytes, z_bytes), gamma1_);
    if (inf_norm(z[i]) >= gamma1_ - beta_) return false;
  }
  std::vector<std::array<bool, kN>> h;
  if (!unpack_hints(signature.subspan(32 + l_ * z_bytes), omega_, k_, h))
    return false;

  Bytes mu = crypto::shake256(concat(ctx.tr, message), 64);
  Poly c = sample_in_ball(c_tilde, tau_);
  Poly c_hat = c;
  ntt(c_hat);

  PolyVec z_hat = z;
  for (auto& p : z_hat) ntt(p);

  PolyVec w1(k_);
  for (int i = 0; i < k_; ++i) {
    Poly acc{};
    for (int j = 0; j < l_; ++j)
      poly_pointwise_acc(acc, ctx.a[static_cast<std::size_t>(i) * l_ + j],
                         z_hat[j]);
    // acc -= c * t1 * 2^d
    Poly ct1{};
    poly_pointwise_acc(ct1, c_hat, ctx.t1_hat[i]);
    for (int cc = 0; cc < kN; ++cc)
      acc[cc] = freduce(static_cast<std::int64_t>(acc[cc]) - ct1[cc]);
    invntt(acc);
    for (int cc = 0; cc < kN; ++cc)
      w1[i][cc] = use_hint(acc[cc], h[i][cc], gamma2_);
  }

  Bytes w1_packed;
  for (const auto& p : w1) pack_w1(w1_packed, p, gamma2_);
  Bytes expected = crypto::shake256(concat(mu, w1_packed), 32);
  return ct::equal(expected, c_tilde);
}

const DilithiumSigner& DilithiumSigner::dilithium2() {
  static const DilithiumSigner s(2, false);
  return s;
}
const DilithiumSigner& DilithiumSigner::dilithium3() {
  static const DilithiumSigner s(3, false);
  return s;
}
const DilithiumSigner& DilithiumSigner::dilithium5() {
  static const DilithiumSigner s(5, false);
  return s;
}
const DilithiumSigner& DilithiumSigner::dilithium2_aes() {
  static const DilithiumSigner s(2, true);
  return s;
}
const DilithiumSigner& DilithiumSigner::dilithium3_aes() {
  static const DilithiumSigner s(3, true);
  return s;
}
const DilithiumSigner& DilithiumSigner::dilithium5_aes() {
  static const DilithiumSigner s(5, true);
  return s;
}

}  // namespace pqtls::sig
