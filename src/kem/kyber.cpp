#include "kem/kyber.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <stdexcept>

#include "crypto/backend/backend.hpp"
#include "crypto/ct.hpp"
#include "crypto/expand.hpp"
#include "crypto/keccak.hpp"
#include "crypto/sha2.hpp"

namespace pqtls::kem {

namespace {

constexpr int kN = 256;
constexpr int kQ = 3329;
constexpr int kSymBytes = 32;

using Poly = std::array<std::int16_t, kN>;
using PolyVec = std::vector<Poly>;

// Reduce into [0, q).
std::int16_t freduce(std::int32_t a) {
  a %= kQ;
  if (a < 0) a += kQ;
  return static_cast<std::int16_t>(a);
}

// NTT-domain kernels route through the runtime-selected backend
// (crypto/backend): portable reference or AVX2, bit-identical either way.

void ntt(Poly& r) { crypto::backend::kyber_kernels().ntt(r.data()); }

void invntt(Poly& r) { crypto::backend::kyber_kernels().invntt(r.data()); }

void poly_add(Poly& r, const Poly& a) {
  for (int i = 0; i < kN; ++i) r[i] = freduce(r[i] + a[i]);
}

void poly_sub(Poly& r, const Poly& a) {
  for (int i = 0; i < kN; ++i) r[i] = freduce(r[i] - a[i] + kQ);
}

// Multiplication of NTT-domain polynomials: pairwise products in
// Z_q[X]/(X^2 - zeta).
void basemul_acc(Poly& r, const Poly& a, const Poly& b, bool accumulate) {
  crypto::backend::kyber_kernels().basemul_acc(r.data(), a.data(), b.data(),
                                               accumulate);
}

// ---- symmetric primitives, parameterized over the 90s flag ----

Bytes hash_h(bool use_90s, BytesView in) {
  return use_90s ? crypto::sha256(in) : crypto::sha3_256(in);
}

Bytes hash_g(bool use_90s, BytesView in) {
  return use_90s ? crypto::sha512(in) : crypto::sha3_512(in);
}

Bytes kdf(bool use_90s, BytesView in) {
  return use_90s ? crypto::sha256(in) : crypto::shake256(in, kSymBytes);
}

// The NTT-domain matrix A from rho, row-major: entry [i * k + j] is sampled
// from the stream (rho, j, i), or (rho, i, j) for the transpose.
PolyVec sample_matrix(bool use_90s, BytesView rho, int k, bool transposed) {
  const std::size_t n = static_cast<std::size_t>(k) * k;
  PolyVec a(n);
  std::uint16_t nonces[16];
  int count[16] = {};
  for (std::size_t idx = 0; idx < n; ++idx) {
    const auto i = static_cast<unsigned>(idx / k);
    const auto j = static_cast<unsigned>(idx % k);
    nonces[idx] = static_cast<std::uint16_t>(transposed ? (i | j << 8)
                                                        : (j | i << 8));
  }
  // Stream (rho, x, y) is XOF(rho || x || y), or AES-256-CTR with x, y
  // in the IV for 90s. Rejection-sample 12-bit candidates below q.
  constexpr std::size_t kBlock = 168;  // one SHAKE128 block, 56 triples
  crypto::sample_streams<kBlock>(
      {use_90s, 128, 2}, rho, {nonces, n},
      [&](std::size_t t, const std::uint8_t* buf) {
        for (std::size_t b = 0; b + 3 <= kBlock && count[t] < kN; b += 3) {
          int d1 = buf[b] | ((buf[b + 1] & 0x0f) << 8);
          int d2 = (buf[b + 1] >> 4) | (buf[b + 2] << 4);
          if (d1 < kQ) a[t][count[t]++] = static_cast<std::int16_t>(d1);
          if (d2 < kQ && count[t] < kN)
            a[t][count[t]++] = static_cast<std::int16_t>(d2);
        }
        return count[t] == kN;
      });
  return a;
}

// Centered binomial distribution with parameter eta (2 or 3).
Poly cbd(const std::uint8_t* buf, int eta) {
  Poly r{};
  if (eta == 2) {
    for (int i = 0; i < kN / 8; ++i) {
      std::uint32_t t = load_le32(buf + 4 * i);
      std::uint32_t d = (t & 0x55555555u) + ((t >> 1) & 0x55555555u);
      for (int j = 0; j < 8; ++j) {
        int a = (d >> (4 * j)) & 0x3;
        int b = (d >> (4 * j + 2)) & 0x3;
        r[8 * i + j] = freduce(a - b + kQ);
      }
    }
  } else {  // eta == 3
    for (int i = 0; i < kN / 4; ++i) {
      std::uint32_t t = buf[3 * i] | (std::uint32_t{buf[3 * i + 1]} << 8) |
                        (std::uint32_t{buf[3 * i + 2]} << 16);
      std::uint32_t d = (t & 0x00249249u) + ((t >> 1) & 0x00249249u) +
                        ((t >> 2) & 0x00249249u);
      for (int j = 0; j < 4; ++j) {
        int a = (d >> (6 * j)) & 0x7;
        int b = (d >> (6 * j + 3)) & 0x7;
        r[4 * i + j] = freduce(a - b + kQ);
      }
    }
  }
  return r;
}

// One CBD noise polynomial to sample: where it goes and its eta.
struct Noise {
  Poly* poly;
  int eta;
};

// *jobs[t].poly = CBD_eta(PRF(seed, t)) for every t (nonces count from 0).
// PRF(seed, t) is SHAKE256(seed || t), or AES-256-CTR with t in the IV for
// 90s.
void sample_noise(bool use_90s, BytesView seed, std::span<const Noise> jobs) {
  constexpr std::size_t kMaxJobs = 9;  // 2k + 1 at k = 4
  constexpr std::size_t kMaxLen = 3 * kN / 4;
  std::uint16_t nonces[kMaxJobs];
  std::uint8_t bufs[kMaxJobs][kMaxLen];
  std::uint8_t* out[kMaxJobs];
  std::size_t len = 0;
  for (std::size_t t = 0; t < jobs.size(); ++t) {
    nonces[t] = static_cast<std::uint16_t>(t);
    out[t] = bufs[t];
    len = std::max<std::size_t>(len, jobs[t].eta * kN / 4);
  }
  crypto::read_streams({use_90s, 256, 1}, seed, {nonces, jobs.size()},
                       {out, jobs.size()}, len);
  for (std::size_t t = 0; t < jobs.size(); ++t)
    *jobs[t].poly = cbd(bufs[t], jobs[t].eta);
}

// 12-bit packing of an uncompressed polynomial.
void poly_tobytes(Bytes& out, const Poly& a) {
  for (int i = 0; i < kN / 2; ++i) {
    std::uint16_t t0 = static_cast<std::uint16_t>(a[2 * i]);
    std::uint16_t t1 = static_cast<std::uint16_t>(a[2 * i + 1]);
    out.push_back(static_cast<std::uint8_t>(t0));
    out.push_back(static_cast<std::uint8_t>((t0 >> 8) | (t1 << 4)));
    out.push_back(static_cast<std::uint8_t>(t1 >> 4));
  }
}

Poly poly_frombytes(BytesView in) {
  Poly r{};
  for (int i = 0; i < kN / 2; ++i) {
    r[2 * i] = static_cast<std::int16_t>(
        (in[3 * i] | (std::uint16_t{in[3 * i + 1]} << 8)) & 0xfff);
    r[2 * i + 1] = static_cast<std::int16_t>(
        ((in[3 * i + 1] >> 4) | (std::uint16_t{in[3 * i + 2]} << 4)) & 0xfff);
  }
  return r;
}

std::uint16_t compress_coeff(std::int16_t x, int d) {
  // round(2^d / q * x) mod 2^d
  std::uint32_t v = ((static_cast<std::uint32_t>(x) << d) + kQ / 2) / kQ;
  return static_cast<std::uint16_t>(v & ((1u << d) - 1));
}

std::int16_t decompress_coeff(std::uint16_t y, int d) {
  // round(q / 2^d * y)
  return static_cast<std::int16_t>((static_cast<std::uint32_t>(y) * kQ +
                                    (1u << (d - 1))) >> d);
}

// Bit-pack n coefficients of d bits each.
void pack_bits(Bytes& out, const Poly& a, int d) {
  std::uint32_t acc = 0;
  int bits = 0;
  for (int i = 0; i < kN; ++i) {
    acc |= std::uint32_t{compress_coeff(a[i], d)} << bits;
    bits += d;
    while (bits >= 8) {
      out.push_back(static_cast<std::uint8_t>(acc));
      acc >>= 8;
      bits -= 8;
    }
  }
}

Poly unpack_bits(BytesView in, int d) {
  Poly r{};
  std::uint32_t acc = 0;
  int bits = 0;
  std::size_t pos = 0;
  for (int i = 0; i < kN; ++i) {
    while (bits < d) {
      acc |= std::uint32_t{in[pos++]} << bits;
      bits += 8;
    }
    std::uint16_t v = acc & ((1u << d) - 1);
    acc >>= d;
    bits -= d;
    r[i] = decompress_coeff(v, d);
  }
  return r;
}

Poly poly_from_msg(BytesView msg32) {
  Poly r{};
  for (int i = 0; i < kSymBytes; ++i)
    for (int j = 0; j < 8; ++j)
      r[8 * i + j] = ((msg32[i] >> j) & 1) ? (kQ + 1) / 2 : 0;
  return r;
}

Bytes poly_to_msg(const Poly& a) {
  Bytes msg(kSymBytes, 0);
  for (int i = 0; i < kN; ++i) {
    std::uint16_t t = compress_coeff(a[i], 1);
    msg[i / 8] |= static_cast<std::uint8_t>(t << (i % 8));
  }
  return msg;
}

struct KpkeParams {
  int k;
  int eta1;
  int du;
  int dv;
  bool use_90s;
};

// IND-CPA public-key encryption (K-PKE).
struct Kpke {
  KpkeParams p;

  std::size_t pk_size() const { return 384 * p.k + kSymBytes; }
  std::size_t sk_size() const { return 384 * p.k; }
  std::size_t ct_size() const { return 32 * (p.du * p.k + p.dv); }

  void keygen(BytesView d32, Bytes& pk, Bytes& sk) const {
    Bytes g = hash_g(p.use_90s, d32);
    BytesView rho{g.data(), 32};
    BytesView sigma{g.data() + 32, 32};

    PolyVec s(p.k), e(p.k);
    std::vector<Noise> jobs;
    for (auto& poly : s) jobs.push_back({&poly, p.eta1});
    for (auto& poly : e) jobs.push_back({&poly, p.eta1});
    sample_noise(p.use_90s, sigma, jobs);
    for (auto& poly : s) ntt(poly);
    for (auto& poly : e) ntt(poly);

    const PolyVec a = sample_matrix(p.use_90s, rho, p.k, /*transposed=*/false);
    PolyVec t(p.k);
    for (int i = 0; i < p.k; ++i) {
      t[i] = Poly{};
      for (int j = 0; j < p.k; ++j)
        basemul_acc(t[i], a[static_cast<std::size_t>(i) * p.k + j], s[j],
                    /*accumulate=*/true);
      poly_add(t[i], e[i]);
    }

    pk.clear();
    for (const auto& poly : t) poly_tobytes(pk, poly);
    append(pk, rho);
    sk.clear();
    for (const auto& poly : s) poly_tobytes(sk, poly);
  }

  // Per-public-key state reusable across encryptions: the parsed t vector
  // and the expanded A^T matrix (the dominant per-call setup cost). Both
  // are deterministic functions of the public key, so hoisting them out of
  // encrypt() cannot change any output byte.
  struct ExpandedPk {
    PolyVec t;   // k parsed NTT-domain polys
    PolyVec at;  // A^T, row-major: at[i * k + j] = A[i][j] sampled from rho
  };

  ExpandedPk expand_pk(BytesView pk) const {
    ExpandedPk x;
    x.t.resize(p.k);
    for (int i = 0; i < p.k; ++i)
      x.t[i] = poly_frombytes(pk.subspan(384 * i, 384));
    BytesView rho = pk.subspan(384 * p.k, kSymBytes);
    x.at = sample_matrix(p.use_90s, rho, p.k, /*transposed=*/true);
    return x;
  }

  Bytes encrypt_with(const ExpandedPk& x, BytesView msg32,
                     BytesView coins32) const {
    PolyVec r(p.k), e1(p.k);
    Poly e2;
    std::vector<Noise> jobs;
    for (auto& poly : r) jobs.push_back({&poly, p.eta1});
    for (auto& poly : e1) jobs.push_back({&poly, 2});
    jobs.push_back({&e2, 2});
    sample_noise(p.use_90s, coins32, jobs);
    for (auto& poly : r) ntt(poly);

    // u = invNTT(A^T r) + e1
    PolyVec u(p.k);
    for (int i = 0; i < p.k; ++i) {
      u[i] = Poly{};
      for (int j = 0; j < p.k; ++j)
        basemul_acc(u[i], x.at[static_cast<std::size_t>(i) * p.k + j], r[j],
                    true);
      invntt(u[i]);
      poly_add(u[i], e1[i]);
    }
    // v = invNTT(t . r) + e2 + msg
    Poly v{};
    for (int j = 0; j < p.k; ++j) basemul_acc(v, x.t[j], r[j], true);
    invntt(v);
    poly_add(v, e2);
    Poly m = poly_from_msg(msg32);
    poly_add(v, m);

    Bytes ct;
    ct.reserve(ct_size());
    for (const auto& poly : u) pack_bits(ct, poly, p.du);
    pack_bits(ct, v, p.dv);
    return ct;
  }

  Bytes encrypt(BytesView pk, BytesView msg32, BytesView coins32) const {
    return encrypt_with(expand_pk(pk), msg32, coins32);
  }

  PolyVec parse_sk(BytesView sk) const {
    PolyVec s(p.k);
    for (int i = 0; i < p.k; ++i)
      s[i] = poly_frombytes(sk.subspan(384 * i, 384));
    return s;
  }

  Bytes decrypt_with(const PolyVec& s, BytesView ct) const {
    PolyVec u(p.k);
    std::size_t u_bytes = 32 * p.du;
    for (int i = 0; i < p.k; ++i) {
      u[i] = unpack_bits(ct.subspan(i * u_bytes, u_bytes), p.du);
      ntt(u[i]);
    }
    Poly v = unpack_bits(ct.subspan(p.k * u_bytes, 32 * p.dv), p.dv);

    Poly su{};
    for (int j = 0; j < p.k; ++j) basemul_acc(su, s[j], u[j], true);
    invntt(su);
    poly_sub(v, su);
    return poly_to_msg(v);
  }

  Bytes decrypt(BytesView sk, BytesView ct) const {
    return decrypt_with(parse_sk(sk), ct);
  }
};

}  // namespace

KyberKem::KyberKem(int level, bool use_90s) : level_(level), use_90s_(use_90s) {
  switch (level) {
    case 1: k_ = 2; eta1_ = 3; du_ = 10; dv_ = 4; break;
    case 3: k_ = 3; eta1_ = 2; du_ = 10; dv_ = 4; break;
    case 5: k_ = 4; eta1_ = 2; du_ = 11; dv_ = 5; break;
    default: throw std::invalid_argument("Kyber level must be 1, 3, or 5");
  }
  int bits = k_ == 2 ? 512 : k_ == 3 ? 768 : 1024;
  name_ = (use_90s ? "kyber90s" : "kyber") + std::to_string(bits);
}

std::size_t KyberKem::public_key_size() const { return 384 * k_ + 32; }
std::size_t KyberKem::secret_key_size() const {
  return 384 * k_ + public_key_size() + 2 * kSymBytes;
}
std::size_t KyberKem::ciphertext_size() const {
  return 32 * (du_ * k_ + dv_);
}

KeyPair KyberKem::generate_keypair(Drbg& rng) const {
  Kpke kpke{{k_, eta1_, du_, dv_, use_90s_}};
  Bytes d = rng.bytes(kSymBytes);
  Bytes z = rng.bytes(kSymBytes);
  Bytes pk, sk_pke;
  kpke.keygen(d, pk, sk_pke);
  Bytes h_pk = hash_h(use_90s_, pk);
  KeyPair kp;
  kp.public_key = pk;
  kp.secret_key = concat(sk_pke, pk, h_pk, z);
  return kp;
}

std::optional<Encapsulation> KyberKem::encapsulate(BytesView public_key,
                                                   Drbg& rng) const {
  if (public_key.size() != public_key_size()) return std::nullopt;
  Kpke kpke{{k_, eta1_, du_, dv_, use_90s_}};
  Bytes m = hash_h(use_90s_, rng.bytes(kSymBytes));
  Bytes h_pk = hash_h(use_90s_, public_key);
  Bytes g = hash_g(use_90s_, concat(m, h_pk));
  BytesView k_bar{g.data(), 32};
  BytesView coins{g.data() + 32, 32};
  Encapsulation out;
  out.ciphertext = kpke.encrypt(public_key, m, coins);
  Bytes h_ct = hash_h(use_90s_, out.ciphertext);
  out.shared_secret = kdf(use_90s_, concat(k_bar, h_ct));
  return out;
}

std::optional<Bytes> KyberKem::decapsulate(BytesView secret_key,
                                           BytesView ciphertext) const {
  if (secret_key.size() != secret_key_size() ||
      ciphertext.size() != ciphertext_size())
    return std::nullopt;
  Kpke kpke{{k_, eta1_, du_, dv_, use_90s_}};
  std::size_t sk_pke_len = 384 * k_;
  BytesView sk_pke = secret_key.subspan(0, sk_pke_len);
  BytesView pk = secret_key.subspan(sk_pke_len, public_key_size());
  BytesView h_pk = secret_key.subspan(sk_pke_len + public_key_size(), 32);
  BytesView z = secret_key.subspan(sk_pke_len + public_key_size() + 32, 32);

  Bytes m = kpke.decrypt(sk_pke, ciphertext);  // CT_SECRET
  ct::Wiper m_guard(m);
  Bytes g = hash_g(use_90s_, concat(m, h_pk));  // CT_SECRET
  ct::Wiper g_guard(g);
  BytesView k_bar{g.data(), 32};
  BytesView coins{g.data() + 32, 32};
  Bytes ct2 = kpke.encrypt(pk, m, coins);
  Bytes h_ct = hash_h(use_90s_, ciphertext);
  // Branchless implicit rejection (FO transform): the KDF input is k_bar on
  // a re-encryption match and z otherwise, selected without revealing which.
  bool match = ct::equal(ct2, ciphertext);
  Bytes kdf_in = ct::select(match, k_bar, z);  // CT_SECRET
  ct::Wiper kdf_in_guard(kdf_in);
  return kdf(use_90s_, concat(kdf_in, h_ct));
}

std::vector<std::optional<Encapsulation>> KyberKem::encapsulate_batch(
    BytesView public_key, std::size_t count, Drbg& rng) const {
  std::vector<std::optional<Encapsulation>> out;
  if (public_key.size() != public_key_size()) {
    out.assign(count, std::nullopt);
    return out;
  }
  out.reserve(count);
  Kpke kpke{{k_, eta1_, du_, dv_, use_90s_}};
  // Per-key work hoisted out of the loop; everything below is a pure
  // function of the public key, so outputs match sequential encapsulation.
  const Kpke::ExpandedPk x = kpke.expand_pk(public_key);
  const Bytes h_pk = hash_h(use_90s_, public_key);
  for (std::size_t n = 0; n < count; ++n) {
    Bytes m = hash_h(use_90s_, rng.bytes(kSymBytes));
    Bytes g = hash_g(use_90s_, concat(m, h_pk));
    BytesView k_bar{g.data(), 32};
    BytesView coins{g.data() + 32, 32};
    Encapsulation e;
    e.ciphertext = kpke.encrypt_with(x, m, coins);
    Bytes h_ct = hash_h(use_90s_, e.ciphertext);
    e.shared_secret = kdf(use_90s_, concat(k_bar, h_ct));
    out.push_back(std::move(e));
  }
  return out;
}

std::vector<std::optional<Bytes>> KyberKem::decapsulate_batch(
    BytesView secret_key, const std::vector<BytesView>& ciphertexts) const {
  std::vector<std::optional<Bytes>> out;
  if (secret_key.size() != secret_key_size()) {
    out.assign(ciphertexts.size(), std::nullopt);
    return out;
  }
  out.reserve(ciphertexts.size());
  Kpke kpke{{k_, eta1_, du_, dv_, use_90s_}};
  std::size_t sk_pke_len = 384 * k_;
  BytesView sk_pke = secret_key.subspan(0, sk_pke_len);
  BytesView pk = secret_key.subspan(sk_pke_len, public_key_size());
  BytesView h_pk = secret_key.subspan(sk_pke_len + public_key_size(), 32);
  BytesView z = secret_key.subspan(sk_pke_len + public_key_size() + 32, 32);
  const PolyVec s = kpke.parse_sk(sk_pke);
  const Kpke::ExpandedPk x = kpke.expand_pk(pk);
  for (BytesView ciphertext : ciphertexts) {
    if (ciphertext.size() != ciphertext_size()) {
      out.push_back(std::nullopt);
      continue;
    }
    Bytes m = kpke.decrypt_with(s, ciphertext);  // CT_SECRET
    ct::Wiper m_guard(m);
    Bytes g = hash_g(use_90s_, concat(m, h_pk));  // CT_SECRET
    ct::Wiper g_guard(g);
    BytesView k_bar{g.data(), 32};
    BytesView coins{g.data() + 32, 32};
    Bytes ct2 = kpke.encrypt_with(x, m, coins);
    Bytes h_ct = hash_h(use_90s_, ciphertext);
    // Branchless implicit rejection, exactly as in decapsulate().
    bool match = ct::equal(ct2, ciphertext);
    Bytes kdf_in = ct::select(match, k_bar, z);  // CT_SECRET
    ct::Wiper kdf_in_guard(kdf_in);
    out.push_back(kdf(use_90s_, concat(kdf_in, h_ct)));
  }
  return out;
}

const KyberKem& KyberKem::kyber512() {
  static const KyberKem kem(1, false);
  return kem;
}
const KyberKem& KyberKem::kyber768() {
  static const KyberKem kem(3, false);
  return kem;
}
const KyberKem& KyberKem::kyber1024() {
  static const KyberKem kem(5, false);
  return kem;
}
const KyberKem& KyberKem::kyber90s512() {
  static const KyberKem kem(1, true);
  return kem;
}
const KyberKem& KyberKem::kyber90s768() {
  static const KyberKem kem(3, true);
  return kem;
}
const KyberKem& KyberKem::kyber90s1024() {
  static const KyberKem kem(5, true);
  return kem;
}

}  // namespace pqtls::kem
