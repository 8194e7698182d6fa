#include "sig/ecdsa.hpp"

#include <stdexcept>

#include "crypto/sha2.hpp"

namespace pqtls::sig {

namespace {
using crypto::BigInt;
using crypto::EcCurve;
}  // namespace

EcdsaSigner::EcdsaSigner(const EcCurve& curve) : curve_(curve) {
  name_ = "ecdsa_" + curve.name();
  level_ = curve.field_size() == 32 ? 1 : curve.field_size() == 48 ? 3 : 5;
}

Bytes EcdsaSigner::hash_message(BytesView message) const {
  switch (curve_.field_size()) {
    case 32: return crypto::sha256(message);
    case 48: return crypto::sha384(message);
    default: return crypto::sha512(message);
  }
}

std::size_t EcdsaSigner::public_key_size() const {
  return 1 + 2 * curve_.field_size();
}

std::size_t EcdsaSigner::secret_key_size() const { return curve_.field_size(); }

std::size_t EcdsaSigner::signature_size() const {
  std::size_t scalar = (curve_.order().bit_length() + 7) / 8;
  return 2 * scalar;  // fixed-width r || s
}

SigKeyPair EcdsaSigner::generate_keypair(Drbg& rng) const {
  BigInt d = curve_.random_scalar(rng);
  EcCurve::Point q = curve_.multiply_base(d);
  SigKeyPair kp;
  kp.public_key = curve_.encode_point(q);
  kp.secret_key = d.to_bytes_be(curve_.field_size());
  return kp;
}

Bytes EcdsaSigner::sign(BytesView secret_key, BytesView message,
                        Drbg& rng) const {
  if (secret_key.size() != secret_key_size())
    throw std::invalid_argument(name_ + ": secret key must be " +
                                std::to_string(secret_key_size()) + " bytes");
  const BigInt& n = curve_.order();
  std::size_t scalar_len = (n.bit_length() + 7) / 8;
  BigInt d = BigInt::from_bytes_be(secret_key);
  Bytes digest = hash_message(message);
  // Leftmost order-bits of the digest.
  BigInt e = BigInt::from_bytes_be(digest);
  std::size_t excess_bits = digest.size() * 8 > n.bit_length()
                                ? digest.size() * 8 - n.bit_length()
                                : 0;
  e = e >> excess_bits;
  e = e.mod(n);

  for (;;) {
    BigInt k = curve_.random_scalar(rng);
    EcCurve::Point kg = curve_.multiply_base(k);
    BigInt r = kg.x.mod(n);
    if (r.is_zero()) continue;
    BigInt k_inv = BigInt::mod_inverse(k, n);
    BigInt s = BigInt::mod_mul(k_inv, BigInt::mod_add(e, BigInt::mod_mul(r, d, n), n), n);
    if (s.is_zero()) continue;
    return concat(r.to_bytes_be(scalar_len), s.to_bytes_be(scalar_len));
  }
}

bool EcdsaSigner::verify(BytesView public_key, BytesView message,
                         BytesView signature) const {
  const BigInt& n = curve_.order();
  std::size_t scalar_len = (n.bit_length() + 7) / 8;
  if (signature.size() != 2 * scalar_len) return false;
  auto q = curve_.decode_point(public_key);
  if (!q) return false;
  BigInt r = BigInt::from_bytes_be(signature.subspan(0, scalar_len));
  BigInt s = BigInt::from_bytes_be(signature.subspan(scalar_len));
  if (r.is_zero() || s.is_zero() || !(r < n) || !(s < n)) return false;

  Bytes digest = hash_message(message);
  BigInt e = BigInt::from_bytes_be(digest);
  std::size_t excess_bits = digest.size() * 8 > n.bit_length()
                                ? digest.size() * 8 - n.bit_length()
                                : 0;
  e = e >> excess_bits;
  e = e.mod(n);

  BigInt s_inv = BigInt::mod_inverse(s, n);
  BigInt u1 = BigInt::mod_mul(e, s_inv, n);
  BigInt u2 = BigInt::mod_mul(r, s_inv, n);
  EcCurve::Point p = curve_.add(curve_.multiply_base(u1), curve_.multiply(u2, *q));
  if (p.infinity) return false;
  return p.x.mod(n) == r;
}

const EcdsaSigner& EcdsaSigner::p256() {
  static const EcdsaSigner s(crypto::EcCurve::p256());
  return s;
}
const EcdsaSigner& EcdsaSigner::p384() {
  static const EcdsaSigner s(crypto::EcCurve::p384());
  return s;
}
const EcdsaSigner& EcdsaSigner::p521() {
  static const EcdsaSigner s(crypto::EcCurve::p521());
  return s;
}

}  // namespace pqtls::sig
