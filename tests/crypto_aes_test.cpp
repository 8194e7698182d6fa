// AES / CTR / GCM known-answer tests (FIPS 197 appendix, NIST GCM vectors).
#include <stdexcept>

#include <gtest/gtest.h>

#include "crypto/aes.hpp"
#include "crypto/bytes.hpp"

namespace pqtls::crypto {
namespace {

TEST(Aes, Fips197Aes128) {
  Aes aes(from_hex("000102030405060708090a0b0c0d0e0f"));
  Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  Bytes ct(16);
  aes.encrypt_block(pt.data(), ct.data());
  EXPECT_EQ(to_hex(ct), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes, Fips197Aes192) {
  Aes aes(from_hex("000102030405060708090a0b0c0d0e0f1011121314151617"));
  Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  Bytes ct(16);
  aes.encrypt_block(pt.data(), ct.data());
  EXPECT_EQ(to_hex(ct), "dda97ca4864cdfe06eaf70a0ec0d7191");
}

TEST(Aes, Fips197Aes256) {
  Aes aes(from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"));
  Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  Bytes ct(16);
  aes.encrypt_block(pt.data(), ct.data());
  EXPECT_EQ(to_hex(ct), "8ea2b7ca516745bfeafc49904b496089");
}

TEST(Aes, EncryptInPlace) {
  Aes aes(from_hex("000102030405060708090a0b0c0d0e0f"));
  Bytes block = from_hex("00112233445566778899aabbccddeeff");
  aes.encrypt_block(block.data(), block.data());
  EXPECT_EQ(to_hex(block), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(AesCtr, Sp80038aAes128Ctr) {
  // SP 800-38A F.5.1 CTR-AES128.Encrypt.
  Aes dummy(from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  AesCtr ctr(from_hex("2b7e151628aed2a6abf7158809cf4f3c"),
             from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"),
             /*wide_counter=*/true);
  Bytes pt = from_hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51");
  Bytes ct = ctr.crypt(pt);
  EXPECT_EQ(to_hex(ct),
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff");
}

TEST(AesCtr, RoundTrip) {
  Bytes key = from_hex("00112233445566778899aabbccddeeff");
  Bytes iv = from_hex("0102030405060708090a0b0c0d0e0f10");
  Bytes msg(1000);
  for (std::size_t i = 0; i < msg.size(); ++i)
    msg[i] = static_cast<std::uint8_t>(i * 7);
  AesCtr enc(key, iv);
  Bytes ct = enc.crypt(msg);
  AesCtr dec(key, iv);
  EXPECT_EQ(dec.crypt(ct), msg);
  EXPECT_NE(ct, msg);
}

TEST(AesGcm, NistTestCase1EmptyEverything) {
  AesGcm gcm(Bytes(16, 0));
  Bytes sealed = gcm.seal(Bytes(12, 0), {}, {});
  EXPECT_EQ(to_hex(sealed), "58e2fccefa7e3061367f1d57a4e7455a");
}

TEST(AesGcm, NistTestCase2SingleBlock) {
  AesGcm gcm(Bytes(16, 0));
  Bytes sealed = gcm.seal(Bytes(12, 0), {}, Bytes(16, 0));
  EXPECT_EQ(to_hex(sealed),
            "0388dace60b6a392f328c2b971b2fe78"
            "ab6e47d42cec13bdf53a67b21257bddf");
}

TEST(AesGcm, NistTestCase4WithAad) {
  AesGcm gcm(from_hex("feffe9928665731c6d6a8f9467308308"));
  Bytes nonce = from_hex("cafebabefacedbaddecaf888");
  Bytes pt = from_hex(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
  Bytes aad = from_hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  Bytes sealed = gcm.seal(nonce, aad, pt);
  EXPECT_EQ(to_hex(sealed),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
            "5bc94fbc3221a5db94fae95ae7121a47");
}

TEST(AesGcm, RoundTripAndTamperDetection) {
  AesGcm gcm(from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"));
  Bytes nonce = from_hex("0102030405060708090a0b0c");
  Bytes aad = from_hex("00ff");
  Bytes pt(333);
  for (std::size_t i = 0; i < pt.size(); ++i)
    pt[i] = static_cast<std::uint8_t>(i);
  Bytes sealed = gcm.seal(nonce, aad, pt);
  auto opened = gcm.open(nonce, aad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, pt);

  Bytes tampered = sealed;
  tampered[10] ^= 1;
  EXPECT_FALSE(gcm.open(nonce, aad, tampered).has_value());
  Bytes wrong_aad = from_hex("00fe");
  EXPECT_FALSE(gcm.open(nonce, wrong_aad, sealed).has_value());
  EXPECT_FALSE(gcm.open(nonce, aad, Bytes(8, 0)).has_value());
}

// A nonce of any length but 12 is a caller bug, not an authentication
// failure: both directions throw instead of reading past the span.
TEST(AesGcm, WrongNonceLengthThrows) {
  AesGcm gcm(Bytes(16, 7));
  Bytes sealed = gcm.seal(Bytes(12, 1), {}, Bytes(20, 2));
  for (std::size_t len : {11u, 13u}) {
    Bytes nonce(len, 1);
    EXPECT_THROW(gcm.seal(nonce, {}, Bytes(20, 2)), std::invalid_argument)
        << len;
    EXPECT_THROW(gcm.open(nonce, {}, sealed), std::invalid_argument) << len;
  }
}

}  // namespace
}  // namespace pqtls::crypto
