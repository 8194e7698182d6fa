// Registry of the signature-algorithm configurations measured by the paper:
// Table 2b's 22 SAs plus the rsa3072_dilithium2 hybrid from Table 4b.
#include "sig/dilithium.hpp"
#include "sig/ecdsa.hpp"
#include "sig/falcon.hpp"
#include "sig/hybrid_sig.hpp"
#include "sig/rsa.hpp"
#include "sig/sig.hpp"
#include "sig/sphincs.hpp"

namespace pqtls::sig {

namespace {

std::vector<const Signer*> build_registry() {
  static const HybridSigner p256_falcon512(EcdsaSigner::p256(),
                                           FalconSigner::falcon512(),
                                           "p256_falcon512");
  static const HybridSigner p256_sphincs128(EcdsaSigner::p256(),
                                            SphincsSigner::sphincs128(),
                                            "p256_sphincs128");
  static const HybridSigner p256_dilithium2(EcdsaSigner::p256(),
                                            DilithiumSigner::dilithium2(),
                                            "p256_dilithium2");
  static const HybridSigner rsa3072_dilithium2(RsaSigner::rsa3072(),
                                               DilithiumSigner::dilithium2(),
                                               "rsa3072_dilithium2");
  static const HybridSigner p384_dilithium3(EcdsaSigner::p384(),
                                            DilithiumSigner::dilithium3(),
                                            "p384_dilithium3");
  static const HybridSigner p384_sphincs192(EcdsaSigner::p384(),
                                            SphincsSigner::sphincs192(),
                                            "p384_sphincs192");
  static const HybridSigner p521_dilithium5(EcdsaSigner::p521(),
                                            DilithiumSigner::dilithium5(),
                                            "p521_dilithium5");
  static const HybridSigner p521_falcon1024(EcdsaSigner::p521(),
                                            FalconSigner::falcon1024(),
                                            "p521_falcon1024");
  static const HybridSigner p521_sphincs256(EcdsaSigner::p521(),
                                            SphincsSigner::sphincs256(),
                                            "p521_sphincs256");

  return {
      // Sub-level-1 baselines
      &RsaSigner::rsa1024(),
      &RsaSigner::rsa2048(),
      // Level 1
      &FalconSigner::falcon512(),
      &RsaSigner::rsa3072(),
      &RsaSigner::rsa4096(),
      &SphincsSigner::sphincs128(),
      &p256_falcon512,
      &p256_sphincs128,
      // Level 2
      &DilithiumSigner::dilithium2(),
      &DilithiumSigner::dilithium2_aes(),
      &p256_dilithium2,
      &rsa3072_dilithium2,
      // Level 3
      &DilithiumSigner::dilithium3(),
      &DilithiumSigner::dilithium3_aes(),
      &SphincsSigner::sphincs192(),
      &p384_dilithium3,
      &p384_sphincs192,
      // Level 5
      &DilithiumSigner::dilithium5(),
      &DilithiumSigner::dilithium5_aes(),
      &FalconSigner::falcon1024(),
      &SphincsSigner::sphincs256(),
      &p521_dilithium5,
      &p521_falcon1024,
      &p521_sphincs256,
      // SPHINCS+ "s" (size-optimized) variants: not in the paper's tables
      // (its all-sphincs pre-experiment selected the fastest variant) but
      // registered for the all_sphincs campaign's comparison.
      &SphincsSigner::sphincs128s(),
      &SphincsSigner::sphincs192s(),
      &SphincsSigner::sphincs256s(),
  };
}

}  // namespace

const std::vector<const Signer*>& all_signers() {
  static const std::vector<const Signer*> registry = build_registry();
  return registry;
}

const Signer* find_signer(const std::string& name) {
  for (const Signer* signer : all_signers())
    if (signer->name() == name) return signer;
  return nullptr;
}

}  // namespace pqtls::sig
