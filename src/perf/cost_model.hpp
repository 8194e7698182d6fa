// Deterministic per-operation cost model for the testbed's *modeled* time
// mode. In the paper-fidelity measured mode the virtual clock advances by
// the wall time of the real cryptographic computation; that is faithful but
// inherently noisy (two runs never produce bit-identical latencies, and
// concurrent campaign workers contend for the CPU). Modeled mode instead
// charges each cryptographic operation a fixed first-order cost from the
// tables below, making every experiment bit-reproducible at any worker
// count while preserving the orderings the paper cares about (SPHINCS+
// signing is slow, RSA verification is fast, generic-curve ECDH is slow,
// Kyber is fast, ...). Constants are rough per-operation costs for this
// portable software stack; calibrate against bench/micro_algorithms when
// absolute fidelity matters.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace pqtls::perf {

/// The work a TLS connection charges to the modeled clock. kPerByte counts
/// bytes (record protection + transcript hashing); every other op counts
/// invocations (kKdf: one HKDF extract/expand-family derivation).
enum class Op : std::uint8_t {
  kKemKeygen,
  kKemEncaps,
  kKemDecaps,
  kSign,
  kVerify,
  kKdf,
  kPerByte,
};
inline constexpr std::size_t kOpCount =
    static_cast<std::size_t>(Op::kPerByte) + 1;

/// One charge site's term: `count` of `op`.
struct Charge {
  Op op;
  std::uint64_t count = 1;
};

/// Per-op counts of the charges one connection made during one flight
/// ("leg"). Fixed-size and allocation-free.
struct ChargeLedger {
  std::array<std::uint64_t, kOpCount> counts{};

  void add(Op op, std::uint64_t n) {
    counts[static_cast<std::size_t>(op)] += n;
  }
  std::uint64_t operator[](Op op) const {
    return counts[static_cast<std::size_t>(op)];
  }
  bool operator==(const ChargeLedger&) const = default;
};

class CostModel {
 public:
  /// The built-in table (process-wide, immutable, thread-safe).
  static const CostModel& builtin();

  // Per-operation costs in seconds. Hybrid names ("p256_kyber512",
  // "rsa3072_dilithium2") resolve to the sum of their components; a name
  // with no table entry throws std::invalid_argument.
  double kem_keygen(std::string_view ka) const;
  double kem_encaps(std::string_view ka) const;
  double kem_decaps(std::string_view ka) const;
  double sign(std::string_view sa) const;
  double verify(std::string_view sa) const;

  // Amortized per-encapsulation cost when the server runs same-key
  // batches of `batch` encapsulations (kem::Kem::encapsulate_batch): the
  // amortizable fraction of the op — public-key parsing, matrix expansion,
  // key hashing — is divided by the batch size, the rest is charged in
  // full. batch <= 1 returns the unbatched cost exactly (same double), so
  // unbatched profiles stay bit-identical. Algorithms with no batchable
  // setup (classical ECDH/RSA) have fraction 0 and are batch-invariant.
  double kem_encaps_batched(std::string_view ka, int batch) const;

  /// Record protection + transcript hashing, charged per processed byte.
  double per_byte(std::size_t n) const { return 30e-9 * static_cast<double>(n); }
  /// One key-schedule derivation (HKDF extract/expand family).
  double kdf() const { return 3e-6; }
  /// Fixed dispatch cost per TLS processing invocation (state machine,
  /// message parsing); the harness adds this once per delivery.
  double step() const { return 20e-6; }

  /// The one pricing rule: seconds for `count` of `op` charged by a
  /// connection running key agreement `ka` and signature algorithm `sa`,
  /// with encapsulations amortized over `batch` (kem_encaps_batched).
  /// Count 1 prices exactly the per-op cost above (same double). The
  /// modeled clock (tls::HandshakeCore::charge) and the loadgen's
  /// calibrated profile both price through it.
  double price(Op op, std::uint64_t count, std::string_view ka,
               std::string_view sa, int batch = 1) const;
  /// Sum of price() over every op of one leg.
  double price(const ChargeLedger& leg, std::string_view ka,
               std::string_view sa, int batch = 1) const;
};

}  // namespace pqtls::perf
