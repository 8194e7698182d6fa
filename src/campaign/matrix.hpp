// The shared algorithm matrix behind the paper's tables and figures: which
// key agreements and signature algorithms appear in which artifact, grouped
// by NIST security level. The campaign specs declare their cells from this
// one registry, and the ASCII sink lays out Figure 3's grids from it. Rows
// are derived from crypto::AlgorithmCatalog (names, table levels, registry
// order), so the matrices cannot drift from the registries.
#pragma once

#include <vector>

namespace pqtls::campaign {

/// One algorithm entry: NIST level (0 = sub-level-1) and registry name.
struct AlgRow {
  int level;
  const char* name;
};

/// The paper's 23 key agreements (Table 2a), rsa:2048 as the fixed SA.
const std::vector<AlgRow>& table2a_kas();

/// The paper's 23 signature algorithms (Table 2b), X25519 as the fixed KA.
const std::vector<AlgRow>& table2b_sas();

/// Table 4b's SA list: Table 2b plus the rsa3072_dilithium2 hybrid.
const std::vector<AlgRow>& table4b_sas();

/// KA selection for the loadgen capacity campaigns (rsa:2048 as the fixed
/// SA, mirroring Table 2a's convention): one representative per family.
const std::vector<AlgRow>& loadgen_kas();

/// SA selection for the loadgen capacity campaigns (x25519 as the fixed
/// KA, mirroring Table 2b's convention).
const std::vector<AlgRow>& loadgen_sas();

/// Non-hybrid KA x SA combinations per level group for Figure 3 (the paper
/// groups NIST levels one and two, uses only rsa:3072 among the RSAs).
struct LevelCombos {
  const char* label;
  std::vector<const char*> kas;
  std::vector<const char*> sas;
};
const std::vector<LevelCombos>& fig3_levels();

}  // namespace pqtls::campaign
