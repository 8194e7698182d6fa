// Defensive parsing of numeric knobs shared by the campaign and loadgen
// CLIs. Malformed input never silently becomes 0 (the old
// std::atoi/std::atof behaviour): the caller's default wins and a warning
// goes to stderr so a typo in PQTLS_SAMPLES doesn't degrade a run to zero
// samples.
#pragma once

#include <cstdint>

namespace pqtls::campaign {

/// Parse `text` as a strictly positive decimal integer; on nullptr,
/// non-numeric input, trailing garbage, overflow, or a value < 1, warn on
/// stderr (naming `what` as the source) and return `fallback`.
int positive_int_or(const char* text, int fallback, const char* what);

/// Like positive_int_or but for unsigned 64-bit values (seeds); accepts 0.
std::uint64_t u64_or(const char* text, std::uint64_t fallback,
                     const char* what);

/// Parse `text` as a finite, non-negative decimal number (rates, budgets,
/// durations); NaN, infinities, negatives and trailing garbage warn and
/// return `fallback`, as does nullptr (silently).
double double_or(const char* text, double fallback, const char* what);

/// Sample-count override from the PQTLS_SAMPLES environment variable.
int env_samples(int fallback);

/// Worker-count override from the PQTLS_WORKERS environment variable.
int env_workers(int fallback);

}  // namespace pqtls::campaign
