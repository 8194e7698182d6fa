// Rate-sweep driver: runs a ladder of offered loads against one KA x SA
// server configuration and locates the capacity knee — the highest offered
// load whose p99 handshake latency stays under the SLO with negligible
// drops/abandonment. Produces the saturation curve behind the
// pqtls_loadgen --sweep mode.
#pragma once

#include <vector>

#include "loadgen/loadgen.hpp"

namespace pqtls::loadgen {

struct SweepOptions {
  /// Number of ladder points. Poisson sweeps space offered rates evenly up
  /// to max_load_factor x analytic capacity; closed-loop sweeps scale the
  /// client population geometrically from 1 to the base config's count.
  int points = 12;
  double max_load_factor = 1.5;
  /// SLO on p99 handshake latency, seconds.
  double slo_s = 0.050;
  /// Maximum tolerated (drops + timeouts) / arrivals at the knee.
  double max_loss_fraction = 0.01;
};

struct SweepPoint {
  LoadConfig config;    // as executed (resolved offered rate / clients)
  LoadMetrics metrics;
  bool within_slo = false;
};

struct SweepResult {
  std::vector<SweepPoint> points;
  double analytic_capacity = 0;  // handshakes/s
  /// Offered and achieved rate at the knee (0 when no point met the SLO).
  double knee_offered = 0;
  double knee_achieved = 0;
  double knee_p99 = 0;
};

/// Run the ladder for `base` (its offered_rate / load_factor / clients are
/// replaced per point; everything else is kept). Deterministic.
SweepResult run_sweep(const LoadConfig& base, const SweepOptions& options);

}  // namespace pqtls::loadgen
