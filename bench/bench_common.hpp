// Shared helpers for the table/figure reproduction binaries. Every binary
// runs a campaign declared in src/campaign/campaign.cpp: most render it
// through the ASCII sink, the figure binaries collect its rows for an
// analysis pass.
#pragma once

#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "campaign/options.hpp"
#include "campaign/runner.hpp"
#include "campaign/sinks.hpp"
#include "crypto/catalog.hpp"
#include "testbed/testbed.hpp"

namespace pqtls::bench {

/// Render a proportional ASCII bar (the paper's tables embed bar charts).
inline std::string bar(double value, double max_value, int width = 12) {
  if (max_value <= 0) return "";
  int filled = static_cast<int>(value / max_value * width + 0.5);
  if (filled > width) filled = width;
  std::string out(filled, '#');
  out.resize(width, ' ');
  return out;
}

/// Runner options the historical bench binaries used: the paper-fidelity
/// measured clock, each cell's own sample count unless argv[1] or
/// PQTLS_SAMPLES overrides it, and PQTLS_WORKERS workers (default 1).
/// Malformed overrides warn on stderr and are ignored.
inline campaign::RunnerOptions runner_options(int argc, char** argv) {
  campaign::RunnerOptions opts;
  opts.samples = argc > 1 ? campaign::positive_int_or(
                                argv[1], 0, "sample count (argv[1])")
                          : campaign::env_samples(0);
  opts.workers = campaign::env_workers(1);
  opts.time_model = testbed::TimeModel::kMeasured;
  return opts;
}

/// Run a named campaign with runner_options(): ASCII table on stdout, and
/// optional JSONL rows to the path in argv[2]. Returns the process exit
/// code (0 = all cells ok, 2 = some cell failed).
inline int run_declared_campaign(const char* campaign_name, int argc,
                                 char** argv) {
  const campaign::CampaignSpec* spec = campaign::find_campaign(campaign_name);
  if (!spec) {
    std::fprintf(stderr, "unknown campaign '%s'\n", campaign_name);
    return 1;
  }
  // Resolve every cell's algorithm pair up front through the catalog so a
  // bad name fails before any work, with the canonical valid-names error.
  try {
    const auto& catalog = crypto::AlgorithmCatalog::instance();
    for (const auto& cell : spec->cells) {
      catalog.require_kem(cell.config.ka);
      catalog.require_signer(cell.config.sa);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign '%s': %s\n", campaign_name, e.what());
    return 1;
  }

  campaign::AsciiSink ascii(std::cout);
  std::vector<campaign::Sink*> sinks{&ascii};
  std::ofstream jsonl_file;
  std::optional<campaign::JsonlSink> jsonl;
  if (argc > 2) {
    jsonl_file.open(argv[2]);
    if (!jsonl_file) {
      std::fprintf(stderr, "cannot open '%s' for writing\n", argv[2]);
      return 1;
    }
    jsonl.emplace(jsonl_file);
    sinks.push_back(&*jsonl);
  }
  return campaign::run_campaign(*spec, runner_options(argc, argv), sinks) == 0
             ? 0
             : 2;
}

}  // namespace pqtls::bench
