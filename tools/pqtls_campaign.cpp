// Campaign CLI: run a named experiment campaign (the paper's tables and
// figures as declarative cell matrices) on a worker pool with structured
// result sinks.
//
//   pqtls_campaign list
//   pqtls_campaign table2a --workers 4 --samples 3 --out results.jsonl
//   pqtls_campaign all --seed 7 --csv results.csv --ascii
//
// Defaults to modeled time, which makes the emitted rows bit-identical for
// a given (campaign, base seed, sample count) at any worker count; pass
// --measured for the paper-fidelity wall-time clock. Exit code: 0 = all
// cells ok, 1 = usage error, 2 = at least one cell failed or timed out.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/options.hpp"
#include "campaign/runner.hpp"
#include "campaign/sinks.hpp"
#include "crypto/backend/backend.hpp"
#include "crypto/catalog.hpp"

namespace {

// `catalog` subcommand: print the unified algorithm catalog and verify the
// campaign matrices stay in lockstep with it — every cell's (ka, sa) must
// resolve, table2a must enumerate exactly the catalog's key agreements in
// order, and table2b exactly its headline signers. CI runs this as the
// catalog-consistency smoke step; exit 0 = consistent, 2 = drift.
int catalog_report() {
  using pqtls::crypto::AlgorithmCatalog;
  const AlgorithmCatalog& catalog = AlgorithmCatalog::instance();

  for (const auto& info : catalog.kems())
    std::printf("kem  %-15s L%d %-9s %-8s pk=%-5zu ct=%zu\n",
                info.name.c_str(), info.table_level, info.family.c_str(),
                info.hybrid ? "hybrid" : (info.post_quantum ? "pq" : "classic"),
                info.public_key_bytes, info.ciphertext_bytes);
  for (const auto& info : catalog.signers())
    std::printf("sig  %-18s L%d %-9s %-8s pk=%-5zu sig=%-5zu chain=%zu%s\n",
                info.name.c_str(), info.table_level, info.family.c_str(),
                info.hybrid ? "hybrid" : (info.post_quantum ? "pq" : "classic"),
                info.public_key_bytes, info.signature_bytes,
                info.cert_chain_bytes, info.headline ? "" : "  (non-headline)");

  int errors = 0;
  for (const auto& spec : pqtls::campaign::campaigns()) {
    for (const auto& cell : spec.cells) {
      if (!catalog.kem(cell.config.ka)) {
        std::fprintf(stderr, "drift: %s cell %s: ka '%s' not in catalog\n",
                     spec.name.c_str(), cell.id.c_str(),
                     cell.config.ka.c_str());
        ++errors;
      }
      if (!catalog.signer(cell.config.sa)) {
        std::fprintf(stderr, "drift: %s cell %s: sa '%s' not in catalog\n",
                     spec.name.c_str(), cell.id.c_str(),
                     cell.config.sa.c_str());
        ++errors;
      }
    }
  }

  const pqtls::campaign::CampaignSpec* t2a =
      pqtls::campaign::find_campaign("table2a");
  if (!t2a || t2a->cells.size() != catalog.kems().size()) {
    std::fprintf(stderr, "drift: table2a cell count != catalog KEM count\n");
    ++errors;
  } else {
    for (std::size_t i = 0; i < t2a->cells.size(); ++i) {
      if (t2a->cells[i].config.ka != catalog.kems()[i].name) {
        std::fprintf(stderr, "drift: table2a[%zu] = '%s', catalog = '%s'\n", i,
                     t2a->cells[i].config.ka.c_str(),
                     catalog.kems()[i].name.c_str());
        ++errors;
      }
    }
  }

  std::vector<std::string> headline;
  for (const auto& info : catalog.signers())
    if (info.headline) headline.push_back(info.name);
  const pqtls::campaign::CampaignSpec* t2b =
      pqtls::campaign::find_campaign("table2b");
  if (!t2b || t2b->cells.size() != headline.size()) {
    std::fprintf(stderr,
                 "drift: table2b cell count != catalog headline signers\n");
    ++errors;
  } else {
    for (std::size_t i = 0; i < t2b->cells.size(); ++i) {
      if (t2b->cells[i].config.sa != headline[i]) {
        std::fprintf(stderr, "drift: table2b[%zu] = '%s', catalog = '%s'\n", i,
                     t2b->cells[i].config.sa.c_str(), headline[i].c_str());
        ++errors;
      }
    }
  }

  std::printf("%zu key agreements, %zu signature algorithms, %s\n",
              catalog.kems().size(), catalog.signers().size(),
              errors ? "INCONSISTENT with campaign matrices"
                     : "consistent with campaign matrices");
  return errors ? 2 : 0;
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <campaign> [options]\n"
      "       %s list | catalog\n"
      "\n"
      "options:\n"
      "  --workers N           worker threads (default 1; env PQTLS_WORKERS)\n"
      "  --samples N           override per-cell sample count (env "
      "PQTLS_SAMPLES)\n"
      "  --seed S              campaign base seed (default 0x715b3d)\n"
      "  --out PATH            write JSONL rows to PATH ('-' = stdout)\n"
      "  --csv PATH            write CSV rows to PATH ('-' = stdout)\n"
      "  --ascii               render the human-readable table on stdout\n"
      "                        (default when neither --out nor --csv given)\n"
      "  --measured            paper-fidelity measured time instead of the\n"
      "                        deterministic modeled clock\n"
      "  --max-cell-seconds X  per-cell wall budget; slow cells are recorded\n"
      "                        as timed out and the campaign continues\n"
      "  --trace-dir PATH      record a flight trace of the first sample of\n"
      "                        every cell: PATH/<id>.jsonl (schema-locked\n"
      "                        JSONL) and PATH/<id>.trace.json (Perfetto)\n"
      "  --backend NAME        crypto backend: portable | avx2 | aesni | auto\n"
      "                        (default auto; env PQTLS_BACKEND). Rows are\n"
      "                        bit-identical under every backend\n"
      "  --meta                prepend one {\"meta\":...} JSONL line with the\n"
      "                        campaign name and resolved backend\n"
      "  --quiet               suppress per-cell progress on stderr\n",
      argv0, argv0);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pqtls;

  if (argc < 2) return usage(argv[0]);
  std::string name = argv[1];
  if (name == "list") {
    for (const auto& spec : campaign::campaigns())
      std::printf("%-10s %4zu cells  %s\n", spec.name.c_str(),
                  spec.cells.size(), spec.description.c_str());
    return 0;
  }
  if (name == "catalog") return catalog_report();
  const campaign::CampaignSpec* spec = campaign::find_campaign(name);
  if (!spec) {
    std::fprintf(stderr, "unknown campaign '%s' (try '%s list')\n",
                 name.c_str(), argv[0]);
    return 1;
  }

  campaign::RunnerOptions opts;
  opts.workers = campaign::env_workers(1);
  opts.samples = campaign::env_samples(0);
  opts.progress = true;
  std::string jsonl_path, csv_path;
  bool ascii = false;
  bool meta = false;

  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--workers") {
      opts.workers = campaign::positive_int_or(value(), opts.workers,
                                               "--workers");
    } else if (arg == "--samples") {
      opts.samples = campaign::positive_int_or(value(), opts.samples,
                                               "--samples");
    } else if (arg == "--seed") {
      opts.base_seed = campaign::u64_or(value(), opts.base_seed, "--seed");
    } else if (arg == "--out") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      jsonl_path = v;
    } else if (arg == "--csv") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      csv_path = v;
    } else if (arg == "--ascii") {
      ascii = true;
    } else if (arg == "--measured") {
      opts.time_model = testbed::TimeModel::kMeasured;
    } else if (arg == "--max-cell-seconds") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      opts.max_cell_seconds = campaign::double_or(v, opts.max_cell_seconds,
                                                  "--max-cell-seconds");
    } else if (arg == "--trace-dir") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      opts.trace_dir = v;
    } else if (arg == "--backend") {
      const char* v = value();
      if (!v || !crypto::backend::select(v)) {
        std::fprintf(stderr, "unknown backend '%s' (portable | avx2 | aesni "
                             "| auto)\n",
                     v ? v : "");
        return usage(argv[0]);
      }
    } else if (arg == "--meta") {
      meta = true;
    } else if (arg == "--quiet") {
      opts.progress = false;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return usage(argv[0]);
    }
  }
  if (jsonl_path.empty() && csv_path.empty()) ascii = true;

  std::vector<std::unique_ptr<campaign::Sink>> owned;
  std::vector<campaign::Sink*> sinks;
  std::ofstream jsonl_file, csv_file;
  if (!jsonl_path.empty()) {
    std::ostream* out = &std::cout;
    if (jsonl_path != "-") {
      jsonl_file.open(jsonl_path);
      if (!jsonl_file) {
        std::fprintf(stderr, "cannot open '%s' for writing\n",
                     jsonl_path.c_str());
        return 1;
      }
      out = &jsonl_file;
    }
    owned.push_back(std::make_unique<campaign::JsonlSink>(*out, meta));
  }
  if (!csv_path.empty()) {
    std::ostream* out = &std::cout;
    if (csv_path != "-") {
      csv_file.open(csv_path);
      if (!csv_file) {
        std::fprintf(stderr, "cannot open '%s' for writing\n",
                     csv_path.c_str());
        return 1;
      }
      out = &csv_file;
    }
    owned.push_back(std::make_unique<campaign::CsvSink>(*out));
  }
  if (ascii) owned.push_back(std::make_unique<campaign::AsciiSink>(std::cout));
  for (const auto& sink : owned) sinks.push_back(sink.get());

  int failed = campaign::run_campaign(*spec, opts, sinks);
  if (failed > 0) {
    std::fprintf(stderr, "%d of %zu cells failed\n", failed,
                 spec->cells.size());
    return 2;
  }
  return 0;
}
