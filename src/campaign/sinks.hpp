// Result sinks for the campaign runner: machine-readable JSONL and CSV
// streams with a fixed schema (ka, sa, scenario, latency medians, data
// volumes, 60 s handshake rate, seed, ok flag), a human-readable ASCII
// renderer, and an in-memory collector for programmatic consumers. Loadgen
// cells emit their own fixed row shape (offered/achieved/capacity rates,
// latency percentiles, queue depth, drop/timeout counts) — both schemas are
// golden-file locked. All numeric
// formatting is locale-independent and fixed-precision so equal results
// serialize to equal bytes.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "campaign/runner.hpp"

namespace pqtls::campaign {

/// One JSON object per cell, in campaign order. With `emit_meta` the stream
/// opens with one `{"meta":true,...}` line carrying run provenance (campaign
/// name, resolved crypto backend, worker count); the default keeps the
/// stream byte-identical to the golden rows regardless of backend.
class JsonlSink : public Sink {
 public:
  explicit JsonlSink(std::ostream& out, bool emit_meta = false)
      : out_(out), emit_meta_(emit_meta) {}
  void begin(const CampaignSpec& spec, const RunnerOptions& opts) override;
  void cell(const CellOutcome& outcome) override;

 private:
  std::ostream& out_;
  bool emit_meta_ = false;
  bool batch_ = false;  // campaign sweeps server-side batching -> batch field
};

/// Header row plus one CSV row per cell, same fields as the JSONL sink.
class CsvSink : public Sink {
 public:
  explicit CsvSink(std::ostream& out) : out_(out) {}
  void begin(const CampaignSpec& spec, const RunnerOptions& opts) override;
  void cell(const CellOutcome& outcome) override;

 private:
  std::ostream& out_;
  bool batch_ = false;  // campaign sweeps server-side batching -> batch column
};

/// Human-readable rendering honouring the campaign's AsciiLayout: one row
/// per cell (Table 2 style), or, rendered at finish(), an algorithms-by-
/// scenarios matrix of median totals (Table 4 style), Figure 3's deviation
/// grids or Figure 4's latency ranking. White-box campaigns get Table 3's
/// CPU, packet and amplification columns per cell, and finish() adds the
/// per-library CPU distribution and the worst asymmetries.
class AsciiSink : public Sink {
 public:
  explicit AsciiSink(std::ostream& out) : out_(out) {}
  void begin(const CampaignSpec& spec, const RunnerOptions& opts) override;
  void cell(const CellOutcome& outcome) override;
  void finish() override;

 private:
  void finish_whitebox();
  void finish_deviation();
  void finish_ranking();
  void print_failed_cells();

  std::ostream& out_;
  AsciiLayout layout_ = AsciiLayout::kPerCell;
  bool loadgen_ = false;   // campaign-wide: loadgen cells use their own row
  bool whitebox_ = false;  // campaign-wide: white-box cells, Table 3 row
  std::vector<CellOutcome> buffered_;  // rendered again at finish()
};

/// Keeps every outcome in memory, in campaign order.
class CollectSink : public Sink {
 public:
  void cell(const CellOutcome& outcome) override {
    outcomes_.push_back(outcome);
  }
  const std::vector<CellOutcome>& outcomes() const { return outcomes_; }

 private:
  std::vector<CellOutcome> outcomes_;
};

}  // namespace pqtls::campaign
