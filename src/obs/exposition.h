#ifndef OODB_OBS_EXPOSITION_H_
#define OODB_OBS_EXPOSITION_H_

// Parsing of the Prometheus text exposition format produced by
// Collector::Render(). Used by tests (to validate METRICS output) and by
// the `oodbsub stats` client subcommand (to render a human snapshot).

#include <string>
#include <vector>

#include "base/status.h"
#include "obs/metrics.h"

namespace oodb::obs {

// Parses exposition text. Comment lines (# HELP / # TYPE) are validated for
// shape and skipped; malformed sample lines yield an error.
Result<std::vector<Sample>> ParseExposition(const std::string& text);

// Returns the value of the first sample matching name (and, when non-empty,
// all given labels), or `fallback`.
double SampleValue(const std::vector<Sample>& samples, const std::string& name,
                   const Labels& labels = {}, double fallback = 0.0);

// Reconstructed histogram series (one per label set, `le` stripped).
struct HistogramSummary {
  std::string name;
  Labels labels;  // without "le"
  uint64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

std::vector<HistogramSummary> SummarizeHistograms(
    const std::vector<Sample>& samples);

// Human-readable snapshot: histogram quantile table followed by scalar
// counters/gauges. Values whose metric name ends in `_seconds` are formatted
// with time units.
std::string RenderHumanSnapshot(const std::vector<Sample>& samples);

}  // namespace oodb::obs

#endif  // OODB_OBS_EXPOSITION_H_
