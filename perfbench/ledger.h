#pragma once

/// Reporting helpers of the perfbench ledger: the percentile rule, ratios
/// that carry their base, metric-name validation, the check tally, and the
/// in-memory span log of a traced run. Kept free of the dtr library so they
/// can be unit-tested on their own (ledger_test.cpp).

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Metric names are 1-64 characters of [A-Za-z0-9_.-], starting with a
/// letter or a digit.
bool valid_metric_name(std::string_view name);

/// Median of `samples` (mean of the two middle values for even counts).
/// Throws std::invalid_argument on an empty span.
double median(std::span<const double> samples);

/// Nearest-rank percentile: the ceil(pct/100 * n)-th smallest sample.
/// Throws std::invalid_argument on an empty span or pct outside (0, 100].
double percentile(std::span<const double> samples, double pct);

/// How many of `n` samples lie strictly beyond the nearest-rank `pct`
/// percentile: n - ceil(pct/100 * n).
std::size_t samples_beyond(std::size_t n, double pct);

/// A timing percentile is reportable only with at least this many samples
/// beyond it.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Smallest sample count for which `pct` has kMinSamplesBeyond samples beyond.
std::size_t samples_needed(double pct);

/// A ratio and the base it was taken over. A zero base yields value 0, so a
/// layer that did no work reads 0 with base 0 instead of NaN.
struct Ratio {
  double value = 0.0;
  double base = 0.0;
};
Ratio ratio(double numerator, double base);

/// Counts correctness checks. Every check is one attempted operation; a
/// failed one is reported on stderr with its label.
class CheckTally {
 public:
  void check(bool ok, std::string_view what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// One metric of the result: value, unit, and — for rates, shares and
/// per-item averages — the base it was computed over.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  double base = 0.0;
  std::string base_unit;  ///< empty when the metric has no base
};

/// Ordered metric list; rejects invalid or duplicate names (throws
/// std::invalid_argument).
class MetricSet {
 public:
  void add(std::string name, double value, std::string unit);
  void add(std::string name, double value, std::string unit, double base,
           std::string base_unit);
  void add(std::string name, Ratio r, std::string unit, std::string base_unit) {
    add(std::move(name), r.value, std::move(unit), r.base, std::move(base_unit));
  }

  const std::vector<Metric>& metrics() const { return metrics_; }

  /// Human-readable table, one metric per line with its base.
  void print_table(std::ostream& os) const;

 private:
  std::vector<Metric> metrics_;
};

/// The result line: {"correct", "attempted", "failed", "metrics": {name:
/// {"value", "unit"}}}, compact, doubles in shortest round-trip form.
void write_result_line(std::ostream& os, const MetricSet& metrics,
                       const CheckTally& checks);

/// In-memory span log: each span has a name, start, end, parent span and a
/// per-scenario or per-probe id. Spans nest in call order on one thread;
/// `Scope` is the RAII form.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int64_t parent = -1;  ///< index into spans(); -1 for a root span
    std::int64_t id = -1;      ///< scenario or probe id; -1 when none
  };

  class Scope {
   public:
    Scope(SpanLog& log, std::string name, std::int64_t id = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::size_t index_;
  };

  std::size_t begin(std::string name, std::int64_t id = -1);
  void end(std::size_t index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration (seconds) of the closed spans named `name`.
  double total_seconds(std::string_view name) const;

  /// JSON array of every span (times relative to the first span's start).
  void write_json(std::ostream& os) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// Monotonic clock in nanoseconds.
std::uint64_t now_ns();

}  // namespace perfbench
