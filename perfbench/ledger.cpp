#include "ledger.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <iomanip>
#include <iostream>
#include <stdexcept>

namespace perfbench {

namespace {

std::size_t nearest_rank(std::size_t n, double pct) {
  if (n == 0) throw std::invalid_argument("percentile of no samples");
  if (!(pct > 0.0 && pct <= 100.0)) throw std::invalid_argument("percentile outside (0, 100]");
  // The tiny slack keeps exact products (50% of 10 = 5) from rounding up.
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

std::string shortest(double v) {
  if (!std::isfinite(v)) throw std::invalid_argument("non-finite metric value");
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void write_string(std::ostream& os, std::string_view s) {
  // Names and units are validated to plain ASCII; escape defensively anyway.
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

double median(std::span<const double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  std::vector<double> v(samples.begin(), samples.end());
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double percentile(std::span<const double> samples, double pct) {
  const std::size_t rank = nearest_rank(samples.size(), pct);
  std::vector<double> v(samples.begin(), samples.end());
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1), v.end());
  return v[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double pct) {
  return n == 0 ? 0 : n - nearest_rank(n, pct);
}

std::size_t samples_needed(double pct) {
  std::size_t n = 1;
  while (samples_beyond(n, pct) < kMinSamplesBeyond) ++n;
  return n;
}

Ratio ratio(double numerator, double base) {
  return {base == 0.0 ? 0.0 : numerator / base, base};
}

void CheckTally::check(bool ok, std::string_view what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::cerr << "perfbench: check failed: " << what << '\n';
}

void MetricSet::add(std::string name, double value, std::string unit) {
  add(std::move(name), value, std::move(unit), 0.0, "");
}

void MetricSet::add(std::string name, double value, std::string unit, double base,
                    std::string base_unit) {
  if (!valid_metric_name(name)) throw std::invalid_argument("invalid metric name: " + name);
  for (const Metric& m : metrics_)
    if (m.name == name) throw std::invalid_argument("duplicate metric name: " + name);
  metrics_.push_back({std::move(name), value, std::move(unit), base, std::move(base_unit)});
}

void MetricSet::print_table(std::ostream& os) const {
  for (const Metric& m : metrics_) {
    os << "  " << std::left << std::setw(36) << m.name << ' ' << std::right
       << std::setw(14) << shortest(m.value) << ' ' << std::left << std::setw(6) << m.unit;
    if (!m.base_unit.empty()) os << "  (base " << shortest(m.base) << ' ' << m.base_unit << ')';
    os << '\n';
  }
}

void write_result_line(std::ostream& os, const MetricSet& metrics,
                       const CheckTally& checks) {
  os << "{\"correct\": " << (checks.failed() == 0 ? "true" : "false")
     << ", \"attempted\": " << checks.attempted() << ", \"failed\": " << checks.failed()
     << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.metrics()) {
    if (!first) os << ", ";
    first = false;
    write_string(os, m.name);
    os << ": {\"value\": " << shortest(m.value) << ", \"unit\": ";
    write_string(os, m.unit);
    os << '}';
  }
  os << "}}\n";
}

SpanLog::Scope::Scope(SpanLog& log, std::string name, std::int64_t id)
    : log_(log), index_(log.begin(std::move(name), id)) {}

SpanLog::Scope::~Scope() { log_.end(index_); }

std::size_t SpanLog::begin(std::string name, std::int64_t id) {
  const std::int64_t parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  spans_.push_back({std::move(name), now_ns(), 0, parent, id});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::end(std::size_t index) {
  if (open_.empty() || open_.back() != index)
    throw std::logic_error("SpanLog: spans must close in LIFO order");
  spans_[index].end_ns = now_ns();
  open_.pop_back();
}

double SpanLog::total_seconds(std::string_view name) const {
  std::uint64_t ns = 0;
  for (const Span& s : spans_)
    if (s.name == name && s.end_ns != 0) ns += s.end_ns - s.start_ns;
  return static_cast<double>(ns) * 1e-9;
}

void SpanLog::write_json(std::ostream& os) const {
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  os << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "  {\"name\": ";
    write_string(os, s.name);
    os << ", \"start_ns\": " << s.start_ns - origin << ", \"end_ns\": " << s.end_ns - origin
       << ", \"parent\": " << s.parent << ", \"id\": " << s.id << '}'
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]\n";
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

}  // namespace perfbench
