/// Tests of the perfbench ledger helpers: the percentile rule, ratios with a
/// zero base, metric-name validation, the result line and the span log.
/// Plain asserts-with-messages; exits non-zero on the first failure.

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ledger.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::cerr << "FAIL: " << what << '\n';
}

template <typename Fn>
bool throws(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

void test_percentile_rule() {
  using perfbench::percentile;
  using perfbench::samples_beyond;
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  expect(percentile(v, 50.0) == 50.0, "p50 of 1..100 is 50 (nearest rank)");
  expect(percentile(v, 98.0) == 98.0, "p98 of 1..100 is 98");
  expect(percentile(v, 100.0) == 100.0, "p100 is the maximum");
  expect(samples_beyond(100, 98.0) == 2, "2 samples beyond p98 of 100");
  // The contract: a tail percentile needs at least 10 samples beyond it.
  expect(samples_beyond(499, 98.0) == 9, "499 samples leave 9 beyond p98");
  expect(samples_beyond(500, 98.0) == 10, "500 samples leave 10 beyond p98");
  expect(perfbench::samples_needed(98.0) == 500, "p98 needs 500 samples");
  expect(perfbench::samples_needed(50.0) == 20, "p50 needs 20 samples");
  // The ISP-300 link catalog (582 scenarios) satisfies the rule for p98.
  expect(samples_beyond(582, 98.0) >= perfbench::kMinSamplesBeyond, "582 samples suffice");
  expect(perfbench::median(std::vector<double>{3, 1, 2}) == 2.0, "odd median");
  expect(perfbench::median(std::vector<double>{4, 1, 2, 3}) == 2.5, "even median");
  expect(throws([] { (void)perfbench::median(std::vector<double>{}); }), "empty median throws");
  expect(throws([&] { (void)percentile(v, 0.0); }), "p0 throws");
  expect(throws([&] { (void)percentile(v, 101.0); }), "p101 throws");
}

void test_ratio_zero_base() {
  const perfbench::Ratio zero = perfbench::ratio(5.0, 0.0);
  expect(zero.value == 0.0 && zero.base == 0.0, "zero base gives 0 with base 0");
  expect(!std::isnan(perfbench::ratio(0.0, 0.0).value), "0/0 is not NaN");
  const perfbench::Ratio r = perfbench::ratio(3.0, 4.0);
  expect(r.value == 0.75 && r.base == 4.0, "ratio keeps its base");
}

void test_metric_names() {
  using perfbench::valid_metric_name;
  expect(valid_metric_name("graph.spf_full.us_per_dest"), "dotted name");
  expect(valid_metric_name("link_ms_p98"), "underscore name");
  expect(valid_metric_name("isp300-sweep"), "dash name");
  expect(valid_metric_name("9lives"), "leading digit");
  expect(!valid_metric_name(""), "empty name");
  expect(!valid_metric_name(".hidden"), "leading dot");
  expect(!valid_metric_name("_x"), "leading underscore");
  expect(!valid_metric_name("a b"), "space");
  expect(!valid_metric_name("a/b"), "slash");
  expect(!valid_metric_name("tail\xc2\xb5s"), "non-ASCII");
  expect(valid_metric_name(std::string(64, 'a')), "64 characters");
  expect(!valid_metric_name(std::string(65, 'a')), "65 characters");

  perfbench::MetricSet m;
  m.add("wall_s", 1.5, "s");
  expect(throws([&] { m.add("wall_s", 2.0, "s"); }), "duplicate name rejected");
  expect(throws([&] { m.add("bad name", 2.0, "s"); }), "invalid name rejected");
}

void test_result_line() {
  perfbench::MetricSet m;
  m.add("wall_s", 0.1, "s");
  m.add("hit_ratio", perfbench::ratio(1.0, 3.0), "share", "lookups");
  perfbench::CheckTally checks;
  checks.check(true, "ok");
  std::ostringstream os;
  perfbench::write_result_line(os, m, checks);
  expect(os.str() ==
             "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {"
             "\"wall_s\": {\"value\": 0.1, \"unit\": \"s\"}, "
             "\"hit_ratio\": {\"value\": 0.3333333333333333, \"unit\": \"share\"}}}\n",
         "result line bytes: " + os.str());
  checks.check(false, "deliberate failure (expected in this test)");
  std::ostringstream failed;
  perfbench::write_result_line(failed, m, checks);
  expect(failed.str().rfind("{\"correct\": false, \"attempted\": 2, \"failed\": 1", 0) == 0,
         "a failed check makes the result incorrect");
}

void test_span_log() {
  perfbench::SpanLog log;
  {
    perfbench::SpanLog::Scope outer(log, "outer");
    perfbench::SpanLog::Scope inner(log, "inner", 7);
  }
  const auto& spans = log.spans();
  expect(spans.size() == 2, "two spans");
  expect(spans[1].parent == 0 && spans[1].id == 7, "inner span's parent and id");
  const double inner_s = static_cast<double>(spans[1].end_ns - spans[1].start_ns) * 1e-9;
  expect(log.total_seconds("inner") == inner_s, "total by name");
  expect(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns,
         "child inside parent");
  expect(throws([&] {
           const std::size_t a = log.begin("a");
           (void)log.begin("b");
           log.end(a);
         }),
         "spans close in LIFO order");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_ratio_zero_base();
  test_metric_names();
  test_result_line();
  test_span_log();
  if (failures != 0) {
    std::cerr << failures << " check(s) failed\n";
    return EXIT_FAILURE;
  }
  std::cout << "ledger_test: all checks passed\n";
  return EXIT_SUCCESS;
}
