/// Incremental vs full failure evaluation: EvaluatorConfig::incremental is a
/// pure execution knob. These tests enforce the PR's acceptance contract —
/// bit-identical FailureProfile / EvalResult bytes between the delta-SPF
/// fast path and the full recompute, across randomized topologies, weight
/// settings, every single-link failure, and 1 vs 8 worker threads.

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "core/metrics.h"
#include "experiments/workloads.h"
#include "routing/evaluator.h"
#include "routing/failures.h"
#include "telemetry/telemetry.h"
#include "test_helpers.h"
#include "util/thread_pool.h"

namespace dtr {
namespace {

using test::expect_results_identical;
using test::make_test_instance;
using test::random_weights;
using test::TestInstance;

/// Bitwise comparison: double == would accept -0.0 vs 0.0 and miss NaN, so
/// the profile vectors are compared as raw bytes.
void expect_profile_bytes_identical(const FailureProfile& a, const FailureProfile& b) {
  ASSERT_EQ(a.violations.size(), b.violations.size());
  ASSERT_EQ(a.lambda.size(), b.lambda.size());
  ASSERT_EQ(a.phi.size(), b.phi.size());
  const auto bytes_equal = [](const std::vector<double>& x, const std::vector<double>& y) {
    return x.empty() ||
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
  };
  EXPECT_TRUE(bytes_equal(a.violations, b.violations));
  EXPECT_TRUE(bytes_equal(a.lambda, b.lambda));
  EXPECT_TRUE(bytes_equal(a.phi, b.phi));
  EXPECT_EQ(a.phi_uncap, b.phi_uncap);
}

TEST(IncrementalTest, FailureProfileBytesMatchFullPathAcrossInstances) {
  // Randomized topologies x weight settings x all single-link failures.
  struct Case {
    int nodes;
    double degree;
    std::uint64_t seed;
  };
  for (const Case& c : {Case{10, 4.0, 7}, Case{14, 5.0, 19}, Case{18, 3.0, 31}}) {
    const TestInstance inst = make_test_instance(c.nodes, c.degree, c.seed);
    const Evaluator incremental(inst.graph, inst.traffic, inst.params,
                                {.incremental = true});
    const Evaluator full(inst.graph, inst.traffic, inst.params, {.incremental = false});
    const std::vector<FailureScenario> scenarios = all_link_failures(inst.graph);

    ThreadPool one(1);
    ThreadPool eight(8);
    for (const std::uint64_t wseed : {c.seed + 1, c.seed + 2}) {
      const WeightSetting w = random_weights(inst.graph, 30, wseed);
      const FailureProfile reference = profile_failures(full, w, scenarios, &one);
      expect_profile_bytes_identical(reference,
                                     profile_failures(incremental, w, scenarios, &one));
      expect_profile_bytes_identical(reference,
                                     profile_failures(incremental, w, scenarios, &eight));
      expect_profile_bytes_identical(reference,
                                     profile_failures(full, w, scenarios, &eight));
    }
  }
}

TEST(IncrementalTest, FullDetailMatchesOnBridgeTopology) {
  // Path-like topology: failures disconnect demand, exercising the
  // disconnection replay subtotals at kFull detail.
  Graph g(6);
  for (NodeId u = 0; u + 1 < 6; ++u) g.add_link(u, u + 1, 200.0, 1.0);
  g.add_link(1, 3, 200.0, 1.0);  // one alternative, so not everything severs
  TrafficMatrix total = make_gravity_traffic(g, {1.0, 1.0, 11});
  const ClassedTraffic traffic = split_by_class(total, 0.30);

  const Evaluator incremental(g, traffic, {}, {.incremental = true});
  const Evaluator full(g, traffic, {}, {.incremental = false});
  const std::vector<FailureScenario> scenarios = all_link_failures(g);
  const WeightSetting w = random_weights(g, 20, 5);

  const auto inc = incremental.evaluate_failures(w, scenarios, nullptr, EvalDetail::kFull);
  const auto ref = full.evaluate_failures(w, scenarios, nullptr, EvalDetail::kFull);
  ASSERT_EQ(inc.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) expect_results_identical(inc[i], ref[i]);
}

TEST(IncrementalTest, MixedScenarioKindsMatchFullPath) {
  // Node failures patch from the anchor inside the same batch (their demands
  // skipped, their delay DP run in full); link pairs ride the delta update
  // with 4 dead arcs.
  const TestInstance inst = make_test_instance(12, 4.0, 13);
  const Evaluator incremental(inst.graph, inst.traffic, inst.params,
                              {.incremental = true});
  const Evaluator full(inst.graph, inst.traffic, inst.params, {.incremental = false});

  std::vector<FailureScenario> scenarios;
  scenarios.push_back(FailureScenario::none());
  for (LinkId l = 0; l < inst.graph.num_links(); l += 2)
    scenarios.push_back(FailureScenario::link(l));
  for (NodeId v = 0; v < inst.graph.num_nodes(); v += 3)
    scenarios.push_back(FailureScenario::node(v));
  for (LinkId l = 0; l + 4 < inst.graph.num_links(); l += 5)
    scenarios.push_back(FailureScenario::link_pair(l, l + 4));

  const WeightSetting w = random_weights(inst.graph, 25, 99);
  ThreadPool eight(8);
  const auto inc = incremental.evaluate_failures(w, scenarios, &eight, EvalDetail::kFull);
  const auto ref = full.evaluate_failures(w, scenarios, nullptr, EvalDetail::kFull);
  ASSERT_EQ(inc.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) expect_results_identical(inc[i], ref[i]);
}

TEST(IncrementalTest, NodeCatalogsPatchFromTheAnchor) {
  // All-node catalogs through every batch entry point, against the full
  // recompute. Each node scenario counts as patched; its skipped destination
  // is neither delta-patched nor swept, and its delay DP runs in full.
  for (const auto& [nodes, degree, seed] : {std::tuple{12, 4.0, 13}, std::tuple{18, 3.0, 31}}) {
    const TestInstance inst = make_test_instance(nodes, degree, seed);
    const std::vector<FailureScenario> scenarios = all_node_failures(inst.graph);
    const WeightSetting w = random_weights(inst.graph, 30, seed + 1);
    const Evaluator anchored(inst.graph, inst.traffic, inst.params, {});
    const Evaluator full(inst.graph, inst.traffic, inst.params, {.incremental = false});
    test::expect_catalog_matches_full_path(anchored, full, w, scenarios);

    telemetry::Registry reg;
    const Evaluator counted(inst.graph, inst.traffic, inst.params, {.telemetry = &reg});
    (void)counted.evaluate_failures(w, scenarios);
    const telemetry::Snapshot det = reg.snapshot(telemetry::Plane::kDeterministic);
    const std::uint64_t n = inst.graph.num_nodes();
    const std::uint64_t swept_dests = 2 * n * (n - 1);  // two classes
    EXPECT_EQ(det.counter("eval.patched"), n);
    EXPECT_EQ(det.counter("eval.full"), 0u);
    EXPECT_EQ(det.counter("load.dests_resweep") + det.counter("load.dests_replayed"),
              swept_dests);
    EXPECT_LE(det.counter("spf.dests_delta") + det.counter("spf.dests_full_fallback"),
              swept_dests);
    EXPECT_GT(det.counter("spf.dests_delta"), 0u);
    EXPECT_EQ(det.counter("delay.cols_recomputed") + det.counter("delay.cols_replayed"), 0u);
  }
}

TEST(IncrementalTest, SweepMatchesFullPathIncludingEarlyAbort) {
  const TestInstance inst = make_test_instance(12, 4.0, 17);
  const Evaluator incremental(inst.graph, inst.traffic, inst.params,
                              {.incremental = true});
  const Evaluator full(inst.graph, inst.traffic, inst.params, {.incremental = false});
  const std::vector<FailureScenario> scenarios = all_link_failures(inst.graph);
  const WeightSetting w = random_weights(inst.graph, 30, 23);

  ThreadPool eight(8);
  const SweepResult ref = full.sweep(w, scenarios);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &eight}) {
    const SweepResult inc = incremental.sweep(w, scenarios, {.pool = pool});
    EXPECT_EQ(ref.lambda, inc.lambda);
    EXPECT_EQ(ref.phi, inc.phi);
    EXPECT_EQ(ref.scenarios_evaluated, inc.scenarios_evaluated);
  }

  const CostPair bound{ref.lambda / 2.0, ref.phi / 2.0};
  const SweepResult ref_aborted = full.sweep(w, scenarios, {.abort_bound = &bound});
  const SweepResult inc_aborted =
      incremental.sweep(w, scenarios, {.abort_bound = &bound, .pool = &eight});
  EXPECT_EQ(ref_aborted.aborted, inc_aborted.aborted);
  EXPECT_EQ(ref_aborted.lambda, inc_aborted.lambda);
  EXPECT_EQ(ref_aborted.phi, inc_aborted.phi);
  EXPECT_EQ(ref_aborted.scenarios_evaluated, inc_aborted.scenarios_evaluated);
}

TEST(IncrementalTest, FallbackFractionIsPureExecutionKnob) {
  // Any fallback threshold — always-delta (1.0), never-delta (0.0), or the
  // default — must yield the same bytes.
  const TestInstance inst = make_test_instance(12, 4.0, 29);
  const std::vector<FailureScenario> scenarios = all_link_failures(inst.graph);
  const WeightSetting w = random_weights(inst.graph, 30, 41);

  const Evaluator full(inst.graph, inst.traffic, inst.params, {.incremental = false});
  const FailureProfile reference = profile_failures(full, w, scenarios);
  for (const double fraction : {0.0, 0.25, 1.0}) {
    const Evaluator ev(
        inst.graph, inst.traffic, inst.params,
        {.incremental = true, .incremental_max_affected_fraction = fraction});
    expect_profile_bytes_identical(reference, profile_failures(ev, w, scenarios));
  }
}

TEST(IncrementalTest, ConfigDefaultsToIncremental) {
  const TestInstance inst = make_test_instance(8, 3.0, 3);
  const Evaluator ev(inst.graph, inst.traffic, inst.params);
  EXPECT_TRUE(ev.config().incremental);
  EXPECT_GT(ev.config().incremental_max_affected_fraction, 0.0);
  EXPECT_TRUE(ev.config().incremental_delay);
  EXPECT_EQ(ev.config().weight_delta_max_links, 1u);
}

TEST(IncrementalTest, WeightDeltaDonorBaseMatchesScratchBuild) {
  // Phase-1 probe shape: an incumbent is anchored, then neighbors differing
  // on one link are evaluated. The donor evaluator patches each probe's base
  // from the anchor (delta-SPF over the weight change); the reference
  // evaluator builds every base from scratch. Every result — no-failure,
  // every single link, a compound scenario, kFull detail — must be identical
  // field for field.
  const TestInstance inst = make_test_instance(12, 4.0, 57);
  EvaluatorConfig donor_cfg;
  EvaluatorConfig scratch_cfg = donor_cfg;
  scratch_cfg.weight_delta_max_links = 0;

  const Evaluator with_donor(inst.graph, inst.traffic, inst.params, donor_cfg);
  const Evaluator reference(inst.graph, inst.traffic, inst.params, scratch_cfg);
  const WeightSetting incumbent = random_weights(inst.graph, 20, 91);
  (void)with_donor.evaluate(incumbent);
  (void)reference.evaluate(incumbent);

  std::vector<FailureScenario> scenarios = all_link_failures(inst.graph);
  scenarios.insert(scenarios.begin(), FailureScenario::none());
  scenarios.push_back(FailureScenario::compound({0, 2, 3}));

  for (LinkId l = 0; l < inst.graph.num_links(); ++l) {
    WeightSetting probe = incumbent;
    // Increases and decreases both ride the donor patch; odd links change
    // both classes (still ONE differing link).
    const int wd = probe.get(TrafficClass::kDelay, l);
    probe.set(TrafficClass::kDelay, l, wd >= 16 ? 1 : wd + 5);
    if (l % 2 == 1) {
      const int wt = probe.get(TrafficClass::kThroughput, l);
      probe.set(TrafficClass::kThroughput, l, wt >= 18 ? 2 : wt + 3);
    }
    for (const FailureScenario& sc : scenarios) {
      expect_results_identical(with_donor.evaluate(probe, sc, EvalDetail::kFull),
                               reference.evaluate(probe, sc, EvalDetail::kFull));
    }
  }
  const EvaluatorCacheStats donor_stats = with_donor.base_cache_stats();
  EXPECT_GT(donor_stats.weight_patched, 0u);
  EXPECT_GT(donor_stats.arcs_updated, 0u);
  EXPECT_EQ(reference.base_cache_stats().weight_patched, 0u);
}

TEST(IncrementalTest, WeightDeltaDonorHandlesMultiLinkProbes) {
  const TestInstance inst = make_test_instance(12, 4.0, 23);
  EvaluatorConfig donor_cfg;
  donor_cfg.weight_delta_max_links = 3;
  EvaluatorConfig scratch_cfg;
  scratch_cfg.weight_delta_max_links = 0;

  const Evaluator with_donor(inst.graph, inst.traffic, inst.params, donor_cfg);
  const Evaluator reference(inst.graph, inst.traffic, inst.params, scratch_cfg);
  const WeightSetting incumbent = random_weights(inst.graph, 20, 5);
  (void)with_donor.evaluate(incumbent);
  (void)reference.evaluate(incumbent);

  const std::vector<FailureScenario> scenarios = all_link_failures(inst.graph);
  WeightSetting probe = incumbent;
  for (const LinkId l : {LinkId{1}, LinkId{4}, LinkId{7}}) {
    probe.set(TrafficClass::kDelay, l, probe.get(TrafficClass::kDelay, l) >= 10 ? 3 : 19);
    probe.set(TrafficClass::kThroughput, l,
              probe.get(TrafficClass::kThroughput, l) >= 10 ? 4 : 17);
  }
  expect_results_identical(with_donor.evaluate(probe, FailureScenario::none(),
                                               EvalDetail::kFull),
                           reference.evaluate(probe, FailureScenario::none(),
                                              EvalDetail::kFull));
  for (const FailureScenario& sc : scenarios) {
    expect_results_identical(with_donor.evaluate(probe, sc, EvalDetail::kFull),
                             reference.evaluate(probe, sc, EvalDetail::kFull));
  }
  EXPECT_GT(with_donor.base_cache_stats().weight_patched, 0u);
}

TEST(IncrementalTest, ProbeUnderItsOwnLinkFailureEqualsIncumbent) {
  // A failed link's arcs carry no label and no load, so a probe that changes
  // only link l evaluates under link(l)'s failure exactly like the incumbent:
  // bit for bit on the full path, and the anchored evaluator serves it from
  // the incumbent's anchor (a hit, no probe base) with the same bits. This is
  // what lets Phase-1a exact-mode samples patch straight from the anchor.
  const auto bits = [](const EvalResult& r) {
    std::vector<double> v = {r.lambda, r.phi, static_cast<double>(r.sla_violations),
                             static_cast<double>(r.disconnected_delay_pairs),
                             static_cast<double>(r.disconnected_tput_pairs)};
    v.insert(v.end(), r.arc_total_load.begin(), r.arc_total_load.end());
    v.insert(v.end(), r.sd_delay_ms.begin(), r.sd_delay_ms.end());
    return v;
  };
  const auto same_bits = [&](const EvalResult& a, const EvalResult& b) {
    const std::vector<double> x = bits(a), y = bits(b);
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
  };
  experiments::WorkloadSpec isp;
  isp.kind = experiments::TopologyKind::kIsp;
  isp.isp_source = experiments::IspSource::kGenerated;
  isp.nodes = 48;
  isp.isp_pops = 6;
  const TestInstance paper = make_test_instance(16, 4.0, 61);
  const experiments::Workload generated = experiments::make_workload(isp);
  for (const auto& [graph, traffic, params] :
       {std::tie(paper.graph, paper.traffic, paper.params),
        std::tie(generated.graph, generated.traffic, generated.params)}) {
    const Evaluator anchored(graph, traffic, params, {});
    const Evaluator full(graph, traffic, params, {.incremental = false});
    const WeightSetting incumbent = random_weights(graph, 30, 67);
    (void)anchored.evaluate(incumbent);
    for (LinkId l = 0; l < graph.num_links(); ++l) {
      WeightSetting candidate = incumbent;
      candidate.set(TrafficClass::kDelay, l, 31 + static_cast<int>(l % 7));
      candidate.set(TrafficClass::kThroughput, l, 1 + static_cast<int>(l % 5));
      const FailureScenario scenario = FailureScenario::link(l);
      const EvalResult want = full.evaluate(incumbent, scenario, EvalDetail::kFull);
      EXPECT_TRUE(same_bits(full.evaluate(candidate, scenario, EvalDetail::kFull), want))
          << "full path, link " << l;
      const std::uint64_t hits = anchored.base_cache_stats().hits;
      EXPECT_TRUE(same_bits(anchored.evaluate(candidate, scenario, EvalDetail::kFull), want))
          << "anchored, link " << l;
      EXPECT_EQ(anchored.base_cache_stats().hits, hits + 1);
    }
    EXPECT_EQ(anchored.base_cache_stats().weight_patched, 0u);
  }
}

TEST(IncrementalTest, DelayDpBytesMatchFullDpAcrossInstances) {
  // The incremental end-to-end delay DP sweeps randomized topologies x all
  // single-link failures and must reproduce every SLA term — lambda,
  // violation counts, AND the raw per-pair delay vector — byte for byte.
  struct Case {
    int nodes;
    double degree;
    std::uint64_t seed;
  };
  for (const Case& c : {Case{10, 4.0, 43}, Case{14, 5.0, 57}, Case{18, 3.0, 71}}) {
    const TestInstance inst = make_test_instance(c.nodes, c.degree, c.seed);
    const Evaluator with_dp(inst.graph, inst.traffic, inst.params,
                            {.incremental = true, .incremental_delay = true});
    const Evaluator without_dp(inst.graph, inst.traffic, inst.params,
                               {.incremental = true, .incremental_delay = false});
    const Evaluator full(inst.graph, inst.traffic, inst.params, {.incremental = false});
    const std::vector<FailureScenario> scenarios = all_link_failures(inst.graph);

    const WeightSetting w = random_weights(inst.graph, 30, c.seed + 5);
    const auto ref = full.evaluate_failures(w, scenarios, nullptr, EvalDetail::kFull);
    ThreadPool eight(8);
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &eight}) {
      const auto dp = with_dp.evaluate_failures(w, scenarios, pool, EvalDetail::kFull);
      const auto no_dp =
          without_dp.evaluate_failures(w, scenarios, pool, EvalDetail::kFull);
      ASSERT_EQ(dp.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        expect_results_identical(dp[i], ref[i]);
        expect_results_identical(no_dp[i], ref[i]);
        // sd_delay (the DP output) compared as raw bytes: == would accept
        // -0.0 vs 0.0 and the infinities the cap replaces.
        ASSERT_EQ(dp[i].sd_delay_ms.size(), ref[i].sd_delay_ms.size());
        EXPECT_TRUE(dp[i].sd_delay_ms.empty() ||
                    std::memcmp(dp[i].sd_delay_ms.data(), ref[i].sd_delay_ms.data(),
                                ref[i].sd_delay_ms.size() * sizeof(double)) == 0);
      }
    }
  }
}

TEST(IncrementalTest, ConfigCornersProduceIdenticalProfiles) {
  // Every {incremental, delay-DP} corner x {1, 8 threads} must produce the
  // same FailureProfile bytes — the campaign/golden contract.
  const TestInstance inst = make_test_instance(14, 4.0, 83);
  const std::vector<FailureScenario> scenarios = all_link_failures(inst.graph);
  const WeightSetting w = random_weights(inst.graph, 30, 97);

  const Evaluator reference_ev(inst.graph, inst.traffic, inst.params,
                               {.incremental = false});
  ThreadPool one(1);
  ThreadPool eight(8);
  const FailureProfile reference = profile_failures(reference_ev, w, scenarios, &one);

  for (const bool incremental : {false, true}) {
    for (const bool delay_dp : {false, true}) {
      const Evaluator ev(inst.graph, inst.traffic, inst.params,
                         {.incremental = incremental, .incremental_delay = delay_dp});
      expect_profile_bytes_identical(reference, profile_failures(ev, w, scenarios, &one));
      expect_profile_bytes_identical(reference, profile_failures(ev, w, scenarios, &eight));
      // Repeat through the retained anchor: same bytes again.
      expect_profile_bytes_identical(reference, profile_failures(ev, w, scenarios, &eight));
    }
  }
}

TEST(IncrementalTest, SingleEvaluationMatchesAcrossCacheStates) {
  // evaluate() consults the anchor: a failure evaluation served via the
  // patched path must match the cold full path bit for bit, including kFull
  // detail.
  const TestInstance inst = make_test_instance(12, 4.0, 101);
  const Evaluator cached(inst.graph, inst.traffic, inst.params, {});
  const Evaluator plain(inst.graph, inst.traffic, inst.params, {.incremental = false});
  const WeightSetting w = random_weights(inst.graph, 30, 103);

  // Anchor the weights with the no-failure evaluation, then compare every
  // single-link failure and the no-failure evaluation itself.
  expect_results_identical(cached.evaluate(w, FailureScenario::none(), EvalDetail::kFull),
                           plain.evaluate(w, FailureScenario::none(), EvalDetail::kFull));
  EXPECT_GT(cached.base_bytes(), 0u);
  for (LinkId l = 0; l < inst.graph.num_links(); ++l) {
    const FailureScenario scenario = FailureScenario::link(l);
    expect_results_identical(cached.evaluate(w, scenario, EvalDetail::kFull),
                             plain.evaluate(w, scenario, EvalDetail::kFull));
  }
  EXPECT_GT(cached.base_cache_stats().hits, 0u);
}

}  // namespace
}  // namespace dtr
