/// Anchored evaluation: the Evaluator keeps one anchor base (the search's
/// incumbent) and patches every probe from it into a reusable buffer. The
/// anchor is pure acceleration state — these tests pin down its lifecycle
/// (value-keyed reuse outside a search, rejected probes leaving it alone,
/// promotion on accept and restart, explicit invalidation, buffer reuse,
/// concurrent probing) and that it never changes a single result byte.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/local_search.h"
#include "routing/evaluator.h"
#include "routing/failures.h"
#include "telemetry/telemetry.h"
#include "test_helpers.h"
#include "traffic/scaling.h"
#include "util/thread_pool.h"

namespace dtr {
namespace {

using test::expect_results_identical;
using test::make_test_instance;
using test::random_weights;
using test::TestInstance;

/// `w` with link `l`'s weight moved off its value (still in [1, 30]): the
/// delay class on even links, the throughput class on odd ones.
WeightSetting one_link_probe(const WeightSetting& w, LinkId l) {
  WeightSetting probe = w;
  const TrafficClass c = l % 2 == 0 ? TrafficClass::kDelay : TrafficClass::kThroughput;
  const int v = probe.get(c, l);
  probe.set(c, l, v >= 25 ? v - 7 : v + 5);
  return probe;
}

TEST(BaseCacheTest, RepeatedSweepsReuseOneBase) {
  const TestInstance inst = make_test_instance(12, 4.0, 7);
  const Evaluator ev(inst.graph, inst.traffic, inst.params, {});
  const Evaluator reference(inst.graph, inst.traffic, inst.params, {.incremental = false});
  const std::vector<FailureScenario> scenarios = all_link_failures(inst.graph);
  const WeightSetting w = random_weights(inst.graph, 30, 11);

  const SweepResult expected = reference.sweep(w, scenarios);
  const SweepResult first = ev.sweep(w, scenarios);
  const EvaluatorCacheStats after_first = ev.base_cache_stats();
  EXPECT_EQ(after_first.promotions, 1u);  // the scratch build became the anchor

  // Calls outside a search on the same weights (by value) reuse the anchor.
  const EvalResult normal = ev.evaluate(w);
  const SweepResult second = ev.sweep(w, scenarios);
  const EvaluatorCacheStats after = ev.base_cache_stats();
  EXPECT_GE(after.hits, 2u);
  EXPECT_EQ(after.promotions, 1u);

  EXPECT_EQ(expected.lambda, first.lambda);
  EXPECT_EQ(expected.phi, first.phi);
  EXPECT_EQ(first.lambda, second.lambda);
  EXPECT_EQ(first.phi, second.phi);
  EXPECT_EQ(normal.lambda, reference.evaluate(w).lambda);
}

TEST(BaseCacheTest, WeightMutationNeverServesStale) {
  // The anchor matches weights by VALUE, so mutating a caller's setting is a
  // different setting — it must evaluate fresh (patched from the anchor), and
  // flipping the weights back must hit the anchor with identical bytes.
  const TestInstance inst = make_test_instance(10, 4.0, 13);
  const Evaluator ev(inst.graph, inst.traffic, inst.params, {});
  const Evaluator plain(inst.graph, inst.traffic, inst.params, {.incremental = false});

  WeightSetting w = random_weights(inst.graph, 30, 17);
  const EvalResult before = ev.evaluate(w, FailureScenario::none(), EvalDetail::kFull);
  expect_results_identical(before,
                           plain.evaluate(w, FailureScenario::none(), EvalDetail::kFull));

  const int old_delay = w.get(TrafficClass::kDelay, 0);
  w.set(TrafficClass::kDelay, 0, old_delay == 30 ? 29 : old_delay + 1);
  const EvalResult mutated = ev.evaluate(w, FailureScenario::none(), EvalDetail::kFull);
  expect_results_identical(mutated,
                           plain.evaluate(w, FailureScenario::none(), EvalDetail::kFull));

  w.set(TrafficClass::kDelay, 0, old_delay);
  const EvalResult restored = ev.evaluate(w, FailureScenario::none(), EvalDetail::kFull);
  expect_results_identical(restored, before);
  EXPECT_GE(ev.base_cache_stats().hits, 1u);
  EXPECT_EQ(ev.base_cache_stats().weight_patched, 1u);
}

TEST(BaseCacheTest, TrafficChangeUsesSeparateAnchor) {
  // The anchor lives on the Evaluator, whose graph/traffic are immutable: a
  // topology or TM change means a new Evaluator and therefore a new anchor.
  // Same weights on different traffic must produce their own (different)
  // results with independent counters.
  const TestInstance inst = make_test_instance(10, 4.0, 19);
  TestInstance heavier = inst;
  scale_to_utilization(heavier.graph, heavier.traffic,
                       {UtilizationTarget::Kind::kAverage, 0.8});

  const Evaluator light_ev(inst.graph, inst.traffic, inst.params, {});
  const Evaluator heavy_ev(heavier.graph, heavier.traffic, heavier.params, {});
  const WeightSetting w = random_weights(inst.graph, 30, 23);

  const EvalResult light = light_ev.evaluate(w);
  const EvalResult heavy = heavy_ev.evaluate(w);
  EXPECT_NE(light.phi, heavy.phi);  // scaled traffic must change congestion
  EXPECT_EQ(light_ev.base_cache_stats().promotions, 1u);
  EXPECT_EQ(heavy_ev.base_cache_stats().promotions, 1u);
  EXPECT_GT(light_ev.base_bytes(), 0u);
  EXPECT_GT(heavy_ev.base_bytes(), 0u);
}

TEST(BaseCacheTest, RejectedProbeLeavesAnchorBitUnchanged) {
  // Probes that are never promoted (rejected candidates) patch into their own
  // buffers: the anchor keeps serving the incumbent, byte for byte, under
  // no failure and under every link failure.
  const TestInstance inst = make_test_instance(12, 4.0, 29);
  const Evaluator ev(inst.graph, inst.traffic, inst.params, {});
  const Evaluator plain(inst.graph, inst.traffic, inst.params, {.incremental = false});
  const WeightSetting incumbent = random_weights(inst.graph, 30, 31);
  const std::vector<FailureScenario> scenarios = all_link_failures(inst.graph);

  const EvalResult before = ev.evaluate(incumbent, FailureScenario::none(), EvalDetail::kFull);
  const std::vector<EvalResult> failures_before =
      ev.evaluate_failures(incumbent, scenarios, nullptr, EvalDetail::kFull);
  for (LinkId l = 0; l < inst.graph.num_links(); ++l) {
    const WeightSetting probe = one_link_probe(incumbent, l);
    expect_results_identical(ev.evaluate(probe), plain.evaluate(probe));
  }
  const EvaluatorCacheStats stats = ev.base_cache_stats();
  EXPECT_EQ(stats.promotions, 1u);
  EXPECT_EQ(stats.weight_patched, inst.graph.num_links());

  expect_results_identical(ev.evaluate(incumbent, FailureScenario::none(), EvalDetail::kFull),
                           before);
  const std::vector<EvalResult> failures_after =
      ev.evaluate_failures(incumbent, scenarios, nullptr, EvalDetail::kFull);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    expect_results_identical(failures_after[i], failures_before[i]);
    expect_results_identical(failures_after[i],
                             plain.evaluate(incumbent, scenarios[i], EvalDetail::kFull));
  }
  EXPECT_EQ(ev.base_cache_stats().hits, stats.hits + 2);
  EXPECT_EQ(ev.base_cache_stats().promotions, 1u);
}

/// K_normal through the evaluator, promoting every adopted setting — what
/// the optimizer's Phase-1 objective does.
class AnchoredNormalObjective final : public SearchObjective {
 public:
  explicit AnchoredNormalObjective(const Evaluator& ev) : ev_(ev) {}
  std::optional<CostPair> evaluate(const WeightSetting& w, const CostPair*) override {
    return ev_.evaluate(w).cost();
  }
  void adopt(const WeightSetting& w) override {
    ++adopted;
    last = w;
    ev_.promote(w);
  }
  int adopted = 0;
  WeightSetting last;

 private:
  const Evaluator& ev_;
};

TEST(BaseCacheTest, AcceptAndRestartAdoptionPromote) {
  const TestInstance inst = make_test_instance(10, 4.0, 37);
  const Evaluator ev(inst.graph, inst.traffic, inst.params, {});
  const WeightSetting incumbent = random_weights(inst.graph, 30, 41);

  // Direct: an accepted probe is promoted (re-patched with its replay
  // records, as a Phase-1 probe carries none), after which the anchor serves
  // it; a far restart point is built from scratch, anchors itself, and
  // adopting it is a no-op.
  (void)ev.evaluate(incumbent);
  const WeightSetting accepted = one_link_probe(incumbent, 2);
  const EvalResult probed = ev.evaluate(accepted);
  ev.promote(accepted);
  EXPECT_EQ(ev.base_cache_stats().promotions, 2u);
  const std::uint64_t hits = ev.base_cache_stats().hits;
  expect_results_identical(ev.evaluate(accepted), probed);
  EXPECT_EQ(ev.base_cache_stats().hits, hits + 1);
  const WeightSetting restart = random_weights(inst.graph, 30, 43);
  (void)ev.evaluate(restart);
  ev.promote(restart);
  EXPECT_EQ(ev.base_cache_stats().promotions, 3u);

  // Through LocalSearch: every accept and restart adoption reaches adopt(),
  // and the anchor ends on the last adopted setting.
  const Evaluator searched(inst.graph, inst.traffic, inst.params, {});
  AnchoredNormalObjective objective(searched);
  LocalSearch search({{3, 2, 0.01, 0, 12}, 30, 5, nullptr});
  long moves = 0, restarts = 0;
  search.set_on_move([&](const MoveRecord& m) {
    ++moves;
    if (m.restart) ++restarts;
  });
  const LocalSearch::Result result = search.run(objective, incumbent);
  EXPECT_GT(result.accepted_moves, 0);
  EXPECT_GT(restarts, 0);
  EXPECT_GE(objective.adopted, 1 + moves);
  const std::uint64_t before = searched.base_cache_stats().hits;
  (void)searched.evaluate(objective.last);
  EXPECT_EQ(searched.base_cache_stats().hits, before + 1);
}

TEST(BaseCacheTest, ProbeBuffersStopAllocatingAfterWarmup) {
  const TestInstance inst = make_test_instance(12, 4.0, 47);
  const Evaluator ev(inst.graph, inst.traffic, inst.params, {});
  const WeightSetting incumbent = random_weights(inst.graph, 30, 53);
  const auto probe_every_link = [&](std::size_t warm) {
    for (LinkId l = 0; l < inst.graph.num_links(); ++l) {
      (void)ev.evaluate(one_link_probe(incumbent, l));
      (void)ev.evaluate(one_link_probe(incumbent, l), FailureScenario::link(0));
      if (warm > 0) {
        EXPECT_EQ(ev.base_bytes(), warm) << "probe of link " << l;
      }
    }
  };
  (void)ev.evaluate(incumbent);
  probe_every_link(0);  // warm-up: buffer capacities reach their high water
  const std::size_t warm = ev.base_bytes();
  EXPECT_GT(warm, 0u);
  probe_every_link(warm);
}

TEST(BaseCacheTest, PatchingOffProbesLeaveAnchorAlone) {
  // With weight_delta_max_links = 0 nothing patches from the anchor, so a
  // no-failure probe is built without replay records and stays a probe: the
  // incumbent keeps serving its link failures, and only promote() records.
  const TestInstance inst = make_test_instance(12, 4.0, 71);
  const Evaluator ev(inst.graph, inst.traffic, inst.params, {.weight_delta_max_links = 0});
  const Evaluator plain(inst.graph, inst.traffic, inst.params, {.incremental = false});
  const WeightSetting incumbent = random_weights(inst.graph, 30, 73);
  ev.promote(incumbent);
  const std::size_t anchored = ev.base_bytes();

  for (LinkId l = 0; l < inst.graph.num_links(); ++l) {
    const WeightSetting probe = one_link_probe(incumbent, l);
    expect_results_identical(ev.evaluate(probe), plain.evaluate(probe));
    const std::uint64_t hits = ev.base_cache_stats().hits;
    expect_results_identical(ev.evaluate(probe, FailureScenario::link(l)),
                             plain.evaluate(incumbent, FailureScenario::link(l)));
    EXPECT_EQ(ev.base_cache_stats().hits, hits + 1) << "link " << l;
  }
  EXPECT_EQ(ev.base_cache_stats().promotions, 1u);
  EXPECT_EQ(ev.base_cache_stats().weight_patched, 0u);
  EXPECT_LT(ev.base_bytes(), 2 * anchored);  // the probe buffer holds no records

  const WeightSetting accepted = one_link_probe(incumbent, 1);
  ev.promote(accepted);
  EXPECT_EQ(ev.base_cache_stats().promotions, 2u);
  const std::uint64_t hits = ev.base_cache_stats().hits;
  expect_results_identical(ev.evaluate(accepted, FailureScenario::link(0)),
                           plain.evaluate(accepted, FailureScenario::link(0)));
  EXPECT_EQ(ev.base_cache_stats().hits, hits + 1);
}

TEST(BaseCacheTest, EvaluateCostsPatchesProbeJobsAndRecomputesTheRest) {
  // The Phase-1b batch shape: exact-mode jobs name a probe and patch from its
  // base; emulated jobs name bare weights and take the full path.
  const TestInstance inst = make_test_instance(12, 4.0, 79);
  telemetry::Registry reg;
  const Evaluator ev(inst.graph, inst.traffic, inst.params, {.telemetry = &reg});
  const Evaluator plain(inst.graph, inst.traffic, inst.params, {.incremental = false});
  const WeightSetting a = random_weights(inst.graph, 30, 83);
  const WeightSetting b = random_weights(inst.graph, 30, 89);
  const EvalProbe pa = ev.probe(a);
  const EvalProbe pb = ev.probe(b);
  const WeightSetting perturbed = one_link_probe(a, 3);

  std::vector<EvalJob> jobs;
  std::vector<CostPair> want;
  for (LinkId l = 0; l < inst.graph.num_links(); ++l) {
    const EvalProbe& p = l % 2 == 0 ? pa : pb;
    jobs.push_back({nullptr, FailureScenario::link(l), &p});
    want.push_back(plain.evaluate(p.weights(), FailureScenario::link(l)).cost());
    jobs.push_back({&perturbed, FailureScenario::none()});
    want.push_back(plain.evaluate(perturbed).cost());
  }
  ThreadPool pool(3);
  const std::vector<CostPair> got = ev.evaluate_costs(jobs, &pool);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(0, std::memcmp(&got[i], &want[i], sizeof(CostPair))) << "job " << i;
  const telemetry::Snapshot det = reg.snapshot(telemetry::Plane::kDeterministic);
  EXPECT_EQ(det.counter("eval.patched"), inst.graph.num_links());
  EXPECT_EQ(det.counter("eval.full"), inst.graph.num_links());

  const EvalProbe unbound;
  const std::vector<EvalJob> bad = {{nullptr, FailureScenario::link(0), &unbound}};
  EXPECT_THROW(ev.evaluate_costs(bad), std::invalid_argument);
}

TEST(BaseCacheTest, ExplicitInvalidationDropsAnchor) {
  const TestInstance inst = make_test_instance(10, 4.0, 31);
  const Evaluator ev(inst.graph, inst.traffic, inst.params, {});
  const WeightSetting w = random_weights(inst.graph, 30, 37);

  const EvalResult before = ev.evaluate(w, FailureScenario::none(), EvalDetail::kFull);
  EXPECT_GT(ev.base_bytes(), 0u);
  ev.invalidate_base_cache();
  EXPECT_EQ(ev.base_bytes(), 0u);

  // Fresh rebuild, identical bytes.
  const EvalResult after = ev.evaluate(w, FailureScenario::none(), EvalDetail::kFull);
  expect_results_identical(before, after);
  EXPECT_EQ(ev.base_cache_stats().promotions, 2u);
}

TEST(BaseCacheTest, FlushPublishesAnchorCountersAndBytes) {
  const TestInstance inst = make_test_instance(10, 4.0, 61);
  telemetry::Registry reg;
  const Evaluator ev(inst.graph, inst.traffic, inst.params, {.telemetry = &reg});
  const WeightSetting w = random_weights(inst.graph, 30, 67);
  (void)ev.evaluate(w);
  (void)ev.evaluate(one_link_probe(w, 1));
  ev.flush_cache_stats_to_telemetry();
  const telemetry::Snapshot proc = reg.snapshot(telemetry::Plane::kProcess);
  EXPECT_EQ(proc.counter("evaluator.base_cache.misses"), 2u);
  EXPECT_EQ(proc.counter("evaluator.base_cache.promotions"), 1u);
  EXPECT_EQ(proc.counter("eval.weight_patched"), 1u);
  std::uint64_t bytes = 0;
  for (const telemetry::GaugeValue& g : proc.gauges)
    if (g.name == "evaluator.base_bytes") bytes = g.value;
  EXPECT_GT(bytes, 0u);
  EXPECT_EQ(bytes, ev.base_bytes());
  EXPECT_TRUE(reg.snapshot(telemetry::Plane::kDeterministic).empty());
}

TEST(BaseCacheTest, NonIncrementalEvaluatorKeepsNoAnchor) {
  const TestInstance inst = make_test_instance(10, 4.0, 41);
  const Evaluator ev(inst.graph, inst.traffic, inst.params, {.incremental = false});
  const std::vector<FailureScenario> scenarios = all_link_failures(inst.graph);
  const WeightSetting w = random_weights(inst.graph, 30, 43);
  ev.evaluate(w);
  ev.sweep(w, scenarios);
  ev.promote(w);
  const EvaluatorCacheStats stats = ev.base_cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.promotions, 0u);
  EXPECT_EQ(ev.base_bytes(), 0u);
}

TEST(BaseCacheTest, ConcurrentSpeculativeProbesEqualSequential) {
  // The LocalSearch speculative-scoring pattern: many threads evaluate
  // one-link probes of the anchored incumbent at once, each patching into its
  // own buffer. Every result must match a sequential evaluation and the full
  // recompute bit for bit, including failure samples and promotion between
  // batches.
  const TestInstance inst = make_test_instance(12, 4.0, 47);
  const Evaluator ev(inst.graph, inst.traffic, inst.params, {});
  const Evaluator sequential(inst.graph, inst.traffic, inst.params, {});
  const Evaluator plain(inst.graph, inst.traffic, inst.params, {.incremental = false});
  WeightSetting incumbent = random_weights(inst.graph, 30, 59);

  ThreadPool pool(8);
  for (int batch = 0; batch < 3; ++batch) {
    (void)ev.evaluate(incumbent);
    (void)sequential.evaluate(incumbent);
    std::vector<WeightSetting> candidates;
    for (LinkId l = 0; l < inst.graph.num_links(); ++l)
      candidates.push_back(one_link_probe(incumbent, l));
    const auto scenario = [&](std::size_t i) {
      return i % 3 == 0 ? FailureScenario::link(static_cast<LinkId>((i + 1) %
                                                                    inst.graph.num_links()))
                        : FailureScenario::none();
    };
    std::vector<CostPair> got(candidates.size());
    parallel_for(&pool, candidates.size(), [&](std::size_t, std::size_t i) {
      got[i] = ev.evaluate(candidates[i], scenario(i)).cost();
    });
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const CostPair seq = sequential.evaluate(candidates[i], scenario(i)).cost();
      const CostPair want = plain.evaluate(candidates[i], scenario(i)).cost();
      EXPECT_EQ(0, std::memcmp(&got[i], &seq, sizeof(CostPair)));
      EXPECT_EQ(want.lambda, got[i].lambda);
      EXPECT_EQ(want.phi, got[i].phi);
    }
    // Accept one probe and go again from it.
    incumbent = candidates[static_cast<std::size_t>(batch) * 3 % candidates.size()];
    ev.promote(incumbent);
    sequential.promote(incumbent);
  }
}

}  // namespace
}  // namespace dtr
