#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/spf.h"
#include "graph/topology.h"
#include "routing/evaluator.h"
#include "routing/failures.h"
#include "routing/route_state.h"
#include "routing/weights.h"
#include "traffic/gravity.h"
#include "traffic/scaling.h"
#include "traffic/traffic_matrix.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dtr::test {

/// Diamond: 0 -(1)- 1 -(1)- 3 and 0 -(1)- 2 -(1)- 3, plus nothing else.
/// With unit weights there are two equal-cost 0->3 paths (ECMP splits 50/50).
inline Graph make_diamond(double capacity = 100.0, double delay_ms = 1.0) {
  Graph g(4);
  g.set_position(0, {0.0, 0.5});
  g.set_position(1, {0.5, 1.0});
  g.set_position(2, {0.5, 0.0});
  g.set_position(3, {1.0, 0.5});
  g.add_link(0, 1, capacity, delay_ms);
  g.add_link(0, 2, capacity, delay_ms);
  g.add_link(1, 3, capacity, delay_ms);
  g.add_link(2, 3, capacity, delay_ms);
  return g;
}

/// Cycle of n nodes (2-edge-connected, exactly two paths between any pair).
inline Graph make_ring(int n, double capacity = 100.0, double delay_ms = 1.0) {
  Graph g(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    g.set_position(static_cast<NodeId>(i), {static_cast<double>(i), 0.0});
  for (int i = 0; i < n; ++i)
    g.add_link(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n), capacity, delay_ms);
  return g;
}

/// Ring + chords: enough path diversity for optimizer integration tests.
inline Graph make_ring_with_chords(int n, double capacity = 100.0) {
  Graph g = make_ring(n, capacity);
  for (int i = 0; i + n / 2 < n; ++i)
    g.add_link(static_cast<NodeId>(i), static_cast<NodeId>(i + n / 2), capacity, 1.0);
  return g;
}

/// A complete small-network instance: RandTopo graph, gravity traffic scaled
/// to a target average utilization, SLA-calibrated delays.
struct TestInstance {
  Graph graph;
  ClassedTraffic traffic;
  EvalParams params;
};

inline TestInstance make_test_instance(int nodes = 10, double degree = 4.0,
                                       std::uint64_t seed = 7,
                                       double avg_utilization = 0.4,
                                       double theta_ms = 25.0) {
  TestInstance inst;
  inst.graph = make_rand_topo({nodes, degree, 500.0, seed});
  inst.params.sla.theta_ms = theta_ms;
  calibrate_delays_to_sla(inst.graph, theta_ms);
  TrafficMatrix total = make_gravity_traffic(inst.graph, {1.0, 1.0, seed + 1});
  inst.traffic = split_by_class(total, 0.30);
  scale_to_utilization(inst.graph, inst.traffic,
                       {UtilizationTarget::Kind::kAverage, avg_utilization});
  return inst;
}

/// Uniformly random weight setting for `g` (deterministic in `seed`).
inline WeightSetting random_weights(const Graph& g, int wmax, std::uint64_t seed) {
  WeightSetting w(g.num_links());
  Rng rng(seed);
  randomize_weights(w, wmax, rng);
  return w;
}

/// Nodes with finite dist, by distance (ascending or descending), ties by id.
inline std::vector<NodeId> distance_order(std::span<const double> dist, bool descending) {
  std::vector<NodeId> order;
  for (NodeId u = 0; u < dist.size(); ++u)
    if (dist[u] != kInfDist) order.push_back(u);
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return descending ? dist[a] > dist[b] : dist[a] < dist[b];
  });
  return order;
}

/// Sort-based reference of ClassRouting::end_to_end_delays, independent of
/// any stored DAG: per destination t it takes the nodes in ascending label
/// order (ties by id) and sums (or maxes) each node's terms over its alive
/// tight out-arcs in adjacency order, testing every arc against `labels[t]`
/// itself. Pairs with a skipped endpoint or no demand stay -1; disconnected
/// pairs with demand get kInfDist.
inline std::vector<double> reference_delays(const Graph& g, std::span<const double> costs,
                                            ArcAliveMask alive, std::span<const double> arc_delay,
                                            const TrafficMatrix& tm, SlaDelayMode mode,
                                            const std::vector<std::vector<double>>& labels,
                                            std::span<const NodeId> skip = {}) {
  const std::size_t n = g.num_nodes();
  std::vector<double> out(n * n, -1.0);
  std::vector<double> node_delay(n);
  for (NodeId t = 0; t < n; ++t) {
    if (is_skipped(skip, t)) continue;
    const std::vector<double>& dist = labels[t];
    std::fill(node_delay.begin(), node_delay.end(), 0.0);
    for (const NodeId u : distance_order(dist, /*descending=*/false)) {
      if (u == t) continue;
      int k = 0;
      double acc = mode == SlaDelayMode::kWorstPath ? -kInfDist : 0.0;
      for (ArcId a : g.out_arcs(u)) {
        if (!alive.empty() && alive[a] == 0) continue;
        if (!arc_is_tight(g.arc(a), costs[a], dist)) continue;
        ++k;
        const double through = arc_delay[a] + node_delay[g.arc(a).dst];
        acc = mode == SlaDelayMode::kWorstPath ? std::max(acc, through) : acc + through;
      }
      node_delay[u] = mode == SlaDelayMode::kWorstPath ? acc : (k > 0 ? acc / k : 0.0);
    }
    for (NodeId s = 0; s < n; ++s)
      if (s != t && !is_skipped(skip, s) && tm.at(s, t) > 0.0)
        out[static_cast<std::size_t>(s) * n + t] =
            dist[s] == kInfDist ? kInfDist : node_delay[s];
  }
  return out;
}

/// Labels for reference_delays: a full Dijkstra toward every destination.
inline std::vector<std::vector<double>> all_labels(const Graph& g, std::span<const double> costs,
                                                   ArcAliveMask alive) {
  std::vector<std::vector<double>> labels(g.num_nodes());
  for (NodeId t = 0; t < g.num_nodes(); ++t)
    shortest_distances_to(g, t, costs, alive, labels[t]);
  return labels;
}

/// The authoritative EvalResult comparator for byte-identity contracts
/// (incremental path, base cache): every field, exact equality. Extend HERE
/// when EvalResult grows so no identity test silently narrows.
inline void expect_results_identical(const EvalResult& a, const EvalResult& b) {
  EXPECT_EQ(a.lambda, b.lambda);
  EXPECT_EQ(a.phi, b.phi);
  EXPECT_EQ(a.sla_violations, b.sla_violations);
  EXPECT_EQ(a.disconnected_delay_pairs, b.disconnected_delay_pairs);
  EXPECT_EQ(a.disconnected_tput_pairs, b.disconnected_tput_pairs);
  EXPECT_EQ(a.arc_total_load, b.arc_total_load);
  EXPECT_EQ(a.arc_utilization, b.arc_utilization);
  EXPECT_EQ(a.sd_delay_ms, b.sd_delay_ms);
  EXPECT_EQ(a.carries_delay_traffic, b.carries_delay_traffic);
}

/// Runs `scenarios` under `w` through every batch entry point of `anchored`
/// — evaluate_failures at kFull, sweep in full and aborted halfway, and
/// evaluate_costs with jobs naming a probe — at 1 and 8 threads, each bit for
/// bit against the full-recompute evaluator `full`.
inline void expect_catalog_matches_full_path(const Evaluator& anchored, const Evaluator& full,
                                             const WeightSetting& w,
                                             std::span<const FailureScenario> scenarios) {
  const auto same = [](double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; };
  const auto expect_same_sweep = [&](const SweepResult& got, const SweepResult& want) {
    EXPECT_TRUE(same(got.lambda, want.lambda));
    EXPECT_TRUE(same(got.phi, want.phi));
    EXPECT_TRUE(same(got.violations, want.violations));
    EXPECT_EQ(got.aborted, want.aborted);
    EXPECT_EQ(got.scenarios_evaluated, want.scenarios_evaluated);
  };
  const std::vector<EvalResult> ref =
      full.evaluate_failures(w, scenarios, nullptr, EvalDetail::kFull);
  const SweepResult ref_sum = full.sweep(w, scenarios);
  const CostPair bound{ref_sum.lambda / 2.0, ref_sum.phi / 2.0};
  const SweepResult ref_aborted = full.sweep(w, scenarios, {.abort_bound = &bound});
  EXPECT_TRUE(ref_aborted.aborted);
  ThreadPool one(1);
  ThreadPool eight(8);
  for (ThreadPool* pool : {&one, &eight}) {
    const std::vector<EvalResult> got =
        anchored.evaluate_failures(w, scenarios, pool, EvalDetail::kFull);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) expect_results_identical(got[i], ref[i]);
    expect_same_sweep(anchored.sweep(w, scenarios, {.pool = pool}), ref_sum);
    expect_same_sweep(anchored.sweep(w, scenarios, {.abort_bound = &bound, .pool = pool}),
                      ref_aborted);
    const EvalProbe probe = anchored.probe(w);
    std::vector<EvalJob> jobs;
    for (const FailureScenario& s : scenarios) jobs.push_back({nullptr, s, &probe});
    const std::vector<CostPair> costs = anchored.evaluate_costs(jobs, pool);
    ASSERT_EQ(costs.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_TRUE(same(costs[i].lambda, ref[i].lambda) && same(costs[i].phi, ref[i].phi))
          << "evaluate_costs job " << i;
    }
  }
}

}  // namespace dtr::test
