#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>

#include "graph/isp.h"
#include "graph/spf.h"
#include "graph/topology.h"
#include "routing/failures.h"
#include "routing/route_state.h"
#include "routing/weights.h"
#include "test_helpers.h"
#include "traffic/gravity.h"
#include "util/rng.h"

namespace dtr {
namespace {

// ------------------------------------------------------------ weights

TEST(WeightSettingTest, InitialValue) {
  const WeightSetting w(5, 3);
  for (LinkId l = 0; l < 5; ++l)
    for (TrafficClass c : kBothClasses) EXPECT_EQ(w.get(c, l), 3);
}

TEST(WeightSettingTest, SetPerClassIndependent) {
  WeightSetting w(3);
  w.set(TrafficClass::kDelay, 1, 7);
  w.set(TrafficClass::kThroughput, 1, 9);
  EXPECT_EQ(w.get(TrafficClass::kDelay, 1), 7);
  EXPECT_EQ(w.get(TrafficClass::kThroughput, 1), 9);
  EXPECT_EQ(w.get(TrafficClass::kDelay, 0), 1);
}

TEST(WeightSettingTest, RejectsNonPositiveWeights) {
  WeightSetting w(2);
  EXPECT_THROW(w.set(TrafficClass::kDelay, 0, 0), std::invalid_argument);
  EXPECT_THROW(WeightSetting(2, 0), std::invalid_argument);
}

TEST(WeightSettingTest, ArcCostsShareLinkWeight) {
  const Graph g = test::make_diamond();
  WeightSetting w(g.num_links());
  w.set(TrafficClass::kDelay, 2, 11);
  std::vector<double> costs;
  w.arc_costs(g, TrafficClass::kDelay, costs);
  ASSERT_EQ(costs.size(), g.num_arcs());
  for (ArcId a : g.link_arcs(2)) EXPECT_DOUBLE_EQ(costs[a], 11.0);
  for (ArcId a : g.link_arcs(0)) EXPECT_DOUBLE_EQ(costs[a], 1.0);
}

TEST(WeightSettingTest, ArcCostsSizeMismatchThrows) {
  const Graph g = test::make_diamond();
  WeightSetting w(2);  // wrong size
  std::vector<double> costs;
  EXPECT_THROW(w.arc_costs(g, TrafficClass::kDelay, costs), std::invalid_argument);
}

TEST(WeightSettingTest, EqualityComparison) {
  WeightSetting a(3), b(3);
  EXPECT_EQ(a, b);
  b.set(TrafficClass::kDelay, 0, 5);
  EXPECT_NE(a, b);
}

TEST(WeightSettingTest, RandomizeStaysInRange) {
  WeightSetting w(20);
  Rng rng(5);
  randomize_weights(w, 64, rng);
  for (LinkId l = 0; l < 20; ++l)
    for (TrafficClass c : kBothClasses) {
      EXPECT_GE(w.get(c, l), 1);
      EXPECT_LE(w.get(c, l), 64);
    }
}

TEST(WeightSettingTest, WarmStartTracksDelay) {
  Graph g(3);
  g.add_link(0, 1, 100.0, 2.0);
  g.add_link(1, 2, 100.0, 20.0);
  const WeightSetting w = make_warm_start(g, 100);
  EXPECT_LT(w.get(TrafficClass::kDelay, 0), w.get(TrafficClass::kDelay, 1));
  EXPECT_EQ(w.get(TrafficClass::kThroughput, 0), 1);
  EXPECT_LE(w.get(TrafficClass::kDelay, 1), 100);
}

// ------------------------------------------------------------ routing / loads

TEST(ClassRoutingTest, SinglePathCarriesFullDemand) {
  Graph g(3);
  g.add_link(0, 1, 100.0, 1.0);
  g.add_link(1, 2, 100.0, 1.0);
  TrafficMatrix tm(3);
  tm.set(0, 2, 10.0);
  const std::vector<double> costs(g.num_arcs(), 1.0);
  const ClassRouting r(g, costs, tm, {});
  // Arc 0 is 0->1, arc 2 is 1->2.
  EXPECT_DOUBLE_EQ(r.arc_load(0), 10.0);
  EXPECT_DOUBLE_EQ(r.arc_load(2), 10.0);
  EXPECT_DOUBLE_EQ(r.arc_load(1), 0.0);  // reverse arcs unused
}

TEST(ClassRoutingTest, EcmpSplitsEvenly) {
  const Graph g = test::make_diamond();
  TrafficMatrix tm(4);
  tm.set(0, 3, 8.0);
  const std::vector<double> costs(g.num_arcs(), 1.0);
  const ClassRouting r(g, costs, tm, {});
  // Two equal paths 0-1-3 and 0-2-3: 4 units each.
  EXPECT_DOUBLE_EQ(r.arc_load(0), 4.0);  // 0->1
  EXPECT_DOUBLE_EQ(r.arc_load(2), 4.0);  // 0->2
  EXPECT_DOUBLE_EQ(r.arc_load(4), 4.0);  // 1->3
  EXPECT_DOUBLE_EQ(r.arc_load(6), 4.0);  // 2->3
}

TEST(ClassRoutingTest, WeightsSteerTraffic) {
  const Graph g = test::make_diamond();
  TrafficMatrix tm(4);
  tm.set(0, 3, 8.0);
  WeightSetting w(g.num_links());
  w.set(TrafficClass::kDelay, 0, 10);  // make 0-1 expensive
  std::vector<double> costs;
  w.arc_costs(g, TrafficClass::kDelay, costs);
  const ClassRouting r(g, costs, tm, {});
  EXPECT_DOUBLE_EQ(r.arc_load(0), 0.0);
  EXPECT_DOUBLE_EQ(r.arc_load(2), 8.0);  // all via 0-2-3
}

TEST(ClassRoutingTest, FlowConservationProperty) {
  // Property: at every node, inflow + sourced == outflow + sunk (per class).
  for (std::uint64_t seed : {1ull, 5ull, 9ull}) {
    const Graph g = make_rand_topo({14, 4.0, 500.0, seed});
    const TrafficMatrix tm = make_gravity_traffic(g, {3.0, 1.0, seed + 1});
    WeightSetting w(g.num_links());
    Rng rng(seed);
    randomize_weights(w, 50, rng);
    std::vector<double> costs;
    w.arc_costs(g, TrafficClass::kDelay, costs);
    const ClassRouting r(g, costs, tm, {});

    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      double in = 0.0, out = 0.0, sourced = 0.0, sunk = 0.0;
      for (ArcId a : g.in_arcs(u)) in += r.arc_load(a);
      for (ArcId a : g.out_arcs(u)) out += r.arc_load(a);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (v == u) continue;
        sourced += tm.at(u, v);
        sunk += tm.at(v, u);
      }
      EXPECT_NEAR(in + sourced, out + sunk, 1e-6) << "node " << u << " seed " << seed;
    }
  }
}

TEST(ClassRoutingTest, TotalLoadEqualsDemandTimesPathLength) {
  // Sum of arc loads == sum over demands of (demand * SP length in hops)
  // under unit weights (ECMP paths all have equal length).
  const Graph g = make_rand_topo({12, 4.0, 500.0, 3});
  const TrafficMatrix tm = make_gravity_traffic(g, {2.0, 1.0, 4});
  const std::vector<double> costs(g.num_arcs(), 1.0);
  const ClassRouting r(g, costs, tm, {});
  double load_sum = 0.0;
  for (ArcId a = 0; a < g.num_arcs(); ++a) load_sum += r.arc_load(a);
  double expected = 0.0;
  tm.for_each_demand(
      [&](NodeId s, NodeId t, double v) { expected += v * r.distances()[t][s]; });
  EXPECT_NEAR(load_sum, expected, 1e-6);
}

TEST(ClassRoutingTest, DisconnectedDemandCounted) {
  Graph g(3);
  g.add_link(0, 1, 100.0, 1.0);
  TrafficMatrix tm(3);
  tm.set(0, 2, 5.0);  // node 2 unreachable
  tm.set(0, 1, 1.0);
  const std::vector<double> costs(g.num_arcs(), 1.0);
  const ClassRouting r(g, costs, tm, {});
  EXPECT_EQ(r.disconnected_demand_count(), 1u);
  EXPECT_DOUBLE_EQ(r.disconnected_demand_volume(), 5.0);
  EXPECT_FALSE(r.pair_connected(0, 2));
  EXPECT_TRUE(r.pair_connected(0, 1));
}

TEST(ClassRoutingTest, SkipNodeIgnoresItsTraffic) {
  const Graph g = test::make_ring(4);
  TrafficMatrix tm(4);
  tm.set(0, 2, 10.0);
  tm.set(1, 2, 4.0);
  const std::vector<double> costs(g.num_arcs(), 1.0);
  const NodeId skip[] = {1};
  const ClassRouting r(g, costs, tm, {}, skip);
  double total = 0.0;
  for (ArcId a = 0; a < g.num_arcs(); ++a) total += r.arc_load(a);
  // Only the 0->2 demand routes (2 hops around the ring either way).
  EXPECT_NEAR(total, 10.0 * 2.0, 1e-9);
}

TEST(ClassRoutingTest, AliveMaskReroutes) {
  const Graph g = test::make_diamond();
  TrafficMatrix tm(4);
  tm.set(0, 3, 8.0);
  const std::vector<double> costs(g.num_arcs(), 1.0);
  std::vector<std::uint8_t> alive(g.num_arcs(), 1);
  for (ArcId a : g.link_arcs(0)) alive[a] = 0;  // fail 0-1
  const ClassRouting r(g, costs, tm, alive);
  EXPECT_DOUBLE_EQ(r.arc_load(2), 8.0);
  EXPECT_DOUBLE_EQ(r.arc_load(0), 0.0);
}

// ------------------------------------------------------------ end-to-end delays

TEST(EndToEndDelayTest, SumsArcDelaysOnSinglePath) {
  Graph g(3);
  g.add_link(0, 1, 100.0, 2.0);
  g.add_link(1, 2, 100.0, 3.0);
  TrafficMatrix tm(3);
  tm.set(0, 2, 1.0);
  const std::vector<double> costs(g.num_arcs(), 1.0);
  const ClassRouting r(g, costs, tm, {});
  std::vector<double> arc_delay(g.num_arcs());
  for (ArcId a = 0; a < g.num_arcs(); ++a) arc_delay[a] = g.arc(a).prop_delay_ms;
  std::vector<double> out;
  r.end_to_end_delays(g, costs, {}, arc_delay, tm, SlaDelayMode::kExpected, {},
                      out);
  EXPECT_DOUBLE_EQ(out[0 * 3 + 2], 5.0);
  EXPECT_DOUBLE_EQ(out[1 * 3 + 2], -1.0);  // no demand
}

TEST(EndToEndDelayTest, ExpectedVsWorstPath) {
  // Diamond with asymmetric delays: 0-1-3 takes 2ms, 0-2-3 takes 8ms.
  Graph g(4);
  g.add_link(0, 1, 100.0, 1.0);
  g.add_link(0, 2, 100.0, 4.0);
  g.add_link(1, 3, 100.0, 1.0);
  g.add_link(2, 3, 100.0, 4.0);
  TrafficMatrix tm(4);
  tm.set(0, 3, 1.0);
  const std::vector<double> costs(g.num_arcs(), 1.0);
  const ClassRouting r(g, costs, tm, {});
  std::vector<double> arc_delay(g.num_arcs());
  for (ArcId a = 0; a < g.num_arcs(); ++a) arc_delay[a] = g.arc(a).prop_delay_ms;

  std::vector<double> expected, worst;
  r.end_to_end_delays(g, costs, {}, arc_delay, tm, SlaDelayMode::kExpected, {},
                      expected);
  r.end_to_end_delays(g, costs, {}, arc_delay, tm, SlaDelayMode::kWorstPath, {},
                      worst);
  EXPECT_DOUBLE_EQ(expected[3], 5.0);  // (2+8)/2
  EXPECT_DOUBLE_EQ(worst[3], 8.0);
}

TEST(EndToEndDelayTest, DisconnectedIsInfinite) {
  Graph g(3);
  g.add_link(0, 1, 100.0, 1.0);
  TrafficMatrix tm(3);
  tm.set(0, 2, 1.0);
  const std::vector<double> costs(g.num_arcs(), 1.0);
  const ClassRouting r(g, costs, tm, {});
  std::vector<double> arc_delay(g.num_arcs(), 1.0);
  std::vector<double> out;
  r.end_to_end_delays(g, costs, {}, arc_delay, tm, SlaDelayMode::kExpected, {},
                      out);
  EXPECT_EQ(out[0 * 3 + 2], kInfDist);
}

// ------------------------------------------------------------ tight-DAG walk oracles
//
// The load sweep and the delay DP walk each destination's tight DAG instead
// of sorting nodes by distance. The references below are the sort-based
// formulations (distance order, ties broken by node id), checked on graphs
// where equal-distance nodes are everywhere: unit-weight grids and a
// generated ISP graph under all-equal and {1,2} weights.

/// rows x cols 4-neighbour grid.
Graph make_grid(int rows, int cols) {
  Graph g(static_cast<std::size_t>(rows * cols));
  const auto id = [cols](int r, int c) { return static_cast<NodeId>(r * cols + c); };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) g.add_link(id(r, c), id(r, c + 1), 100.0, 1.0);
      if (r + 1 < rows) g.add_link(id(r, c), id(r + 1, c), 100.0, 1.0);
    }
  }
  return g;
}

bool is_tight(const Graph& g, std::span<const double> costs, ArcAliveMask alive,
              std::span<const double> dist, ArcId a) {
  return (alive.empty() || alive[a] != 0) && arc_is_tight(g.arc(a), costs[a], dist);
}

/// Sort-based reference of ClassRouting's loads.
std::vector<double> reference_loads(const Graph& g, std::span<const double> costs,
                                    const TrafficMatrix& tm, ArcAliveMask alive,
                                    const ClassRouting& r) {
  const std::size_t n = g.num_nodes();
  std::vector<double> load(g.num_arcs(), 0.0);
  for (NodeId t = 0; t < n; ++t) {
    const std::vector<double>& dist = r.distances()[t];
    std::vector<double> flow(n, 0.0);
    for (NodeId s = 0; s < n; ++s)
      if (s != t && dist[s] != kInfDist) flow[s] = tm.at(s, t);
    for (const NodeId u : test::distance_order(dist, /*descending=*/true)) {
      if (u == t || flow[u] <= 0.0) continue;
      int k = 0;
      for (ArcId a : g.out_arcs(u)) k += is_tight(g, costs, alive, dist, a) ? 1 : 0;
      for (ArcId a : g.out_arcs(u)) {
        if (!is_tight(g, costs, alive, dist, a)) continue;
        load[a] += flow[u] / k;
        flow[g.arc(a).dst] += flow[u] / k;
      }
    }
  }
  return load;
}

struct TieCase {
  std::string name;
  Graph graph;
  std::vector<double> costs;
};

std::vector<TieCase> tie_heavy_cases() {
  std::vector<TieCase> cases;
  const Graph grid = make_grid(6, 7);
  cases.push_back({"grid6x7/unit", grid, std::vector<double>(grid.num_arcs(), 1.0)});
  IspGenParams isp;
  isp.num_nodes = 60;
  isp.num_pops = 6;
  isp.seed = 3;
  const Graph isp_graph = make_isp_topo(isp);
  cases.push_back({"isp60/unit", isp_graph, std::vector<double>(isp_graph.num_arcs(), 1.0)});
  std::vector<double> one_two(isp_graph.num_arcs());
  for (ArcId a = 0; a < isp_graph.num_arcs(); ++a)
    one_two[a] = 1.0 + static_cast<double>(isp_graph.arc(a).link % 2);
  cases.push_back({"isp60/{1,2}", isp_graph, one_two});
  return cases;
}

TEST(TightDagWalkTest, PostOrderListsSuccessorsFirstWithTightArcsInCsrOrder) {
  const Graph g = make_grid(4, 5);
  const std::vector<double> costs(g.num_arcs(), 1.0);
  const NodeId t = 7;
  std::vector<double> dist;
  shortest_distances_to(g, t, costs, {}, dist);
  TightDagWalk dag;
  dag.reset(g.num_nodes(), t);
  for (const NodeId root : {NodeId{19}, NodeId{0}, NodeId{12}})
    dag.visit(g.csr(), costs, {}, dist, root);

  std::vector<int> position(g.num_nodes(), -1);
  const std::span<const NodeId> post = dag.post_order();
  for (std::size_t i = 0; i < post.size(); ++i) {
    EXPECT_EQ(position[post[i]], -1) << "node listed twice";
    EXPECT_NE(post[i], t) << "the destination is never listed";
    position[post[i]] = static_cast<int>(i);
  }
  for (const NodeId u : post) {
    std::vector<ArcId> expected;
    for (ArcId a : g.out_arcs(u))
      if (arc_is_tight(g.arc(a), costs[a], dist)) expected.push_back(a);
    std::vector<ArcId> got;
    for (const TightDagWalk::TightArc& e : dag.tight_arcs(u)) {
      got.push_back(e.arc);
      EXPECT_EQ(e.head, g.arc(e.arc).dst);
      EXPECT_LT(position[e.head], position[u]) << "successor after " << u;  // t is -1
    }
    EXPECT_EQ(got, expected) << "node " << u;
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  }
  for (const NodeId root : {NodeId{19}, NodeId{0}, NodeId{12}})
    EXPECT_GE(position[root], 0);
}

/// Per-arc delays that differ from arc to arc, so a DP reading the wrong arc
/// or summing in another order shows in the output bits.
std::vector<double> spread_delays(const Graph& g) {
  std::vector<double> arc_delay(g.num_arcs());
  for (ArcId a = 0; a < g.num_arcs(); ++a)
    arc_delay[a] = 0.3 + 0.01 * static_cast<double>((a * 7919u) % 101u);
  return arc_delay;
}

/// The routing's DP in both modes against the sort-based reference over
/// `labels`, bit for bit.
void expect_delays_match_reference(const ClassRouting& r, const Graph& g,
                                   std::span<const double> costs, ArcAliveMask mask,
                                   std::span<const double> arc_delay, const TrafficMatrix& tm,
                                   const std::vector<std::vector<double>>& labels,
                                   std::span<const NodeId> skip, const std::string& what) {
  for (const SlaDelayMode mode : {SlaDelayMode::kExpected, SlaDelayMode::kWorstPath}) {
    std::vector<double> got;
    r.end_to_end_delays(g, costs, mask, arc_delay, tm, mode, skip, got);
    const std::vector<double> want =
        test::reference_delays(g, costs, mask, arc_delay, tm, mode, labels, skip);
    ASSERT_EQ(got.size(), want.size()) << what;
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)), 0)
        << what << " mode " << static_cast<int>(mode);
  }
}

TEST(TightDagWalkTest, DelaysMatchSortedReferenceBitForBit) {
  for (const TieCase& c : tie_heavy_cases()) {
    const Graph& g = c.graph;
    const TrafficMatrix tm = make_gravity_traffic(g, {1.0, 1.0, 11});
    // No failure, then one link down (alive mask on both sides).
    std::vector<std::uint8_t> alive(g.num_arcs(), 1);
    for (ArcId a : g.link_arcs(1)) alive[a] = 0;
    for (const ArcAliveMask mask : {ArcAliveMask{}, ArcAliveMask{alive}}) {
      const ClassRouting r(g, c.costs, tm, mask);
      expect_delays_match_reference(r, g, c.costs, mask, spread_delays(g), tm, r.distances(),
                                    {}, c.name + (mask.empty() ? "" : " masked"));
    }
  }
}

TEST(TightDagWalkTest, StoredDagListsReachedNodesAfterTheirPredecessors) {
  for (const TieCase& c : tie_heavy_cases()) {
    const Graph& g = c.graph;
    const GraphCsr& csr = g.csr();
    const TrafficMatrix tm = make_gravity_traffic(g, {1.0, 1.0, 11});
    const ClassRouting r(g, c.costs, tm, {});
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      const std::vector<double>& dist = r.distances()[t];
      const std::span<const ArcId> dag = r.tight_dag(t);
      // Group the arcs by source; every reached node has one group, holding
      // exactly its tight out-arcs in CSR order.
      std::vector<int> position(g.num_nodes(), -1);
      int groups = 0;
      for (std::size_t i = 0; i < dag.size();) {
        const NodeId u = csr.src[dag[i]];
        ASSERT_EQ(position[u], -1) << c.name << " node " << u << " grouped twice";
        position[u] = groups++;
        std::vector<ArcId> got;
        for (; i < dag.size() && csr.src[dag[i]] == u; ++i) got.push_back(dag[i]);
        std::vector<ArcId> want;
        for (ArcId a : g.out_arcs(u))
          if (arc_is_tight(g.arc(a), c.costs[a], dist)) want.push_back(a);
        EXPECT_EQ(got, want) << c.name << " dest " << t << " node " << u;
      }
      // Sources with demand are reached; each head comes after its tail.
      for (NodeId s = 0; s < g.num_nodes(); ++s) {
        if (s != t && tm.at(s, t) > 0.0) {
          EXPECT_GE(position[s], 0) << c.name;
        }
      }
      for (const ArcId a : dag) {
        if (csr.dst[a] != t) {
          EXPECT_GT(position[csr.dst[a]], position[csr.src[a]]) << c.name;
        }
      }
    }
  }
}

TEST(TightDagWalkTest, PatchedRoutingDelaysMatchSortedReferenceBitForBit) {
  PatchStats stats;  // over every case: the grid's failures touch every DAG
  for (const TieCase& c : tie_heavy_cases()) {
    const Graph& g = c.graph;
    const TrafficMatrix tm = make_gravity_traffic(g, {1.0, 1.0, 13});
    const std::vector<double> arc_delay = spread_delays(g);
    std::vector<double> dirty_delay = arc_delay;  // some DP inputs change
    for (ArcId a = 0; a < g.num_arcs(); a += 5) dirty_delay[a] += 0.125;
    ClassRouting base;
    RoutingBaseRecord record;
    base.compute(g, c.costs, tm, {}, {}, &record);
    std::vector<double> base_sd;
    DelayDpIndex index;
    base.end_to_end_delays(g, c.costs, {}, arc_delay, tm, SlaDelayMode::kExpected, {},
                           base_sd, &index);
    FailureScratch scratch;
    ClassRouting patched;

    // compute_from_base: single links spread over the graph, so some
    // destinations replay and others re-sweep.
    for (const LinkId l : {LinkId{1}, static_cast<LinkId>(g.num_links() / 2),
                           static_cast<LinkId>(g.num_links() - 1)}) {
      std::vector<std::uint8_t> alive(g.num_arcs(), 1);
      std::vector<ArcId> removed;
      for (ArcId a : g.link_arcs(l)) {
        alive[a] = 0;
        removed.push_back(a);
      }
      scratch.reset_stats();
      patched.compute_from_base(g, c.costs, tm, base, record, removed, alive, 1.0, scratch);
      stats.merge(scratch.stats());
      const auto labels = test::all_labels(g, c.costs, alive);
      const std::string what = c.name + " compute_from_base link " + std::to_string(l);
      expect_delays_match_reference(patched, g, c.costs, alive, dirty_delay, tm, labels, {}, what);
      // The incremental DP: clean replayed columns copied, the rest recomputed.
      std::vector<double> got;
      patched.end_to_end_delays_from_base(g, c.costs, alive, dirty_delay, tm,
                                          SlaDelayMode::kExpected, arc_delay, base_sd,
                                          index, scratch, got);
      const std::vector<double> want = test::reference_delays(
          g, c.costs, alive, dirty_delay, tm, SlaDelayMode::kExpected, labels);
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)), 0)
          << what << " (from base)";
    }

    // compute_from_weight_delta: one link's weight raised.
    std::vector<double> probe_costs = c.costs;
    std::vector<ArcCostDelta> changes;
    for (ArcId a : g.link_arcs(2)) {
      changes.push_back({a, c.costs[a]});
      probe_costs[a] += 1.0;
    }
    patched.compute_from_weight_delta(g, probe_costs, tm, base, record, changes, 1.0, scratch);
    expect_delays_match_reference(patched, g, probe_costs, {}, arc_delay, tm,
                                  test::all_labels(g, probe_costs, {}), {},
                                  c.name + " compute_from_weight_delta");

    // compute_with_labels under a failure mask.
    std::vector<std::uint8_t> alive(g.num_arcs(), 1);
    for (ArcId a : g.link_arcs(3)) alive[a] = 0;
    const auto labels = test::all_labels(g, c.costs, alive);
    patched.compute_with_labels(g, c.costs, tm, alive, labels);
    expect_delays_match_reference(patched, g, c.costs, alive, arc_delay, tm, labels, {},
                                  c.name + " compute_with_labels");

    // A node failure: its arcs dead, its demands skipped.
    std::vector<std::uint8_t> node_alive;
    build_alive_mask(g, FailureScenario::node(4), node_alive);
    const NodeId skip[] = {4};
    patched.compute(g, c.costs, tm, node_alive, skip);
    expect_delays_match_reference(patched, g, c.costs, node_alive, arc_delay, tm,
                                  test::all_labels(g, c.costs, node_alive), skip,
                                  c.name + " node-skip compute");
  }
  EXPECT_GT(stats.dests_replayed, 0u);
  EXPECT_GT(stats.dests_resweep, 0u);
}

/// `got` against `want` bit for bit: labels, arc loads, stored DAGs,
/// disconnected count and volume, and the DP over the DAGs in both modes.
void expect_routings_bitwise_equal(const ClassRouting& got, const ClassRouting& want,
                                   const Graph& g, std::span<const double> costs,
                                   ArcAliveMask alive, const TrafficMatrix& tm,
                                   std::span<const NodeId> skip, const std::string& what) {
  const auto same = [](std::span<const double> a, std::span<const double> b) {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
  };
  for (NodeId t = 0; t < g.num_nodes(); ++t) {
    EXPECT_TRUE(same(got.distances()[t], want.distances()[t])) << what << " labels of " << t;
    const std::span<const ArcId> a = got.tight_dag(t);
    const std::span<const ArcId> b = want.tight_dag(t);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << what << " DAG of " << t;
  }
  EXPECT_TRUE(same(got.arc_loads(), want.arc_loads())) << what << " arc loads";
  EXPECT_EQ(got.disconnected_demand_count(), want.disconnected_demand_count()) << what;
  const double vg = got.disconnected_demand_volume();
  const double vw = want.disconnected_demand_volume();
  EXPECT_EQ(std::memcmp(&vg, &vw, sizeof(double)), 0) << what << " disconnected volume";
  const std::vector<double> arc_delay = spread_delays(g);
  for (const SlaDelayMode mode : {SlaDelayMode::kExpected, SlaDelayMode::kWorstPath}) {
    std::vector<double> dg, dw;
    got.end_to_end_delays(g, costs, alive, arc_delay, tm, mode, skip, dg);
    want.end_to_end_delays(g, costs, alive, arc_delay, tm, mode, skip, dw);
    EXPECT_TRUE(same(dg, dw)) << what << " delays, mode " << static_cast<int>(mode);
  }
}

TEST(TightDagWalkTest, NodeSkipPatchMatchesComputeBitForBit) {
  // compute_from_base with skipped nodes against compute() under the same
  // mask and skip set: several failed nodes per case (the busiest transit
  // node among them), each also a destination, plus node+links compounds.
  // A failed node's own label changes toward every other destination, so
  // all of them re-sweep.
  for (const TieCase& c : tie_heavy_cases()) {
    const Graph& g = c.graph;
    const std::size_t n = g.num_nodes();
    const TrafficMatrix tm = make_gravity_traffic(g, {1.0, 1.0, 17});
    ClassRouting base;
    RoutingBaseRecord record;
    base.compute(g, c.costs, tm, {}, {}, &record);
    NodeId busiest = 0;
    double busiest_load = -1.0;
    for (NodeId v = 0; v < n; ++v) {
      double load = 0.0;
      for (ArcId a : g.in_arcs(v)) load += base.arc_load(a);
      if (load > busiest_load) {
        busiest = v;
        busiest_load = load;
      }
    }
    const auto node = [n](std::size_t k) { return static_cast<NodeId>(k % n); };
    const std::vector<FailureScenario> scenarios = {
        FailureScenario::node(0),
        FailureScenario::node(node(n / 3)),
        FailureScenario::node(node(2 * n / 3)),
        FailureScenario::node(node(n - 1)),
        FailureScenario::node(busiest),
        // One of the failed node's own links listed too: its arcs are removed twice.
        FailureScenario::compound(
            {g.arc(g.out_arcs(node(n / 2)).front()).link, static_cast<LinkId>(g.num_links() / 2)},
            {node(n / 2)}),
        FailureScenario::compound({static_cast<LinkId>(g.num_links() - 1)},
                                  {busiest, node(n / 4)}),
    };
    FailureScratch scratch;
    ClassRouting patched, want;
    std::vector<std::uint8_t> alive;
    for (const FailureScenario& sc : scenarios) {
      build_alive_mask(g, sc, alive);
      std::vector<ArcId> removed;
      for_each_failed_arc(g, sc, [&](ArcId a) { removed.push_back(a); });
      const std::span<const NodeId> skip = skipped_nodes(sc);
      want.compute(g, c.costs, tm, alive, skip);
      for (const double fraction : {0.25, 1.0}) {
        scratch.reset_stats();
        patched.compute_from_base(g, c.costs, tm, base, record, removed, alive, fraction,
                                  scratch, skip);
        const std::string what =
            c.name + " " + to_string(sc) + " fraction " + std::to_string(fraction);
        expect_routings_bitwise_equal(patched, want, g, c.costs, alive, tm, skip, what);
        // A skipped destination is neither delta-patched nor swept.
        const PatchStats& s = scratch.stats();
        EXPECT_EQ(s.dests_resweep, n - skip.size()) << what;
        EXPECT_EQ(s.dests_replayed, 0u) << what;
        EXPECT_LE(s.dests_delta + s.dests_full_fallback, n - skip.size()) << what;
        for (const NodeId v : skip) EXPECT_TRUE(patched.tight_dag(v).empty()) << what;
      }
    }
  }
}

TEST(TightDagWalkTest, NodeSkipPatchDropsAnUnreachableSourcesDemand) {
  // A failed node that could not reach anyone (no links) changes no label
  // and removes no arc, yet its demand leaves every destination's
  // disconnection subtotal: those destinations must re-sweep, not replay.
  Graph g(4);
  g.add_link(0, 1, 100.0, 1.0);
  g.add_link(1, 2, 100.0, 1.0);
  TrafficMatrix tm(4);
  for (NodeId s = 0; s < 4; ++s)
    for (NodeId t = 0; t < 4; ++t)
      if (s != t) tm.set(s, t, 1.0 + s);
  const std::vector<double> costs(g.num_arcs(), 1.0);
  ClassRouting base;
  RoutingBaseRecord record;
  base.compute(g, costs, tm, {}, {}, &record);
  ASSERT_EQ(base.disconnected_demand_count(), 6u);  // node 3's demands, both ways

  const NodeId skip[] = {3};
  ClassRouting want, patched;
  want.compute(g, costs, tm, {}, skip);
  FailureScratch scratch;
  patched.compute_from_base(g, costs, tm, base, record, {}, {}, 1.0, scratch, skip);
  expect_routings_bitwise_equal(patched, want, g, costs, {}, tm, skip, "isolated node 3");
  EXPECT_EQ(patched.disconnected_demand_count(), 0u);
  EXPECT_EQ(scratch.stats().dests_resweep, 3u);
}

TEST(TightDagWalkTest, LoadsMatchSortedReferenceSweep) {
  for (const TieCase& c : tie_heavy_cases()) {
    const Graph& g = c.graph;
    const TrafficMatrix tm = make_gravity_traffic(g, {1.0, 1.0, 5});
    std::vector<std::uint8_t> alive(g.num_arcs(), 1);
    for (ArcId a : g.link_arcs(2)) alive[a] = 0;
    for (const ArcAliveMask mask : {ArcAliveMask{}, ArcAliveMask{alive}}) {
      const ClassRouting r(g, c.costs, tm, mask);
      const std::vector<double> want = reference_loads(g, c.costs, tm, mask, r);
      double total = 0.0;
      for (ArcId a = 0; a < g.num_arcs(); ++a) {
        total += r.arc_load(a);
        EXPECT_LE(std::abs(r.arc_load(a) - want[a]), 1e-12 * std::abs(want[a]))
            << c.name << " arc " << a << " masked " << !mask.empty();
      }
      EXPECT_GT(total, 0.0) << c.name;
    }
  }
}

TEST(TightDagWalkTest, FlowWithoutTightArcStillThrows) {
  // Labels computed with every arc alive, then swept under a mask that kills
  // arcs those labels call tight: a node holding flow has no tight out-arc.
  Graph g(3);
  g.add_link(0, 1, 100.0, 1.0);
  g.add_link(1, 2, 100.0, 1.0);
  TrafficMatrix tm(3);
  tm.set(0, 2, 5.0);
  const std::vector<double> costs(g.num_arcs(), 1.0);
  std::vector<std::vector<double>> labels(3);
  for (NodeId t = 0; t < 3; ++t) shortest_distances_to(g, t, costs, {}, labels[t]);
  for (const LinkId dead : {LinkId{0}, LinkId{1}}) {  // at the source / mid-path
    std::vector<std::uint8_t> alive(g.num_arcs(), 1);
    for (ArcId a : g.link_arcs(dead)) alive[a] = 0;
    ClassRouting r;
    EXPECT_THROW(r.compute_with_labels(g, costs, tm, alive, labels), std::logic_error)
        << "dead link " << dead;
  }
  ClassRouting consistent;
  EXPECT_NO_THROW(consistent.compute_with_labels(g, costs, tm, {}, labels));
  EXPECT_DOUBLE_EQ(consistent.arc_load(g.link_arcs(1)[0]), 5.0);
}

// ------------------------------------------------------------ path enumeration

TEST(EcmpPathsTest, DiamondYieldsBothPaths) {
  const Graph g = test::make_diamond();
  const std::vector<double> costs(g.num_arcs(), 1.0);
  const auto paths = enumerate_ecmp_paths(g, costs, 0, 3);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0], (std::vector<NodeId>{0, 1, 3}));
  EXPECT_EQ(paths[1], (std::vector<NodeId>{0, 2, 3}));
}

TEST(EcmpPathsTest, WeightsPruneToUniquePath) {
  const Graph g = test::make_diamond();
  WeightSetting w(g.num_links());
  w.set(TrafficClass::kDelay, 0, 5);  // 0-1 expensive
  std::vector<double> costs;
  w.arc_costs(g, TrafficClass::kDelay, costs);
  const auto paths = enumerate_ecmp_paths(g, costs, 0, 3);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0], (std::vector<NodeId>{0, 2, 3}));
}

TEST(EcmpPathsTest, RespectsMaskAndUnreachable) {
  const Graph g = test::make_diamond();
  const std::vector<double> costs(g.num_arcs(), 1.0);
  std::vector<std::uint8_t> alive(g.num_arcs(), 1);
  for (ArcId a : g.link_arcs(0)) alive[a] = 0;  // no 0-1
  const auto paths = enumerate_ecmp_paths(g, costs, 0, 3, alive);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0], (std::vector<NodeId>{0, 2, 3}));

  for (ArcId a : g.link_arcs(1)) alive[a] = 0;  // no 0-2 either
  EXPECT_TRUE(enumerate_ecmp_paths(g, costs, 0, 3, alive).empty());
}

TEST(EcmpPathsTest, MaxPathsCap) {
  // Chain of diamonds: 2^k paths; cap must bound the enumeration.
  Graph g(7);
  g.add_link(0, 1, 100.0, 1.0);
  g.add_link(0, 2, 100.0, 1.0);
  g.add_link(1, 3, 100.0, 1.0);
  g.add_link(2, 3, 100.0, 1.0);
  g.add_link(3, 4, 100.0, 1.0);
  g.add_link(3, 5, 100.0, 1.0);
  g.add_link(4, 6, 100.0, 1.0);
  g.add_link(5, 6, 100.0, 1.0);
  const std::vector<double> costs(g.num_arcs(), 1.0);
  EXPECT_EQ(enumerate_ecmp_paths(g, costs, 0, 6).size(), 4u);
  EXPECT_EQ(enumerate_ecmp_paths(g, costs, 0, 6, {}, 3).size(), 3u);
}

TEST(EcmpPathsTest, EveryPathIsShortelyTight) {
  // All enumerated paths must have equal cost == dist(s,t).
  const test::TestInstance inst = test::make_test_instance(10, 4.0, 19);
  WeightSetting w(inst.graph.num_links());
  Rng rng(4);
  randomize_weights(w, 30, rng);
  std::vector<double> costs;
  w.arc_costs(inst.graph, TrafficClass::kThroughput, costs);
  std::vector<double> dist;
  shortest_distances_to(inst.graph, 7, costs, {}, dist);
  const auto paths = enumerate_ecmp_paths(inst.graph, costs, 0, 7);
  ASSERT_FALSE(paths.empty());
  for (const auto& path : paths) {
    EXPECT_EQ(path.front(), 0u);
    EXPECT_EQ(path.back(), 7u);
    double cost = 0.0;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      bool found = false;
      for (ArcId a : inst.graph.out_arcs(path[i])) {
        if (inst.graph.arc(a).dst == path[i + 1]) {
          cost += costs[a];
          found = true;
          break;
        }
      }
      ASSERT_TRUE(found);
    }
    EXPECT_DOUBLE_EQ(cost, dist[0]);
  }
}

TEST(EcmpPathsTest, Validation) {
  const Graph g = test::make_diamond();
  const std::vector<double> costs(g.num_arcs(), 1.0);
  EXPECT_THROW(enumerate_ecmp_paths(g, costs, 99, 0), std::out_of_range);
  EXPECT_TRUE(enumerate_ecmp_paths(g, costs, 2, 2).empty());  // s == t
}

// ------------------------------------------------------------ failures

TEST(FailuresTest, EnumerationCounts) {
  const Graph g = test::make_diamond();
  EXPECT_EQ(all_link_failures(g).size(), g.num_links());
  EXPECT_EQ(all_node_failures(g).size(), g.num_nodes());
}

TEST(FailuresTest, LinkMaskKillsBothArcs) {
  const Graph g = test::make_diamond();
  std::vector<std::uint8_t> mask;
  build_alive_mask(g, FailureScenario::link(1), mask);
  int dead = 0;
  for (ArcId a = 0; a < g.num_arcs(); ++a)
    if (!mask[a]) {
      ++dead;
      EXPECT_EQ(g.arc(a).link, 1u);
    }
  EXPECT_EQ(dead, 2);
}

TEST(FailuresTest, NodeMaskKillsIncidentArcs) {
  const Graph g = test::make_diamond();
  std::vector<std::uint8_t> mask;
  build_alive_mask(g, FailureScenario::node(0), mask);
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const bool incident = g.arc(a).src == 0 || g.arc(a).dst == 0;
    EXPECT_EQ(mask[a] == 0, incident);
  }
}

TEST(FailuresTest, NoneMaskAllAlive) {
  const Graph g = test::make_diamond();
  std::vector<std::uint8_t> mask;
  build_alive_mask(g, FailureScenario::none(), mask);
  for (auto m : mask) EXPECT_EQ(m, 1);
}

TEST(FailuresTest, SkippedNodes) {
  const auto node = FailureScenario::node(3);
  ASSERT_EQ(skipped_nodes(node).size(), 1u);
  EXPECT_EQ(skipped_nodes(node)[0], 3u);
  EXPECT_TRUE(skipped_nodes(FailureScenario::link(3)).empty());
  EXPECT_TRUE(skipped_nodes(FailureScenario::none()).empty());
  EXPECT_TRUE(skipped_nodes(FailureScenario::link_pair(1, 2)).empty());
  const auto compound = FailureScenario::compound({0}, {5, 2, 5});
  ASSERT_EQ(skipped_nodes(compound).size(), 2u);  // canonical: sorted, deduped
  EXPECT_EQ(skipped_nodes(compound)[0], 2u);
  EXPECT_EQ(skipped_nodes(compound)[1], 5u);
  EXPECT_TRUE(is_skipped(skipped_nodes(compound), 5));
  EXPECT_FALSE(is_skipped(skipped_nodes(compound), 3));
}

TEST(FailuresTest, LinkPairMaskKillsBothLinks) {
  const Graph g = test::make_diamond();
  std::vector<std::uint8_t> mask;
  build_alive_mask(g, FailureScenario::link_pair(0, 2), mask);
  int dead = 0;
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    if (mask[a]) continue;
    ++dead;
    EXPECT_TRUE(g.arc(a).link == 0 || g.arc(a).link == 2);
  }
  EXPECT_EQ(dead, 4);
}

TEST(FailuresTest, SampleDualLinkFailuresDistinct) {
  const Graph g = test::make_ring(8);
  Rng rng(3);
  const auto scenarios = sample_dual_link_failures(g, 10, rng);
  EXPECT_EQ(scenarios.size(), 10u);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_EQ(scenarios[i].kind, FailureScenario::Kind::kLinkPair);
    EXPECT_NE(scenarios[i].id, scenarios[i].id2);
    EXPECT_LT(scenarios[i].id, scenarios[i].id2);  // canonical order
    for (std::size_t j = i + 1; j < scenarios.size(); ++j)
      EXPECT_FALSE(scenarios[i] == scenarios[j]);
  }
}

TEST(FailuresTest, SampleDualLinkFailuresValidation) {
  Graph g(2);
  g.add_link(0, 1, 100.0, 1.0);
  Rng rng(1);
  EXPECT_THROW(sample_dual_link_failures(g, 3, rng), std::invalid_argument);
}

TEST(FailuresTest, ToStringAndValidation) {
  EXPECT_EQ(to_string(FailureScenario::link(2)), "link#2");
  EXPECT_EQ(to_string(FailureScenario::node(7)), "node#7");
  EXPECT_EQ(to_string(FailureScenario::none()), "none");
  EXPECT_EQ(to_string(FailureScenario::link_pair(1, 3)), "links#1+3");
  const Graph g = test::make_diamond();
  std::vector<std::uint8_t> mask;
  EXPECT_THROW(build_alive_mask(g, FailureScenario::link(99), mask), std::out_of_range);
  EXPECT_THROW(build_alive_mask(g, FailureScenario::node(99), mask), std::out_of_range);
}

}  // namespace
}  // namespace dtr
