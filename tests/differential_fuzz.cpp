/// Differential fuzzer for the incremental evaluation engine.
///
/// Every accelerated path in the repo carries the same contract: results must
/// be BYTE-identical to the full recompute. The unit suites pin that contract
/// on fixed seeds; this harness hammers it with fresh randomness under a time
/// budget — CI passes a per-run seed (echoed below for replay) so every run
/// explores new instances.
///
/// Five layers are fuzzed against their reference implementations:
///   1. delta_spf_update_arcs (weight deltas: increases, decreases, and
///      dead-arc removals, multi-link change lists) vs a full Dijkstra;
///   2. failure-scenario evaluation (single links, link pairs, links-only
///      compound scenarios, node failures, compounds failing nodes and
///      links) incremental vs full, on paper-style and generated ISP graphs;
///   3. weight-delta probe patching (Phase-1 probe shape: neighbors of an
///      anchored incumbent) vs scratch-built bases, plus the cross-trial
///      shared-labels path of evaluate_fluctuations vs per-trial evaluators.
///      Layers 2-3 also run a tie leg with all-equal or {1,2} weights, where
///      equal-distance nodes and multi-arc ECMP splits are everywhere;
///   4. a short seeded LocalSearch (Phase-1 and Phase-2 objective shapes,
///      speculative probing, promotion on accept and restart, exact-mode
///      failure samples) through the anchored evaluator vs the full one:
///      accepted moves and final costs must match byte for byte;
///   5. the per-pair delays of the anchored evaluator (full, patched and
///      weight-delta routings, node failures, both delay modes) vs the
///      sort-based oracle of test_helpers.h on paper-style and generated ISP
///      graphs. The anchored and full evaluators share one DP over the
///      routings' stored tight DAGs, so comparing them cannot catch a DAG
///      both read wrong; the oracle re-derives labels and tightness itself.
///
/// Usage: differential_fuzz [--seed N] [--budget-seconds S]
/// Exit code 0 = no divergence inside the budget; 1 = divergence (a repro
/// line with the seed and iteration is printed first).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/local_search.h"
#include "cost/sla.h"
#include "experiments/campaign.h"
#include "experiments/workloads.h"
#include "graph/spf.h"
#include "graph/topology.h"
#include "routing/evaluator.h"
#include "routing/failures.h"
#include "routing/weights.h"
#include "util/rng.h"
#include "util/thread_pool.h"

#include "test_helpers.h"

namespace dtr {
namespace {

std::uint64_t g_seed = 0;
std::uint64_t g_iteration = 0;
int g_failures = 0;

void report_divergence(const char* layer, const std::string& detail) {
  std::fprintf(stderr,
               "DIVERGENCE in %s at iteration %llu (replay with --seed %llu)\n  %s\n",
               layer, static_cast<unsigned long long>(g_iteration),
               static_cast<unsigned long long>(g_seed), detail.c_str());
  ++g_failures;
}

bool bytes_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool results_identical(const EvalResult& a, const EvalResult& b) {
  return std::memcmp(&a.lambda, &b.lambda, sizeof(double)) == 0 &&
         std::memcmp(&a.phi, &b.phi, sizeof(double)) == 0 &&
         a.sla_violations == b.sla_violations &&
         a.disconnected_delay_pairs == b.disconnected_delay_pairs &&
         a.disconnected_tput_pairs == b.disconnected_tput_pairs &&
         bytes_equal(a.arc_total_load, b.arc_total_load) &&
         bytes_equal(a.arc_utilization, b.arc_utilization) &&
         bytes_equal(a.sd_delay_ms, b.sd_delay_ms) &&
         a.carries_delay_traffic == b.carries_delay_traffic;
}

Graph random_graph(Rng& rng) {
  SynthTopoParams params;
  params.num_nodes = rng.uniform_int(8, 18);
  params.avg_degree = 3.0 + static_cast<double>(rng.uniform_int(0, 20)) / 10.0;
  params.capacity_mbps = 500.0;
  params.seed = rng.split().seed();
  return make_rand_topo(params);
}

/// Layer 1: raw delta-SPF weight updates vs full Dijkstra, every destination.
void fuzz_delta_spf(Rng& rng) {
  const Graph g = random_graph(rng);
  std::vector<double> costs(g.num_arcs());
  std::vector<double> link_weight(g.num_links());
  for (double& w : link_weight) w = static_cast<double>(rng.uniform_int(1, 20));
  for (ArcId a = 0; a < g.num_arcs(); ++a) costs[a] = link_weight[g.arc(a).link];

  // Change 1-3 links: new random weight, or removal via the alive mask.
  const int changed = rng.uniform_int(1, 3);
  std::vector<double> new_costs = costs;
  std::vector<std::uint8_t> alive(g.num_arcs(), 1);
  std::vector<ArcCostDelta> changes;
  for (int c = 0; c < changed; ++c) {
    const LinkId l = static_cast<LinkId>(
        rng.uniform_int(0, static_cast<int>(g.num_links()) - 1));
    if (!changes.empty() && g.link_arcs(l)[0] == changes[0].arc) continue;
    const bool remove = rng.uniform_int(0, 3) == 0;
    const double w = static_cast<double>(rng.uniform_int(1, 40));
    for (ArcId a : g.link_arcs(l)) {
      changes.push_back({a, costs[a]});
      if (remove)
        alive[a] = 0;
      else
        new_costs[a] = w;
    }
  }

  DeltaSpfScratch scratch;
  std::vector<double> base, delta, full;
  for (NodeId t = 0; t < g.num_nodes(); ++t) {
    shortest_distances_to(g, t, costs, {}, base);
    delta = base;
    const std::ptrdiff_t touched = delta_spf_update_arcs(g, new_costs, alive, changes,
                                                         delta, g.num_nodes(), scratch);
    if (touched < 0) {
      if (delta != base)
        report_divergence("delta_spf_update_arcs",
                          "abort left dist modified, dest " + std::to_string(t));
      continue;
    }
    shortest_distances_to(g, t, new_costs, alive, full);
    if (!bytes_equal(delta, full))
      report_divergence("delta_spf_update_arcs", "dest " + std::to_string(t));
  }
}

/// A seeded paper-style random graph of 8-14 nodes, or a generated ISP
/// graph of 24-48 routers.
experiments::Workload fuzz_workload(Rng& rng, bool isp) {
  experiments::WorkloadSpec spec;
  if (isp) {
    spec.kind = experiments::TopologyKind::kIsp;
    spec.isp_source = experiments::IspSource::kGenerated;
    spec.nodes = rng.uniform_int(24, 48);
    spec.isp_pops = rng.uniform_int(3, 6);
  } else {
    spec.kind = experiments::TopologyKind::kRand;
    spec.nodes = rng.uniform_int(8, 14);
    spec.degree = 3.0 + static_cast<double>(rng.uniform_int(0, 15)) / 10.0;
  }
  spec.seed = rng.split().seed();
  return experiments::make_workload(spec);
}

/// Layers 2+3: full evaluation stack — scenarios and weight-delta donors.
/// The incumbent's weights are drawn from [1, wmax] and probe weights from
/// [1, max(wmax, 2)], so wmax = 1 starts from all-equal weights.
void fuzz_evaluator(Rng& rng, int wmax, bool isp) {
  const experiments::Workload w = fuzz_workload(rng, isp);
  const int num_links = static_cast<int>(w.graph.num_links());
  const int num_nodes = static_cast<int>(w.graph.num_nodes());

  EvaluatorConfig fast_cfg;  // defaults: anchored, with probe patching
  EvaluatorConfig full_cfg;
  full_cfg.incremental = false;
  const Evaluator fast(w.graph, w.traffic, w.params, fast_cfg);
  const Evaluator full(w.graph, w.traffic, w.params, full_cfg);

  WeightSetting incumbent(w.graph.num_links());
  randomize_weights(incumbent, wmax, rng);

  // Scenario soup: the none case, random links, a pair, a links-only
  // compound, a node failure, and a compound failing 1-2 nodes plus links
  // (the anchored side patches them all).
  std::vector<FailureScenario> scenarios;
  scenarios.push_back(FailureScenario::none());
  for (int i = 0; i < 4; ++i)
    scenarios.push_back(FailureScenario::link(
        static_cast<LinkId>(rng.uniform_int(0, num_links - 1))));
  scenarios.push_back(
      FailureScenario::link_pair(static_cast<LinkId>(rng.uniform_int(0, num_links - 1)),
                                 static_cast<LinkId>(rng.uniform_int(0, num_links - 1))));
  {
    std::vector<LinkId> links;
    for (int i = 0, k = rng.uniform_int(2, 4); i < k; ++i)
      links.push_back(static_cast<LinkId>(rng.uniform_int(0, num_links - 1)));
    scenarios.push_back(FailureScenario::compound(std::move(links)));
  }
  scenarios.push_back(
      FailureScenario::node(static_cast<NodeId>(rng.uniform_int(0, num_nodes - 1))));
  {
    std::vector<LinkId> links;
    std::vector<NodeId> nodes;
    for (int i = 0, k = rng.uniform_int(1, 2); i < k; ++i)
      nodes.push_back(static_cast<NodeId>(rng.uniform_int(0, num_nodes - 1)));
    for (int i = 0, k = rng.uniform_int(1, 3); i < k; ++i)
      links.push_back(static_cast<LinkId>(rng.uniform_int(0, num_links - 1)));
    scenarios.push_back(FailureScenario::compound(std::move(links), std::move(nodes)));
  }

  // The incumbent, then Phase-1-probe-shaped neighbors (1-2 changed links):
  // after the first evaluation the fast evaluator's one-link probes are
  // patched from the anchor.
  std::vector<WeightSetting> settings;
  settings.push_back(incumbent);
  for (int p = 0; p < 3; ++p) {
    WeightSetting probe = incumbent;
    for (int c = 0, k = rng.uniform_int(1, 2); c < k; ++c) {
      const LinkId l = static_cast<LinkId>(rng.uniform_int(0, num_links - 1));
      const TrafficClass cls =
          rng.uniform_int(0, 1) == 0 ? TrafficClass::kDelay : TrafficClass::kThroughput;
      probe.set(cls, l, rng.uniform_int(1, std::max(wmax, 2)));
    }
    settings.push_back(probe);
  }

  for (std::size_t s = 0; s < settings.size(); ++s) {
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const EvalResult a = fast.evaluate(settings[s], scenarios[i], EvalDetail::kFull);
      const EvalResult b = full.evaluate(settings[s], scenarios[i], EvalDetail::kFull);
      if (!results_identical(a, b))
        report_divergence("evaluate", std::string(isp ? "isp" : "rand") + " wmax " +
                                          std::to_string(wmax) + " setting " +
                                          std::to_string(s) + " scenario " +
                                          std::to_string(i) + " (" +
                                          to_string(scenarios[i]) + ")");
    }
  }

  // Cross-trial shared-labels path of evaluate_fluctuations vs the per-trial
  // reference, on a small stress block.
  experiments::FluctuationSpec fluct;
  fluct.model = experiments::FluctuationSpec::Model::kGaussian;
  fluct.trials = rng.uniform_int(2, 4);
  std::vector<LinkId> top;
  for (int i = 0, k = rng.uniform_int(2, 4); i < k; ++i)
    top.push_back(static_cast<LinkId>(rng.uniform_int(0, num_links - 1)));
  const std::uint64_t fluct_seed = rng.split().seed();
  const auto shared = experiments::evaluate_fluctuations(w, settings, top, fluct,
                                                         fluct_seed, nullptr, fast_cfg);
  const auto reference = experiments::evaluate_fluctuations(w, settings, top, fluct,
                                                            fluct_seed, nullptr, full_cfg);
  for (std::size_t r = 0; r < shared.size(); ++r) {
    if (!bytes_equal(shared[r].mean_violations, reference[r].mean_violations) ||
        !bytes_equal(shared[r].std_violations, reference[r].std_violations) ||
        !bytes_equal(shared[r].mean_phi, reference[r].mean_phi) ||
        !bytes_equal(shared[r].std_phi, reference[r].std_phi))
      report_divergence("evaluate_fluctuations",
                        "wmax " + std::to_string(wmax) + " routing " + std::to_string(r));
  }
}

/// Layer 4 objective: the optimizer's objective shapes over one evaluator.
/// Phase-1 shape scores K_normal; Phase-2 shape patches a probe once and
/// sweeps its failure set from it under the incumbent's abort bound, with a
/// Phi_normal cap as its constraint. Both promote every adopted setting.
class FuzzObjective final : public SearchObjective {
 public:
  FuzzObjective(const Evaluator& ev, std::vector<FailureScenario> scenarios, double phi_cap)
      : ev_(ev), scenarios_(std::move(scenarios)), phi_cap_(phi_cap) {}

  std::optional<CostPair> evaluate(const WeightSetting& w,
                                   const CostPair* incumbent) override {
    if (scenarios_.empty()) return ev_.evaluate(w).cost();
    const EvalProbe probe = ev_.probe(w);
    if (probe.cost().phi > phi_cap_) return std::nullopt;
    return ev_.sweep(probe, scenarios_, {.abort_bound = incumbent}).cost();
  }
  void adopt(const WeightSetting& w) override { ev_.promote(w); }

 private:
  const Evaluator& ev_;
  std::vector<FailureScenario> scenarios_;
  double phi_cap_;
};

struct SearchTrace {
  std::vector<MoveRecord> moves;
  std::vector<CostPair> samples;  ///< exact-mode samples, in probe order
  LocalSearch::Result result;
};

SearchTrace run_search(const Evaluator& ev, const std::vector<FailureScenario>& scenarios,
                       const WeightSetting& initial, double phi_cap, std::uint64_t seed,
                       ThreadPool* pool) {
  SearchTrace trace;
  FuzzObjective objective(ev, scenarios, phi_cap);
  LocalSearch search({{3, 2, 0.01, 0, 6}, 20, seed, pool});
  search.set_on_move([&](const MoveRecord& m) { trace.moves.push_back(m); });
  // Exact-mode criticality samples: the candidate under its own link's
  // failure, which the anchored evaluator serves from the incumbent's anchor.
  search.set_observer([&](const PerturbationEvent& e) {
    if (e.link % 3 == 0)
      trace.samples.push_back(ev.evaluate(*e.candidate, FailureScenario::link(e.link)).cost());
  });
  trace.result = search.run(objective, initial);
  return trace;
}

bool same_costs(const CostPair& a, const CostPair& b) {
  return std::memcmp(&a.lambda, &b.lambda, sizeof(double)) == 0 &&
         std::memcmp(&a.phi, &b.phi, sizeof(double)) == 0;
}

/// Layer 4: seeded local searches, anchored vs full recompute.
void fuzz_search(Rng& rng) {
  experiments::WorkloadSpec spec;
  spec.kind = experiments::TopologyKind::kRand;
  spec.nodes = rng.uniform_int(8, 12);
  spec.degree = 3.0 + static_cast<double>(rng.uniform_int(0, 15)) / 10.0;
  spec.seed = rng.split().seed();
  const experiments::Workload w = experiments::make_workload(spec);
  const int num_links = static_cast<int>(w.graph.num_links());
  WeightSetting initial(w.graph.num_links());
  randomize_weights(initial, 20, rng);
  const std::uint64_t seed = rng.split().seed();
  std::vector<FailureScenario> critical;
  for (int i = 0, k = rng.uniform_int(2, 4); i < k; ++i)
    critical.push_back(
        FailureScenario::link(static_cast<LinkId>(rng.uniform_int(0, num_links - 1))));

  ThreadPool pool(3);
  for (const bool phase2 : {false, true}) {
    const std::vector<FailureScenario> scenarios =
        phase2 ? critical : std::vector<FailureScenario>{};
    const Evaluator anchored(w.graph, w.traffic, w.params, {});
    const Evaluator full(w.graph, w.traffic, w.params, {.incremental = false});
    const double phi_cap = 1.2 * full.evaluate(initial).phi;  // initial is feasible
    const SearchTrace a =
        run_search(anchored, scenarios, initial, phi_cap, seed, phase2 ? nullptr : &pool);
    const SearchTrace b = run_search(full, scenarios, initial, phi_cap, seed, nullptr);
    const std::string shape = phase2 ? "phase-2 shape" : "phase-1 shape";
    bool same = a.moves.size() == b.moves.size() && a.samples.size() == b.samples.size() &&
                a.result.best == b.result.best &&
                same_costs(a.result.best_cost, b.result.best_cost) &&
                a.result.evaluations == b.result.evaluations;
    for (std::size_t i = 0; same && i < a.moves.size(); ++i)
      same = a.moves[i].iteration == b.moves[i].iteration &&
             a.moves[i].evaluations == b.moves[i].evaluations &&
             a.moves[i].link == b.moves[i].link && a.moves[i].restart == b.moves[i].restart &&
             same_costs(a.moves[i].cost, b.moves[i].cost);
    for (std::size_t i = 0; same && i < a.samples.size(); ++i)
      same = same_costs(a.samples[i], b.samples[i]);
    if (!same) report_divergence("local search", shape);
  }
}

/// Layer 5: evaluator per-pair delays vs the independent sort-based oracle.
void fuzz_delay_oracle(Rng& rng, bool isp) {
  experiments::Workload w = fuzz_workload(rng, isp);
  if (rng.uniform_int(0, 1) == 1) w.params.sla_delay_mode = SlaDelayMode::kWorstPath;
  const Graph& g = w.graph;
  const int num_links = static_cast<int>(g.num_links());
  const Evaluator ev(g, w.traffic, w.params, {});

  // Random or tie-heavy incumbent, then one-link probes patched from it.
  const int wmax = rng.uniform_int(0, 1) == 0 ? 20 : rng.uniform_int(1, 2);
  std::vector<WeightSetting> settings(1, WeightSetting(g.num_links()));
  randomize_weights(settings[0], wmax, rng);
  for (int p = 0; p < 2; ++p) {
    WeightSetting probe = settings[0];
    probe.set(TrafficClass::kDelay, static_cast<LinkId>(rng.uniform_int(0, num_links - 1)),
              rng.uniform_int(1, std::max(wmax, 2)));
    settings.push_back(probe);
  }
  std::vector<FailureScenario> scenarios{FailureScenario::none()};
  for (int i = 0; i < 3; ++i)
    scenarios.push_back(
        FailureScenario::link(static_cast<LinkId>(rng.uniform_int(0, num_links - 1))));
  scenarios.push_back(
      FailureScenario::link_pair(static_cast<LinkId>(rng.uniform_int(0, num_links - 1)),
                                 static_cast<LinkId>(rng.uniform_int(0, num_links - 1))));
  scenarios.push_back(FailureScenario::node(
      static_cast<NodeId>(rng.uniform_int(0, static_cast<int>(g.num_nodes()) - 1))));

  const GraphCsr& csr = g.csr();
  const double disconnect_delay = w.params.sla.theta_ms + w.params.disconnect_delay_excess_ms;
  std::vector<double> costs, arc_delay(g.num_arcs());
  std::vector<std::uint8_t> mask;
  for (std::size_t s = 0; s < settings.size(); ++s) {
    settings[s].arc_costs(g, TrafficClass::kDelay, costs);
    for (const FailureScenario& scenario : scenarios) {
      const EvalResult r = ev.evaluate(settings[s], scenario, EvalDetail::kFull);
      build_alive_mask(g, scenario, mask);
      for (ArcId a = 0; a < g.num_arcs(); ++a)
        arc_delay[a] = link_delay_ms(r.arc_total_load[a], csr.capacity[a],
                                     csr.prop_delay_ms[a], w.params.delay_model);
      std::vector<double> want = test::reference_delays(
          g, costs, mask, arc_delay, w.traffic.delay, w.params.sla_delay_mode,
          test::all_labels(g, costs, mask), skipped_nodes(scenario));
      accumulate_sla_cost(want, w.params.sla, disconnect_delay);
      if (!bytes_equal(r.sd_delay_ms, want))
        report_divergence("delay DP vs oracle",
                          std::string(isp ? "isp" : "rand") + " wmax " +
                              std::to_string(wmax) + " mode " +
                              std::to_string(static_cast<int>(w.params.sla_delay_mode)) +
                              " setting " + std::to_string(s) + " (" +
                              to_string(scenario) + ")");
    }
  }
}

}  // namespace
}  // namespace dtr

int main(int argc, char** argv) {
  std::uint64_t seed = 0;
  double budget_seconds = 20.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--budget-seconds" && i + 1 < argc) {
      budget_seconds = std::strtod(argv[++i], nullptr);
    } else {
      std::fprintf(stderr, "usage: %s [--seed N] [--budget-seconds S]\n", argv[0]);
      return 2;
    }
  }
  if (seed == 0) seed = 0x9e3779b97f4a7c15ull;  // fixed default for local runs
  dtr::g_seed = seed;
  std::printf("differential_fuzz: seed=%llu budget=%.1fs (replay: --seed %llu)\n",
              static_cast<unsigned long long>(seed), budget_seconds,
              static_cast<unsigned long long>(seed));
  std::fflush(stdout);

  dtr::Rng rng(seed);
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::duration<double>(budget_seconds);
  while (std::chrono::steady_clock::now() < deadline && dtr::g_failures == 0) {
    ++dtr::g_iteration;
    dtr::fuzz_delta_spf(rng);
    dtr::fuzz_evaluator(rng, 20, /*isp=*/false);
    dtr::fuzz_evaluator(rng, rng.uniform_int(1, 2), /*isp=*/false);  // tie leg
    dtr::fuzz_evaluator(rng, rng.uniform_int(0, 1) == 0 ? 20 : 2, /*isp=*/true);
    dtr::fuzz_search(rng);
    dtr::fuzz_delay_oracle(rng, /*isp=*/false);
    dtr::fuzz_delay_oracle(rng, /*isp=*/true);
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  std::printf("differential_fuzz: %llu iterations in %.1fs, %d divergences\n",
              static_cast<unsigned long long>(dtr::g_iteration), elapsed,
              dtr::g_failures);
  return dtr::g_failures == 0 ? 0 : 1;
}
