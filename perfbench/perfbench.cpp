/// perfbench: the end-to-end and per-layer benchmark of the dtr library.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--source-id <id>] [--out-dir <dir>]
///
/// Workloads (see BENCHMARK.json for why each was chosen):
///   paper30-optimize  two-phase optimize() on the paper-scale 30-node fixture
///   isp300-sweep      all-link failure sweep + what-if stream on ISP-300
///   isp300-optimize   two-phase optimize() on ISP-300 with pinned budgets
///
/// --trace 0 prints the end-to-end metrics (telemetry detached); --trace 1
/// attaches a telemetry registry, replays the workload's evaluation shapes
/// through each layer's public functions under benchmark-side spans, and
/// prints the per-layer metrics. The last stdout line is the result object.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/optimizer.h"
#include "cost/fortz.h"
#include "cost/sla.h"
#include "experiments/workloads.h"
#include "graph/spf.h"
#include "ledger.h"
#include "routing/route_state.h"
#include "telemetry/telemetry.h"
#include "util/thread_pool.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace dtr;
using namespace dtr::experiments;
using perfbench::CheckTally;
using perfbench::MetricSet;
using perfbench::SpanLog;

enum class Kind { kPaper30Optimize, kIsp300Sweep, kIsp300Optimize };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string source_id = "unknown";
  std::string out_dir;
};

// ---------------------------------------------------------------------------
// Workload definitions. The instance (topology, traffic, swept weights,
// optimizer seed) is pinned so quality metrics repeat exactly and there is
// one ISP-300 definition; --seed draws the node-failure sample, the what-if
// stream order, the verification samples and the replayed probe weights.
// ---------------------------------------------------------------------------

constexpr std::size_t kNodeSample = 32;
constexpr std::size_t kCheckLinks = 16;
constexpr std::size_t kCheckNodes = 4;
constexpr std::size_t kFidelityProbes = 8;
constexpr std::uint64_t kInstanceSeed = 1;

Kind parse_kind(const std::string& name) {
  if (name == "paper30-optimize") return Kind::kPaper30Optimize;
  if (name == "isp300-sweep") return Kind::kIsp300Sweep;
  if (name == "isp300-optimize") return Kind::kIsp300Optimize;
  throw std::invalid_argument("unknown workload: " + name);
}

WorkloadSpec workload_spec(Kind kind) {
  WorkloadSpec spec;
  spec.seed = kInstanceSeed;
  if (kind == Kind::kPaper30Optimize) {
    spec.kind = TopologyKind::kRand;
    spec.nodes = 30;
    spec.degree = 4.0;
  } else {
    // The ISP-300 definition shared with BM_IspScale* and the isp_smoke
    // golden: 300 routers, 12 PoPs (582 links).
    spec.kind = TopologyKind::kIsp;
    spec.isp_source = IspSource::kGenerated;
    spec.nodes = 300;
    spec.isp_pops = 12;
  }
  return spec;
}

OptimizerConfig optimizer_config(Kind kind) {
  if (kind == Kind::kPaper30Optimize) {
    // Quick-effort ratios with iteration caps so one optimize() fits a run
    // several times over; Phase 2 keeps about three quarters of the time,
    // as in the uncapped quick run.
    OptimizerConfig c = default_optimizer_config(Effort::kQuick, kInstanceSeed);
    c.num_threads = 1;
    c.phase1.max_iterations = 30;
    c.phase2.max_iterations = 90;
    return c;
  }
  // BM_IspScaleOptimize's pinned budgets, Phase 1 cut to one iteration.
  OptimizerConfig c = default_optimizer_config(Effort::kSmoke, kInstanceSeed);
  c.num_threads = 1;
  c.max_phase1b_samples = 500;
  c.phase1.max_iterations = 1;
  c.phase2.max_iterations = 1;
  c.critical_count = 8;
  return c;
}

/// Independent seeded stream per purpose, so adding draws to one purpose
/// never shifts another's.
Rng stream(std::uint64_t seed, std::uint64_t purpose) {
  return Rng(seed * 0x9E3779B97F4A7C15ULL + purpose);
}

std::vector<std::size_t> shuffled(std::size_t n, Rng& rng) {
  std::vector<std::size_t> v(n);
  std::iota(v.begin(), v.end(), std::size_t{0});
  for (std::size_t i = n; i > 1; --i) std::swap(v[i - 1], v[rng.uniform_index(i)]);
  return v;
}

/// Generated inputs of one workload. Evaluators keep references into it, so
/// it is created once and never moved.
struct Instance {
  Workload workload;
  std::vector<FailureScenario> catalog;  ///< all link failures, then the node sample
  std::size_t num_links = 0;
  WeightSetting swept;  ///< isp300-sweep's pinned random weights
};

std::unique_ptr<Instance> make_instance(Kind kind, std::uint64_t seed) {
  auto inst = std::make_unique<Instance>();
  inst->workload = make_workload(workload_spec(kind));
  const Graph& g = inst->workload.graph;
  inst->catalog = all_link_failures(g);
  inst->num_links = inst->catalog.size();
  Rng node_rng = stream(seed, 1);
  const std::vector<std::size_t> nodes = shuffled(g.num_nodes(), node_rng);
  for (std::size_t i = 0; i < std::min(kNodeSample, nodes.size()); ++i)
    inst->catalog.push_back(FailureScenario::node(static_cast<NodeId>(nodes[i])));
  if (kind == Kind::kIsp300Sweep) {
    inst->swept = WeightSetting(g.num_links());
    Rng weight_rng(kInstanceSeed);
    randomize_weights(inst->swept, 30, weight_rng);
  }
  return inst;
}

std::unique_ptr<Evaluator> make_evaluator(const Instance& inst,
                                          telemetry::Registry* registry = nullptr,
                                          bool incremental = true) {
  EvaluatorConfig config;
  config.incremental = incremental;
  config.telemetry = registry;
  return std::make_unique<Evaluator>(inst.workload.graph, inst.workload.traffic,
                                     inst.workload.params, config);
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(perfbench::now_ns() - start_ns) * 1e-9;
}

bool bit_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool bit_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_costs(const EvalResult& a, const EvalResult& b) {
  return bit_equal(a.lambda, b.lambda) && bit_equal(a.phi, b.phi) &&
         a.sla_violations == b.sla_violations &&
         a.disconnected_delay_pairs == b.disconnected_delay_pairs &&
         a.disconnected_tput_pairs == b.disconnected_tput_pairs;
}

bool same_cost_pair(const CostPair& a, const CostPair& b) {
  return bit_equal(a.lambda, b.lambda) && bit_equal(a.phi, b.phi);
}

// ---------------------------------------------------------------------------
// Timed units.
// ---------------------------------------------------------------------------

/// Closed-loop what-if stream: one evaluate_failures call per scenario, the
/// next sent when the previous returns, in `order`, for at least `cycles`
/// passes and `min_seconds`. Latencies append to `acc`; the first pass stores
/// each result at its catalog position, and every later pass (this call or a
/// later one) must repeat it bit for bit.
struct StreamResult {
  std::vector<EvalResult> results;
  std::vector<double> link_ms;
  std::vector<double> node_ms;
};

void what_if_stream(const Evaluator& ev, const WeightSetting& w, const Instance& inst,
                    const std::vector<std::size_t>& order, std::size_t cycles,
                    double min_seconds, StreamResult& acc, CheckTally& checks) {
  const std::uint64_t start = perfbench::now_ns();
  for (std::size_t cycle = 0; cycle < cycles || seconds_since(start) < min_seconds; ++cycle) {
    const bool first = acc.results.empty();
    if (first) acc.results.resize(inst.catalog.size());
    for (const std::size_t idx : order) {
      const std::uint64_t t0 = perfbench::now_ns();
      std::vector<EvalResult> r =
          ev.evaluate_failures(w, std::span(&inst.catalog[idx], 1));
      const double ms = seconds_since(t0) * 1e3;
      (idx < inst.num_links ? acc.link_ms : acc.node_ms).push_back(ms);
      if (first)
        acc.results[idx] = std::move(r.front());
      else
        checks.check(same_costs(r.front(), acc.results[idx]),
                     "what-if stream repeat of " + to_string(inst.catalog[idx]));
    }
  }
}

/// Summed SLA cost and summed Phi/Phi_uncap over the single-link failures,
/// in link order (independent of the stream order).
std::pair<double, double> link_failure_sums(const Evaluator& ev,
                                            std::span<const EvalResult> results,
                                            std::size_t num_links) {
  double lambda = 0.0, phi = 0.0;
  for (std::size_t l = 0; l < num_links; ++l) {
    lambda += results[l].lambda;
    phi += results[l].phi / ev.phi_uncap();
  }
  return {lambda, phi};
}

struct OptimizeUnit {
  std::unique_ptr<Evaluator> evaluator;
  OptimizeResult result;
  double wall_s = 0.0;
};

OptimizeUnit run_optimize(const Instance& inst, Kind kind, telemetry::Registry* registry) {
  OptimizeUnit unit;
  unit.evaluator = make_evaluator(inst, registry);
  OptimizerConfig config = optimizer_config(kind);
  config.telemetry = registry;
  RobustOptimizer optimizer(*unit.evaluator, config);
  const std::uint64_t t0 = perfbench::now_ns();
  unit.result = optimizer.optimize();
  unit.wall_s = seconds_since(t0);
  return unit;
}

bool same_optimize(const OptimizeResult& a, const OptimizeResult& b) {
  return a.regular == b.regular && a.robust == b.robust &&
         same_cost_pair(a.regular_cost, b.regular_cost) &&
         same_cost_pair(a.robust_kfail, b.robust_kfail) &&
         same_cost_pair(a.robust_normal_cost, b.robust_normal_cost) &&
         a.critical == b.critical && a.phase1_evaluations == b.phase1_evaluations &&
         a.phase2_evaluations == b.phase2_evaluations;
}

/// Pass A of isp300-sweep: one evaluate_failures batch over the link catalog.
struct PassA {
  std::unique_ptr<Evaluator> evaluator;
  std::vector<EvalResult> results;
  double wall_s = 0.0;
};

PassA run_pass_a(const Instance& inst, telemetry::Registry* registry, ThreadPool* pool) {
  PassA pass;
  pass.evaluator = make_evaluator(inst, registry);
  const std::span links(inst.catalog.data(), inst.num_links);
  const std::uint64_t t0 = perfbench::now_ns();
  pass.results = pass.evaluator->evaluate_failures(inst.swept, links, pool);
  pass.wall_s = seconds_since(t0);
  return pass;
}

/// Runs `unit` until `seconds` would be overrun by another one (at least
/// once); returns the number of units run.
template <typename Unit>
std::size_t repeat_for(double seconds, Unit&& unit) {
  const std::uint64_t start = perfbench::now_ns();
  std::size_t runs = 0;
  double last = 0.0;
  do {
    const std::uint64_t t0 = perfbench::now_ns();
    unit(runs);
    last = seconds_since(t0);
    ++runs;
  } while (seconds_since(start) + last <= seconds);
  return runs;
}

/// Reference checks shared by every workload: a seeded sample of link and
/// node scenarios recomputed on a full-recompute evaluator must match the
/// workload's results bit for bit.
void check_reference_sample(const Instance& inst, const WeightSetting& w,
                            std::span<const EvalResult> results, std::uint64_t seed,
                            CheckTally& checks) {
  const auto reference = make_evaluator(inst, nullptr, /*incremental=*/false);
  Rng rng = stream(seed, 2);
  const std::vector<std::size_t> links = shuffled(inst.num_links, rng);
  std::vector<std::size_t> picks(links.begin(),
                                 links.begin() + std::min(kCheckLinks, links.size()));
  for (std::size_t i = 0; i < std::min(kCheckNodes, inst.catalog.size() - inst.num_links); ++i)
    picks.push_back(inst.num_links + i);
  for (const std::size_t idx : picks)
    checks.check(same_costs(reference->evaluate(w, inst.catalog[idx]), results[idx]),
                 "reference recompute of " + to_string(inst.catalog[idx]));
}

/// Optimize-workload checks: robust_normal_cost and robust_kfail re-evaluated
/// on a fresh full-recompute evaluator, and constraint (6).
void check_optimize_result(const Instance& inst, const OptimizeResult& r, double chi,
                           CheckTally& checks) {
  const auto reference = make_evaluator(inst, nullptr, /*incremental=*/false);
  checks.check(same_cost_pair(reference->evaluate(r.robust).cost(), r.robust_normal_cost),
               "robust_normal_cost on the reference evaluator");
  std::vector<FailureScenario> critical;
  for (const LinkId l : r.critical) critical.push_back(FailureScenario::link(l));
  checks.check(same_cost_pair(reference->sweep(r.robust, critical).cost(), r.robust_kfail),
               "robust_kfail on the reference evaluator");
  const double bound = (1.0 + chi) * r.regular_cost.phi + LexicographicOrder{}.abs_tol();
  checks.check(r.robust_normal_cost.phi <= bound, "constraint (6): phi_robust <= (1+chi) phi*");
}

/// Peak resident set of this process image (VmHWM). Unlike getrusage's
/// ru_maxrss it is not inherited across exec, so the launcher's own memory
/// does not leak into the figure.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

// ---------------------------------------------------------------------------
// End-to-end run (--trace 0).
// ---------------------------------------------------------------------------

/// Workload generation + Evaluator construction, timed. Batches run at
/// several points of the run, so the median spans the run rather than the
/// machine's state at its start.
class SetupSampler {
 public:
  SetupSampler(Kind kind, std::uint64_t seed) : kind_(kind), seed_(seed) {}

  /// At least 3 setups and 50 ms.
  void batch() {
    const std::uint64_t start = perfbench::now_ns();
    for (int reps = 0; reps < 3 || seconds_since(start) < 0.05; ++reps) {
      const std::uint64_t t0 = perfbench::now_ns();
      const auto inst = make_instance(kind_, seed_);
      const auto ev = make_evaluator(*inst);
      samples_.push_back(seconds_since(t0));
    }
  }

  double median() const { return perfbench::median(samples_); }
  std::size_t count() const { return samples_.size(); }

 private:
  Kind kind_;
  std::uint64_t seed_;
  std::vector<double> samples_;
};

std::size_t stream_cycles(std::size_t num_links) {
  const std::size_t need = perfbench::samples_needed(98.0);
  return (need + num_links - 1) / num_links;
}

void add_latency_metrics(MetricSet& m, const StreamResult& s, CheckTally& checks) {
  checks.check(perfbench::samples_beyond(s.link_ms.size(), 98.0) >= perfbench::kMinSamplesBeyond,
               "link_ms_p98 has at least 10 samples beyond it");
  const auto n_link = static_cast<double>(s.link_ms.size());
  m.add("link_ms_p50", perfbench::median(s.link_ms), "ms", n_link, "samples");
  m.add("link_ms_p98", perfbench::percentile(s.link_ms, 98.0), "ms",
        static_cast<double>(perfbench::samples_beyond(s.link_ms.size(), 98.0)),
        "samples beyond");
  m.add("node_ms_p50", perfbench::median(s.node_ms), "ms",
        static_cast<double>(s.node_ms.size()), "samples");
}

struct RunOutput {
  MetricSet metrics;
  CheckTally checks;
  std::size_t units = 0;
  std::vector<double> unit_walls;  ///< per-unit timed-region seconds
  std::size_t nodes = 0, links = 0, node_scenarios = 0;  ///< input size
};

void record_input(RunOutput& out, const Instance& inst) {
  out.nodes = inst.workload.graph.num_nodes();
  out.links = inst.num_links;
  out.node_scenarios = inst.catalog.size() - inst.num_links;
}

RunOutput run_end_to_end(Kind kind, const Options& opt) {
  RunOutput out;
  SetupSampler setup(kind, opt.seed);
  setup.batch();
  const auto inst = make_instance(kind, opt.seed);
  record_input(out, *inst);
  Rng order_rng = stream(opt.seed, 3);
  const std::vector<std::size_t> order = shuffled(inst->catalog.size(), order_rng);

  std::vector<double>& walls = out.unit_walls;
  StreamResult what_if;
  std::pair<double, double> sums;
  if (kind == Kind::kIsp300Sweep) {
    out.units = repeat_for(opt.seconds, [&](std::size_t i) {
      PassA pass = run_pass_a(*inst, nullptr, nullptr);
      walls.push_back(pass.wall_s);
      setup.batch();
      // Pass B: the same evaluator answers the stream, one call per scenario.
      what_if_stream(*pass.evaluator, inst->swept, *inst, order, 1, 0.0, what_if, out.checks);
      for (std::size_t l = 0; l < inst->num_links; ++l)
        out.checks.check(same_costs(pass.results[l], what_if.results[l]),
                         "pass A == pass B for " + to_string(inst->catalog[l]));
      if (i == 0) sums = link_failure_sums(*pass.evaluator, pass.results, inst->num_links);
      setup.batch();
    });
    check_reference_sample(*inst, inst->swept, what_if.results, opt.seed, out.checks);
  } else {
    // After each optimize(), a slice of the what-if stream over the robust
    // weights on the evaluator that produced them (warm, as an operator
    // would query it), at least 0.1 s long so the latencies are spread over
    // the whole run; topped up at the end to the p98 sample count.
    const std::size_t cycles = stream_cycles(inst->num_links);
    const std::size_t per_unit = (cycles + 2) / 3;
    OptimizeResult first;
    std::unique_ptr<Evaluator> last;
    out.units = repeat_for(opt.seconds, [&](std::size_t i) {
      OptimizeUnit unit = run_optimize(*inst, kind, nullptr);
      walls.push_back(unit.wall_s);
      if (i == 0)
        first = unit.result;
      else
        out.checks.check(same_optimize(unit.result, first), "optimize() repeats bit for bit");
      what_if_stream(*unit.evaluator, first.robust, *inst, order, per_unit, 0.1, what_if,
                     out.checks);
      last = std::move(unit.evaluator);
      setup.batch();
    });
    const std::size_t done = what_if.link_ms.size() / inst->num_links;
    if (done < cycles)
      what_if_stream(*last, first.robust, *inst, order, cycles - done, 0.0, what_if, out.checks);
    sums = link_failure_sums(*last, what_if.results, inst->num_links);
    check_reference_sample(*inst, first.robust, what_if.results, opt.seed, out.checks);
    check_optimize_result(*inst, first, optimizer_config(kind).chi, out.checks);
  }

  MetricSet& m = out.metrics;
  m.add("setup_s", setup.median(), "s", static_cast<double>(setup.count()), "setups");
  m.add("wall_s", perfbench::median(walls), "s", static_cast<double>(walls.size()), "units");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  add_latency_metrics(m, what_if, out.checks);
  m.add("robust_fail_lambda", sums.first, "cost", static_cast<double>(inst->num_links),
        "link failures");
  m.add("robust_fail_phi", sums.second, "phi/phi_uncap", static_cast<double>(inst->num_links),
        "link failures");
  return out;
}

// ---------------------------------------------------------------------------
// Traced run (--trace 1): layer replays under benchmark-side spans.
// ---------------------------------------------------------------------------

/// Per-layer work counts accumulated by the replays (times come from spans).
struct LayerCounts {
  std::uint64_t spf_full_dests = 0;
  std::uint64_t full_computes = 0;  ///< ClassRouting::compute pairs (both classes)
  std::uint64_t delta_calls = 0;
  std::uint64_t delta_touched = 0;
  std::uint64_t delta_affected = 0;
  std::uint64_t delta_fallbacks = 0;
  std::uint64_t patched_scenarios = 0;
  std::uint64_t full_scenarios = 0;
  std::uint64_t probes = 0;
  PatchStats patch;
};

/// The evaluator's no-failure base, rebuilt from the public layer functions
/// exactly as Evaluator::build_base does (eager records).
struct ReplayBase {
  std::vector<double> cost_delay, cost_tput;
  ClassRouting delay, tput;
  RoutingBaseRecord delay_record, tput_record;
  std::vector<double> total_load, arc_delay, sd_delay;
  DelayDpIndex dp_index;
};

class LayerReplay {
 public:
  LayerReplay(const Instance& inst, SpanLog& log, LayerCounts& counts)
      : g_(inst.workload.graph), wl_(inst.workload), log_(log), counts_(counts) {
    fraction_ = EvaluatorConfig{}.incremental_max_affected_fraction;
    const std::size_t n = g_.num_nodes();
    cap_ = static_cast<std::size_t>(fraction_ * static_cast<double>(n));
  }

  void build_base(const WeightSetting& w, ReplayBase& b) {
    SpanLog::Scope span(log_, "replay.base");
    w.arc_costs(g_, TrafficClass::kDelay, b.cost_delay);
    w.arc_costs(g_, TrafficClass::kThroughput, b.cost_tput);
    full_spf(b.cost_delay, b.cost_tput, {}, -1);
    {
      SpanLog::Scope s(log_, "routing.compute");
      b.delay.compute(g_, b.cost_delay, wl_.traffic.delay, {}, {}, &b.delay_record);
      b.tput.compute(g_, b.cost_tput, wl_.traffic.throughput, {}, {}, &b.tput_record);
    }
    ++counts_.full_computes;
    link_delays(b.delay, b.tput, b.total_load, b.arc_delay);
    b.delay.end_to_end_delays(g_, b.cost_delay, {}, b.arc_delay, wl_.traffic.delay,
                              wl_.params.sla_delay_mode, {}, b.sd_delay, &b.dp_index);
    accumulate_sla_cost(b.sd_delay, wl_.params.sla, disconnect_delay());
  }

  /// One failure scenario through the layers; returns the per-arc total load
  /// and the post-aggregation per-pair delays (for the fidelity check).
  void failure(const ReplayBase& b, const FailureScenario& s, std::int64_t id,
               EvalResult& out) {
    SpanLog::Scope span(log_, "replay.scenario", id);
    build_alive_mask(g_, s, mask_);
    const std::span<const NodeId> skip = skipped_nodes(s);
    if (skip.empty()) {
      removed_.clear();
      for_each_failed_arc(g_, s, [&](ArcId a) { removed_.push_back(a); });
      delta_spf(b);
      scratch_.reset_stats();
      {
        SpanLog::Scope t(log_, "routing.load_patch", id);
        delay_.compute_from_base(g_, b.cost_delay, wl_.traffic.delay, b.delay, b.delay_record,
                                 removed_, mask_, fraction_, scratch_);
        tput_.compute_from_base(g_, b.cost_tput, wl_.traffic.throughput, b.tput,
                                b.tput_record, removed_, mask_, fraction_, scratch_);
      }
      tail_delays(id);
      {
        SpanLog::Scope t(log_, "routing.delay_dp", id);
        delay_.end_to_end_delays_from_base(g_, b.cost_delay, mask_, arc_delay_,
                                           wl_.traffic.delay, wl_.params.sla_delay_mode,
                                           b.arc_delay, b.sd_delay, b.dp_index, scratch_,
                                           sd_delay_);
      }
      counts_.patch.merge(scratch_.stats());
      ++counts_.patched_scenarios;
    } else {
      full_spf(b.cost_delay, b.cost_tput, mask_, id);
      {
        SpanLog::Scope t(log_, "routing.compute", id);
        delay_.compute(g_, b.cost_delay, wl_.traffic.delay, mask_, skip);
        tput_.compute(g_, b.cost_tput, wl_.traffic.throughput, mask_, skip);
      }
      ++counts_.full_computes;
      tail_delays(id);
      {
        SpanLog::Scope t(log_, "routing.delay_dp_full", id);
        delay_.end_to_end_delays(g_, b.cost_delay, mask_, arc_delay_, wl_.traffic.delay,
                                 wl_.params.sla_delay_mode, skip, sd_delay_);
      }
      ++counts_.full_scenarios;
    }
    tail_costs(id, out);
  }

  /// One single-link weight probe off the base: both classes patched with
  /// compute_from_weight_delta. With `out` the probe's no-failure evaluation
  /// is completed (delays + costs) for the fidelity check.
  void probe(const ReplayBase& b, const WeightSetting& probed, LinkId link, EvalResult* out) {
    probed.arc_costs(g_, TrafficClass::kDelay, probe_delay_);
    probed.arc_costs(g_, TrafficClass::kThroughput, probe_tput_);
    delay_changes_.clear();
    tput_changes_.clear();
    for (const ArcId a : g_.link_arcs(link)) {
      if (probe_delay_[a] != b.cost_delay[a]) delay_changes_.push_back({a, b.cost_delay[a]});
      if (probe_tput_[a] != b.cost_tput[a]) tput_changes_.push_back({a, b.cost_tput[a]});
    }
    {
      SpanLog::Scope t(log_, "routing.weight_delta", link);
      delay_.compute_from_weight_delta(g_, probe_delay_, wl_.traffic.delay, b.delay,
                                       b.delay_record, delay_changes_, fraction_, scratch_);
      tput_.compute_from_weight_delta(g_, probe_tput_, wl_.traffic.throughput, b.tput,
                                      b.tput_record, tput_changes_, fraction_, scratch_);
    }
    ++counts_.probes;
    if (out == nullptr) return;
    link_delays(delay_, tput_, total_load_, arc_delay_);
    delay_.end_to_end_delays(g_, probe_delay_, {}, arc_delay_, wl_.traffic.delay,
                             wl_.params.sla_delay_mode, {}, sd_delay_);
    costs(*out);
  }

 private:
  double disconnect_delay() const {
    return wl_.params.sla.theta_ms + wl_.params.disconnect_delay_excess_ms;
  }

  void full_spf(std::span<const double> cost_delay, std::span<const double> cost_tput,
                ArcAliveMask alive, std::int64_t id) {
    SpanLog::Scope t(log_, "graph.spf_full", id);
    for (const auto cost : {cost_delay, cost_tput})
      for (NodeId dest = 0; dest < g_.num_nodes(); ++dest)
        shortest_distances_to(g_, dest, cost, alive, dist_);
    counts_.spf_full_dests += 2 * g_.num_nodes();
  }

  void delta_spf(const ReplayBase& b) {
    SpanLog::Scope t(log_, "graph.spf_delta");
    const std::pair<const ClassRouting*, std::span<const double>> classes[] = {
        {&b.delay, b.cost_delay}, {&b.tput, b.cost_tput}};
    for (const auto& [routing, cost] : classes) {
      for (NodeId dest = 0; dest < g_.num_nodes(); ++dest) {
        dist_ = routing->distances()[dest];
        const std::ptrdiff_t touched =
            delta_spf_remove_arcs(g_, cost, mask_, removed_, dist_, cap_, delta_scratch_);
        ++counts_.delta_calls;
        if (touched < 0) {
          ++counts_.delta_fallbacks;
        } else if (touched > 0) {
          ++counts_.delta_touched;
          counts_.delta_affected += static_cast<std::uint64_t>(touched);
        }
      }
    }
  }

  void link_delays(const ClassRouting& delay, const ClassRouting& tput,
                   std::vector<double>& total_load, std::vector<double>& arc_delay) const {
    const GraphCsr& csr = g_.csr();
    total_load.resize(g_.num_arcs());
    arc_delay.resize(g_.num_arcs());
    for (ArcId a = 0; a < g_.num_arcs(); ++a) {
      total_load[a] = delay.arc_load(a) + tput.arc_load(a);
      arc_delay[a] = link_delay_ms(total_load[a], csr.capacity[a], csr.prop_delay_ms[a],
                                   wl_.params.delay_model);
    }
  }

  void tail_delays(std::int64_t id) {
    SpanLog::Scope t(log_, "cost.tail", id);
    link_delays(delay_, tput_, total_load_, arc_delay_);
  }

  void tail_costs(std::int64_t id, EvalResult& out) {
    SpanLog::Scope t(log_, "cost.tail", id);
    costs(out);
  }

  /// The evaluator's cost tail: SLA cost over the pair delays (mutated in
  /// place), then the Fortz sum over throughput-carrying arcs.
  void costs(EvalResult& out) {
    out = EvalResult{};
    const SlaAggregate sla = accumulate_sla_cost(sd_delay_, wl_.params.sla, disconnect_delay());
    out.lambda = sla.lambda;
    out.sla_violations = sla.violations;
    out.disconnected_delay_pairs = delay_.disconnected_demand_count();
    const GraphCsr& csr = g_.csr();
    for (ArcId a = 0; a < g_.num_arcs(); ++a) {
      if (tput_.arc_load(a) <= 0.0) continue;
      out.phi += fortz_cost(total_load_[a], csr.capacity[a]);
    }
    out.phi += kFortzMaxSlope * tput_.disconnected_demand_volume();
    out.disconnected_tput_pairs = tput_.disconnected_demand_count();
    out.arc_total_load = total_load_;
    out.sd_delay_ms = sd_delay_;
  }

  const Graph& g_;
  const Workload& wl_;
  SpanLog& log_;
  LayerCounts& counts_;
  double fraction_ = 0.0;
  std::size_t cap_ = 0;
  std::vector<std::uint8_t> mask_;
  std::vector<ArcId> removed_;
  std::vector<double> dist_, total_load_, arc_delay_, sd_delay_, probe_delay_, probe_tput_;
  std::vector<ArcCostDelta> delay_changes_, tput_changes_;
  ClassRouting delay_, tput_;
  FailureScratch scratch_;
  DeltaSpfScratch delta_scratch_;
};

/// Replay fidelity: the replay's per-arc total load and per-pair delays (and
/// costs) must equal Evaluator::evaluate(..., kFull) bit for bit.
void check_fidelity(const EvalResult& replay, const EvalResult& program, const std::string& what,
                    CheckTally& checks) {
  checks.check(same_costs(replay, program) &&
                   bit_equal(replay.arc_total_load, program.arc_total_load) &&
                   bit_equal(replay.sd_delay_ms, program.sd_delay_ms),
               "replay fidelity: " + what);
}

/// Failure-shape replay: `scenarios` under `w`, `cycles` times, rebuilding
/// the base each cycle (a Phase-2 candidate builds its base, then patches the
/// critical scenarios). Positions in `fidelity` (first cycle) are checked.
void replay_failures(LayerReplay& replay, const Instance& inst, const WeightSetting& w,
                     std::span<const FailureScenario> scenarios, std::size_t cycles,
                     const std::vector<std::size_t>& fidelity, CheckTally& checks) {
  const auto program = make_evaluator(inst);
  ReplayBase base;
  EvalResult out;
  for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
    replay.build_base(w, base);
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      replay.failure(base, scenarios[i], static_cast<std::int64_t>(i), out);
      if (cycle == 0 && std::find(fidelity.begin(), fidelity.end(), i) != fidelity.end())
        check_fidelity(out, program->evaluate(w, scenarios[i], EvalDetail::kFull),
                       to_string(scenarios[i]), checks);
    }
  }
}

/// Probe-shape replay: one single-link probe per link off `w` (new weights
/// drawn from the seed), as Phase 1 and Phase 2 probe; a seeded sample of
/// probes is checked against the program's no-failure evaluation.
void replay_probes(LayerReplay& replay, const Instance& inst, const WeightSetting& w,
                   std::uint64_t seed, CheckTally& checks) {
  const auto program = make_evaluator(inst);
  ReplayBase base;
  replay.build_base(w, base);
  Rng rng = stream(seed, 4);
  Rng pick_rng = stream(seed, 5);
  std::vector<std::size_t> picks = shuffled(w.num_links(), pick_rng);
  picks.resize(std::min(kFidelityProbes, picks.size()));
  const int wmax = OptimizerConfig{}.wmax;
  EvalResult out;
  for (LinkId l = 0; l < w.num_links(); ++l) {
    WeightSetting probed = w;
    probed.set(TrafficClass::kDelay, l, rng.uniform_int(1, wmax));
    probed.set(TrafficClass::kThroughput, l, rng.uniform_int(1, wmax));
    const bool check = std::find(picks.begin(), picks.end(), l) != picks.end();
    replay.probe(base, probed, l, check ? &out : nullptr);
    if (check)
      check_fidelity(out, program->evaluate(probed, FailureScenario::none(), EvalDetail::kFull),
                     "probe of link " + std::to_string(l), checks);
  }
}

/// Median cold evaluate() (base build) and warm evaluate() (cache hit).
std::pair<perfbench::Ratio, perfbench::Ratio> time_base_cache(const Instance& inst,
                                                              const WeightSetting& w) {
  const auto ev = make_evaluator(inst);
  std::vector<double> build_ms, hit_us;
  for (int i = 0; i < 5; ++i) {
    ev->invalidate_base_cache();
    const std::uint64_t t0 = perfbench::now_ns();
    (void)ev->evaluate(w);
    build_ms.push_back(seconds_since(t0) * 1e3);
  }
  for (int i = 0; i < 51; ++i) {
    const std::uint64_t t0 = perfbench::now_ns();
    (void)ev->evaluate(w);
    hit_us.push_back(seconds_since(t0) * 1e6);
  }
  return {{perfbench::median(build_ms), static_cast<double>(build_ms.size())},
          {perfbench::median(hit_us), static_cast<double>(hit_us.size())}};
}

/// One evaluate_failures batch over `count` evenly spaced link failures of
/// `w` (all of them when count >= the link count), on a fresh evaluator, with
/// `workers` workers; returns seconds. Even spacing keeps the sample's mix of
/// cheap and expensive failures, which the generator clusters by link id.
double time_link_batch(const Instance& inst, const WeightSetting& w, std::size_t count,
                       int workers) {
  const auto ev = make_evaluator(inst);
  std::unique_ptr<ThreadPool> pool;
  if (workers > 1) pool = std::make_unique<ThreadPool>(workers);
  count = std::min(count, inst.num_links);
  std::vector<FailureScenario> links;
  for (std::size_t i = 0; i < count; ++i) links.push_back(inst.catalog[i * inst.num_links / count]);
  const std::uint64_t t0 = perfbench::now_ns();
  (void)ev->evaluate_failures(w, links, pool.get());
  return seconds_since(t0);
}

RunOutput run_traced(Kind kind, const Options& opt, SpanLog& log) {
  RunOutput out;
  CheckTally& checks = out.checks;
  const auto inst = make_instance(kind, opt.seed);
  record_input(out, *inst);
  const std::size_t n = inst->workload.graph.num_nodes();
  telemetry::Registry registry;

  // Untraced and traced unit back to back: trace.overhead_pct.
  double untraced_s = 0.0, traced_s = 0.0;
  EvaluatorCacheStats cache;
  telemetry::Snapshot counters;
  OptimizeResult result;
  WeightSetting failure_weights, probe_weights;
  std::vector<FailureScenario> failure_set;
  std::size_t failure_cycles = 1;
  std::vector<std::size_t> fidelity;
  Rng fid_rng = stream(opt.seed, 2);
  if (kind == Kind::kIsp300Sweep) {
    const PassA plain = run_pass_a(*inst, nullptr, nullptr);
    untraced_s = plain.wall_s;
    PassA traced;
    {
      SpanLog::Scope span(log, "unit.traced");
      traced = run_pass_a(*inst, &registry, nullptr);
      Rng order_rng = stream(opt.seed, 3);
      const std::vector<std::size_t> order = shuffled(inst->catalog.size(), order_rng);
      StreamResult pass_b;
      what_if_stream(*traced.evaluator, inst->swept, *inst, order, 1, 0.0, pass_b, checks);
    }
    traced_s = traced.wall_s;
    for (std::size_t l = 0; l < inst->num_links; ++l)
      checks.check(same_costs(plain.results[l], traced.results[l]),
                   "traced pass A == untraced pass A");
    cache = traced.evaluator->base_cache_stats();
    failure_weights = probe_weights = inst->swept;
    failure_set = inst->catalog;
    const std::vector<std::size_t> links = shuffled(inst->num_links, fid_rng);
    fidelity.assign(links.begin(), links.begin() + kCheckLinks);
    for (std::size_t i = 0; i < kCheckNodes; ++i) fidelity.push_back(inst->num_links + i);
  } else {
    const OptimizeUnit plain = run_optimize(*inst, kind, nullptr);
    untraced_s = plain.wall_s;
    OptimizeUnit traced;
    {
      SpanLog::Scope span(log, "unit.traced");
      traced = run_optimize(*inst, kind, &registry);
    }
    traced_s = traced.wall_s;
    checks.check(same_optimize(plain.result, traced.result),
                 "traced optimize() == untraced optimize()");
    cache = traced.evaluator->base_cache_stats();
    result = traced.result;
    failure_weights = result.robust;
    probe_weights = result.regular;
    for (const LinkId l : result.critical) failure_set.push_back(FailureScenario::link(l));
    failure_cycles = std::max<std::size_t>(1, (64 + failure_set.size() - 1) / failure_set.size());
    fidelity = shuffled(failure_set.size(), fid_rng);
  }
  counters = registry.snapshot(telemetry::Plane::kDeterministic);

  // Layer replays on the workload's own inputs.
  LayerCounts c;
  LayerReplay replay(*inst, log, c);
  {
    SpanLog::Scope span(log, "replay.failures");
    replay_failures(replay, *inst, failure_weights, failure_set, failure_cycles, fidelity,
                    checks);
  }
  {
    SpanLog::Scope span(log, "replay.probes");
    replay_probes(replay, *inst, probe_weights, opt.seed, checks);
  }
  const auto [build_ms, hit_us] = time_base_cache(*inst, failure_weights);

  // Pool speedup: a link batch of the workload's output weights at one
  // worker over min(4, nproc) workers. On isp300-sweep that is pass A; the
  // optimize workloads take 128 evenly spaced links, which keeps the traced
  // ISP-300 optimize run well inside its time limit.
  const int workers =
      static_cast<int>(std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
  const std::size_t batch = kind == Kind::kIsp300Sweep ? inst->num_links : 128;
  const double one_worker_s = kind == Kind::kIsp300Sweep
                                  ? untraced_s
                                  : time_link_batch(*inst, failure_weights, batch, 1);
  const double pooled_s = time_link_batch(*inst, failure_weights, batch, workers);

  using perfbench::ratio;
  MetricSet& m = out.metrics;
  const double spf_full_s = log.total_seconds("graph.spf_full");
  m.add("graph.spf_full.us_per_dest",
        ratio(spf_full_s * 1e6, static_cast<double>(c.spf_full_dests)), "us", "dests");
  // Full-Dijkstra destinations of the traced unit: scratch base builds
  // (misses not donor-patched), full-path scenarios, and delta fallbacks.
  const double scratch_builds = static_cast<double>(cache.misses - cache.weight_patched);
  const double full_scns = static_cast<double>(counters.counter("eval.full"));
  m.add("graph.spf_full.dests",
        2.0 * static_cast<double>(n) * (scratch_builds + full_scns) +
            static_cast<double>(counters.counter("spf.dests_full_fallback")),
        "count", scratch_builds + full_scns, "full routings");
  m.add("graph.spf_delta.us_per_dest",
        ratio(log.total_seconds("graph.spf_delta") * 1e6, static_cast<double>(c.delta_calls)),
        "us", "dests");
  m.add("graph.spf_delta.affected_nodes",
        ratio(static_cast<double>(c.delta_affected), static_cast<double>(c.delta_touched)),
        "nodes", "touched dests");
  m.add("graph.spf_delta.fallback_share",
        ratio(static_cast<double>(c.delta_fallbacks), static_cast<double>(c.delta_calls)),
        "share", "dests");
  m.add("routing.load_full.ms",
        ratio((log.total_seconds("routing.compute") - spf_full_s) * 1e3,
              static_cast<double>(c.full_computes)),
        "ms", "routings");
  m.add("routing.load_patch.ms_per_scn",
        ratio(log.total_seconds("routing.load_patch") * 1e3,
              static_cast<double>(c.patched_scenarios)),
        "ms", "scenarios");
  m.add("routing.resweep_share",
        ratio(static_cast<double>(c.patch.dests_resweep),
              static_cast<double>(c.patch.dests_resweep + c.patch.dests_replayed)),
        "share", "dests");
  m.add("routing.weight_delta.ms_per_probe",
        ratio(log.total_seconds("routing.weight_delta") * 1e3, static_cast<double>(c.probes)),
        "ms", "probes");
  m.add("routing.delay_dp.ms_per_scn",
        ratio(log.total_seconds("routing.delay_dp") * 1e3,
              static_cast<double>(c.patched_scenarios)),
        "ms", "scenarios");
  m.add("routing.delay_dp.recompute_share",
        ratio(static_cast<double>(c.patch.delay_cols_recomputed),
              static_cast<double>(c.patch.delay_cols_recomputed + c.patch.delay_cols_replayed)),
        "share", "columns");
  m.add("evaluator.base.hit_ratio",
        ratio(static_cast<double>(cache.hits), static_cast<double>(cache.hits + cache.misses)),
        "share", "lookups");
  m.add("evaluator.base.donor_share",
        ratio(static_cast<double>(cache.weight_patched), static_cast<double>(cache.misses)),
        "share", "misses");
  m.add("evaluator.base.build_ms", build_ms, "ms", "builds");
  m.add("evaluator.base.hit_us", hit_us, "us", "lookups");
  m.add("evaluator.patched_share",
        ratio(static_cast<double>(counters.counter("eval.patched")),
              static_cast<double>(counters.counter("eval.scenarios"))),
        "share", "scenarios");
  m.add("cost.tail.us_per_scn",
        ratio(log.total_seconds("cost.tail") * 1e6,
              static_cast<double>(c.patched_scenarios + c.full_scenarios)),
        "us", "scenarios");
  const double optimize_s = result.phase1_seconds + result.phase1b_seconds + result.phase2_seconds;
  const auto evals =
      static_cast<double>(result.phase1_evaluations + result.phase2_evaluations);
  m.add("core.phase1a_s", result.phase1_seconds, "s");
  m.add("core.phase1b_s", result.phase1b_seconds, "s");
  m.add("core.phase2_s", result.phase2_seconds, "s");
  m.add("core.phase1_evals", static_cast<double>(result.phase1_evaluations), "count");
  m.add("core.phase2_evals", static_cast<double>(result.phase2_evaluations), "count");
  m.add("core.phase2_scn_evals", static_cast<double>(result.phase2_scenario_evaluations),
        "count");
  m.add("core.evals_per_s", ratio(evals, optimize_s), "1/s", "s");
  m.add("util.pool.speedup", ratio(one_worker_s, pooled_s), "x", "s");
  m.add("trace.overhead_pct", ratio((traced_s - untraced_s) * 100.0, untraced_s), "%", "s");
  out.units = 1;
  return out;
}

// ---------------------------------------------------------------------------
// Fingerprint, record, main.
// ---------------------------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// The full result record: fingerprint, inputs, and every metric with its
/// base. Printed before the result line and written to --out-dir.
std::string result_record(const Options& opt, const RunOutput& run) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"workload\": " << json_string(opt.workload) << ", \"seed\": " << opt.seed
     << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"seconds\": " << opt.seconds
     << ", \"fingerprint\": {\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu_model\": " << json_string(cpu_model())
     << ", \"compiler\": " << json_string(compiler())
     << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
     << ", \"source\": " << json_string(opt.source_id) << ", \"seed\": " << opt.seed << "}"
     << ", \"input\": {\"nodes\": " << run.nodes << ", \"links\": " << run.links
     << ", \"node_scenarios\": " << run.node_scenarios
     << ", \"units\": " << run.units << "}, \"unit_walls_s\": [";
  for (std::size_t i = 0; i < run.unit_walls.size(); ++i)
    os << (i ? ", " : "") << run.unit_walls[i];
  os << "], \"attempted\": " << run.checks.attempted()
     << ", \"failed\": " << run.checks.failed() << ", \"metrics\": [";
  const auto& ms = run.metrics.metrics();
  for (std::size_t i = 0; i < ms.size(); ++i) {
    os << (i ? ", " : "") << "{\"name\": " << json_string(ms[i].name)
       << ", \"value\": " << ms[i].value << ", \"unit\": " << json_string(ms[i].unit);
    if (!ms[i].base_unit.empty())
      os << ", \"base\": " << ms[i].base << ", \"base_unit\": " << json_string(ms[i].base_unit);
    os << '}';
  }
  os << "]}";
  return os.str();
}

Options parse_options(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (arg == "--source-id") {
      opt.source_id = value;
    } else if (arg == "--out-dir") {
      opt.out_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + arg);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  Kind kind;
  try {
    opt = parse_options(argc, argv);
    kind = parse_kind(opt.workload);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
  try {
    SpanLog log;
    const RunOutput run = opt.trace ? run_traced(kind, opt, log) : run_end_to_end(kind, opt);
    const std::string record = result_record(opt, run);
    std::cout << "perfbench " << opt.workload << " seed=" << opt.seed
              << " trace=" << opt.trace << " units=" << run.units << " checks "
              << run.checks.attempted() - run.checks.failed() << "/" << run.checks.attempted()
              << " passed\n";
    run.metrics.print_table(std::cout);
    std::cout << "record " << record << '\n';
    if (!opt.out_dir.empty()) {
      namespace fs = std::filesystem;
      fs::create_directories(opt.out_dir);
      const std::string stem = opt.workload + "-seed" + std::to_string(opt.seed) + "-trace" +
                               (opt.trace ? "1" : "0");
      std::ofstream(fs::path(opt.out_dir) / (stem + ".json")) << record << '\n';
      if (opt.trace) {
        std::ofstream spans(fs::path(opt.out_dir) / (stem + ".spans.json"));
        log.write_json(spans);
      }
    }
    perfbench::write_result_line(std::cout, run.metrics, run.checks);
    std::cout.flush();
    return std::cout ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
