#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cost/cost_types.h"
#include "cost/delay_model.h"
#include "cost/sla.h"
#include "graph/graph.h"
#include "routing/failures.h"
#include "routing/route_state.h"
#include "routing/weights.h"
#include "traffic/traffic_matrix.h"

namespace dtr::telemetry {
class Registry;
}

namespace dtr {

class ThreadPool;

/// Cost-model parameters shared by every evaluation (Sec. III / V-A3).
struct EvalParams {
  DelayModelParams delay_model;
  SlaParams sla;
  SlaDelayMode sla_delay_mode = SlaDelayMode::kExpected;
  /// A disconnected delay-sensitive pair is charged as a violation with this
  /// much excess delay over theta (it can never meet its SLA).
  double disconnect_delay_excess_ms = 100.0;
};

/// How much detail `evaluate` materializes. Costs-only keeps the search hot
/// path allocation-light; Full adds the per-arc and per-SD profiles the
/// figures need.
enum class EvalDetail : std::uint8_t { kCostsOnly, kFull };

/// Execution knobs for the incremental (delta-SPF) failure-evaluation fast
/// path. Separate from the cost-model EvalParams: these change HOW results
/// are computed, never WHAT — both paths produce bit-identical results
/// (test-enforced), so every incremental artifact can be cross-checked by
/// flipping `incremental` off.
struct EvaluatorConfig {
  /// Anchored evaluation. The evaluator keeps one ANCHOR base — both class
  /// routings of a weight setting plus their replay records, delay-DP index
  /// and no-failure products — and serves every evaluation from it:
  /// failure scenarios (single links, link pairs, nodes, compound scenarios
  /// such as SRLGs) are delta-patched from the base — distance labels
  /// delta-updated per destination, untouched destinations replaying their
  /// recorded load contributions, and a failed node's demands skipped — and
  /// no-failure evaluations of the anchor's weights are served from it
  /// outright. Off = every evaluation is a full recompute (the reference
  /// oracle).
  bool incremental = true;
  /// Per-destination fallback: when a failure invalidates more than this
  /// fraction of one destination's distance labels, that destination is
  /// recomputed with a full Dijkstra — past this point the delta bookkeeping
  /// stops paying for itself.
  double incremental_max_affected_fraction = 0.25;
  /// Incremental end-to-end delay DP: the base records a dirty-arc index
  /// (which destinations' DPs read which arc's delay); a patched scenario
  /// marks the destinations whose DAG changed or whose recorded arc delays
  /// are not bitwise identical to the base, runs the DP for those only, and
  /// replays the base's delay column for the rest — bit-identical by
  /// construction (same float terms, same order). Scenarios that fail a
  /// node run the full DP over their patched routing.
  bool incremental_delay = true;
  /// Weight-delta probe patching: weights differing from the anchor's on at
  /// most this many links (either class) get their base — labels, DAGs,
  /// loads, delay columns — delta-patched from the anchor
  /// (delta_spf_update_arcs + record replay) into a reusable probe buffer
  /// instead of rebuilt with full Dijkstras. Bit-identical to a scratch build
  /// by the same argument as the failure patch path. This is the local
  /// search's probe accelerator: every probe changes ONE link's weights off
  /// the incumbent. Weights farther away are built from scratch and become
  /// the new anchor. 0 disables patching: a no-failure probe is then built
  /// without replay records and leaves the anchor alone.
  std::size_t weight_delta_max_links = 1;
  /// Optional telemetry sink (borrowed; may be null). The BATCH entry points
  /// (evaluate_failures, evaluate_costs, sweep) fold their deterministic
  /// counters into it, aggregated per-scenario-slot and merged on the calling
  /// thread — byte-identical across worker/thread shapes. Single evaluate()
  /// calls never publish deterministic counters: the optimizer's speculative
  /// Phase-1 probing issues a shape-dependent NUMBER of them, so per-call
  /// publication would break the cross-shape identity. Anchor counters are
  /// shape-dependent and flow to the process plane only, via
  /// flush_cache_stats_to_telemetry(). Ignored while telemetry::enabled() is
  /// off.
  telemetry::Registry* telemetry = nullptr;
};

/// Counters of the evaluator's anchor (monotonic; snapshot via
/// Evaluator::base_cache_stats).
struct EvaluatorCacheStats {
  /// Base acquisitions the anchor served itself: its weights by value, or —
  /// for a single failure evaluation — equal on every link left alive.
  std::uint64_t hits = 0;
  /// Acquisitions that needed a base of their own (patched or built).
  std::uint64_t misses = 0;
  /// Misses whose base was delta-patched from the anchor (weights within
  /// weight_delta_max_links links) instead of rebuilt with full Dijkstras.
  std::uint64_t weight_patched = 0;
  /// Total arc-cost-change entries applied by those patches (both classes;
  /// 2 arcs per changed link on bidirectional topologies).
  std::uint64_t arcs_updated = 0;
  /// Anchor replacements: promotions plus scratch builds.
  std::uint64_t promotions = 0;
};

/// Deterministic per-evaluation counters of one scenario evaluation, folded
/// per-slot into the telemetry registry by the batch entry points. Every
/// field is a pure function of (weights, scenario, config) — never of the
/// execution shape.
struct EvalStats {
  std::uint64_t scenarios_patched = 0;      ///< rode the delta-SPF patch path
  std::uint64_t scenarios_full = 0;         ///< full per-scenario recompute
  std::uint64_t scenarios_served_none = 0;  ///< no-failure served from base
  PatchStats patch;                         ///< delta-SPF / replay / delay-DP detail

  void merge(const EvalStats& o);
};

struct EvalResult {
  double lambda = 0.0;  ///< SLA cost of delay-sensitive traffic
  double phi = 0.0;     ///< Fortz congestion cost of throughput-sensitive traffic
  int sla_violations = 0;
  std::size_t disconnected_delay_pairs = 0;
  std::size_t disconnected_tput_pairs = 0;

  // Populated only with EvalDetail::kFull:
  std::vector<double> arc_total_load;   ///< per arc, Mbps
  std::vector<double> arc_utilization;  ///< per arc, load / capacity
  /// xi(s,t) at [s*n+t] for pairs with delay demand; -1 elsewhere; kInfDist
  /// when disconnected.
  std::vector<double> sd_delay_ms;
  /// Per arc: 1 if the arc carries delay-sensitive traffic.
  std::vector<std::uint8_t> carries_delay_traffic;

  CostPair cost() const { return {lambda, phi}; }
};

/// Per-class destination distance labels for one (weights, failure scenario)
/// pair, shared across evaluators that differ only in their traffic matrix —
/// the cross-trial fast path of evaluate_fluctuations. Labels are a pure
/// function of weights + topology + failure (never of traffic), so one SPF
/// solve serves every perturbed-TM trial; each trial re-runs only load
/// aggregation and the cost tail. `delay[t][u]` / `tput[t][u]` must equal
/// what shortest_distances_to(g, t, costs, alive) produces for that class,
/// bit for bit.
struct SharedScenarioLabels {
  std::vector<std::vector<double>> delay;
  std::vector<std::vector<double>> tput;
};

class Evaluator;
struct EvalBase;  // defined in evaluator.cpp

/// A candidate weight setting held for several evaluations: its no-failure
/// base (the anchor itself, or a buffer delta-patched from it) plus its
/// no-failure costs. Phase 2 keeps one from the constraint check to the
/// failure sweep, so the candidate is patched once; the Phase-1b samplers
/// keep one per acceptable setting across their batches. Move-only; its
/// buffer returns to the evaluator when the handle dies. Must not outlive
/// the evaluator or the probed weights, and is used from one thread at a
/// time (batch calls on it still parallelize internally).
class EvalProbe {
 public:
  EvalProbe() = default;
  EvalProbe(EvalProbe&& other) noexcept;
  EvalProbe& operator=(EvalProbe&& other) noexcept;
  EvalProbe(const EvalProbe&) = delete;
  EvalProbe& operator=(const EvalProbe&) = delete;
  ~EvalProbe();

  const WeightSetting& weights() const { return *weights_; }
  /// No-failure costs of weights().
  CostPair cost() const { return cost_; }

 private:
  friend class Evaluator;
  const Evaluator* owner_ = nullptr;
  const WeightSetting* weights_ = nullptr;
  std::shared_ptr<EvalBase> base_;  ///< null when the evaluator is not incremental
  CostPair cost_;
};

/// One unit of batched evaluation work: a weight setting under a failure
/// scenario. The setting is `probe`'s when a probe is given — the job then
/// patches from the probe's base — and `*weights` otherwise, evaluated from
/// scratch. Either must outlive the batch call.
struct EvalJob {
  const WeightSetting* weights = nullptr;
  FailureScenario scenario = FailureScenario::none();
  /// Optional probe from the same evaluator; `weights` is ignored when set.
  const EvalProbe* probe = nullptr;
};

/// Aggregate over a scenario set (the Kfail sums of Eqs. (4)/(7)).
struct SweepResult {
  double lambda = 0.0;
  double phi = 0.0;
  /// Weighted sum of per-scenario SLA violation counts — the raw material of
  /// the expected-downtime objective (accumulated in the same ordered loop as
  /// lambda/phi, so it shares their determinism contract).
  double violations = 0.0;
  bool aborted = false;  ///< true if the early-abort bound was exceeded
  std::size_t scenarios_evaluated = 0;

  CostPair cost() const { return {lambda, phi}; }
};

/// Options of Evaluator::sweep, replacing its historical positional tail
/// (abort_bound, scenario_weights, pool, chunk_size). Spans and pointers are
/// borrowed — they must outlive the call, not the options object.
struct SweepOptions {
  /// Early-abort bound: the sweep stops as soon as the partial sums are
  /// lexicographically worse (sound because per-scenario terms are
  /// non-negative); SweepResult::aborted reports that outcome. This prunes
  /// most rejected Phase 2 candidates after a handful of evaluations.
  const CostPair* abort_bound = nullptr;
  /// Optional per-scenario weights (same length as the scenario span,
  /// non-negative): each scenario's contribution is multiplied by its weight,
  /// turning the sums into expectations over a probabilistic failure model.
  /// Early abort stays sound since weighted terms remain non-negative.
  std::span<const double> scenario_weights = {};
  /// When given (and > 1 worker), scenarios are evaluated in parallel rounds
  /// of `chunk_size * workers` while sums accumulate in scenario order with
  /// the abort bound checked after every term — so the returned SweepResult
  /// (sums, aborted flag AND scenarios_evaluated) is bit-identical to the
  /// sequential sweep for any worker count or chunk size; parallelism only
  /// costs up to one round of wasted evaluations past an abort point.
  ThreadPool* pool = nullptr;
  /// Round fan-out per worker; trades parallelism against post-abort waste
  /// (default 1 = the historical one-scenario-per-worker rounds).
  std::size_t chunk_size = 1;
  /// Reinterprets `abort_bound` for the expected-downtime objective: the
  /// lexicographic abort comparison runs on (violations, phi) instead of
  /// (lambda, phi) — abort_bound->lambda bounds the weighted violation sum.
  /// The lambda/phi/violations sums themselves are unchanged.
  bool abort_on_violations = false;
};

/// Evaluates DTR weight settings on a network instance: runs both class
/// routings (ECMP over each logical topology), derives total loads, link
/// delays, SLA costs and congestion costs — under normal conditions or any
/// failure scenario. The workhorse behind both optimization phases and all
/// experiment harnesses.
///
/// The evaluator never mutates the graph: failures are arc liveness masks.
///
/// Incremental evaluation is anchored (see EvaluatorConfig::incremental):
/// the evaluator holds one anchor base, the search's incumbent. Weights
/// equal to the anchor's are served from it; weights within
/// weight_delta_max_links links are delta-patched from it into a reusable
/// probe buffer; anything farther is built from scratch and becomes the new
/// anchor, so repeated calls on one weight vector outside a search reuse it.
/// A search names its incumbent explicitly through promote(). Every path is
/// bit-identical to a full recompute, so the anchor is never observable in
/// results.
class Evaluator {
 public:
  Evaluator(const Graph& g, const ClassedTraffic& traffic, EvalParams params,
            EvaluatorConfig config = {});
  ~Evaluator();

  const Graph& graph() const { return graph_; }
  const ClassedTraffic& traffic() const { return traffic_; }
  const EvalParams& params() const { return params_; }
  const EvaluatorConfig& config() const { return config_; }

  /// A single failure evaluation of weights that equal the anchor's on every
  /// link the scenario leaves alive patches from the anchor: a failed link's
  /// arcs carry no label and no load, so its weights are immaterial. This is
  /// how the Phase-1a exact-mode sample of a probe under its own link's
  /// failure rides the incumbent's base.
  EvalResult evaluate(const WeightSetting& w,
                      const FailureScenario& scenario = FailureScenario::none(),
                      EvalDetail detail = EvalDetail::kCostsOnly) const;

  /// Evaluation with caller-provided distance labels (see
  /// SharedScenarioLabels) instead of running any SPF: both class routings
  /// load-sweep over the given labels under the scenario's alive mask, then
  /// the ordinary cost tail runs — the same float ops as evaluate(), so the
  /// result is bit-identical whenever the labels match what the scenario's
  /// SPF would produce. Node-failure scenarios are rejected (their skip
  /// semantics change the demand set, not just arc liveness).
  EvalResult evaluate_with_labels(const WeightSetting& w, const FailureScenario& scenario,
                                  const SharedScenarioLabels& labels,
                                  EvalDetail detail = EvalDetail::kCostsOnly) const;

  /// Acquires `w`'s base as a probe handle (see EvalProbe). `w` must outlive
  /// the handle.
  EvalProbe probe(const WeightSetting& w) const;

  /// Makes `w` the anchor — the optimizer's accept and restart hooks call
  /// this with the new incumbent. A released probe buffer holding `w` with
  /// its replay records is swapped in; otherwise `w` is patched from the
  /// old anchor (or built), recording its replay data once. Thread-safe;
  /// probes still holding the old anchor keep it alive.
  void promote(const WeightSetting& w) const;

  /// Sums weighted Lambda/Phi/violations over `scenarios` under the options'
  /// early-abort / weighting / parallelism knobs (see SweepOptions). The
  /// workhorse behind every catalog-aggregation objective.
  SweepResult sweep(const WeightSetting& w, std::span<const FailureScenario> scenarios,
                    const SweepOptions& options = {}) const;
  SweepResult sweep(const EvalProbe& probe, std::span<const FailureScenario> scenarios,
                    const SweepOptions& options = {}) const;

  /// Per-scenario results (for the per-failure figures / metrics).
  std::vector<EvalResult> sweep_detailed(const WeightSetting& w,
                                         std::span<const FailureScenario> scenarios,
                                         EvalDetail detail = EvalDetail::kCostsOnly,
                                         ThreadPool* pool = nullptr) const;

  /// Batch failure-scenario evaluation: one EvalResult per scenario, all for
  /// the same weight setting. Arc costs are expanded once and shared across
  /// scenarios; each pool worker reuses its own SPF/routing scratch buffers.
  /// Results are bit-identical for any worker count (each scenario is an
  /// independent pure evaluation written to its own output slot).
  std::vector<EvalResult> evaluate_failures(const WeightSetting& w,
                                            std::span<const FailureScenario> scenarios,
                                            ThreadPool* pool = nullptr,
                                            EvalDetail detail = EvalDetail::kCostsOnly) const;
  std::vector<EvalResult> evaluate_failures(const EvalProbe& probe,
                                            std::span<const FailureScenario> scenarios,
                                            ThreadPool* pool = nullptr,
                                            EvalDetail detail = EvalDetail::kCostsOnly) const;

  /// Batch cost evaluation over heterogeneous (weights, scenario) jobs — the
  /// Phase 1b sampling workload. Same determinism contract as
  /// `evaluate_failures`.
  std::vector<CostPair> evaluate_costs(std::span<const EvalJob> jobs,
                                       ThreadPool* pool = nullptr) const;

  /// Uncapacitated min-hop reference cost: sum over demands of
  /// volume * hopcount. Figures report Phi / phi_uncap() (Fortz's Phi*
  /// normalization) so series are O(1).
  double phi_uncap() const { return phi_uncap_; }

  /// Number of SD pairs with positive delay-class demand.
  std::size_t delay_demand_pairs() const { return delay_pairs_; }

  /// Snapshot of the anchor counters (all zero when not incremental).
  /// Thread-safe.
  EvaluatorCacheStats base_cache_stats() const;

  /// Bytes held by the anchor and the idle probe buffers (vector
  /// capacities). Thread-safe.
  std::size_t base_bytes() const;

  /// Drops the anchor and the idle probe buffers (counters survive), for
  /// tests and for callers that want the memory back between workloads.
  /// Thread-safe, and `const` like the evaluation entry points: the anchor
  /// is pure acceleration state, never observable in results.
  void invalidate_base_cache() const;

  /// Publishes the anchor LIFETIME totals into the process plane of
  /// config().telemetry (`evaluator.base_cache.*`, `eval.weight_patched`,
  /// `spf.arcs_updated`) plus the `evaluator.base_bytes` gauge. Hit/miss
  /// counts depend on the execution shape (speculative probes), so they
  /// never enter the deterministic plane. The evaluator's owner calls this
  /// exactly once, when done with it — repeated flushes would double-count.
  /// No-op when telemetry is disabled or unset, or when not incremental.
  void flush_cache_stats_to_telemetry() const;

 private:
  friend class EvalProbe;

  /// Reusable per-evaluation buffers. One instance per worker thread; reusing
  /// it across scenario evaluations keeps the hot path allocation-free.
  struct Scratch {
    std::vector<std::uint8_t> mask;
    std::vector<double> cost_delay;
    std::vector<double> cost_tput;
    std::vector<double> total_load;
    std::vector<double> arc_delay;
    std::vector<double> sd_delay;
    std::vector<ArcId> removed;
    std::vector<ArcCostDelta> delay_changes;
    std::vector<ArcCostDelta> tput_changes;
    ClassRouting delay_routing;
    ClassRouting tput_routing;
    FailureScratch failure;
  };

  /// The anchor, the idle probe buffers and the counters (mutex-guarded;
  /// defined in evaluator.cpp).
  struct AnchorState;

  /// Core evaluation with pre-expanded arc costs and caller-owned scratch.
  /// A non-null `base` serves a no-failure scenario and, when it carries
  /// replay records, patches every other one (bit-identical to the full
  /// path). A non-null `stats` receives this one evaluation's deterministic
  /// counters (the caller owns aggregation order).
  EvalResult evaluate_impl(std::span<const double> cost_delay,
                           std::span<const double> cost_tput,
                           const FailureScenario& scenario, EvalDetail detail,
                           Scratch& scratch, const EvalBase* base = nullptr,
                           EvalStats* stats = nullptr) const;

  /// Everything downstream of the two class routings sitting in `scratch`:
  /// total loads, arc delays, the SLA delay path (incremental when `patched`
  /// with no skipped node and the base carries a DP index), cost
  /// aggregation, and the kFull detail. Shared by evaluate_impl and
  /// evaluate_with_labels so the float operations are literally the same
  /// code.
  EvalResult finish_scenario(std::span<const double> cost_delay,
                             std::span<const NodeId> skip, EvalDetail detail,
                             Scratch& s, bool patched, const EvalBase* base) const;

  /// The base to evaluate `w` from (see the class comment), or null when not
  /// incremental; carries replay records when `records` (for patching
  /// failures from it). With a `failure` scenario, the anchor also serves
  /// weights that differ from it only on links the scenario fails. The
  /// caller hands it back through release().
  std::shared_ptr<EvalBase> acquire(const WeightSetting& w, const FailureScenario& failure,
                                    bool records) const;

  /// A probe handle over `w`, acquiring its base (with records) only
  /// `with_base`; unlike probe() it leaves cost() unset when there is no
  /// base.
  EvalProbe bind(const WeightSetting& w, bool with_base) const;

  /// Returns a base from acquire(): a probe buffer goes back to the idle
  /// list, keeping its contents for promote().
  void release(std::shared_ptr<EvalBase> base) const;

  /// Fills `out` with `w`'s base: delta-patched from the anchor `from` when
  /// within weight_delta_max_links links (returns the number of arc-cost
  /// changes applied; records only when `records`), else built from scratch
  /// with its replay records (returns 0).
  std::size_t fill_base(const WeightSetting& w, const EvalBase* from, EvalBase& out,
                        bool records) const;

  /// No-failure total loads, arc delays, delay columns and aggregated costs
  /// of a base whose routings are done; the delay DP records the base's
  /// dirty-arc index when `index`, and replays `from`'s columns when given.
  void finish_base(EvalBase& base, const EvalBase* from, bool index) const;

  /// No-failure evaluation served from a base: returns the stored aggregate
  /// (and rebuilds the kFull detail vectors from the stored no-failure
  /// products) — bit-identical to recomputing, by purity.
  EvalResult serve_none_from_base(const EvalBase& base, EvalDetail detail) const;

  /// The calling thread's persistent scratch. Pool workers are long-lived,
  /// so batched evaluations reuse buffers across calls, not just within one.
  static Scratch& worker_scratch();

  const Graph& graph_;
  ClassedTraffic traffic_;
  EvalParams params_;
  EvaluatorConfig config_;
  double phi_uncap_ = 0.0;
  std::size_t delay_pairs_ = 0;
  /// Non-null iff config_.incremental. Set once in the constructor; the
  /// state itself is internally synchronized, so const evaluation entry
  /// points may touch it from any thread.
  std::unique_ptr<AnchorState> state_;
};

}  // namespace dtr
