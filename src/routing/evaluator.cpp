#include "routing/evaluator.h"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "cost/fortz.h"
#include "graph/spf.h"
#include "telemetry/telemetry.h"
#include "util/heap_bytes.h"
#include "util/thread_pool.h"

namespace dtr {

void EvalStats::merge(const EvalStats& o) {
  scenarios_patched += o.scenarios_patched;
  scenarios_full += o.scenarios_full;
  scenarios_served_none += o.scenarios_served_none;
  patch.merge(o.patch);
}

/// One weight setting's no-failure base: both class routings, their replay
/// records and delay-DP index (once has_records), and the no-failure
/// products. `sd_delay` holds the POST-aggregation values (disconnected
/// pairs capped at the disconnect charge), so a replayed column matches what
/// the full path's aggregation would leave in place bit for bit.
struct EvalBase {
  WeightSetting key;
  /// key's arc costs: the "old" costs of a weight-delta patch from this base.
  std::vector<double> cost_delay;
  std::vector<double> cost_tput;
  ClassRouting delay;
  ClassRouting tput;
  bool has_records = false;
  RoutingBaseRecord delay_record;
  RoutingBaseRecord tput_record;
  DelayDpIndex dp_index;  ///< recorded with the records when incremental_delay
  std::vector<double> total_load;
  std::vector<double> arc_delay;
  std::vector<double> sd_delay;
  EvalResult none_result;  ///< costs-only fields of the no-failure evaluation

  std::size_t bytes() const {
    return sizeof(EvalBase) + key.num_links() * kNumClasses * sizeof(int) +
           heap_bytes(cost_delay) + heap_bytes(cost_tput) + delay.memory_bytes() +
           tput.memory_bytes() + delay_record.memory_bytes() +
           tput_record.memory_bytes() + dp_index.memory_bytes() +
           heap_bytes(total_load) + heap_bytes(arc_delay) + heap_bytes(sd_delay);
  }
};

struct Evaluator::AnchorState {
  std::mutex mu;
  std::shared_ptr<EvalBase> anchor;  ///< always carries its replay records
  /// Idle probe buffers, most recently released last. Each keeps its last
  /// probe's base, so promote() can adopt an accepted probe without
  /// re-patching it.
  std::vector<std::shared_ptr<EvalBase>> idle;
  EvaluatorCacheStats stats;

  /// Enough idle buffers for one speculative batch per hardware thread.
  static std::size_t max_idle() {
    static const std::size_t n = std::max(2u, std::thread::hardware_concurrency());
    return n;
  }

  // The helpers below run with `mu` held. A shared_ptr nobody else holds
  // cannot gain holders without `mu`, so use_count() == 1 is stable here.
  std::shared_ptr<EvalBase> take_idle() {
    if (idle.empty()) return std::make_shared<EvalBase>();
    std::shared_ptr<EvalBase> b = std::move(idle.back());
    idle.pop_back();
    return b;
  }
  void park(std::shared_ptr<EvalBase> b) {
    if (b.use_count() == 1 && idle.size() < max_idle()) idle.push_back(std::move(b));
  }
  void install(std::shared_ptr<EvalBase> b) {
    if (anchor != nullptr) park(std::move(anchor));
    anchor = std::move(b);
    ++stats.promotions;
  }
};

namespace {

/// Scenarios that patch from the base instead of being served from it:
/// every scenario that fails an element — links, nodes or both. A failed
/// node's arcs are removed like a link's, and its demands are skipped.
bool incremental_patchable(const FailureScenario& s) {
  switch (s.kind) {
    case FailureScenario::Kind::kNone:
      return false;
    case FailureScenario::Kind::kCompound:
      return !s.links.empty() || !s.nodes.empty();
    default:
      return true;
  }
}

/// True when `a` and `b` assign equal weights to every link `s` leaves
/// alive (for kNone: equal by value).
bool same_on_alive_links(const WeightSetting& a, const WeightSetting& b,
                         const FailureScenario& s) {
  if (a.num_links() != b.num_links()) return false;
  for (LinkId l = 0; l < a.num_links(); ++l) {
    if (a.get(TrafficClass::kDelay, l) == b.get(TrafficClass::kDelay, l) &&
        a.get(TrafficClass::kThroughput, l) == b.get(TrafficClass::kThroughput, l))
      continue;
    bool failed = false;
    for_each_failed_element(s, [&](LinkId f) { failed = failed || f == l; }, [](NodeId) {});
    if (!failed) return false;
  }
  return true;
}

/// Folds one batch call's merged deterministic stats into the registry. The
/// caller merged per-slot stats in index order on its own thread, so the
/// values (and therefore the registered names) are shape-independent.
void publish_eval_stats(telemetry::Registry& reg, const EvalStats& agg) {
  reg.counter("eval.patched").add(agg.scenarios_patched);
  reg.counter("eval.full").add(agg.scenarios_full);
  reg.counter("eval.served_none").add(agg.scenarios_served_none);
  const PatchStats& p = agg.patch;
  reg.counter("spf.dests_delta").add(p.dests_delta);
  reg.counter("spf.dests_full_fallback").add(p.dests_full_fallback);
  reg.counter("spf.affected_nodes").add(p.affected_nodes);
  reg.counter("spf.boundary_seeds").add(p.boundary_seeds);
  reg.counter("load.dests_replayed").add(p.dests_replayed);
  reg.counter("load.dests_resweep").add(p.dests_resweep);
  reg.counter("delay.cols_replayed").add(p.delay_cols_replayed);
  reg.counter("delay.cols_recomputed").add(p.delay_cols_recomputed);
  reg.histogram("spf.affected_region", kAffectedBucketBounds)
      .merge_buckets(p.affected_buckets, p.dests_delta, p.affected_nodes);
}

}  // namespace

EvalProbe::EvalProbe(EvalProbe&& other) noexcept
    : owner_(other.owner_),
      weights_(other.weights_),
      base_(std::move(other.base_)),
      cost_(other.cost_) {}

EvalProbe& EvalProbe::operator=(EvalProbe&& other) noexcept {
  if (this != &other) {
    if (base_ != nullptr) owner_->release(std::move(base_));
    owner_ = other.owner_;
    weights_ = other.weights_;
    base_ = std::move(other.base_);
    cost_ = other.cost_;
  }
  return *this;
}

EvalProbe::~EvalProbe() {
  if (base_ != nullptr) owner_->release(std::move(base_));
}

Evaluator::Evaluator(const Graph& g, const ClassedTraffic& traffic, EvalParams params,
                     EvaluatorConfig config)
    : graph_(g), traffic_(traffic), params_(params), config_(config) {
  if (traffic.delay.num_nodes() != g.num_nodes() ||
      traffic.throughput.num_nodes() != g.num_nodes())
    throw std::invalid_argument("Evaluator: traffic/graph size mismatch");

  // Uncapacitated min-hop reference (for Phi normalization in figures).
  const TrafficMatrix total = traffic_.combined();
  std::vector<int> hops;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    hop_distances_from(g, s, {}, hops);
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      if (s == t) continue;
      const double v = total.at(s, t);
      if (v > 0.0 && hops[t] > 0) phi_uncap_ += v * hops[t];
    }
  }
  delay_pairs_ = traffic_.delay.num_positive_demands();

  if (config_.incremental) state_ = std::make_unique<AnchorState>();
}

Evaluator::~Evaluator() = default;

EvaluatorCacheStats Evaluator::base_cache_stats() const {
  if (state_ == nullptr) return {};
  const std::lock_guard<std::mutex> lock(state_->mu);
  return state_->stats;
}

std::size_t Evaluator::base_bytes() const {
  if (state_ == nullptr) return 0;
  const std::lock_guard<std::mutex> lock(state_->mu);
  std::size_t bytes = state_->anchor != nullptr ? state_->anchor->bytes() : 0;
  for (const auto& b : state_->idle) bytes += b->bytes();
  return bytes;
}

void Evaluator::invalidate_base_cache() const {
  if (state_ == nullptr) return;
  const std::lock_guard<std::mutex> lock(state_->mu);
  state_->anchor.reset();
  state_->idle.clear();
}

void Evaluator::flush_cache_stats_to_telemetry() const {
  telemetry::Registry* reg = telemetry::effective(config_.telemetry);
  if (reg == nullptr || state_ == nullptr) return;
  const EvaluatorCacheStats s = base_cache_stats();
  reg->counter("evaluator.base_cache.hits", telemetry::Plane::kProcess).add(s.hits);
  reg->counter("evaluator.base_cache.misses", telemetry::Plane::kProcess).add(s.misses);
  reg->counter("evaluator.base_cache.promotions", telemetry::Plane::kProcess)
      .add(s.promotions);
  reg->counter("eval.weight_patched", telemetry::Plane::kProcess).add(s.weight_patched);
  reg->counter("spf.arcs_updated", telemetry::Plane::kProcess).add(s.arcs_updated);
  reg->gauge("evaluator.base_bytes", telemetry::Plane::kProcess).set(base_bytes());
}

Evaluator::Scratch& Evaluator::worker_scratch() {
  thread_local Scratch scratch;
  return scratch;
}

std::shared_ptr<EvalBase> Evaluator::acquire(const WeightSetting& w,
                                             const FailureScenario& failure,
                                             bool records) const {
  if (state_ == nullptr) return nullptr;
  AnchorState& st = *state_;
  std::shared_ptr<EvalBase> anchor, buf;
  {
    const std::lock_guard<std::mutex> lock(st.mu);
    anchor = st.anchor;
  }
  // A shared anchor's key never changes, so the O(links) compare runs
  // unlocked.
  const bool hit = anchor != nullptr && same_on_alive_links(anchor->key, w, failure);
  {
    const std::lock_guard<std::mutex> lock(st.mu);
    if (hit) {
      ++st.stats.hits;
      return anchor;
    }
    ++st.stats.misses;
    buf = st.take_idle();
  }
  const std::size_t arcs = fill_base(w, anchor.get(), *buf, records);
  anchor.reset();
  const std::lock_guard<std::mutex> lock(st.mu);
  if (arcs > 0) {
    ++st.stats.weight_patched;
    st.stats.arcs_updated += arcs;
  } else if (buf->has_records) {
    st.install(buf);
  }
  return buf;
}

void Evaluator::release(std::shared_ptr<EvalBase> base) const {
  const std::lock_guard<std::mutex> lock(state_->mu);
  state_->park(std::move(base));
}

void Evaluator::promote(const WeightSetting& w) const {
  if (state_ == nullptr) return;
  AnchorState& st = *state_;
  std::shared_ptr<EvalBase> anchor, buf;
  {
    const std::lock_guard<std::mutex> lock(st.mu);
    if (st.anchor != nullptr && st.anchor->key == w) return;
    // A recorded probe (Phase 2) is swapped in as is; the accepted probe's
    // buffer is usually the one released last.
    for (auto it = st.idle.rbegin(); it != st.idle.rend(); ++it) {
      if (!(*it)->has_records || (*it)->key != w) continue;
      buf = std::move(*it);
      st.idle.erase(std::next(it).base());
      break;
    }
    if (buf == nullptr) {
      anchor = st.anchor;
      buf = st.take_idle();
    }
  }
  // Otherwise (a Phase-1 probe, patched without records) re-patch it from the
  // old anchor, recording this time.
  if (!buf->has_records || buf->key != w) fill_base(w, anchor.get(), *buf, /*records=*/true);
  anchor.reset();
  const std::lock_guard<std::mutex> lock(st.mu);
  st.install(std::move(buf));
}

EvalProbe Evaluator::bind(const WeightSetting& w, bool with_base) const {
  EvalProbe p;
  p.owner_ = this;
  p.weights_ = &w;
  if (with_base) p.base_ = acquire(w, FailureScenario::none(), /*records=*/true);
  if (p.base_ != nullptr) p.cost_ = p.base_->none_result.cost();
  return p;
}

EvalProbe Evaluator::probe(const WeightSetting& w) const {
  if (w.num_links() != graph_.num_links())
    throw std::invalid_argument("Evaluator::probe: weight setting size mismatch");
  EvalProbe p = bind(w, true);
  if (p.base_ == nullptr) p.cost_ = evaluate(w).cost();
  return p;
}

std::size_t Evaluator::fill_base(const WeightSetting& w, const EvalBase* from,
                                 EvalBase& out, bool records) const {
  out.key = w;
  w.arc_costs(graph_, TrafficClass::kDelay, out.cost_delay);
  w.arc_costs(graph_, TrafficClass::kThroughput, out.cost_tput);
  Scratch& s = worker_scratch();
  const std::size_t max_links = config_.weight_delta_max_links;
  if (from != nullptr && max_links > 0) {
    // Per-class arc-cost change lists: only the differing links' arcs,
    // carrying the anchor's (old) cost. A class with identical weights gets
    // an empty list and replays the anchor's routing wholesale.
    s.delay_changes.clear();
    s.tput_changes.clear();
    std::size_t links = 0;
    for (LinkId l = 0; l < w.num_links() && links <= max_links; ++l) {
      const bool delay = w.get(TrafficClass::kDelay, l) != from->key.get(TrafficClass::kDelay, l);
      const bool tput =
          w.get(TrafficClass::kThroughput, l) != from->key.get(TrafficClass::kThroughput, l);
      if (!delay && !tput) continue;
      ++links;
      for (ArcId a : graph_.link_arcs(l)) {
        if (delay) s.delay_changes.push_back({a, from->cost_delay[a]});
        if (tput) s.tput_changes.push_back({a, from->cost_tput[a]});
      }
    }
    if (links >= 1 && links <= max_links) {
      const double fraction = config_.incremental_max_affected_fraction;
      out.delay.compute_from_weight_delta(graph_, out.cost_delay, traffic_.delay, from->delay,
                                          from->delay_record, s.delay_changes, fraction,
                                          s.failure, records ? &out.delay_record : nullptr);
      out.tput.compute_from_weight_delta(graph_, out.cost_tput, traffic_.throughput,
                                         from->tput, from->tput_record, s.tput_changes,
                                         fraction, s.failure, records ? &out.tput_record : nullptr);
      out.has_records = records;
      // Recording the delay-DP index needs the full DP; otherwise the anchor's
      // columns replay where they can.
      finish_base(out, records ? nullptr : from, records && config_.incremental_delay);
      return s.delay_changes.size() + s.tput_changes.size();
    }
  }
  // A scratch build becomes the anchor (acquire): it is a restart the search
  // adopts next, so it records for the probes that will patch from it —
  // unless nothing patches (max_links == 0) and the caller did not ask.
  out.has_records = records || max_links > 0;
  out.delay.compute(graph_, out.cost_delay, traffic_.delay, {}, {},
                    out.has_records ? &out.delay_record : nullptr);
  out.tput.compute(graph_, out.cost_tput, traffic_.throughput, {}, {},
                   out.has_records ? &out.tput_record : nullptr);
  finish_base(out, nullptr, /*index=*/out.has_records && config_.incremental_delay);
  return 0;
}

// The same products and aggregation the full path runs, so a served
// no-failure result is bit-identical to a computed one.
void Evaluator::finish_base(EvalBase& base, const EvalBase* from, bool index) const {
  const GraphCsr& csr = graph_.csr();
  const std::size_t num_arcs = graph_.num_arcs();
  base.total_load.resize(num_arcs);
  base.arc_delay.resize(num_arcs);
  for (ArcId a = 0; a < num_arcs; ++a) {
    base.total_load[a] = base.delay.arc_load(a) + base.tput.arc_load(a);
    base.arc_delay[a] = link_delay_ms(base.total_load[a], csr.capacity[a],
                                      csr.prop_delay_ms[a], params_.delay_model);
  }

  // Delay columns of a patched base: replay `from`'s for destinations whose
  // DAG and read arc-delays are bitwise unchanged, run the DP for the rest —
  // the same incremental-delay machinery the failure patch path rides.
  if (from != nullptr && config_.incremental_delay) {
    base.delay.end_to_end_delays_from_base(
        graph_, base.cost_delay, {}, base.arc_delay, traffic_.delay, params_.sla_delay_mode,
        from->arc_delay, from->sd_delay, from->dp_index, worker_scratch().failure,
        base.sd_delay);
  } else {
    base.delay.end_to_end_delays(graph_, base.cost_delay, {}, base.arc_delay,
                                 traffic_.delay, params_.sla_delay_mode, {}, base.sd_delay,
                                 index ? &base.dp_index : nullptr);
  }

  EvalResult& none = base.none_result;
  none = EvalResult{};
  const double disconnect_delay =
      params_.sla.theta_ms + params_.disconnect_delay_excess_ms;
  const SlaAggregate sla = accumulate_sla_cost(base.sd_delay, params_.sla,
                                               disconnect_delay);
  none.lambda = sla.lambda;
  none.sla_violations = sla.violations;
  none.disconnected_delay_pairs = base.delay.disconnected_demand_count();
  for (ArcId a = 0; a < num_arcs; ++a) {
    if (base.tput.arc_load(a) <= 0.0) continue;
    none.phi += fortz_cost(base.total_load[a], csr.capacity[a]);
  }
  none.phi += kFortzMaxSlope * base.tput.disconnected_demand_volume();
  none.disconnected_tput_pairs = base.tput.disconnected_demand_count();
}

EvalResult Evaluator::evaluate(const WeightSetting& w, const FailureScenario& scenario,
                               EvalDetail detail) const {
  if (w.num_links() != graph_.num_links())
    throw std::invalid_argument("Evaluator::evaluate: weight setting size mismatch");

  Scratch& scratch = worker_scratch();
  if (state_ == nullptr) {
    w.arc_costs(graph_, TrafficClass::kDelay, scratch.cost_delay);
    w.arc_costs(graph_, TrafficClass::kThroughput, scratch.cost_tput);
    return evaluate_impl(scratch.cost_delay, scratch.cost_tput, scenario, detail, scratch);
  }
  // The base's own costs: under the failure they equal w's on every live arc.
  std::shared_ptr<EvalBase> base = acquire(w, scenario, incremental_patchable(scenario));
  EvalResult result = evaluate_impl(base->cost_delay, base->cost_tput, scenario, detail,
                                    scratch, base.get());
  release(std::move(base));
  return result;
}

EvalResult Evaluator::serve_none_from_base(const EvalBase& base, EvalDetail detail) const {
  EvalResult result = base.none_result;
  if (detail == EvalDetail::kFull) {
    const GraphCsr& csr = graph_.csr();
    const std::size_t num_arcs = graph_.num_arcs();
    result.arc_total_load = base.total_load;
    result.arc_utilization.resize(num_arcs);
    result.carries_delay_traffic.resize(num_arcs);
    for (ArcId a = 0; a < num_arcs; ++a) {
      result.arc_utilization[a] = result.arc_total_load[a] / csr.capacity[a];
      result.carries_delay_traffic[a] = base.delay.arc_load(a) > 0.0 ? 1 : 0;
    }
    result.sd_delay_ms = base.sd_delay;
  }
  return result;
}

EvalResult Evaluator::evaluate_impl(std::span<const double> cost_delay,
                                    std::span<const double> cost_tput,
                                    const FailureScenario& scenario, EvalDetail detail,
                                    Scratch& s, const EvalBase* base,
                                    EvalStats* stats) const {
  build_alive_mask(graph_, scenario, s.mask);
  const std::span<const NodeId> skip = skipped_nodes(scenario);

  // The shared scratch accumulates patch stats across this scenario's load +
  // delay passes; reset here so the harvest below sees this scenario only.
  if (stats != nullptr) s.failure.reset_stats();

  bool patched = false;
  if (base != nullptr) {
    if (scenario.kind == FailureScenario::Kind::kNone) {
      if (stats != nullptr) ++stats->scenarios_served_none;
      return serve_none_from_base(*base, detail);
    }
    if (incremental_patchable(scenario) && base->has_records) {
      // One compound representation internally: every patchable kind —
      // kLink, kNode, kLinkPair, kCompound — collects its dead arcs through
      // the same element dispatch and rides the same multi-arc delta update;
      // failed nodes also skip their demands.
      s.removed.clear();
      for_each_failed_arc(graph_, scenario, [&](ArcId a) { s.removed.push_back(a); });
      const double fraction = config_.incremental_max_affected_fraction;
      s.delay_routing.compute_from_base(graph_, cost_delay, traffic_.delay, base->delay,
                                        base->delay_record, s.removed, s.mask, fraction,
                                        s.failure, skip);
      s.tput_routing.compute_from_base(graph_, cost_tput, traffic_.throughput,
                                       base->tput, base->tput_record, s.removed, s.mask,
                                       fraction, s.failure, skip);
      patched = true;
    }
  }
  if (!patched) {
    s.delay_routing.compute(graph_, cost_delay, traffic_.delay, s.mask, skip);
    s.tput_routing.compute(graph_, cost_tput, traffic_.throughput, s.mask, skip);
  }

  EvalResult result = finish_scenario(cost_delay, skip, detail, s, patched, base);
  if (stats != nullptr) {
    if (patched) {
      ++stats->scenarios_patched;
      stats->patch.merge(s.failure.stats());
    } else {
      ++stats->scenarios_full;
    }
  }
  return result;
}

EvalResult Evaluator::finish_scenario(std::span<const double> cost_delay,
                                      std::span<const NodeId> skip, EvalDetail detail,
                                      Scratch& s, bool patched,
                                      const EvalBase* base) const {
  const ClassRouting& delay_routing = s.delay_routing;
  const ClassRouting& tput_routing = s.tput_routing;

  // Total load and per-arc delay (classes share FIFO queues: D_a depends on
  // the SUM of both classes' loads).
  const GraphCsr& csr = graph_.csr();
  const std::size_t num_arcs = graph_.num_arcs();
  s.total_load.resize(num_arcs);
  s.arc_delay.resize(num_arcs);
  std::vector<double>& total_load = s.total_load;
  std::vector<double>& arc_delay = s.arc_delay;
  for (ArcId a = 0; a < num_arcs; ++a) {
    total_load[a] = delay_routing.arc_load(a) + tput_routing.arc_load(a);
    arc_delay[a] = link_delay_ms(total_load[a], csr.capacity[a], csr.prop_delay_ms[a],
                                 params_.delay_model);
  }

  EvalResult result;

  // Lambda: SLA cost over delay-class SD pairs. A patched routing with a
  // delay-DP base skips the DP for destinations whose recorded inputs are
  // bitwise unchanged (same float terms, same order as the full DP). With
  // skipped nodes every column runs the DP: a base column still holds the
  // skipped sources' rows.
  std::vector<double>& sd_delay = s.sd_delay;
  if (patched && skip.empty() && config_.incremental_delay) {
    delay_routing.end_to_end_delays_from_base(
        graph_, cost_delay, s.mask, arc_delay, traffic_.delay, params_.sla_delay_mode,
        base->arc_delay, base->sd_delay, base->dp_index, s.failure, sd_delay);
  } else {
    delay_routing.end_to_end_delays(graph_, cost_delay, s.mask, arc_delay,
                                    traffic_.delay, params_.sla_delay_mode, skip,
                                    sd_delay);
  }
  const double disconnect_delay =
      params_.sla.theta_ms + params_.disconnect_delay_excess_ms;
  const SlaAggregate sla = accumulate_sla_cost(sd_delay, params_.sla, disconnect_delay);
  result.lambda = sla.lambda;
  result.sla_violations = sla.violations;
  result.disconnected_delay_pairs = delay_routing.disconnected_demand_count();

  // Phi: Fortz cost over links carrying throughput-sensitive traffic, applied
  // to total load; unroutable throughput demand charged at the max slope.
  for (ArcId a = 0; a < num_arcs; ++a) {
    if (tput_routing.arc_load(a) <= 0.0) continue;
    result.phi += fortz_cost(total_load[a], csr.capacity[a]);
  }
  result.phi += kFortzMaxSlope * tput_routing.disconnected_demand_volume();
  result.disconnected_tput_pairs = tput_routing.disconnected_demand_count();

  if (detail == EvalDetail::kFull) {
    result.arc_total_load = total_load;
    result.arc_utilization.resize(num_arcs);
    result.carries_delay_traffic.resize(num_arcs);
    for (ArcId a = 0; a < num_arcs; ++a) {
      result.arc_utilization[a] = result.arc_total_load[a] / csr.capacity[a];
      result.carries_delay_traffic[a] = delay_routing.arc_load(a) > 0.0 ? 1 : 0;
    }
    result.sd_delay_ms = sd_delay;
  }
  return result;
}

EvalResult Evaluator::evaluate_with_labels(const WeightSetting& w,
                                           const FailureScenario& scenario,
                                           const SharedScenarioLabels& labels,
                                           EvalDetail detail) const {
  if (w.num_links() != graph_.num_links())
    throw std::invalid_argument(
        "Evaluator::evaluate_with_labels: weight setting size mismatch");
  if (!skipped_nodes(scenario).empty())
    throw std::invalid_argument(
        "Evaluator::evaluate_with_labels: node-failure scenarios unsupported");

  Scratch& s = worker_scratch();
  w.arc_costs(graph_, TrafficClass::kDelay, s.cost_delay);
  w.arc_costs(graph_, TrafficClass::kThroughput, s.cost_tput);
  build_alive_mask(graph_, scenario, s.mask);
  s.delay_routing.compute_with_labels(graph_, s.cost_delay, traffic_.delay, s.mask,
                                      labels.delay);
  s.tput_routing.compute_with_labels(graph_, s.cost_tput, traffic_.throughput, s.mask,
                                     labels.tput);
  return finish_scenario(s.cost_delay, {}, detail, s, /*patched=*/false, nullptr);
}

std::vector<EvalResult> Evaluator::evaluate_failures(
    const WeightSetting& w, std::span<const FailureScenario> scenarios, ThreadPool* pool,
    EvalDetail detail) const {
  if (w.num_links() != graph_.num_links())
    throw std::invalid_argument("Evaluator::evaluate_failures: weight setting size mismatch");
  return evaluate_failures(bind(w, !scenarios.empty()), scenarios, pool, detail);
}

std::vector<EvalResult> Evaluator::evaluate_failures(
    const EvalProbe& probe, std::span<const FailureScenario> scenarios, ThreadPool* pool,
    EvalDetail detail) const {
  // Arc costs depend only on the weights: expand once, share across scenarios.
  std::vector<double> cost_delay, cost_tput;
  probe.weights().arc_costs(graph_, TrafficClass::kDelay, cost_delay);
  probe.weights().arc_costs(graph_, TrafficClass::kThroughput, cost_tput);
  const EvalBase* base = probe.base_.get();

  // Per-index stats slabs mirror the per-index result slots: each scenario's
  // deterministic counters land in their own slot and are merged on the
  // calling thread, so the published totals are shape-independent.
  telemetry::Registry* reg = telemetry::effective(config_.telemetry);
  std::vector<EvalStats> slabs(reg != nullptr ? scenarios.size() : 0);

  // Size-aware split: ISP-tier all-link catalogs cluster expensive backbone
  // scenarios at the front, so large sweeps use cyclic blocks (see
  // sweep_chunk_size) instead of the contiguous per-worker split.
  std::vector<EvalResult> out(scenarios.size());
  parallel_for(
      pool, scenarios.size(),
      [&](std::size_t, std::size_t i) {
        out[i] = evaluate_impl(cost_delay, cost_tput, scenarios[i], detail,
                               worker_scratch(), base,
                               slabs.empty() ? nullptr : &slabs[i]);
      },
      sweep_chunk_size(scenarios.size()));
  if (reg != nullptr) {
    EvalStats agg;
    for (const EvalStats& s : slabs) agg.merge(s);
    reg->counter("eval.batch_calls").add(1);
    reg->counter("eval.scenarios").add(scenarios.size());
    publish_eval_stats(*reg, agg);
  }
  return out;
}

std::vector<CostPair> Evaluator::evaluate_costs(std::span<const EvalJob> jobs,
                                                ThreadPool* pool) const {
  for (const EvalJob& job : jobs) {
    if (job.probe != nullptr ? job.probe->owner_ != this
                             : job.weights == nullptr ||
                                   job.weights->num_links() != graph_.num_links())
      throw std::invalid_argument("Evaluator::evaluate_costs: bad job weights");
  }

  telemetry::Registry* reg = telemetry::effective(config_.telemetry);
  std::vector<EvalStats> slabs(reg != nullptr ? jobs.size() : 0);

  std::vector<CostPair> out(jobs.size());
  parallel_for(pool, jobs.size(), [&](std::size_t, std::size_t i) {
    // A job with a probe patches from its base; the rest take the full path.
    const EvalProbe* probe = jobs[i].probe;
    const WeightSetting& w = probe != nullptr ? probe->weights() : *jobs[i].weights;
    Scratch& s = worker_scratch();
    w.arc_costs(graph_, TrafficClass::kDelay, s.cost_delay);
    w.arc_costs(graph_, TrafficClass::kThroughput, s.cost_tput);
    out[i] = evaluate_impl(s.cost_delay, s.cost_tput, jobs[i].scenario,
                           EvalDetail::kCostsOnly, s,
                           probe != nullptr ? probe->base_.get() : nullptr,
                           slabs.empty() ? nullptr : &slabs[i])
                 .cost();
  });
  if (reg != nullptr) {
    EvalStats agg;
    for (const EvalStats& s : slabs) agg.merge(s);
    reg->counter("eval.batch_calls").add(1);
    reg->counter("eval.scenarios").add(jobs.size());
    publish_eval_stats(*reg, agg);
  }
  return out;
}

SweepResult Evaluator::sweep(const WeightSetting& w,
                             std::span<const FailureScenario> scenarios,
                             const SweepOptions& options) const {
  if (w.num_links() != graph_.num_links())
    throw std::invalid_argument("Evaluator::sweep: weight setting size mismatch");
  return sweep(bind(w, !scenarios.empty()), scenarios, options);
}

SweepResult Evaluator::sweep(const EvalProbe& probe,
                             std::span<const FailureScenario> scenarios,
                             const SweepOptions& options) const {
  const std::span<const double> scenario_weights = options.scenario_weights;
  const CostPair* abort_bound = options.abort_bound;
  ThreadPool* pool = options.pool;
  if (!scenario_weights.empty() && scenario_weights.size() != scenarios.size())
    throw std::invalid_argument("Evaluator::sweep: scenario_weights size mismatch");

  SweepResult sum;
  const LexicographicOrder order;

  // Accumulates scenario i's (already weighted) costs in order and applies
  // the abort bound; returns true to stop. Shared by both paths so the
  // parallel sweep is term-for-term identical to the sequential one.
  auto accumulate = [&](double lambda, double phi, double violations) -> bool {
    sum.lambda += lambda;
    sum.phi += phi;
    sum.violations += violations;
    ++sum.scenarios_evaluated;
    if (abort_bound != nullptr) {
      // Partial sums only grow, so once they are lexicographically worse than
      // the bound the final sums must be too. The primary axis is the lambda
      // sum, or the weighted violation sum for the downtime objective.
      const double primary =
          options.abort_on_violations ? sum.violations : sum.lambda;
      const bool primary_worse =
          primary > abort_bound->lambda && !order.values_equal(primary, abort_bound->lambda);
      const bool phi_worse_at_equal_primary =
          order.values_equal(primary, abort_bound->lambda) &&
          sum.phi > abort_bound->phi && !order.values_equal(sum.phi, abort_bound->phi);
      if (primary_worse || phi_worse_at_equal_primary) {
        sum.aborted = true;
        return true;
      }
    }
    return false;
  };

  // Arc costs depend only on the weights: expand once, share across the sweep.
  std::vector<double> cost_delay, cost_tput;
  probe.weights().arc_costs(graph_, TrafficClass::kDelay, cost_delay);
  probe.weights().arc_costs(graph_, TrafficClass::kThroughput, cost_tput);
  const EvalBase* base_ptr = probe.base_.get();

  // Per-scenario terms the ordered accumulation consumes: costs plus the SLA
  // violation count (the downtime objective's raw material) plus the
  // evaluation's deterministic stats.
  struct Term {
    CostPair cost;
    double violations = 0.0;
    EvalStats stats;
  };

  // Stats are merged ONLY for terms the ordered loop consumes — including
  // the aborting term (accumulate counts it in scenarios_evaluated before
  // the bound check) but never the parallel round's post-abort overshoot,
  // which the sequential sweep would not have evaluated. That keeps the
  // published counters identical for any worker count or chunk size.
  telemetry::Registry* reg = telemetry::effective(config_.telemetry);
  EvalStats agg;
  const auto finish = [&]() -> SweepResult {
    if (reg != nullptr) {
      reg->counter("sweep.calls").add(1);
      if (sum.aborted) reg->counter("sweep.aborts").add(1);
      reg->counter("eval.scenarios").add(sum.scenarios_evaluated);
      publish_eval_stats(*reg, agg);
    }
    return sum;
  };

  if (pool == nullptr || pool->num_workers() <= 1 || scenarios.size() <= 1) {
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const double weight = scenario_weights.empty() ? 1.0 : scenario_weights[i];
      if (weight < 0.0) throw std::invalid_argument("Evaluator::sweep: negative weight");
      EvalStats ts;
      const EvalResult r =
          evaluate_impl(cost_delay, cost_tput, scenarios[i], EvalDetail::kCostsOnly,
                        worker_scratch(), base_ptr, reg != nullptr ? &ts : nullptr);
      if (reg != nullptr) agg.merge(ts);
      if (accumulate(weight * r.lambda, weight * r.phi,
                     weight * static_cast<double>(r.sla_violations)))
        return finish();
    }
    return finish();
  }

  const std::size_t workers = pool->num_workers();
  const std::size_t round = workers * std::max<std::size_t>(1, options.chunk_size);
  std::vector<Term> chunk(round);
  for (std::size_t begin = 0; begin < scenarios.size(); begin += round) {
    const std::size_t count = std::min(round, scenarios.size() - begin);
    parallel_for(pool, count, [&](std::size_t, std::size_t i) {
      // The stats land in a local first: assigning to chunk[i] after the call
      // keeps the whole Term (including stats) one well-ordered write.
      EvalStats ts;
      const EvalResult r = evaluate_impl(cost_delay, cost_tput, scenarios[begin + i],
                                         EvalDetail::kCostsOnly, worker_scratch(),
                                         base_ptr, reg != nullptr ? &ts : nullptr);
      chunk[i] = Term{r.cost(), static_cast<double>(r.sla_violations), ts};
    });
    for (std::size_t i = 0; i < count; ++i) {
      // Validated here, not upfront, so an invalid weight past an abort point
      // behaves exactly like the sequential path (abort wins over throw).
      const double weight = scenario_weights.empty() ? 1.0 : scenario_weights[begin + i];
      if (weight < 0.0) throw std::invalid_argument("Evaluator::sweep: negative weight");
      if (reg != nullptr) agg.merge(chunk[i].stats);
      if (accumulate(weight * chunk[i].cost.lambda, weight * chunk[i].cost.phi,
                     weight * chunk[i].violations))
        return finish();
    }
  }
  return finish();
}

std::vector<EvalResult> Evaluator::sweep_detailed(
    const WeightSetting& w, std::span<const FailureScenario> scenarios,
    EvalDetail detail, ThreadPool* pool) const {
  return evaluate_failures(w, scenarios, pool, detail);
}

}  // namespace dtr
