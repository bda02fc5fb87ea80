#include "routing/route_state.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "routing/failures.h"

namespace dtr {

namespace {
constexpr double kTightEps = 1e-7;

inline bool alive(ArcAliveMask mask, ArcId a) { return mask.empty() || mask[a] != 0; }
}  // namespace

void PatchStats::observe_affected(std::uint64_t n) {
  const auto it =
      std::lower_bound(kAffectedBucketBounds.begin(), kAffectedBucketBounds.end(), n);
  ++affected_buckets[static_cast<std::size_t>(it - kAffectedBucketBounds.begin())];
}

void PatchStats::merge(const PatchStats& o) {
  dests_delta += o.dests_delta;
  dests_full_fallback += o.dests_full_fallback;
  dests_resweep += o.dests_resweep;
  dests_replayed += o.dests_replayed;
  affected_nodes += o.affected_nodes;
  boundary_seeds += o.boundary_seeds;
  delay_cols_replayed += o.delay_cols_replayed;
  delay_cols_recomputed += o.delay_cols_recomputed;
  for (std::size_t i = 0; i < affected_buckets.size(); ++i)
    affected_buckets[i] += o.affected_buckets[i];
}

bool arc_is_tight(NodeId src, NodeId dst, double cost, std::span<const double> dist) {
  const double du = dist[src];
  const double dv = dist[dst];
  if (du == kInfDist || dv == kInfDist) return false;
  return std::abs(du - (cost + dv)) <= kTightEps * std::max(1.0, std::abs(du));
}

bool arc_is_tight(const Arc& arc, double cost, std::span<const double> dist) {
  return arc_is_tight(arc.src, arc.dst, cost, dist);
}

void TightDagWalk::reset(std::size_t num_nodes, NodeId t) {
  range_.assign(num_nodes, {kUnvisited, kUnvisited});
  range_[t] = {0, 0};  // the sink: visited, no out-arcs
  arcs_.clear();
  post_.clear();
}

void TightDagWalk::walk(const GraphCsr& csr, std::span<const double> arc_cost,
                        ArcAliveMask alive_mask, std::span<const double> dist,
                        NodeId root) {
  // Collects u's tight out-arcs (the only tightness test u's arcs get in
  // this walk) and opens its frame.
  const auto expand = [&](NodeId u) {
    const auto begin = static_cast<std::uint32_t>(arcs_.size());
    for (std::uint32_t k = csr.out_offset[u]; k < csr.out_offset[u + 1]; ++k) {
      const ArcId a = csr.out_arc[k];
      const NodeId v = csr.out_head[k];
      if (alive(alive_mask, a) && arc_is_tight(u, v, arc_cost[a], dist))
        arcs_.push_back({a, v});
    }
    const auto end = static_cast<std::uint32_t>(arcs_.size());
    range_[u] = {begin, end};
    stack_.push_back({u, begin, end});
  };
  expand(root);
  while (!stack_.empty()) {
    // Descend along the next arc to an unreached node. Positive costs make
    // the tight graph acyclic; skipping reached nodes also keeps a zero-cost
    // tight cycle from looping.
    Frame& top = stack_.back();
    while (top.next != top.end && range_[arcs_[top.next].head].begin != kUnvisited) ++top.next;
    if (top.next == top.end) {
      post_.push_back(top.node);
      stack_.pop_back();
    } else {
      expand(arcs_[top.next++].head);
    }
  }
}

std::vector<std::vector<NodeId>> enumerate_ecmp_paths(
    const Graph& g, std::span<const double> arc_cost, NodeId s, NodeId t,
    ArcAliveMask alive_mask, std::size_t max_paths) {
  if (s >= g.num_nodes() || t >= g.num_nodes())
    throw std::out_of_range("enumerate_ecmp_paths: node id");
  std::vector<std::vector<NodeId>> paths;
  if (s == t || max_paths == 0) return paths;

  std::vector<double> dist;
  shortest_distances_to(g, t, arc_cost, alive_mask, dist);
  if (dist[s] == kInfDist) return paths;

  // DFS over the shortest-path DAG; next hops visited in ascending node id
  // for deterministic output. The DAG is acyclic (distances strictly
  // decrease along tight arcs with positive costs), so no visited-set needed.
  std::vector<NodeId> current{s};
  // Pre-sorted tight successor lists keep the traversal simple.
  auto tight_successors = [&](NodeId u) {
    std::vector<NodeId> next;
    for (ArcId a : g.out_arcs(u)) {
      if (!alive_mask.empty() && alive_mask[a] == 0) continue;
      if (arc_is_tight(g.arc(a), arc_cost[a], dist)) next.push_back(g.arc(a).dst);
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    return next;
  };

  struct Frame {
    std::vector<NodeId> successors;
    std::size_t next = 0;
  };
  std::vector<Frame> stack;
  stack.push_back({tight_successors(s), 0});
  while (!stack.empty() && paths.size() < max_paths) {
    Frame& frame = stack.back();
    if (frame.next >= frame.successors.size()) {
      stack.pop_back();
      current.pop_back();
      continue;
    }
    const NodeId v = frame.successors[frame.next++];
    current.push_back(v);
    if (v == t) {
      paths.push_back(current);
      current.pop_back();
    } else {
      stack.push_back({tight_successors(v), 0});
    }
  }
  return paths;
}

void RoutingBaseRecord::reset(std::size_t num_nodes) {
  contrib_val.clear();
  disconnected.clear();
  disconnected.reserve(num_nodes);
  disconnected_volume.clear();
  disconnected_volume.reserve(num_nodes);
}

ClassRouting::ClassRouting(const Graph& g, std::span<const double> arc_cost,
                           const TrafficMatrix& demands, ArcAliveMask alive_mask,
                           std::span<const NodeId> skip_nodes) {
  compute(g, arc_cost, demands, alive_mask, skip_nodes);
}

void ClassRouting::compute(const Graph& g, std::span<const double> arc_cost,
                           const TrafficMatrix& demands, ArcAliveMask alive_mask,
                           std::span<const NodeId> skip_nodes,
                           RoutingBaseRecord* record) {
  if (demands.num_nodes() != g.num_nodes())
    throw std::invalid_argument("ClassRouting: traffic matrix / graph size mismatch");

  const std::size_t n = g.num_nodes();
  arc_load_.assign(g.num_arcs(), 0.0);
  dist_.resize(n);
  disconnected_ = 0;
  disconnected_volume_ = 0.0;
  replayed_.clear();  // not a patched routing
  begin_dags(n);
  if (record != nullptr) record->reset(n);
  TightDagWalk dag;

  for (NodeId t = 0; t < n; ++t) {
    shortest_distances_to(g, t, arc_cost, alive_mask, dist_[t]);
    if (!is_skipped(skip_nodes, t)) {
      sweep_destination(g, arc_cost, demands, alive_mask, skip_nodes, t, dag, record);
    } else if (record != nullptr) {
      record->disconnected.push_back(0);
      record->disconnected_volume.push_back(0.0);
    }
    dag_offset_.push_back(dag_arc_.size());
  }
}

void ClassRouting::begin_dags(std::size_t num_nodes) {
  dag_offset_.clear();
  dag_offset_.reserve(num_nodes + 1);
  dag_offset_.push_back(0);
  dag_arc_.clear();
}

void ClassRouting::sweep_destination(const Graph& g, std::span<const double> arc_cost,
                                     const TrafficMatrix& demands, ArcAliveMask alive_mask,
                                     std::span<const NodeId> skip_nodes, NodeId t,
                                     TightDagWalk& dag, RoutingBaseRecord* record) {
  const std::size_t n = g.num_nodes();
  const auto& dist = dist_[t];
  const GraphCsr& csr = g.csr();
  std::vector<double>& node_flow = node_flow_;
  node_flow.assign(n, 0.0);

  // Seed node flows with the demands toward t, rooting the DAG walk at each
  // seeded source in ascending id. Disconnection is accumulated as a
  // per-destination subtotal so the incremental path's replay adds the exact
  // same float terms in the exact same grouping.
  dag.reset(n, t);
  std::uint32_t dest_disconnected = 0;
  double dest_volume = 0.0;
  for (NodeId s = 0; s < n; ++s) {
    if (s == t || is_skipped(skip_nodes, s)) continue;
    const double d = demands.at(s, t);
    if (d <= 0.0) continue;
    if (dist[s] == kInfDist) {
      ++dest_disconnected;
      dest_volume += d;
      continue;
    }
    node_flow[s] = d;
    dag.visit(csr, arc_cost, alive_mask, dist, s);
  }
  disconnected_ += dest_disconnected;
  disconnected_volume_ += dest_volume;
  if (record != nullptr) {
    record->disconnected.push_back(dest_disconnected);
    record->disconnected_volume.push_back(dest_volume);
  }

  // Reverse post-order reaches every node after all of its upstream nodes,
  // so its flow is complete; it splits evenly over its tight out-arcs (in
  // CSR order), which are kept as the node's group of the stored DAG. Every
  // reached node carries flow (it is a source or downstream of one); a zero
  // share would add nothing to the nonnegative accumulators.
  const std::span<const NodeId> post = dag.post_order();
  for (auto it = post.rbegin(); it != post.rend(); ++it) {
    const NodeId u = *it;
    const std::span<const TightDagWalk::TightArc> tight = dag.tight_arcs(u);
    if (tight.empty()) {
      // Cannot happen for finite-dist nodes (a tight arc realizes dist),
      // but guard against inconsistent masks.
      throw std::logic_error("ClassRouting: reached node has no tight out-arc");
    }
    const double share = node_flow[u] / static_cast<int>(tight.size());
    for (const TightDagWalk::TightArc& e : tight) {
      arc_load_[e.arc] += share;
      node_flow[e.head] += share;
      dag_arc_.push_back(e.arc);
      if (record != nullptr) record->contrib_val.push_back(share);
    }
  }
}

void ClassRouting::replay_destination(const ClassRouting& base, const RoutingBaseRecord& record,
                                      NodeId t) {
  // Every accumulator receives the same float terms in the same destination
  // order as a full recompute, so the patched state is bitwise identical.
  const std::size_t lo = base.dag_offset_[t];
  const std::size_t hi = base.dag_offset_[t + 1];
  const std::span<const double> shares =
      std::span<const double>(record.contrib_val).subspan(lo, hi - lo);
  const std::span<const ArcId> arcs = base.tight_dag(t);
  for (std::size_t i = 0; i < arcs.size(); ++i) arc_load_[arcs[i]] += shares[i];
  dag_arc_.insert(dag_arc_.end(), arcs.begin(), arcs.end());
  disconnected_ += record.disconnected[t];
  disconnected_volume_ += record.disconnected_volume[t];
  replayed_[t] = 1;
}

void ClassRouting::compute_from_base(const Graph& g, std::span<const double> arc_cost,
                                     const TrafficMatrix& demands,
                                     const ClassRouting& base,
                                     const RoutingBaseRecord& record,
                                     std::span<const ArcId> removed_arcs,
                                     ArcAliveMask alive_mask,
                                     double max_affected_fraction,
                                     FailureScratch& scratch,
                                     std::span<const NodeId> skip_nodes) {
  if (demands.num_nodes() != g.num_nodes())
    throw std::invalid_argument("ClassRouting: traffic matrix / graph size mismatch");
  const std::size_t n = g.num_nodes();
  if (base.dist_.size() != n || base.dag_offset_.size() != n + 1 ||
      record.contrib_val.size() != base.dag_arc_.size() || record.disconnected.size() != n)
    throw std::invalid_argument("compute_from_base: base/record don't match this graph");

  arc_load_.assign(g.num_arcs(), 0.0);
  dist_.resize(n);
  disconnected_ = 0;
  disconnected_volume_ = 0.0;
  replayed_.assign(n, 0);
  begin_dags(n);

  const std::size_t cap =
      max_affected_fraction >= 1.0
          ? n
          : static_cast<std::size_t>(std::max(0.0, max_affected_fraction) *
                                     static_cast<double>(n));

  for (NodeId t = 0; t < n; ++t) {
    if (is_skipped(skip_nodes, t)) {
      // compute()'s skipped destination: labels, no sweep. Its arcs are
      // dead, so the Dijkstra settles t alone.
      shortest_distances_to(g, t, arc_cost, alive_mask, dist_[t]);
      dag_offset_.push_back(dag_arc_.size());
      continue;
    }
    dist_[t] = base.dist_[t];
    const std::ptrdiff_t touched = delta_spf_remove_arcs(
        g, arc_cost, alive_mask, removed_arcs, dist_[t], cap, scratch.spf_);
    bool affected = touched != 0;
    if (touched < 0) {
      // Delta would touch too much of this destination: full Dijkstra is
      // cheaper than the delta bookkeeping (dist_[t] is still the untouched
      // base copy here).
      shortest_distances_to(g, t, arc_cost, alive_mask, dist_[t]);
      ++scratch.stats_.dests_full_fallback;
    } else if (touched > 0) {
      ++scratch.stats_.dests_delta;
      scratch.stats_.affected_nodes += static_cast<std::uint64_t>(touched);
      scratch.stats_.boundary_seeds += scratch.spf_.last_boundary_seeds();
      scratch.stats_.observe_affected(static_cast<std::uint64_t>(touched));
    }
    // A skipped source's demand toward t leaves the sweep's seeds (and the
    // recorded disconnection subtotals).
    for (std::size_t i = 0; i < skip_nodes.size() && !affected; ++i)
      affected = demands.at(skip_nodes[i], t) > 0.0;
    if (!affected) {
      // Distances survived, but a removed arc that was tight (by the sweep's
      // epsilon predicate) still changes the ECMP splits at its source.
      const GraphCsr& csr = g.csr();
      for (ArcId a : removed_arcs) {
        if (arc_is_tight(csr.src[a], csr.dst[a], arc_cost[a], dist_[t])) {
          affected = true;
          break;
        }
      }
    }
    if (affected) {
      sweep_destination(g, arc_cost, demands, alive_mask, skip_nodes, t, scratch.dag_,
                        nullptr);
      ++scratch.stats_.dests_resweep;
    } else {
      // Untouched DAG: replay the base's DAG and contributions.
      replay_destination(base, record, t);
      ++scratch.stats_.dests_replayed;
    }
    dag_offset_.push_back(dag_arc_.size());
  }
}

void ClassRouting::compute_from_weight_delta(const Graph& g,
                                             std::span<const double> arc_cost,
                                             const TrafficMatrix& demands,
                                             const ClassRouting& base,
                                             const RoutingBaseRecord& record,
                                             std::span<const ArcCostDelta> changes,
                                             double max_affected_fraction,
                                             FailureScratch& scratch,
                                             RoutingBaseRecord* out_record) {
  if (demands.num_nodes() != g.num_nodes())
    throw std::invalid_argument("ClassRouting: traffic matrix / graph size mismatch");
  const std::size_t n = g.num_nodes();
  if (base.dist_.size() != n || base.dag_offset_.size() != n + 1 ||
      record.contrib_val.size() != base.dag_arc_.size() || record.disconnected.size() != n)
    throw std::invalid_argument(
        "compute_from_weight_delta: base/record don't match this graph");

  arc_load_.assign(g.num_arcs(), 0.0);
  dist_.resize(n);
  disconnected_ = 0;
  disconnected_volume_ = 0.0;
  replayed_.assign(n, 0);
  begin_dags(n);
  if (out_record != nullptr) out_record->reset(n);

  const std::size_t cap =
      max_affected_fraction >= 1.0
          ? n
          : static_cast<std::size_t>(std::max(0.0, max_affected_fraction) *
                                     static_cast<double>(n));

  for (NodeId t = 0; t < n; ++t) {
    dist_[t] = base.dist_[t];
    const std::ptrdiff_t touched =
        delta_spf_update_arcs(g, arc_cost, {}, changes, dist_[t], cap, scratch.spf_);
    bool affected = touched != 0;
    if (touched < 0) {
      // Delta would touch too much of this destination: full Dijkstra is
      // cheaper than the delta bookkeeping (dist_[t] is still the untouched
      // base copy here).
      shortest_distances_to(g, t, arc_cost, {}, dist_[t]);
      ++scratch.stats_.dests_full_fallback;
    } else if (touched > 0) {
      ++scratch.stats_.dests_delta;
      scratch.stats_.affected_nodes += static_cast<std::uint64_t>(touched);
      scratch.stats_.boundary_seeds += scratch.spf_.last_boundary_seeds();
      scratch.stats_.observe_affected(static_cast<std::uint64_t>(touched));
    }
    if (!affected) {
      // Labels survived, but a changed arc that is tight (by the sweep's
      // epsilon predicate) under EITHER cost vector still churns the ECMP
      // splits at its source: tight under the old cost means the base's DAG
      // used it, tight under the new cost means ours does.
      const GraphCsr& csr = g.csr();
      for (const ArcCostDelta& c : changes) {
        const NodeId src = csr.src[c.arc];
        const NodeId dst = csr.dst[c.arc];
        if (arc_is_tight(src, dst, c.old_cost, dist_[t]) ||
            arc_is_tight(src, dst, arc_cost[c.arc], dist_[t])) {
          affected = true;
          break;
        }
      }
    }
    if (affected) {
      sweep_destination(g, arc_cost, demands, {}, {}, t, scratch.dag_, out_record);
      ++scratch.stats_.dests_resweep;
    } else {
      // Untouched DAG: replay the base's DAG and contributions — the base's
      // slices are exactly what recording this destination would give.
      replay_destination(base, record, t);
      ++scratch.stats_.dests_replayed;
      if (out_record != nullptr) {
        const auto lo = static_cast<std::ptrdiff_t>(base.dag_offset_[t]);
        const auto hi = static_cast<std::ptrdiff_t>(base.dag_offset_[t + 1]);
        out_record->contrib_val.insert(out_record->contrib_val.end(),
                                       record.contrib_val.begin() + lo,
                                       record.contrib_val.begin() + hi);
        out_record->disconnected.push_back(record.disconnected[t]);
        out_record->disconnected_volume.push_back(record.disconnected_volume[t]);
      }
    }
    dag_offset_.push_back(dag_arc_.size());
  }
}

void ClassRouting::compute_with_labels(const Graph& g, std::span<const double> arc_cost,
                                       const TrafficMatrix& demands,
                                       ArcAliveMask alive_mask,
                                       const std::vector<std::vector<double>>& labels,
                                       std::span<const NodeId> skip_nodes) {
  if (demands.num_nodes() != g.num_nodes())
    throw std::invalid_argument("ClassRouting: traffic matrix / graph size mismatch");
  const std::size_t n = g.num_nodes();
  if (labels.size() != n)
    throw std::invalid_argument("compute_with_labels: labels/graph size mismatch");

  arc_load_.assign(g.num_arcs(), 0.0);
  dist_.resize(n);
  disconnected_ = 0;
  disconnected_volume_ = 0.0;
  replayed_.clear();  // not a patched routing
  begin_dags(n);
  TightDagWalk dag;

  for (NodeId t = 0; t < n; ++t) {
    if (labels[t].size() != n)
      throw std::invalid_argument("compute_with_labels: label column size mismatch");
    dist_[t] = labels[t];
    if (!is_skipped(skip_nodes, t))
      sweep_destination(g, arc_cost, demands, alive_mask, skip_nodes, t, dag, nullptr);
    dag_offset_.push_back(dag_arc_.size());
  }
}

void ClassRouting::delay_dp_destination(const GraphCsr& csr, std::span<const double> arc_delay_ms,
                                        const TrafficMatrix& demands, SlaDelayMode mode,
                                        std::span<const NodeId> skip_nodes, NodeId t,
                                        std::vector<double>& node_delay,
                                        std::vector<double>& out) const {
  const std::size_t n = node_delay.size();
  const auto& dist = dist_[t];
  const bool worst = mode == SlaDelayMode::kWorstPath;

  // DP over the sweep's DAG, node groups taken backward (every node after
  // its tight successors):
  //   expected: E[u] = sum_k (1/k)(D_a + E[dst_a]) over tight arcs
  //   worst:    W[u] = max_a (D_a + W[dst_a])
  const std::span<const ArcId> arcs = tight_dag(t);
  node_delay[t] = 0.0;
  for (std::size_t end = arcs.size(); end > 0;) {
    const NodeId u = csr.src[arcs[end - 1]];
    std::size_t begin = end - 1;
    while (begin > 0 && csr.src[arcs[begin - 1]] == u) --begin;
    double acc = worst ? -kInfDist : 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const ArcId a = arcs[i];
      const double through = arc_delay_ms[a] + node_delay[csr.dst[a]];
      acc = worst ? std::max(acc, through) : acc + through;
    }
    node_delay[u] = worst ? acc : acc / static_cast<int>(end - begin);
    end = begin;
  }

  for (NodeId s = 0; s < n; ++s) {
    if (s == t || is_skipped(skip_nodes, s)) continue;
    if (demands.at(s, t) <= 0.0) continue;
    out[static_cast<std::size_t>(s) * n + t] =
        (dist[s] == kInfDist) ? kInfDist : node_delay[s];
  }
}

void ClassRouting::end_to_end_delays(const Graph& g, std::span<const double> /*arc_cost*/,
                                     ArcAliveMask /*alive*/,
                                     std::span<const double> arc_delay_ms,
                                     const TrafficMatrix& demands, SlaDelayMode mode,
                                     std::span<const NodeId> skip_nodes,
                                     std::vector<double>& out,
                                     DelayDpIndex* record) const {
  const std::size_t n = g.num_nodes();
  if (arc_delay_ms.size() != g.num_arcs())
    throw std::invalid_argument("end_to_end_delays: arc_delay size mismatch");
  if (dag_offset_.size() != n + 1)
    throw std::logic_error("end_to_end_delays: routing not computed for this graph");
  out.assign(n * n, -1.0);
  if (record != nullptr) record->build(g.num_arcs(), dag_offset_, dag_arc_);

  std::vector<double> node_delay(n);
  const GraphCsr& csr = g.csr();
  for (NodeId t = 0; t < n; ++t) {
    if (is_skipped(skip_nodes, t)) continue;
    delay_dp_destination(csr, arc_delay_ms, demands, mode, skip_nodes, t, node_delay, out);
  }
}

void ClassRouting::end_to_end_delays_from_base(
    const Graph& g, std::span<const double> /*arc_cost*/, ArcAliveMask /*alive*/,
    std::span<const double> arc_delay_ms, const TrafficMatrix& demands,
    SlaDelayMode mode, std::span<const double> base_arc_delay_ms,
    std::span<const double> base_sd_delay_ms, const DelayDpIndex& index,
    FailureScratch& scratch, std::vector<double>& out) const {
  const std::size_t n = g.num_nodes();
  if (arc_delay_ms.size() != g.num_arcs())
    throw std::invalid_argument("end_to_end_delays_from_base: arc_delay size mismatch");
  if (base_sd_delay_ms.size() != n * n)
    throw std::invalid_argument("end_to_end_delays_from_base: base delay size mismatch");
  if (replayed_.size() != n)
    throw std::logic_error(
        "end_to_end_delays_from_base: routing was not patched from a base");

  out.assign(n * n, -1.0);

  // Dirty destinations: every destination whose DAG changed (re-swept by
  // compute_from_base), plus — via the dirty-arc index — every destination
  // whose DP reads an arc whose delay is not bitwise identical to the base.
  scratch.dirty_.assign(n, 0);
  mark_dirty_destinations(index, base_arc_delay_ms, arc_delay_ms, scratch.dirty_);

  scratch.node_delay_.resize(n);
  const GraphCsr& csr = g.csr();
  for (NodeId t = 0; t < n; ++t) {
    if (replayed_[t] && !scratch.dirty_[t]) {
      // Clean destination: the DP would consume the exact distance labels,
      // tight DAG, and arc delays the base DP consumed, so its output
      // column is replayed verbatim (removed arcs were not tight here, so
      // neither DAG holds them).
      for (NodeId s = 0; s < n; ++s)
        out[static_cast<std::size_t>(s) * n + t] =
            base_sd_delay_ms[static_cast<std::size_t>(s) * n + t];
      ++scratch.stats_.delay_cols_replayed;
    } else {
      delay_dp_destination(csr, arc_delay_ms, demands, mode, {}, t, scratch.node_delay_, out);
      ++scratch.stats_.delay_cols_recomputed;
    }
  }
}

}  // namespace dtr
