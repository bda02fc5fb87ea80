#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "cost/delay_model.h"
#include "graph/graph.h"
#include "graph/spf.h"
#include "traffic/traffic_matrix.h"

namespace dtr {

/// How an SD pair's end-to-end delay is summarized when ECMP spreads its
/// traffic over several shortest paths.
enum class SlaDelayMode : std::uint8_t {
  /// Expected delay under even splitting (probe averaging — paper's SLA
  /// measurement model). Default.
  kExpected,
  /// Maximum delay over all used paths (conservative).
  kWorstPath,
};

/// Per-destination slices of a no-failure base routing, recorded while
/// ClassRouting::compute runs so the incremental failure path can replay an
/// unaffected destination's contribution verbatim: same values added to the
/// same accumulators in the same destination order means the patched arc
/// loads and disconnection totals are bitwise identical to a full recompute.
struct RoutingBaseRecord {
  /// Applied load shares, aligned with the recorded routing's tight DAG
  /// (ClassRouting::tight_dag): the share the sweep pushed along each DAG
  /// arc, in the same index space, so destination t's shares sit at the
  /// positions of its DAG slice. Each arc appears at most once per
  /// destination (its source node is swept exactly once), so replay order
  /// within a destination is immaterial.
  std::vector<double> contrib_val;
  /// Per-destination disconnected-demand subtotals.
  std::vector<std::uint32_t> disconnected;
  std::vector<double> disconnected_volume;

  void reset(std::size_t num_nodes);

  std::size_t memory_bytes() const {
    return heap_bytes(contrib_val) + heap_bytes(disconnected) + heap_bytes(disconnected_volume);
  }
};

/// Bucket upper bounds for the delta-SPF affected-region-size histogram
/// (telemetry `spf.affected_region`): powers of two up to 1024 nodes plus an
/// implicit overflow bucket. Shared by PatchStats and the telemetry registry
/// so per-worker bucket arrays merge 1:1.
inline constexpr std::array<std::uint64_t, 11> kAffectedBucketBounds = {
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};

/// Deterministic per-call counters of the incremental failure path,
/// accumulated by compute_from_base / end_to_end_delays_from_base into the
/// worker's FailureScratch. Every field is a pure function of graph + costs +
/// scenario (never of the execution shape), so callers may fold these into
/// the deterministic telemetry plane.
struct PatchStats {
  std::uint64_t dests_delta = 0;          ///< destinations patched by delta-SPF
  std::uint64_t dests_full_fallback = 0;  ///< delta overflow -> full Dijkstra
  std::uint64_t dests_resweep = 0;        ///< affected DAG -> load re-sweep
  std::uint64_t dests_replayed = 0;       ///< untouched DAG -> record replay
  std::uint64_t affected_nodes = 0;       ///< total delta-recomputed labels
  std::uint64_t boundary_seeds = 0;       ///< total phase-2 Dijkstra seeds
  std::uint64_t delay_cols_replayed = 0;  ///< delay DP columns copied verbatim
  std::uint64_t delay_cols_recomputed = 0;
  /// Pre-binned affected-region sizes (kAffectedBucketBounds + overflow).
  std::array<std::uint64_t, kAffectedBucketBounds.size() + 1> affected_buckets{};

  /// Bins one delta-patched destination's affected-node count. Must use the
  /// exact bucketing rule of telemetry::Histogram::observe (first bound >= v)
  /// so merge_buckets is a faithful batch of observe calls.
  void observe_affected(std::uint64_t n);
  void merge(const PatchStats& o);
};

/// One destination's tight (ECMP shortest-path) DAG, discovered by a
/// depth-first walk along alive tight out-arcs from caller-chosen roots.
/// Every visited node's out-arcs are tested for tightness exactly once and
/// its tight ones kept in CSR order, so the consumers need neither a distance
/// sort nor a second tightness scan:
///   - post_order() lists every node after all of its tight successors (the
///     path-utilization DP reads its successors' values);
///   - reversed, it lists every node after all of its DAG predecessors among
///     the visited nodes (the load sweep pushes flow downstream, and the
///     routing keeps the DAG in that order for its delay DP).
/// The order is a pure function of the graph, labels and root sequence. The
/// destination itself is a sink: never expanded and never listed. Buffers
/// are reused across walks; no state survives reset().
class TightDagWalk {
 public:
  struct TightArc {
    ArcId arc;
    NodeId head;
  };

  /// Starts a new walk toward `t` over `num_nodes` nodes.
  void reset(std::size_t num_nodes, NodeId t);

  /// Walks the DAG below `root` (a no-op when it was already visited),
  /// appending each newly finished node to post_order().
  void visit(const GraphCsr& csr, std::span<const double> arc_cost, ArcAliveMask alive,
             std::span<const double> dist, NodeId root) {
    if (range_[root].begin == kUnvisited) walk(csr, arc_cost, alive, dist, root);
  }

  std::span<const NodeId> post_order() const { return post_; }

  /// Tight out-arcs of a visited node, in CSR (ascending arc id) order.
  std::span<const TightArc> tight_arcs(NodeId u) const {
    return {arcs_.data() + range_[u].begin, arcs_.data() + range_[u].end};
  }

 private:
  static constexpr std::uint32_t kUnvisited = ~std::uint32_t{0};
  void walk(const GraphCsr& csr, std::span<const double> arc_cost, ArcAliveMask alive,
            std::span<const double> dist, NodeId root);
  struct Range {
    std::uint32_t begin;
    std::uint32_t end;
  };
  struct Frame {
    NodeId node;
    std::uint32_t next;  ///< next entry of arcs_ to descend along
    std::uint32_t end;   ///< end of node's entries in arcs_
  };
  std::vector<Range> range_;  ///< per node; begin == kUnvisited until reached
  std::vector<TightArc> arcs_;
  std::vector<NodeId> post_;
  std::vector<Frame> stack_;
};

/// Reusable per-worker scratch for ClassRouting::compute_from_base,
/// compute_from_weight_delta and end_to_end_delays_from_base (delta-SPF
/// buffers, the tight-DAG walk of their load re-sweeps, and the incremental
/// delay DP's dirty bitmap and node delays). One instance per worker thread,
/// reused across scenario evaluations to keep the incremental hot path
/// allocation-free.
class FailureScratch {
 public:
  FailureScratch() = default;

  /// Counters accumulated since the last reset_stats(). The owner (the
  /// evaluator, which shares one scratch across the load + delay passes of a
  /// scenario) resets before a scenario and harvests after it.
  const PatchStats& stats() const { return stats_; }
  void reset_stats() { stats_ = PatchStats{}; }

 private:
  friend class ClassRouting;
  DeltaSpfScratch spf_;
  std::vector<std::uint8_t> dirty_;
  std::vector<double> node_delay_;
  TightDagWalk dag_;
  PatchStats stats_;
};

/// Routing state of ONE traffic class under a given arc-cost vector and arc
/// liveness mask: per-destination distance labels (defining the ECMP
/// shortest-path DAGs) and the per-arc loads of this class's demands.
///
/// Load aggregation is the standard Fortz–Thorup sweep: per destination,
/// process nodes in topological order of the shortest-path DAG (the reverse
/// post-order of a TightDagWalk from the demand sources) and split each
/// node's accumulated flow evenly across its tight out-arcs. The routing
/// keeps each destination's DAG as the sweep walked it (tight_dag), and the
/// delay DP reads it instead of walking it again.
class ClassRouting {
 public:
  /// `skip_nodes`: demands sourced or sunk at any of these nodes are ignored
  /// (node-failure semantics; compound scenarios may fail several nodes at
  /// once). Pass an empty span for none. The set is tiny, so membership is a
  /// linear scan (is_skipped).
  ClassRouting(const Graph& g, std::span<const double> arc_cost,
               const TrafficMatrix& demands, ArcAliveMask alive,
               std::span<const NodeId> skip_nodes = {});

  /// Empty routing; call `compute` before any accessor. Exists so scratch
  /// holders (per-worker evaluation buffers) can reuse one instance's
  /// allocations across many scenario evaluations.
  ClassRouting() = default;

  /// (Re)computes the routing, reusing previously allocated buffers. When
  /// `record` is given it is filled with the per-destination slices the
  /// incremental failure path (compute_from_base) replays.
  void compute(const Graph& g, std::span<const double> arc_cost,
               const TrafficMatrix& demands, ArcAliveMask alive,
               std::span<const NodeId> skip_nodes = {},
               RoutingBaseRecord* record = nullptr);

  /// Incremental recompute of this routing under a failure, patching from
  /// `base` — the same graph/costs/demands with every removed arc alive and
  /// no skipped node, computed WITH `record`. Produces bitwise-identical
  /// state to compute() under `alive` and `skip_nodes`: per destination,
  /// distance labels are delta-updated (falling back to a full Dijkstra when
  /// the delta would touch more than `max_affected_fraction` of the nodes),
  /// and load / disconnection contributions are replayed from the record
  /// when the destination's DAG and demand set are untouched, re-swept
  /// otherwise. A skipped destination gets its labels from a direct
  /// Dijkstra and no sweep, as in compute().
  ///
  /// `alive` must be the base mask with exactly `removed_arcs` cleared; a
  /// node failure lists every arc incident to its node there (then the
  /// skipped destination's Dijkstra settles it alone).
  void compute_from_base(const Graph& g, std::span<const double> arc_cost,
                         const TrafficMatrix& demands, const ClassRouting& base,
                         const RoutingBaseRecord& record,
                         std::span<const ArcId> removed_arcs, ArcAliveMask alive,
                         double max_affected_fraction, FailureScratch& scratch,
                         std::span<const NodeId> skip_nodes = {});

  /// Incremental recompute of this NO-FAILURE routing under an arc COST
  /// change, patching from `base` — the same graph/demands routed under
  /// `changes[i].old_cost` in place of arc_cost[changes[i].arc] (no failure
  /// mask on either side), with `record` its replay record. Produces
  /// bitwise-identical state to compute() under the new costs: per
  /// destination, distance labels are delta-updated (full-Dijkstra fallback
  /// past `max_affected_fraction`), and load / disconnection contributions
  /// are replayed from the record when the destination's labels AND tight-arc
  /// set are untouched (a changed arc tight under either cost vector churns
  /// the ECMP splits even when labels survive), re-swept otherwise.
  ///
  /// This is the optimizer's candidate-probing fast path: a probe that
  /// changes one link's weights differs from the incumbent by two arcs per
  /// class. With `out_record` the patched routing's own replay record is
  /// written alongside — re-swept destinations record as compute() would,
  /// replayed ones copy their slices from `record` — so a patched base can
  /// serve failure patches in turn.
  void compute_from_weight_delta(const Graph& g, std::span<const double> arc_cost,
                                 const TrafficMatrix& demands,
                                 const ClassRouting& base,
                                 const RoutingBaseRecord& record,
                                 std::span<const ArcCostDelta> changes,
                                 double max_affected_fraction,
                                 FailureScratch& scratch,
                                 RoutingBaseRecord* out_record = nullptr);

  /// (Re)computes the routing from CALLER-PROVIDED distance labels
  /// (labels[t][u] = shortest cost u -> t under arc_cost/alive), skipping the
  /// per-destination Dijkstras: the labels are copied and the identical load
  /// sweep of compute() runs over them. With labels equal to what
  /// shortest_distances_to produces, the result is bitwise identical to
  /// compute() — the cross-trial sharing path of evaluate_fluctuations leans
  /// on this to build labels once per weight setting and reuse them across
  /// every perturbed traffic matrix.
  void compute_with_labels(const Graph& g, std::span<const double> arc_cost,
                           const TrafficMatrix& demands, ArcAliveMask alive,
                           const std::vector<std::vector<double>>& labels,
                           std::span<const NodeId> skip_nodes = {});

  std::span<const double> arc_loads() const { return arc_load_; }

  /// Heap bytes of the labels, loads, tight DAGs and sweep buffers.
  std::size_t memory_bytes() const {
    return heap_bytes(arc_load_) + heap_bytes(dist_) + heap_bytes(dag_offset_) +
           heap_bytes(dag_arc_) + heap_bytes(replayed_) + heap_bytes(node_flow_);
  }
  double arc_load(ArcId a) const { return arc_load_[a]; }

  /// dist[t][u] = shortest cost from u to t (kInfDist if unreachable).
  const std::vector<std::vector<double>>& distances() const { return dist_; }

  bool pair_connected(NodeId s, NodeId t) const { return dist_[t][s] != kInfDist; }

  /// Demands (s,t) with positive volume whose source cannot reach t.
  std::size_t disconnected_demand_count() const { return disconnected_; }
  double disconnected_demand_volume() const { return disconnected_volume_; }

  /// Destination t's tight DAG as its load sweep walked it: the tight
  /// out-arcs of every node the sweep reached from t's demand sources, one
  /// group of arcs per node, nodes in the sweep's order (each after all of
  /// its DAG predecessors), each group in CSR (ascending arc id) order. A
  /// group is the run of arcs that share csr.src; every reached node has at
  /// least one tight arc. Empty for skipped and sourceless destinations. A
  /// replayed destination of a patched routing holds its base's DAG.
  std::span<const ArcId> tight_dag(NodeId t) const {
    return std::span<const ArcId>(dag_arc_).subspan(dag_offset_[t],
                                                    dag_offset_[t + 1] - dag_offset_[t]);
  }

  /// Per-destination replay outcome of the last compute_from_base: 1 where
  /// the destination's DAG survived the failure untouched (loads were
  /// replayed), 0 where it was re-swept or skipped. Empty unless this
  /// routing was produced by compute_from_base — the incremental delay DP
  /// keys off it.
  std::span<const std::uint8_t> replayed_destinations() const { return replayed_; }

  /// Per-SD-pair end-to-end delay xi(s,t) for this class's DAGs, given
  /// per-arc delays D_a (computed from TOTAL load across classes).
  /// out[s*n + t] = delay in ms; untouched entries are set to -1 (pairs with
  /// no demand). Disconnected pairs with demand get kInfDist.
  ///
  /// The DP runs over the routing's stored tight DAGs, so `arc_cost`,
  /// `alive`, `demands` and `skip_nodes` must be the routing's own (the ones
  /// its last compute* call used); `arc_cost` and `alive` are not read.
  ///
  /// When `record` is given it is rebuilt as the dirty-arc index (the
  /// transpose of the DAGs: which destinations read which arc's delay) that
  /// end_to_end_delays_from_base consumes; building it adds no float
  /// operations.
  void end_to_end_delays(const Graph& g, std::span<const double> arc_cost,
                         ArcAliveMask alive, std::span<const double> arc_delay_ms,
                         const TrafficMatrix& demands, SlaDelayMode mode,
                         std::span<const NodeId> skip_nodes, std::vector<double>& out,
                         DelayDpIndex* record = nullptr) const;

  /// Incremental end-to-end delay DP for a routing produced by
  /// compute_from_base (or compute_from_weight_delta) from a base. Destinations
  /// whose DAG survived (replayed) AND whose recorded DP inputs are bitwise
  /// unchanged (`index` + base vs scenario arc delays) copy the base's delay
  /// column verbatim; every other destination runs the normal per-destination
  /// DP. Bit-identical to end_to_end_delays by construction: a skipped DP
  /// would have consumed the exact same distance labels, tight DAG, and arc
  /// delays as the base DP that produced `base_sd_delay_ms`.
  ///
  /// `base_sd_delay_ms` / `base_arc_delay_ms` are the no-failure base's DP
  /// output and per-arc delays; `index` was recorded by the base's
  /// end_to_end_delays. `arc_cost`, `alive` and `demands` must be the
  /// routing's own; `arc_cost` and `alive` are not read. Routings patched
  /// with skipped nodes are not supported (a base column still holds the
  /// skipped sources' rows); use end_to_end_delays.
  void end_to_end_delays_from_base(const Graph& g, std::span<const double> arc_cost,
                                   ArcAliveMask alive,
                                   std::span<const double> arc_delay_ms,
                                   const TrafficMatrix& demands, SlaDelayMode mode,
                                   std::span<const double> base_arc_delay_ms,
                                   std::span<const double> base_sd_delay_ms,
                                   const DelayDpIndex& index, FailureScratch& scratch,
                                   std::vector<double>& out) const;

 private:
  /// Seeds the demands toward `t` (counting its disconnected demand as a
  /// per-destination subtotal) and runs the ECMP load sweep over dist_[t]:
  /// a TightDagWalk rooted at the seeded sources in ascending id, then flow
  /// pushed in reverse post-order, so every node's accumulation order is
  /// fully specified. Appends the walked DAG to dag_arc_ in that order.
  /// `dag` is caller scratch: a local of the full paths, the worker's
  /// FailureScratch on the incremental ones, so no routing holds walk
  /// buffers between calls. Appends the destination's slices to `record`
  /// when given: the recorded shares are the applied ones. Shared by the full
  /// and incremental paths so their per-destination float operations are
  /// literally the same code.
  void sweep_destination(const Graph& g, std::span<const double> arc_cost,
                         const TrafficMatrix& demands, ArcAliveMask alive_mask,
                         std::span<const NodeId> skip_nodes, NodeId t,
                         TightDagWalk& dag, RoutingBaseRecord* record);

  /// Replays destination t from `base` and its `record`: copies the base's
  /// DAG slice and adds its recorded shares and disconnection subtotals.
  void replay_destination(const ClassRouting& base, const RoutingBaseRecord& record, NodeId t);

  /// Starts the per-destination DAG CSR of a new compute* pass.
  void begin_dags(std::size_t num_nodes);

  /// One destination's delay DP (expected/worst accumulation over the
  /// stored tight DAG, node groups taken backward so every node comes after
  /// its tight successors; each node's terms are summed in CSR arc order).
  /// Shared by the full and incremental delay paths so their
  /// per-destination float operations are literally the same code.
  /// `node_delay` (size n) is caller scratch.
  void delay_dp_destination(const GraphCsr& csr, std::span<const double> arc_delay_ms,
                            const TrafficMatrix& demands, SlaDelayMode mode,
                            std::span<const NodeId> skip_nodes, NodeId t,
                            std::vector<double>& node_delay, std::vector<double>& out) const;

  std::vector<double> arc_load_;
  std::vector<std::vector<double>> dist_;
  std::size_t disconnected_ = 0;
  double disconnected_volume_ = 0.0;
  /// Tight DAGs (see tight_dag()): destination t's arcs are
  /// dag_arc_[dag_offset_[t], dag_offset_[t+1]).
  std::vector<std::size_t> dag_offset_;
  std::vector<ArcId> dag_arc_;
  std::vector<std::uint8_t> replayed_;  ///< see replayed_destinations()
  // compute() scratch, kept to avoid reallocation across evaluations.
  std::vector<double> node_flow_;
};

/// Tight-arc test: arc a lies on a shortest path toward t (distance labels
/// `dist`) iff it is alive and dist[src] == cost[a] + dist[dst]. Weights are
/// integers, so sums are exact in double; the epsilon only guards against
/// callers with fractional costs.
bool arc_is_tight(const Arc& arc, double cost, std::span<const double> dist);

/// Endpoint-index form of the same predicate for CSR/SoA iteration (the hot
/// loops read src/dst from the flat adjacency streams instead of the Arc
/// record). Bit-identical to the Arc& overload.
bool arc_is_tight(NodeId src, NodeId dst, double cost, std::span<const double> dist);

/// Enumerates the ECMP paths (node sequences s..t) a class would use for one
/// SD pair under `arc_cost` and the liveness mask, in deterministic
/// (lexicographic next-hop) order. Stops after `max_paths` (the DAG can hold
/// exponentially many); returns an empty vector when t is unreachable.
/// Diagnostic/reporting API — the load machinery never materializes paths.
std::vector<std::vector<NodeId>> enumerate_ecmp_paths(
    const Graph& g, std::span<const double> arc_cost, NodeId s, NodeId t,
    ArcAliveMask alive = {}, std::size_t max_paths = 64);

}  // namespace dtr
