#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/heap_bytes.h"

namespace dtr {

/// Link-delay model of Eq. (1):
///
///   D_l = p_l                                     if x_l / C_l <= mu    (1a)
///   D_l = kappa/C_l * (x_l/(C_l - x_l) + 1) + p_l otherwise             (1b)
///
/// kappa is the average packet size; (1b) is the M/M/1 sojourn-time
/// approximation (queueing + transmission). Below utilization mu queueing is
/// treated as negligible relative to propagation (high-speed backbone
/// assumption; paper uses mu = 0.95). To avoid the 1/(C-x) blow-up, the
/// x/(C-x) term is replaced by its tangent line for x/C >= 0.99 (footnote 3),
/// which keeps D continuous, increasing and finite even for x > C.
struct DelayModelParams {
  double packet_size_bytes = 1500.0;  ///< kappa
  double utilization_threshold = 0.95;  ///< mu
  double linearization_utilization = 0.99;
};

/// Queueing + transmission component of (1b) in ms (zero load -> kappa/C).
/// Exposed separately for unit tests and diagnostics.
double queueing_delay_ms(double load_mbps, double capacity_mbps,
                         const DelayModelParams& params);

/// Full link delay D_l in ms.
double link_delay_ms(double load_mbps, double capacity_mbps, double prop_delay_ms,
                     const DelayModelParams& params);

/// Dirty-arc index for the incremental end-to-end delay DP: records, while
/// the no-failure base DP runs, which destinations read which arc's delay
/// (the alive tight arcs of the destination's ECMP DAG below its demand
/// sources). Inverted into an arc -> destinations CSR, it answers the
/// per-failure question "whose DP inputs did these delay changes touch?" in
/// time proportional to the change, so untouched destinations skip the DP
/// and replay the base result verbatim.
class DelayDpIndex {
 public:
  /// Drops all recorded pairs and sizes the index for `num_arcs`.
  void reset(std::size_t num_arcs);

  /// Records that destination t's DP reads arc a's delay. Each (t, a) pair is
  /// recorded at most once (the DP visits every arc of a DAG once).
  void add(NodeId t, ArcId a) {
    pair_arc_.push_back(a);
    pair_dest_.push_back(t);
  }

  /// Builds the arc -> destinations CSR from the recorded pairs. Must be
  /// called once after the base DP finishes and before `users`.
  void finalize();

  bool ready() const { return !offset_.empty(); }

  std::size_t memory_bytes() const {
    return heap_bytes(pair_arc_) + heap_bytes(pair_dest_) + heap_bytes(offset_) +
           heap_bytes(user_);
  }

  /// Destinations whose DP reads arc a's delay (ascending order).
  std::span<const NodeId> users(ArcId a) const {
    return {user_.data() + offset_[a], offset_[a + 1] - offset_[a]};
  }

 private:
  std::size_t num_arcs_ = 0;
  std::vector<ArcId> pair_arc_;
  std::vector<NodeId> pair_dest_;
  std::vector<std::size_t> offset_;  ///< num_arcs + 1 once finalized
  std::vector<NodeId> user_;
};

/// Marks the destinations whose delay DP reads an arc whose delay changed:
/// for every arc with bits(delay_ms[a]) != bits(base_delay_ms[a]), sets
/// dirty[t] = 1 for each destination the index recorded for a. The
/// comparison is BITWISE, not ==: bit-equal inputs are what guarantee the
/// skipped DP would have produced bit-equal outputs.
void mark_dirty_destinations(const DelayDpIndex& index,
                             std::span<const double> base_delay_ms,
                             std::span<const double> delay_ms,
                             std::span<std::uint8_t> dirty);

}  // namespace dtr
