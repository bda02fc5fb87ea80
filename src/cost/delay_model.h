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

/// Dirty-arc index for the incremental end-to-end delay DP: which
/// destinations read which arc's delay (the tight arcs of each destination's
/// ECMP DAG below its demand sources). Built as the arc -> destinations
/// transpose of the base routing's per-destination DAGs, it answers the
/// per-failure question "whose DP inputs did these delay changes touch?" in
/// time proportional to the change, so untouched destinations skip the DP
/// and replay the base result verbatim.
class DelayDpIndex {
 public:
  /// Rebuilds the index over `num_arcs` arcs from per-destination arc lists:
  /// destination t reads arcs[dest_offset[t], dest_offset[t+1]), each at most
  /// once. One counting sort; each arc's destinations come out ascending.
  void build(std::size_t num_arcs, std::span<const std::size_t> dest_offset,
             std::span<const ArcId> arcs);

  bool ready() const { return !offset_.empty(); }

  std::size_t memory_bytes() const { return heap_bytes(offset_) + heap_bytes(user_); }

  /// Destinations whose DP reads arc a's delay (ascending order).
  std::span<const NodeId> users(ArcId a) const {
    return std::span<const NodeId>(user_).subspan(offset_[a], offset_[a + 1] - offset_[a]);
  }

 private:
  std::vector<std::size_t> offset_;  ///< num_arcs + 1 once built
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
