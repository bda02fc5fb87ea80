#include "cost/delay_model.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace dtr {

namespace {

/// kappa / C in milliseconds: bytes * 8 bits / (C Mbit/s) = microseconds*8,
/// i.e. bytes * 0.008 / C_mbps milliseconds.
double kappa_over_capacity_ms(double packet_size_bytes, double capacity_mbps) {
  return packet_size_bytes * 0.008 / capacity_mbps;
}

}  // namespace

double queueing_delay_ms(double load_mbps, double capacity_mbps,
                         const DelayModelParams& params) {
  if (!(capacity_mbps > 0.0)) throw std::invalid_argument("queueing_delay_ms: capacity");
  if (load_mbps < 0.0) throw std::invalid_argument("queueing_delay_ms: negative load");

  const double knee = params.linearization_utilization * capacity_mbps;
  double occupancy;  // the x/(C-x) term, linearized past the knee
  if (load_mbps < knee) {
    occupancy = load_mbps / (capacity_mbps - load_mbps);
  } else {
    // Tangent-line extension at x = knee: value u/(1-u), slope C/(C-x)^2.
    const double u = params.linearization_utilization;
    const double value_at_knee = u / (1.0 - u);
    const double slope_at_knee = capacity_mbps / ((capacity_mbps - knee) * (capacity_mbps - knee));
    occupancy = value_at_knee + slope_at_knee * (load_mbps - knee);
  }
  return kappa_over_capacity_ms(params.packet_size_bytes, capacity_mbps) * (occupancy + 1.0);
}

double link_delay_ms(double load_mbps, double capacity_mbps, double prop_delay_ms,
                     const DelayModelParams& params) {
  if (prop_delay_ms < 0.0) throw std::invalid_argument("link_delay_ms: negative delay");
  if (load_mbps / capacity_mbps <= params.utilization_threshold) return prop_delay_ms;  // (1a)
  return queueing_delay_ms(load_mbps, capacity_mbps, params) + prop_delay_ms;           // (1b)
}

void DelayDpIndex::build(std::size_t num_arcs, std::span<const std::size_t> dest_offset,
                         std::span<const ArcId> arcs) {
  if (dest_offset.empty() || dest_offset.back() != arcs.size())
    throw std::invalid_argument("DelayDpIndex::build: offsets don't cover the arcs");
  // Counting sort into the arc -> destinations CSR. Destinations are placed
  // in ascending order, so each arc's list comes out ascending.
  offset_.assign(num_arcs + 1, 0);
  for (const ArcId a : arcs) {
    if (a >= num_arcs) throw std::out_of_range("DelayDpIndex::build: arc id");
    ++offset_[a + 1];
  }
  for (std::size_t a = 0; a < num_arcs; ++a) offset_[a + 1] += offset_[a];
  user_.resize(arcs.size());
  std::vector<std::size_t> cursor(offset_.begin(), offset_.end() - 1);
  for (std::size_t t = 0; t + 1 < dest_offset.size(); ++t)
    for (std::size_t i = dest_offset[t]; i < dest_offset[t + 1]; ++i)
      user_[cursor[arcs[i]]++] = static_cast<NodeId>(t);
}

void mark_dirty_destinations(const DelayDpIndex& index,
                             std::span<const double> base_delay_ms,
                             std::span<const double> delay_ms,
                             std::span<std::uint8_t> dirty) {
  if (base_delay_ms.size() != delay_ms.size())
    throw std::invalid_argument("mark_dirty_destinations: delay size mismatch");
  if (!index.ready())
    throw std::logic_error("mark_dirty_destinations: index not built");
  for (std::size_t a = 0; a < delay_ms.size(); ++a) {
    if (std::bit_cast<std::uint64_t>(delay_ms[a]) ==
        std::bit_cast<std::uint64_t>(base_delay_ms[a]))
      continue;
    for (const NodeId t : index.users(static_cast<ArcId>(a))) dirty[t] = 1;
  }
}

}  // namespace dtr
