#pragma once

/// Streaming progress events: the front end the PR-7 registry was missing.
/// Instrumented code publishes typed events — optimizer phase markers and
/// iteration records, campaign cell heartbeats, sweep progress, registry
/// snapshot deltas — onto a mutex-guarded queue (EventBus) that a consumer
/// drains into a schema-versioned `dtr.events.v1` JSONL sink.
///
/// Events carry the same two-plane contract as the registry:
///
///  - Plane::kDeterministic — iteration-indexed records with NO wall-clock
///    fields, byte-identical for any worker/thread shape. The optimizer
///    renders them from its finished OptimizeResult when optimize()
///    returns, and the campaign engine gives each cell its own bus, drained
///    into the sink in campaign order after the parallel barrier — exactly
///    the per-cell-registry pattern.
///  - Plane::kProcess — timestamped heartbeats, progress ticks and counter
///    deltas, published live. Excluded from golden diffs (`"plane":"process"`
///    lines are filtered out by the CI gate).
///
/// The queue is unbounded, so a stream never loses an event.

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/telemetry.h"

namespace dtr::telemetry {

inline constexpr std::string_view kEventsSchema = "dtr.events.v1";

enum class EventKind : std::uint8_t {
  kSchema,        ///< det: stream header carrying the schema version
  kPhaseStart,    ///< det: optimizer phase began (label = phase name)
  kPhaseEnd,      ///< det: optimizer phase ended (label, iteration/evaluation totals)
  kIteration,     ///< det: one accepted move / restart adoption of the search
  kCellStart,     ///< process: campaign cell heartbeat (label = cell id)
  kCellFinish,    ///< process: campaign cell heartbeat (label = cell id)
  kProgress,      ///< process: sweep progress, `done` of `total` units
  kCounterDelta,  ///< process: registry snapshot delta (label = counter name)
};

std::string_view to_string(EventKind kind);

/// One typed progress event. A single flat struct (not a variant); writers
/// emit only the fields meaningful for the kind. `wall_ms` stays 0 for
/// deterministic-plane events by construction.
struct Event {
  EventKind kind = EventKind::kSchema;
  Plane plane = Plane::kDeterministic;
  std::string label;               ///< phase name / cell id / counter name
  std::uint64_t iteration = 0;     ///< kIteration/kPhaseEnd: search iteration index
  std::uint64_t evaluations = 0;   ///< kIteration/kPhaseEnd: objective evaluations so far
  std::int64_t link = -1;          ///< kIteration: changed link, -1 = restart/none
  double cost_lambda = 0.0;        ///< kIteration: incumbent cost after the move
  double cost_phi = 0.0;
  bool restart = false;            ///< kIteration: restart adoption, not a probe accept
  std::uint64_t done = 0;          ///< kProgress: units finished
  std::uint64_t total = 0;         ///< kProgress: units overall
  std::uint64_t value = 0;         ///< kCounterDelta: counter increment
  std::uint64_t wall_ms = 0;       ///< process plane only: ms since an arbitrary epoch
};

/// Multi-producer event queue: a mutex-guarded vector. publish() never drops
/// an event; the lock is held for one push_back (publish) or one swap (drain).
class EventBus {
 public:
  void publish(Event e);

  /// Removes and returns every queued event, in FIFO order.
  std::vector<Event> drain();

 private:
  std::mutex mutex_;
  std::vector<Event> events_;
};

/// Serializes one event as a single compact JSON line (no trailing newline):
/// insertion-ordered keys, shortest-round-trip doubles — deterministic-plane
/// lines are byte-stable across shapes because the fields are.
std::string event_json_line(const Event& e);

/// Appends events to `os` as `dtr.events.v1` JSONL, one line each.
/// `write_events_header` emits the deterministic schema line that starts
/// every stream.
void write_events_header(std::ostream& os);
void write_events_jsonl(std::ostream& os, const std::vector<Event>& events);

/// Convenience producers --------------------------------------------------

/// Publishes a process-plane event stamped with wall_ms (milliseconds since
/// the first call in this process — monotonic, not absolute). Null bus = no-op.
void publish_process(EventBus* bus, Event e);

/// Emits one kCounterDelta event per deterministic counter whose value in
/// `now` exceeds its value in `before` (process plane: the snapshot cadence
/// is time-driven even though the counters are deterministic).
void publish_snapshot_delta(EventBus* bus, const Snapshot& before, const Snapshot& now);

}  // namespace dtr::telemetry
