#include "telemetry/events.h"

#include <chrono>
#include <ostream>
#include <utility>

#include "util/json.h"

namespace dtr::telemetry {

namespace {

std::uint64_t process_wall_ms() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - epoch).count());
}

}  // namespace

std::string_view to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kSchema: return "schema";
    case EventKind::kPhaseStart: return "phase_start";
    case EventKind::kPhaseEnd: return "phase_end";
    case EventKind::kIteration: return "iter";
    case EventKind::kCellStart: return "cell_start";
    case EventKind::kCellFinish: return "cell_finish";
    case EventKind::kProgress: return "progress";
    case EventKind::kCounterDelta: return "counter_delta";
  }
  return "unknown";
}

void EventBus::publish(Event e) {
  const std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(e));
}

std::vector<Event> EventBus::drain() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(events_, {});
}

std::string event_json_line(const Event& e) {
  std::string line = "{\"event\":";
  line += json_escape(to_string(e.kind));
  line += ",\"plane\":";
  line += e.plane == Plane::kDeterministic ? "\"det\"" : "\"process\"";
  if (e.kind == EventKind::kSchema) {
    line += ",\"schema\":";
    line += json_escape(kEventsSchema);
    line += "}";
    return line;
  }
  if (!e.label.empty()) {
    line += ",\"label\":";
    line += json_escape(e.label);
  }
  switch (e.kind) {
    case EventKind::kIteration:
      line += ",\"iter\":" + std::to_string(e.iteration);
      line += ",\"evals\":" + std::to_string(e.evaluations);
      line += ",\"link\":" + std::to_string(e.link);
      line += ",\"lambda\":" + json_number(e.cost_lambda);
      line += ",\"phi\":" + json_number(e.cost_phi);
      line += ",\"restart\":";
      line += e.restart ? "true" : "false";
      break;
    case EventKind::kPhaseEnd:
      line += ",\"iter\":" + std::to_string(e.iteration);
      line += ",\"evals\":" + std::to_string(e.evaluations);
      line += ",\"lambda\":" + json_number(e.cost_lambda);
      line += ",\"phi\":" + json_number(e.cost_phi);
      break;
    case EventKind::kProgress:
      line += ",\"done\":" + std::to_string(e.done);
      line += ",\"total\":" + std::to_string(e.total);
      break;
    case EventKind::kCounterDelta:
      line += ",\"delta\":" + std::to_string(e.value);
      break;
    default:
      break;
  }
  if (e.plane == Plane::kProcess) line += ",\"wall_ms\":" + std::to_string(e.wall_ms);
  line += "}";
  return line;
}

void write_events_header(std::ostream& os) {
  Event header;
  header.kind = EventKind::kSchema;
  header.plane = Plane::kDeterministic;
  os << event_json_line(header) << '\n';
}

void write_events_jsonl(std::ostream& os, const std::vector<Event>& events) {
  for (const Event& e : events) os << event_json_line(e) << '\n';
}

void publish_process(EventBus* bus, Event e) {
  if (bus == nullptr) return;
  e.plane = Plane::kProcess;
  e.wall_ms = process_wall_ms();
  bus->publish(std::move(e));
}

void publish_snapshot_delta(EventBus* bus, const Snapshot& before, const Snapshot& now) {
  if (bus == nullptr) return;
  for (const CounterValue& c : now.counters) {
    const std::uint64_t prior = before.counter(c.name);
    if (c.value <= prior) continue;
    Event e;
    e.kind = EventKind::kCounterDelta;
    e.label = c.name;
    e.value = c.value - prior;
    publish_process(bus, std::move(e));
  }
}

}  // namespace dtr::telemetry
