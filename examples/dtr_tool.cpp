/// dtr_tool — command-line front end for the library: build (or load) a
/// topology, synthesize traffic, run the two-phase robust optimization, and
/// export the deployable artifacts (weight file, Graphviz map, failure
/// report). The `campaign` subcommand runs a whole sharded experiment
/// campaign from a spec file and writes the schema-versioned JSON artifact;
/// the `scenarios` subcommand generates a failure-scenario catalog (k-link
/// combinations, SRLG files, synthetic conduits) and lists/describes/exports
/// it as dtr.scenarios.v1 JSON; the `tail` subcommand pretty-prints a
/// dtr.events.v1 JSONL event stream as a live progress view.
///
/// Usage:
///   dtr_tool [--topology rand|near|pl|isp] [--nodes N] [--degree D]
///            [--seed S] [--avg-util U | --max-util U] [--theta MS]
///            [--effort smoke|quick|full] [--fraction F]
///            [--objective expected|percentile|downtime]
///            [--harden-set all_links|all_nodes|k_link|srlg_file|geo_srlg]
///            [--harden-k N] [--harden-budget N] [--harden-srlg-file FILE]
///            [--harden-geo-grid N] [--harden-rates] [--harden-percentile P]
///            [--harden-period MIN]
///            [--in-graph FILE] [--out-graph FILE] [--out-weights FILE]
///            [--out-dot FILE] [--report]
///            [--telemetry-json FILE] [--trace-out FILE]
///            [--events-out FILE] [--metrics-port N]
///   dtr_tool campaign --spec FILE [--json FILE] [--workers N]
///            [--inner-threads N] [--filter SUBSTR] [--list] [--timings]
///            [--no-incremental] [--no-delay-dp]
///            [--telemetry-json FILE] [--trace-out FILE]
///            [--events-out FILE] [--metrics-port N]
///   dtr_tool scenarios --set all_links|all_nodes|k_link|srlg_file|geo_srlg
///            [--k N] [--budget N] [--srlg-file FILE] [--geo-grid N]
///            [--rates] [--topology rand|near|pl|isp] [--nodes N]
///            [--degree D] [--seed S] [--theta MS] [--in-graph FILE]
///            [--json FILE] [--list] [--describe]
///   dtr_tool tail FILE [--follow]
///   dtr_tool --version
///
/// Examples:
///   dtr_tool --topology isp --report --out-weights isp.weights
///   dtr_tool --topology rand --nodes 24 --degree 6 --out-dot net.dot
///   dtr_tool --topology rand --objective downtime --harden-set geo_srlg
///            --harden-rates --report
///   dtr_tool campaign --spec sweep.campaign --json sweep.json --workers 0
///   dtr_tool scenarios --set k_link --k 2 --budget 50 --rates --json k2.json
///   dtr_tool scenarios --set geo_srlg --topology rand --nodes 30 --describe
///
/// Hardening (availability-aware optimization): --objective switches Phase 2
/// to a HardeningObjective — a scenario catalog (--harden-set, defaulting to
/// all single-link failures) aggregated as expected cost, weighted
/// percentile, or expected downtime minutes. --harden-rates weights the
/// catalog by per-element failure probabilities; --harden-period sets the
/// downtime period (minutes, default 43200 = one month).
///
/// Observability: --telemetry-json exports the run's counter registry as a
/// dtr.telemetry.v1 artifact (deterministic counters byte-identical for any
/// --workers / --inner-threads shape, wall-time data in a separate process
/// section); --trace-out exports the recorded phase/cell spans in Chrome
/// trace-event format (open in chrome://tracing or Perfetto). The campaign
/// JSON artifact itself is byte-identical with or without these flags.
/// DTR_TELEMETRY_OFF=1 disables all collection.
///
/// Streaming: --events-out attaches an event bus to the run and writes the
/// stream as dtr.events.v1 JSONL — deterministic-plane lines (iteration
/// records, phase markers) are byte-identical for any --workers /
/// --inner-threads shape; process-plane lines (heartbeats, progress ticks,
/// counter deltas) carry wall_ms and are excluded from golden diffs. Campaign
/// cells opt in with the `events = 1` spec key. --metrics-port N serves
/// the live registry in Prometheus text format on 127.0.0.1:N for the
/// duration of the run (port 0 picks an ephemeral port, printed at startup).
/// `dtr_tool tail FILE` pretty-prints an events file; --follow keeps reading
/// as the producer appends.
///
/// Campaign spec format (line-based; '#' starts a comment):
///   name = demo            # top-level keys: name, effort, seed
///   effort = quick
///   seed = 1
///   [cell]                 # one section per cell
///   id = rand16            # cell keys: id, topology, nodes, degree,
///   topology = rand        #   attachments, theta, avg_util|max_util,
///   nodes = 16             #   delay_fraction, seed, repeats, seed_stride,
///   degree = 5             #   critical_fraction, phase1b_samples,
///                          #   phase_iterations, floor,
///   repeats = 3            #   fluctuation (none|gaussian|hotspot), trials,
///                          #   epsilon,
///                          # topology also takes isp:k=v,... with keys pops,
///                          #   cores, backbone_degree, avg_degree (generated
///                          #   Rocketfuel-style ISP at `nodes` routers) or
///                          #   isp:file=PATH (load a dtr-graph file)
///   scenario_set = k_link  #   top_fraction, direction, server_fraction,
///   k_link = 2             #   client_fraction, scale_min, scale_max, and
///   rate_weights = 1       #   the scenario-catalog keys: scenario_set
///   objective = downtime   #   (none|all_links|all_nodes|k_link|srlg_file|
///   harden_set = geo_srlg  #   geo_srlg), k_link, scenario_budget,
///   harden_rate_weights=1  #   srlg_file, geo_grid, percentile, rate_weights
///                          # hardening keys (availability-aware Phase 2):
///                          #   objective (expected|percentile|downtime),
///                          #   harden_set (same kinds as scenario_set),
///                          #   harden_k, harden_budget, harden_srlg_file,
///                          #   harden_geo_grid, harden_rate_weights,
///                          #   harden_percentile, harden_period_min
///                          # telemetry = 1 embeds the cell's deterministic
///                          #   counter block in the artifact
///                          # events = 1 streams the cell's optimizer events
///                          #   when the run has an --events-out sink

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "core/metrics.h"
#include "core/optimizer.h"
#include "experiments/campaign.h"
#include "experiments/results.h"
#include "graph/graph_io.h"
#include "graph/isp.h"
#include "graph/topology.h"
#include "routing/weights_io.h"
#include "scenarios/scenario_set.h"
#include "telemetry/events.h"
#include "telemetry/exposer.h"
#include "telemetry/telemetry.h"
#include "traffic/gravity.h"
#include "traffic/scaling.h"
#include "util/table.h"

namespace {

using namespace dtr;

struct Options {
  std::string topology = "rand";
  int nodes = 16;
  double degree = 5.0;
  std::uint64_t seed = 1;
  UtilizationTarget util{UtilizationTarget::Kind::kAverage, 0.43};
  double theta_ms = 25.0;
  Effort effort = Effort::kQuick;
  double fraction = 0.15;
  std::string in_graph, out_graph, out_weights, out_dot;
  std::string telemetry_json, trace_out, events_out;
  int metrics_port = -1;  ///< -1 = no exposer; 0 = ephemeral port
  bool report = false;
  /// Availability-aware hardening (the --objective / --harden-* flags);
  /// harden.enabled is set by --objective, mirroring the campaign spec's
  /// `objective=` opt-in.
  dtr::experiments::HardenSpec harden;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "dtr_tool: " << message << "\n(see the header comment for usage)\n";
  std::exit(2);
}

struct BuiltTopology {
  Graph graph;
  std::vector<std::string> names;  ///< city names (ISP topology only)
};

/// Flush-and-check after streaming into an export file: an open() that
/// succeeded can still lose the bytes (full disk, write error on a special
/// file), and ofstream reports that silently unless someone asks.
void finish_write(std::ofstream& out, const std::string& path) {
  out.flush();
  if (!out) usage_error("failed writing " + path);
}

/// Writes the telemetry artifacts a run collected; empty paths skip that
/// export. Valid (possibly empty-countered) files are still produced when
/// DTR_TELEMETRY_OFF suppressed collection.
void export_telemetry(const telemetry::Registry& registry, const std::string& name,
                      const std::string& telemetry_json, const std::string& trace_out) {
  if (!telemetry_json.empty()) {
    std::ofstream out(telemetry_json);
    if (!out) usage_error("cannot write " + telemetry_json);
    telemetry::TelemetryJsonOptions options;
    options.include_spans = true;
    write_telemetry_json(out, registry, name, options);
    finish_write(out, telemetry_json);
    std::cout << "wrote telemetry JSON to " << telemetry_json << "\n";
  }
  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    if (!out) usage_error("cannot write " + trace_out);
    write_chrome_trace(out, registry);
    finish_write(out, trace_out);
    std::cout << "wrote Chrome trace to " << trace_out << "\n";
  }
}

/// Drains `bus` into a dtr.events.v1 JSONL file: schema header, then every
/// queued event in FIFO order.
void export_events(telemetry::EventBus& bus, const std::string& path) {
  std::ofstream out(path);
  if (!out) usage_error("cannot write " + path);
  telemetry::write_events_header(out);
  const std::vector<telemetry::Event> events = bus.drain();
  telemetry::write_events_jsonl(out, events);
  finish_write(out, path);
  std::cout << "wrote " << events.size() << " events to " << path << "\n";
}

/// Starts a metrics exposer when `port` >= 0, announcing the bound address
/// (meaningful with port 0, where the kernel picks). Bind failures are usage
/// errors: the user asked for an endpoint we cannot provide.
std::unique_ptr<telemetry::MetricsExposer> start_exposer(const telemetry::Registry& registry,
                                                         int port) {
  if (port < 0) return nullptr;
  if (port > 65535) usage_error("--metrics-port must be in [0, 65535]");
  try {
    auto exposer = std::make_unique<telemetry::MetricsExposer>(
        registry, static_cast<std::uint16_t>(port));
    std::cout << "serving metrics on http://127.0.0.1:" << exposer->port() << "/\n";
    return exposer;
  } catch (const std::exception& e) {
    usage_error(e.what());
  }
}

/// The one topology-construction path for every subcommand, so scenario
/// catalogs, campaigns, and the optimizer front end all agree on element
/// ids for the same flags. Synthesized AND ISP delays are SLA-calibrated
/// like make_workload's (DESIGN §4/§4b), so rate-derived catalog weights
/// match what a campaign cell computes for the same topology; only loaded
/// graph files keep their delays verbatim.
BuiltTopology build_topology(const std::string& topology, const std::string& in_graph,
                             int nodes, double degree, std::uint64_t seed,
                             double theta_ms) {
  BuiltTopology built;
  if (!in_graph.empty()) {
    std::ifstream in(in_graph);
    if (!in) usage_error("cannot open " + in_graph);
    built.graph = read_graph(in);
    return built;
  }
  if (topology == "isp") {
    IspTopology isp = make_isp_backbone();
    built.graph = std::move(isp.graph);
    built.names = std::move(isp.city_names);
    calibrate_delays_to_sla(built.graph, theta_ms);
    return built;
  }
  if (topology == "rand") {
    built.graph = make_rand_topo({nodes, degree, 500.0, seed});
  } else if (topology == "near") {
    built.graph = make_near_topo({nodes, degree, 500.0, seed});
  } else if (topology == "pl") {
    built.graph = make_pl_topo({nodes, 3, 500.0, seed});
  } else {
    usage_error("unknown topology: " + topology);
  }
  calibrate_delays_to_sla(built.graph, theta_ms);
  return built;
}

Options parse_args(int argc, char** argv) {
  namespace exp = dtr::experiments;
  Options opt;
  bool harden_flag_seen = false;
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--report") {
      opt.report = true;
      continue;
    }
    if (arg == "--harden-rates") {
      opt.harden.catalog.rate_weights = true;
      harden_flag_seen = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0 || i + 1 >= argc) usage_error("bad argument: " + arg);
    flags[arg] = argv[++i];
  }
  for (const auto& [flag, value] : flags) {
    if (flag == "--topology") opt.topology = value;
    else if (flag == "--objective") {
      const auto mode = parse_aggregation_mode(value);
      if (!mode.has_value()) usage_error("unknown objective: " + value);
      opt.harden.mode = *mode;
      opt.harden.enabled = true;
    } else if (flag == "--harden-set") {
      if (value == "all_links") opt.harden.catalog.kind = exp::ScenarioSpec::Kind::kAllLinks;
      else if (value == "all_nodes") opt.harden.catalog.kind = exp::ScenarioSpec::Kind::kAllNodes;
      else if (value == "k_link") opt.harden.catalog.kind = exp::ScenarioSpec::Kind::kKLink;
      else if (value == "srlg_file") opt.harden.catalog.kind = exp::ScenarioSpec::Kind::kSrlgFile;
      else if (value == "geo_srlg") opt.harden.catalog.kind = exp::ScenarioSpec::Kind::kGeoSrlg;
      else usage_error("unknown hardening set: " + value);
      harden_flag_seen = true;
    } else if (flag == "--harden-k") {
      opt.harden.catalog.k = std::stoi(value);
      harden_flag_seen = true;
    } else if (flag == "--harden-budget") {
      const long budget = std::stol(value);
      if (budget < 1) usage_error("--harden-budget must be >= 1");
      opt.harden.catalog.budget = static_cast<std::size_t>(budget);
      harden_flag_seen = true;
    } else if (flag == "--harden-srlg-file") {
      opt.harden.catalog.srlg_file = value;
      harden_flag_seen = true;
    } else if (flag == "--harden-geo-grid") {
      opt.harden.catalog.geo_grid = std::stoi(value);
      harden_flag_seen = true;
    } else if (flag == "--harden-percentile") {
      const double p = std::stod(value);
      if (p < 0.0 || p > 1.0) usage_error("--harden-percentile must be in [0, 1]");
      opt.harden.catalog.percentile = p;
      harden_flag_seen = true;
    } else if (flag == "--harden-period") {
      const double minutes = std::stod(value);
      if (minutes <= 0.0) usage_error("--harden-period must be > 0 minutes");
      opt.harden.period_minutes = minutes;
      harden_flag_seen = true;
    }
    else if (flag == "--nodes") opt.nodes = std::stoi(value);
    else if (flag == "--degree") opt.degree = std::stod(value);
    else if (flag == "--seed") opt.seed = std::stoull(value);
    else if (flag == "--avg-util")
      opt.util = {UtilizationTarget::Kind::kAverage, std::stod(value)};
    else if (flag == "--max-util")
      opt.util = {UtilizationTarget::Kind::kMax, std::stod(value)};
    else if (flag == "--theta") opt.theta_ms = std::stod(value);
    else if (flag == "--fraction") opt.fraction = std::stod(value);
    else if (flag == "--effort") {
      if (value == "smoke") opt.effort = Effort::kSmoke;
      else if (value == "quick") opt.effort = Effort::kQuick;
      else if (value == "full") opt.effort = Effort::kFull;
      else usage_error("unknown effort: " + value);
    } else if (flag == "--in-graph") opt.in_graph = value;
    else if (flag == "--out-graph") opt.out_graph = value;
    else if (flag == "--out-weights") opt.out_weights = value;
    else if (flag == "--out-dot") opt.out_dot = value;
    else if (flag == "--telemetry-json") opt.telemetry_json = value;
    else if (flag == "--trace-out") opt.trace_out = value;
    else if (flag == "--events-out") opt.events_out = value;
    else if (flag == "--metrics-port") {
      opt.metrics_port = std::stoi(value);
      if (opt.metrics_port < 0 || opt.metrics_port > 65535)
        usage_error("--metrics-port must be in [0, 65535]");
    }
    else usage_error("unknown flag: " + flag);
  }
  if (harden_flag_seen && !opt.harden.enabled)
    usage_error("--harden-* flags need --objective expected|percentile|downtime");
  if (opt.harden.enabled &&
      opt.harden.catalog.kind == exp::ScenarioSpec::Kind::kSrlgFile &&
      opt.harden.catalog.srlg_file.empty())
    usage_error("--harden-set srlg_file needs --harden-srlg-file FILE");
  return opt;
}

int run_campaign_command(int argc, char** argv) {
  namespace exp = dtr::experiments;
  std::string spec_path, json_path, filter, telemetry_json, trace_out, events_out;
  int workers = 0, inner_threads = 1, metrics_port = -1;
  bool list = false, timings = false;
  // Evaluator execution knobs: results are bit-identical for every setting
  // (the CI golden gate proves it across the config corners); these exist to
  // cross-check the fast paths and to time them.
  dtr::EvaluatorConfig eval_config;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(arg + " needs a value");
      return argv[++i];
    };
    const auto next_count = [&]() -> int {
      const std::string text = next();
      const auto count = exp::parse_worker_count(text);
      if (!count.has_value())
        usage_error(arg + " needs a count in [0, 4096], got '" + text + "'");
      return *count;
    };
    if (arg == "--spec") spec_path = next();
    else if (arg == "--json") json_path = next();
    else if (arg == "--filter") filter = next();
    else if (arg == "--workers") workers = next_count();
    else if (arg == "--inner-threads") inner_threads = next_count();
    else if (arg == "--list") list = true;
    else if (arg == "--timings") timings = true;
    else if (arg == "--no-incremental") eval_config.incremental = false;
    else if (arg == "--no-delay-dp") eval_config.incremental_delay = false;
    else if (arg == "--telemetry-json") telemetry_json = next();
    else if (arg == "--trace-out") trace_out = next();
    else if (arg == "--events-out") events_out = next();
    else if (arg == "--metrics-port") {
      metrics_port = std::stoi(next());
      if (metrics_port < 0 || metrics_port > 65535)
        usage_error("--metrics-port must be in [0, 65535]");
    }
    else usage_error("unknown campaign flag: " + arg);
  }
  if (spec_path.empty()) usage_error("campaign needs --spec FILE");
  std::ifstream in(spec_path);
  if (!in) usage_error("cannot open " + spec_path);

  exp::Campaign campaign;
  try {
    campaign = exp::parse_campaign_spec(in);
  } catch (const std::exception& e) {
    usage_error(e.what());
  }
  exp::filter_cells(campaign, filter);
  if (list) {
    for (const exp::CampaignCell& cell : campaign.cells) std::cout << cell.id << "\n";
    return 0;
  }

  // The registry only becomes a sink when an export was requested; the
  // campaign artifact's bytes are identical either way (test-enforced).
  telemetry::Registry registry;
  exp::CampaignOptions options{workers, inner_threads, eval_config};
  if (!telemetry_json.empty() || !trace_out.empty() || metrics_port >= 0)
    options.telemetry = &registry;
  telemetry::EventBus event_sink;
  if (!events_out.empty()) options.events = &event_sink;
  const auto exposer = start_exposer(registry, metrics_port);
  const exp::CampaignResult result = exp::run_campaign(campaign, options);

  exp::CampaignJsonOptions json_options;
  json_options.include_timings = timings;
  if (json_path.empty()) {
    // Artifact on stdout, human summary suppressed (pipe-friendly).
    exp::write_campaign_json(std::cout, result, json_options);
  } else {
    std::ofstream out(json_path);
    if (!out) usage_error("cannot write " + json_path);
    exp::write_campaign_json(out, result, json_options);
    finish_write(out, json_path);
    std::cout << "wrote campaign JSON to " << json_path << "\n";
    Table table({"cell", "reps", "error", "beta R", "beta NR"});
    for (const exp::CellResult& cell : result.cells) {
      table.row()
          .cell(cell.id)
          .integer(static_cast<long long>(cell.reps.size()))
          .cell(cell.error.empty() ? "-" : cell.error)
          .num(exp::aggregate_metric(cell, "beta_r").mean)
          .num(exp::aggregate_metric(cell, "beta_nr").mean);
    }
    table.print(std::cout);
  }
  export_telemetry(registry, campaign.name, telemetry_json, trace_out);
  if (!events_out.empty()) export_events(event_sink, events_out);
  int failures = 0;
  for (const exp::CellResult& cell : result.cells)
    if (!cell.error.empty()) ++failures;
  return failures > 0 ? 1 : 0;
}

int run_scenarios_command(int argc, char** argv) {
  namespace exp = dtr::experiments;
  exp::ScenarioSpec spec;
  spec.kind = exp::ScenarioSpec::Kind::kAllLinks;
  spec.budget = 100;
  std::string set_name = "all_links", topology = "rand", in_graph, json_path;
  int nodes = 16;
  double degree = 5.0, theta_ms = 25.0;
  std::uint64_t seed = 1;
  bool list = false, describe = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--set") {
      set_name = next();
      if (set_name == "all_links") spec.kind = exp::ScenarioSpec::Kind::kAllLinks;
      else if (set_name == "all_nodes") spec.kind = exp::ScenarioSpec::Kind::kAllNodes;
      else if (set_name == "k_link") spec.kind = exp::ScenarioSpec::Kind::kKLink;
      else if (set_name == "srlg_file") spec.kind = exp::ScenarioSpec::Kind::kSrlgFile;
      else if (set_name == "geo_srlg") spec.kind = exp::ScenarioSpec::Kind::kGeoSrlg;
      else usage_error("unknown scenario set: " + set_name);
    } else if (arg == "--k") spec.k = std::stoi(next());
    else if (arg == "--budget") {
      // Same floor as the campaign spec's scenario_budget: a zero budget
      // would silently emit an empty catalog.
      const long budget = std::stol(next());
      if (budget < 1) usage_error("--budget must be >= 1");
      spec.budget = static_cast<std::size_t>(budget);
    } else if (arg == "--srlg-file") spec.srlg_file = next();
    else if (arg == "--geo-grid") spec.geo_grid = std::stoi(next());
    else if (arg == "--rates") spec.rate_weights = true;
    else if (arg == "--topology") topology = next();
    else if (arg == "--nodes") nodes = std::stoi(next());
    else if (arg == "--degree") degree = std::stod(next());
    else if (arg == "--seed") seed = std::stoull(next());
    else if (arg == "--theta") theta_ms = std::stod(next());
    else if (arg == "--in-graph") in_graph = next();
    else if (arg == "--json") json_path = next();
    else if (arg == "--list") list = true;
    else if (arg == "--describe") describe = true;
    else usage_error("unknown scenarios flag: " + arg);
  }
  if (spec.kind == exp::ScenarioSpec::Kind::kSrlgFile && spec.srlg_file.empty())
    usage_error("scenarios --set srlg_file needs --srlg-file FILE");

  const Graph graph =
      build_topology(topology, in_graph, nodes, degree, seed, theta_ms).graph;

  ScenarioSet set;
  try {
    set = exp::build_scenario_set(spec, graph, seed);
  } catch (const std::exception& e) {
    usage_error(e.what());
  }

  if (list) {
    for (std::size_t i = 0; i < set.size(); ++i) std::cout << set.name(i) << "\n";
    return 0;
  }
  if (describe) {
    Table table({"scenario", "kind", "links", "nodes", "weight"});
    for (std::size_t i = 0; i < set.size(); ++i) {
      std::size_t num_links = 0, num_nodes = 0;
      for_each_failed_element(
          set.scenario(i), [&](LinkId) { ++num_links; }, [&](NodeId) { ++num_nodes; });
      table.row()
          .cell(set.name(i))
          .cell(std::string(to_string(set.scenario(i).kind)))
          .integer(static_cast<long long>(num_links))
          .integer(static_cast<long long>(num_nodes))
          .num(set.weight(i));
    }
    std::cout << "scenario catalog '" << set_name << "': " << set.size()
              << " scenarios, total weight " << set.total_weight() << "\n";
    table.print(std::cout);
    return 0;
  }
  if (json_path.empty()) {
    write_scenario_set_json(std::cout, set, set_name);
  } else {
    std::ofstream out(json_path);
    if (!out) usage_error("cannot write " + json_path);
    write_scenario_set_json(out, set, set_name);
    finish_write(out, json_path);
    std::cout << "wrote " << set.size() << " scenarios to " << json_path << "\n";
  }
  return 0;
}

/// Extracts the raw value of `key` from one compact JSON line the repo's own
/// writers produced (string values lose their quotes; nested escapes are
/// un-escaped only for \" and \\). Returns "" when the key is absent. This is
/// a reader for OUR schema, not a JSON parser — the repo deliberately has no
/// general-purpose one.
std::string json_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  std::size_t i = at + needle.size();
  if (i >= line.size()) return "";
  if (line[i] == '"') {
    std::string value;
    for (++i; i < line.size() && line[i] != '"'; ++i) {
      if (line[i] == '\\' && i + 1 < line.size()) ++i;
      value.push_back(line[i]);
    }
    return value;
  }
  std::size_t end = i;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(i, end - i);
}

/// One pretty-printed line per event, aligned for terminal reading:
///   [  det] iter          phase2 iter=41 evals=1930 link=7 cost=(0,8.125e6)
///   [ proc] progress      smoke-rand 1/2 (+142ms)
void print_event_line(const std::string& line, std::ostream& os) {
  if (line.empty()) return;
  const std::string event = json_field(line, "event");
  if (event.empty()) return;  // not an event line; skip silently
  const std::string plane = json_field(line, "plane");
  os << (plane == "det" ? "[  det] " : "[ proc] ");
  os << event;
  for (std::size_t pad = event.size(); pad < 14; ++pad) os << ' ';  // longest kind + 1
  const std::string label = json_field(line, "label");
  if (event == "schema") {
    os << json_field(line, "schema");
  } else if (event == "iter") {
    os << label << " iter=" << json_field(line, "iter")
       << " evals=" << json_field(line, "evals");
    if (json_field(line, "restart") == "true") os << " restart";
    else os << " link=" << json_field(line, "link");
    os << " cost=(" << json_field(line, "lambda") << "," << json_field(line, "phi")
       << ")";
  } else if (event == "phase_end") {
    os << label << " iter=" << json_field(line, "iter")
       << " evals=" << json_field(line, "evals") << " cost=("
       << json_field(line, "lambda") << "," << json_field(line, "phi") << ")";
  } else if (event == "progress") {
    os << label << " " << json_field(line, "done");
    const std::string total = json_field(line, "total");
    if (!total.empty() && total != "0") os << "/" << total;
  } else if (event == "counter_delta") {
    os << label << " +" << json_field(line, "delta");
  } else {
    os << label;  // phase_start / cell_start / cell_finish carry only a label
  }
  const std::string wall = json_field(line, "wall_ms");
  if (!wall.empty()) os << " (+" << wall << "ms)";
  os << "\n";
}

/// `dtr_tool tail FILE [--follow]` — live progress view over an events file.
/// --follow keeps polling for appended lines (reader-side tail -f; the writer
/// needs no cooperation) until interrupted.
int run_tail_command(int argc, char** argv) {
  std::string path;
  bool follow = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--follow") follow = true;
    else if (arg.rfind("--", 0) == 0) usage_error("unknown tail flag: " + arg);
    else if (path.empty()) path = arg;
    else usage_error("tail takes one FILE");
  }
  if (path.empty()) usage_error("tail needs an events FILE");
  std::ifstream in(path);
  if (!in) usage_error("cannot open " + path);
  std::string line;
  for (;;) {
    while (std::getline(in, line)) print_event_line(line, std::cout);
    if (!follow) break;
    std::cout.flush();
    in.clear();  // getline hit EOF; clear so appended bytes become readable
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--version") {
    std::cout << "dtr_tool schemas: " << dtr::experiments::kCampaignSchema << " "
              << telemetry::kTelemetrySchema << " " << telemetry::kEventsSchema << "\n";
    return 0;
  }
  if (argc >= 2 && std::string(argv[1]) == "campaign")
    return run_campaign_command(argc, argv);
  if (argc >= 2 && std::string(argv[1]) == "scenarios")
    return run_scenarios_command(argc, argv);
  if (argc >= 2 && std::string(argv[1]) == "tail")
    return run_tail_command(argc, argv);
  const Options opt = parse_args(argc, argv);

  // ---- topology
  BuiltTopology built = build_topology(opt.topology, opt.in_graph, opt.nodes,
                                       opt.degree, opt.seed, opt.theta_ms);
  Graph& graph = built.graph;
  const std::vector<std::string>& names = built.names;
  EvalParams params;
  params.sla.theta_ms = opt.theta_ms;

  // ---- traffic
  ClassedTraffic traffic =
      split_by_class(make_gravity_traffic(graph, {1.0, 1.0, opt.seed + 1}), 0.30);
  scale_to_utilization(graph, traffic, opt.util);

  // ---- optimize
  telemetry::Registry registry;
  telemetry::Registry* telemetry_sink =
      (opt.telemetry_json.empty() && opt.trace_out.empty() && opt.metrics_port < 0)
          ? nullptr
          : &registry;
  EvaluatorConfig eval_config;
  eval_config.telemetry = telemetry_sink;
  const Evaluator evaluator(graph, traffic, params, eval_config);
  OptimizerConfig config = default_optimizer_config(opt.effort, opt.seed);
  config.critical_fraction = opt.fraction;
  config.telemetry = telemetry_sink;
  telemetry::EventBus events;
  if (!opt.events_out.empty()) config.events = &events;
  const auto exposer = start_exposer(registry, opt.metrics_port);
  if (opt.harden.enabled) {
    try {
      config.objective = dtr::experiments::build_hardening_objective(
          opt.harden, graph, opt.seed + opt.harden.seed_offset);
    } catch (const std::exception& e) {
      usage_error(e.what());
    }
  }
  RobustOptimizer optimizer(evaluator, config);
  const OptimizeResult result = optimizer.optimize();

  std::cout << "topology: " << (opt.in_graph.empty() ? opt.topology : opt.in_graph)
            << "  nodes=" << graph.num_nodes() << " links=" << graph.num_links()
            << " (arcs=" << graph.num_arcs() << ")\n";
  std::cout << "normal cost regular: " << to_string(result.regular_cost)
            << "\nnormal cost robust:  " << to_string(result.robust_normal_cost)
            << "\ncritical set |Ec| = " << result.critical.size() << "\n";
  if (opt.harden.enabled) {
    std::cout << "hardening objective: " << to_string(opt.harden.mode)
              << "  catalog=" << result.catalog_size
              << " |Sc|=" << result.critical_scenarios.size()
              << " samples=" << result.scenario_samples << "\n";
    if (std::isfinite(result.robust_objective_value))
      std::cout << "robust objective value: " << result.robust_objective_value << "\n";
  }

  // ---- exports
  if (!opt.out_graph.empty()) {
    std::ofstream out(opt.out_graph);
    write_graph(out, graph);
    std::cout << "wrote graph to " << opt.out_graph << "\n";
  }
  if (!opt.out_weights.empty()) {
    std::ofstream out(opt.out_weights);
    out << "# robust DTR weights (delay throughput), seed " << opt.seed << "\n";
    write_weights(out, result.robust);
    std::cout << "wrote robust weights to " << opt.out_weights << "\n";
  }
  if (!opt.out_dot.empty()) {
    std::ofstream out(opt.out_dot);
    out << to_dot(graph, names);
    std::cout << "wrote Graphviz map to " << opt.out_dot << "\n";
  }

  // ---- failure report
  if (opt.report) {
    const auto scenarios = all_link_failures(graph);
    const FailureProfile regular = profile_failures(evaluator, result.regular, scenarios);
    const FailureProfile robust = profile_failures(evaluator, result.robust, scenarios);
    Table table({"routing", "avg violations", "top-10%", "sum Phi_fail"});
    table.row().cell("regular").num(regular.beta()).num(regular.beta_top()).num(
        regular.phi_sum(), 0);
    table.row().cell("robust").num(robust.beta()).num(robust.beta_top()).num(
        robust.phi_sum(), 0);
    std::cout << "\nAll single-link failures:\n";
    table.print(std::cout);
  }

  // ---- telemetry export (main owns the evaluator, so it flushes the cache
  // totals — exactly once, after every consumer above is done with it)
  if (telemetry_sink != nullptr) {
    evaluator.flush_cache_stats_to_telemetry();
    export_telemetry(registry, "dtr_tool", opt.telemetry_json, opt.trace_out);
  }
  if (!opt.events_out.empty()) export_events(events, opt.events_out);
  return 0;
}
