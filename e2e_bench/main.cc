// End-to-end benchmark of the deployed many-to-many aggregation path.
//
// One process, one workload per invocation:
//
//   e2e_bench --workload steady|heal|churn|pipelined --seed N --seconds S
//             --trace 0|1 [--smoke]
//
// Every input (topology, workload, faults, churn batches, readings, clock
// drift, channel loss) is derived from --seed; the library only receives
// the generated inputs. A run repeats one fixed *episode* of the workload
// (set-up, then a fixed schedule of timesteps) until --seconds have passed
// and at least two episodes have run, so a slow host runs
// fewer episodes but every episode simulates exactly the same thing: the
// simulated outputs are digested per episode and must match bit for bit
// across episodes. --smoke shrinks every workload to run in seconds.
//
// --trace 0 times the public calls only and prints the end-to-end metrics.
// --trace 1 alternates metered episodes (an obs::MetricsRegistry attached,
// spans recorded, and every layer hidden inside SelfHealingRuntime::RunRound
// re-run as a *shadow* public call on a copy of the state taken before the
// round, and CHECKed equal to the runtime's result) with plain episodes
// that give the untraced baseline for the metrics overhead. It prints the
// per-layer metrics. Spans are written to
// .bench_out/spans-<workload>-<seed>.json when the run ends.
//
// Output: a human-readable report line (JSON, with sample counts, tail
// percentiles, the per-episode digest and workload-specific figures), then
// as the last line {"correct", "attempted", "failed", "metrics"}. Any
// output mismatch prints the failure, reports correct=false and exits 1.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "event/clock.h"
#include "event/event_runtime.h"
#include "event/transport.h"
#include "lifecycle/lifecycle.h"
#include "lifecycle/tenant.h"
#include "obs/metrics.h"
#include "plan/dissemination.h"
#include "plan/node_tables.h"
#include "plan/planner.h"
#include "plan/serialization.h"
#include "routing/multicast.h"
#include "routing/path_system.h"
#include "runtime/channel.h"
#include "runtime/detector.h"
#include "runtime/network.h"
#include "sim/fault_schedule.h"
#include "sim/readings.h"
#include "sim/self_healing.h"
#include "topology/generator.h"
#include "workload/workload.h"

namespace {

using namespace m2m;
using e2e::Clock;
using e2e::MetricDef;
using e2e::MetricSet;
using e2e::Reduce;
using e2e::Timed;
using e2e::Tracer;

constexpr int kThreads = 2;
constexpr int kMinEpisodes = 2;
constexpr const char* kSpanDir = ".bench_out";
constexpr NodeId kBase = 0;
constexpr double kValueTolerance = 1e-4;  // Readings travel as float32.
/// Host time after which a plain episode stops repeating its set-up.
constexpr double kSetupBudgetMs = 2000.0;

// --- Metric catalogue ------------------------------------------------------

/// End-to-end metrics, measured untraced on every workload.
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s", Reduce::kMedian},
    {"timesteps_per_s", "1/s", Reduce::kMedian},
    {"round_ms_p50", "ms", Reduce::kMedian},
    {"round_ms_tail", "ms", Reduce::kMedian},
    {"energy_mj_per_timestep", "mJ", Reduce::kMedian},
    {"bytes_per_timestep", "B", Reduce::kMedian},
    {"coverage_mean", "ratio", Reduce::kMedian},
    {"peak_rss_mb", "MB", Reduce::kMedian},
};

/// Per-layer metrics, measured by the traced run. Counts are per timestep
/// (runtime/detector/heal), per replan (replan), per batch (qlm, event)
/// unless the name says otherwise.
const std::vector<MetricDef> kPerLayer = {
    // Set-up chain (shadowed on metered episodes).
    {"topology.generate_ms", "ms", Reduce::kMedian},
    {"routing.paths_ms", "ms", Reduce::kMedian},
    {"routing.forest_ms", "ms", Reduce::kMedian},
    {"routing.forest_edges", "count", Reduce::kMedian},
    {"plan.solve_ms", "ms", Reduce::kMedian},
    {"plan.compile_ms", "ms", Reduce::kMedian},
    {"plan.encode_ms", "ms", Reduce::kMedian},
    {"plan.image_bytes", "B", Reduce::kMedian},
    {"runtime.install_ms", "ms", Reduce::kMedian},
    // Data plane (shadow RunRoundLossy).
    {"runtime.round_ms", "ms", Reduce::kMedian},
    {"runtime.attempts", "count", Reduce::kMean},
    {"runtime.retransmissions", "count", Reduce::kMean},
    {"runtime.duplicates", "count", Reduce::kMean},
    {"runtime.messages_abandoned", "count", Reduce::kMean},
    {"runtime.delivery_ratio", "ratio", Reduce::kMean},
    {"runtime.payload_bytes", "B", Reduce::kMean},
    // Failure detector (shadow ObserveRound).
    {"detector.ms", "ms", Reduce::kMedian},
    {"detector.probes", "count", Reduce::kMean},
    {"detector.confirmations", "count", Reduce::kMean},
    {"detector.suspicions", "count", Reduce::kMean},
    {"detector.false_suspicions", "count", Reduce::kMean},
    {"detector.readmissions", "count", Reduce::kMean},
    // Self-healing control plane: the round minus its shadowed parts.
    {"heal.round_self_ms", "ms", Reduce::kMedian},
    {"heal.replan_round_self_ms", "ms", Reduce::kMedian},
    {"heal.control_hop_attempts", "count", Reduce::kMean},
    {"heal.control_delivery_ratio", "ratio", Reduce::kMean},
    {"heal.control_bytes", "B", Reduce::kMean},
    {"heal.replans", "count", Reduce::kMean},
    {"heal.pending_installs_max", "count", Reduce::kMax},
    // Replan chain (shadowed on rounds that opened an epoch).
    {"replan.paths_ms", "ms", Reduce::kMedian},
    {"replan.solve_ms", "ms", Reduce::kMedian},
    {"replan.compile_ms", "ms", Reduce::kMedian},
    {"replan.encode_ms", "ms", Reduce::kMedian},
    {"replan.diff_ms", "ms", Reduce::kMedian},
    {"replan.edges_reoptimized", "count", Reduce::kMean},
    {"replan.edges_total", "count", Reduce::kMean},
    {"replan.images_shipped", "count", Reduce::kMean},
    {"replan.bumps_shipped", "count", Reduce::kMean},
    // Query lifecycle (frontend ApplyBatch).
    {"qlm.batch_ms", "ms", Reduce::kMedian},
    {"qlm.requests", "count", Reduce::kMean},
    {"qlm.accepted", "count", Reduce::kMean},
    {"qlm.rejected", "count", Reduce::kMean},
    {"qlm.dedup_hits", "count", Reduce::kMean},
    {"qlm.sequential_fallbacks", "count", Reduce::kMean},
    {"qlm.delta_state_bytes", "B", Reduce::kMean},
    {"qlm.edges_reused_ratio", "ratio", Reduce::kMean},
    {"qlm.runtime_replans_per_commit", "ratio", Reduce::kMedian},
    // Event engine (RunPipelined).
    {"event.events_processed", "count", Reduce::kMean},
    {"event.ns_per_event", "ns", Reduce::kMedian},
    {"event.timers_cancelled", "count", Reduce::kMean},
    {"event.max_in_flight", "count", Reduce::kMax},
    {"event.buffered_prestart", "count", Reduce::kMean},
    {"event.queue_depth_max", "count", Reduce::kMax},
    {"event.batch1_ms_per_timestep", "ms", Reduce::kMedian},
    // Benchmark-side physical-link oracle (per round).
    {"oracle.ms", "ms", Reduce::kMedian},
    // Observability cost: metered vs plain timed call, same process.
    {"obs.metrics_overhead_share", "ratio", Reduce::kMedian},
    // Workload-specific end-to-end figures (0 where the workload has none).
    {"replan_ms_p50", "ms", Reduce::kMedian},
    {"replan_ms_tail", "ms", Reduce::kMedian},
    {"mutation_ms_p50", "ms", Reduce::kMedian},
    {"mutation_ms_tail", "ms", Reduce::kMedian},
    {"heal_rounds_p50", "rounds", Reduce::kMedian},
    {"admit_to_result_rounds_p50", "rounds", Reduce::kMedian},
    {"failed_share", "ratio", Reduce::kMedian},
};

// --- Run state -------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
};

/// Simulated (deterministic) outputs of one episode.
struct EpisodeSim {
  e2e::Digest digest;
  int64_t timesteps = 0;
  double energy_mj = 0.0;
  double bytes = 0.0;
  double coverage_sum = 0.0;
  int64_t coverage_n = 0;
  int64_t destination_timesteps = 0;
  int64_t incomplete = 0;
  int64_t requests = 0;
  int64_t rejected = 0;
  std::vector<double> heal_rounds;
  std::vector<double> admit_rounds;
};

struct Run {
  Options opt;
  Tracer tracer{false};
  Tracer off{false};
  MetricSet layers{kPerLayer};
  std::vector<double> setup_s;
  std::vector<double> round_ms;
  std::vector<double> replan_ms;
  std::vector<double> mutation_ms;
  double busy_ms = 0.0;  ///< Host time inside the timed calls.
  int64_t timesteps = 0;
  int64_t operations = 0;  ///< Timesteps plus mutation requests.
  int64_t rejected = 0;
  /// Traced runs: the main timed call on metered vs plain episodes.
  std::vector<double> metered_ms;
  std::vector<double> plain_ms;
  std::map<std::string, double> layer_self_ms;
  std::optional<EpisodeSim> sim;
  int episodes = 0;
  int errors = 0;
};

void Fail(Run& run, const std::string& message) {
  ++run.errors;
  if (run.errors <= 20) std::cerr << "CHECK FAILED: " << message << "\n";
}

/// Folds one finished episode's simulated outputs into the run: the first
/// episode is recorded, later ones must reproduce its digest exactly.
void FinishEpisode(Run& run, EpisodeSim sim) {
  ++run.episodes;
  if (!run.sim) {
    run.sim = std::move(sim);
    return;
  }
  if (sim.digest.value() != run.sim->digest.value()) {
    Fail(run, "episode " + std::to_string(run.episodes) + " digest " +
                  sim.digest.Hex() + " != first episode " +
                  run.sim->digest.Hex());
  }
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return SplitMix64(seed * 0x9e3779b97f4a7c15ULL + stream);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB.
    }
  }
  return 0.0;
}

/// Upper bound of the highest non-empty bucket of a registry histogram.
double HistogramMaxBound(const obs::MetricsRegistry& registry,
                         const std::string& name) {
  const std::string json = registry.ToJson();
  const size_t at = json.find("\"name\": \"" + name + "\"");
  if (at == std::string::npos) return 0.0;
  const size_t end = json.find('\n', at);
  const std::string entry = json.substr(at, end - at);
  double best = 0.0;
  size_t pos = 0;
  while ((pos = entry.find("{\"le\": ", pos)) != std::string::npos) {
    pos += 7;
    const size_t comma = entry.find(',', pos);
    const std::string bound = entry.substr(pos, comma - pos);
    const size_t count_at = entry.find("\"count\": ", comma) + 9;
    const int64_t count = std::stoll(entry.substr(count_at));
    if (count > 0) best = bound == "\"inf\"" ? 1e18 : std::stod(bound);
  }
  return best;
}

// --- Correctness helpers -----------------------------------------------------

/// Weight of every (destination, source) pair any spec of the run ever
/// used. The generators keep a pair's weight fixed for the whole run, so a
/// value computed under any plan epoch can be checked against it.
using WeightBook = std::map<NodeId, std::map<NodeId, double>>;

void RecordSpec(WeightBook& book, NodeId destination,
                const FunctionSpec& spec) {
  for (const auto& [source, weight] : spec.weights) {
    book[destination][source] = weight;
  }
}

/// A complete destination's value must equal AggregateFunction::Direct over
/// the readings of exactly the sources its coverage record names.
void CheckValues(Run& run, const RuntimeNetwork::LossyResult& data,
                 const std::vector<double>& readings,
                 const WeightBook& weights) {
  for (const auto& [destination, value] : data.destination_values) {
    auto cov = data.destination_coverage.find(destination);
    if (cov == data.destination_coverage.end() || !cov->second.complete ||
        !cov->second.exact_known) {
      Fail(run, "destination " + std::to_string(destination) +
                    " completed without an exact coverage record");
      continue;
    }
    FunctionSpec spec;
    spec.kind = AggregateKind::kWeightedAverage;
    std::unordered_map<NodeId, double> inputs;
    const auto& book = weights.at(destination);
    for (NodeId source : cov->second.sources) {
      auto w = book.find(source);
      if (w == book.end()) {
        Fail(run, "unexpected source " + std::to_string(source) + " at " +
                      std::to_string(destination));
        continue;
      }
      spec.weights.emplace_back(source, w->second);
      inputs[source] = readings[static_cast<size_t>(source)];
    }
    if (spec.weights.empty()) continue;
    const double expected = MakeAggregateFunction(spec)->Direct(inputs);
    if (std::fabs(value - expected) >
        kValueTolerance * std::max(1.0, std::fabs(expected))) {
      std::ostringstream msg;
      msg << "destination " << destination << " value " << value
          << " != direct " << expected;
      Fail(run, msg.str());
    }
  }
}

template <typename Map>
std::vector<std::pair<NodeId, double>> Sorted(const Map& values) {
  std::vector<std::pair<NodeId, double>> out(values.begin(), values.end());
  std::sort(out.begin(), out.end());
  return out;
}

// --- Physical-link oracle ----------------------------------------------------

/// Physical link model for the self-healing workloads. Each round's
/// persistent state (dead nodes, failed links) is derived once from the
/// fault schedule; per-attempt loss is drawn from the ChannelModel. Every
/// attempt is then O(1), where FaultSchedule::AttemptDelivers rescans the
/// event list on each call.
class PhysicalOracle {
 public:
  PhysicalOracle(int node_count, const FaultSchedule* faults,
                 const ChannelModel* channel)
      : faults_(faults), channel_(channel),
        dead_(static_cast<size_t>(node_count), 0) {}

  void Advance(int round) {
    round_ = round;
    if (faults_ == nullptr) return;
    std::fill(dead_.begin(), dead_.end(), 0);
    for (NodeId n : faults_->DeadNodesThrough(round)) dead_[n] = 1;
    failed_.clear();
    for (const auto& [a, b] : faults_->FailedLinksThrough(round)) {
      failed_.insert(Key(a, b));
    }
  }

  bool Alive(NodeId n) const { return dead_[static_cast<size_t>(n)] == 0; }
  bool LinkUp(NodeId a, NodeId b) const {
    return Alive(a) && Alive(b) && !failed_.contains(Key(a, b));
  }

  LossyLinkModel Model() const {
    LossyLinkModel model;
    if (faults_ == nullptr && channel_ == nullptr) {
      model.attempt_delivers = [](NodeId, NodeId, int) { return true; };
      return model;
    }
    model.attempt_delivers = [this](NodeId from, NodeId to, int attempt) {
      if (!LinkUp(from, to)) return false;
      return channel_ == nullptr ||
             channel_->AttemptDelivers(round_, from, to, attempt);
    };
    model.node_alive = [this](NodeId n) { return Alive(n); };
    return model;
  }

  /// Compares the persistent part with FaultSchedule::AttemptDelivers and
  /// NodeAliveAt on every faulted element plus a seeded sample of links.
  /// Returns the number of disagreements.
  int CheckAgainstSchedule(const Topology& topology, Rng& rng) const {
    if (faults_ == nullptr) return 0;
    int mismatches = 0;
    std::vector<std::pair<NodeId, NodeId>> probes;
    for (const FaultEvent& event : faults_->events()) {
      if (event.round > round_) break;
      const NodeId a = event.a;
      const std::vector<NodeId>& around = topology.neighbors(a);
      if (event.b != kInvalidNode) {
        probes.emplace_back(a, event.b);
      } else if (!around.empty()) {
        probes.emplace_back(a, around.front());
        probes.emplace_back(around.front(), a);
      }
    }
    for (int i = 0; i < 16; ++i) {
      const NodeId a = static_cast<NodeId>(
          rng.UniformInt(static_cast<uint64_t>(topology.node_count())));
      const std::vector<NodeId>& around = topology.neighbors(a);
      if (around.empty()) continue;
      probes.emplace_back(a, around[rng.UniformInt(around.size())]);
    }
    for (const auto& [from, to] : probes) {
      if (LinkUp(from, to) != faults_->AttemptDelivers(round_, from, to, 1)) {
        ++mismatches;
      }
      if (Alive(from) != faults_->NodeAliveAt(round_, from)) ++mismatches;
    }
    return mismatches;
  }

 private:
  static uint64_t Key(NodeId a, NodeId b) {
    const NodeId lo = std::min(a, b);
    const NodeId hi = std::max(a, b);
    return (static_cast<uint64_t>(static_cast<uint32_t>(lo)) << 32) |
           static_cast<uint32_t>(hi);
  }

  const FaultSchedule* faults_;
  const ChannelModel* channel_;
  int round_ = 0;
  std::vector<char> dead_;
  std::unordered_set<uint64_t> failed_;
};

// --- Set-up ------------------------------------------------------------------

/// What the explicit set-up chain built: PathSystem -> MulticastForest ->
/// BuildPlan -> Compile -> encode -> RuntimeNetwork install, each call timed
/// in its own span.
struct SetupChain {
  std::shared_ptr<CompiledPlan> compiled;
  std::vector<std::vector<uint8_t>> images;
  std::optional<RuntimeNetwork> network;
  int64_t plan_payload_bytes = 0;
};

SetupChain RunSetupChain(Run& run, Tracer& tracer, const Topology& topology,
                         const Workload& workload, bool record) {
  SetupChain chain;
  std::optional<PathSystem> paths;
  std::shared_ptr<MulticastForest> forest;
  std::optional<GlobalPlan> plan;
  const double paths_ms =
      Timed(tracer, "routing.paths", [&] { paths.emplace(topology); });
  const double forest_ms = Timed(tracer, "routing.forest", [&] {
    forest = std::make_shared<MulticastForest>(*paths, workload.tasks);
  });
  const double solve_ms = Timed(tracer, "plan.solve", [&] {
    plan.emplace(BuildPlan(forest, workload.functions));
  });
  const double compile_ms = Timed(tracer, "plan.compile", [&] {
    chain.compiled = std::make_shared<CompiledPlan>(CompiledPlan::Compile(
        *plan, workload.functions, MergePolicy::kGreedyMergePerEdge, 0));
  });
  const double encode_ms = Timed(tracer, "plan.encode", [&] {
    chain.images = EncodeAllNodeStates(*chain.compiled, workload.functions);
  });
  const double install_ms = Timed(tracer, "runtime.install", [&] {
    chain.network.emplace(*chain.compiled, workload.functions);
  });
  chain.plan_payload_bytes = plan->TotalPayloadBytes();
  if (record) {
    int64_t image_bytes = 0;
    for (const auto& image : chain.images) {
      image_bytes += static_cast<int64_t>(image.size());
    }
    run.layers.Add("routing.paths_ms", paths_ms);
    run.layers.Add("routing.forest_ms", forest_ms);
    run.layers.Add("routing.forest_edges",
                   static_cast<double>(forest->edges().size()));
    run.layers.Add("plan.solve_ms", solve_ms);
    run.layers.Add("plan.compile_ms", compile_ms);
    run.layers.Add("plan.encode_ms", encode_ms);
    run.layers.Add("plan.image_bytes", static_cast<double>(image_bytes));
    run.layers.Add("runtime.install_ms", install_ms);
    run.layer_self_ms["routing"] += paths_ms + forest_ms;
    run.layer_self_ms["plan"] += solve_ms + compile_ms + encode_ms;
    run.layer_self_ms["runtime"] += install_ms;
  }
  return chain;
}

/// On metered episodes, shadows the runtime constructor with the explicit
/// chain and checks both produced the same plan and images.
void CheckSetupShadow(Run& run, const SetupChain& chain,
                      const SelfHealingRuntime& runtime,
                      const Workload& workload) {
  if (chain.plan_payload_bytes != runtime.plan().TotalPayloadBytes() ||
      chain.images != EncodeAllNodeStates(runtime.compiled(),
                                          workload.functions) ||
      chain.network->installed_image_bytes() !=
          runtime.network().installed_image_bytes()) {
    Fail(run, "set-up shadow chain differs from the runtime's plan");
  }
}

// --- Self-healing rounds -------------------------------------------------------

/// Per-episode state of a workload driven through SelfHealingRuntime.
struct HealEpisode {
  EpisodeSim sim;
  bool metered = false;
  /// Images of the runtime's current epoch as the shadow chain rebuilt them
  /// (metered episodes only).
  std::vector<std::vector<uint8_t>> shadow_images;
  obs::MetricsRegistry registry;
  /// Per-round outcome for the heal-latency figure.
  struct RoundRecord {
    bool replanned = false;
    int pending = 0;
    size_t incomplete = 0;
  };
  std::vector<RoundRecord> records;
  /// Admissions awaiting their first complete aggregate: destination ->
  /// round of the committing batch.
  std::map<NodeId, int> awaiting_result;
};

SelfHealingRoundResult StepRound(Run& run, HealEpisode& ep,
                                 SelfHealingRuntime& runtime, int round,
                                 const std::vector<double>& readings,
                                 const PhysicalOracle& oracle,
                                 const WeightBook& weights) {
  Tracer& tracer = ep.metered ? run.tracer : run.off;
  const LossyLinkModel model = oracle.Model();

  // Shadow state, copied before the round.
  std::optional<RuntimeNetwork> network_before;
  std::optional<FailureDetector> detector_before;
  std::optional<GlobalPlan> plan_before;
  if (ep.metered) {
    network_before.emplace(runtime.network());
    network_before->set_metrics(nullptr);
    detector_before.emplace(runtime.detector());
    plan_before.emplace(runtime.plan());
  }

  SelfHealingRoundResult result;
  const double round_ms = Timed(tracer, "heal.round", [&] {
    result = runtime.RunRound(round, readings, model);
  });
  run.round_ms.push_back(round_ms);
  run.busy_ms += round_ms;
  ++run.timesteps;
  ++run.operations;
  if (result.replanned) run.replan_ms.push_back(round_ms);
  if (run.opt.trace) (ep.metered ? run.metered_ms : run.plain_ms).push_back(round_ms);

  // Outputs: values against the direct aggregate, then the digest.
  CheckValues(run, result.data, readings, weights);
  EpisodeSim& sim = ep.sim;
  ++sim.timesteps;
  sim.energy_mj += result.data.energy_mj;
  sim.bytes += static_cast<double>(result.data.payload_bytes +
                                   result.control_payload_bytes);
  for (const auto& [destination, coverage] :
       result.data.destination_coverage) {
    sim.coverage_sum += coverage.coverage;
    ++sim.coverage_n;
  }
  sim.destination_timesteps +=
      static_cast<int64_t>(result.data.destination_coverage.size());
  sim.incomplete +=
      static_cast<int64_t>(result.data.incomplete_destinations.size());
  sim.digest.Add(static_cast<uint64_t>(round));
  for (const auto& [destination, value] :
       Sorted(result.data.destination_values)) {
    sim.digest.Add(static_cast<uint64_t>(destination));
    sim.digest.AddDouble(value);
  }
  std::vector<NodeId> incomplete = result.data.incomplete_destinations;
  std::sort(incomplete.begin(), incomplete.end());
  for (NodeId d : incomplete) sim.digest.Add(static_cast<uint64_t>(d));
  sim.digest.AddDouble(result.data.energy_mj);
  sim.digest.Add(static_cast<uint64_t>(result.data.payload_bytes));
  sim.digest.Add(static_cast<uint64_t>(result.data.attempts));
  sim.digest.Add(static_cast<uint64_t>(result.control_payload_bytes));
  sim.digest.Add(static_cast<uint64_t>(result.probe_transmissions));
  sim.digest.Add(result.base_epoch);
  sim.digest.Add(static_cast<uint64_t>(result.pending_installs));
  ep.records.push_back(HealEpisode::RoundRecord{
      result.replanned, result.pending_installs, incomplete.size()});
  for (auto it = ep.awaiting_result.begin();
       it != ep.awaiting_result.end();) {
    if (result.data.destination_values.contains(it->first)) {
      sim.admit_rounds.push_back(round - it->second + 1);
      it = ep.awaiting_result.erase(it);
    } else {
      ++it;
    }
  }
  if (!ep.metered) return result;

  // Shadow 1: the data round on the pre-round network copy.
  RuntimeNetwork::LossyResult data;
  const double data_ms = Timed(tracer, "runtime.round", [&] {
    data = network_before->RunRoundLossy(readings, model, RetryPolicy{});
  });
  if (Sorted(data.destination_values) !=
          Sorted(result.data.destination_values) ||
      data.payload_bytes != result.data.payload_bytes ||
      data.attempts != result.data.attempts ||
      data.energy_mj != result.data.energy_mj) {
    Fail(run, "shadow RunRoundLossy differs from the runtime's data round "
              "at round " + std::to_string(round));
  }
  run.layers.Add("runtime.round_ms", data_ms);
  run.layers.Add("runtime.attempts", static_cast<double>(data.attempts));
  run.layers.Add("runtime.retransmissions",
                 static_cast<double>(data.retransmissions));
  run.layers.Add("runtime.duplicates", static_cast<double>(data.duplicates));
  run.layers.Add("runtime.messages_abandoned",
                 static_cast<double>(data.messages_abandoned));
  run.layers.Add("runtime.delivery_ratio",
                 data.attempts == 0 ? 1.0
                                    : static_cast<double>(data.deliveries) /
                                          static_cast<double>(data.attempts));
  run.layers.Add("runtime.payload_bytes",
                 static_cast<double>(data.payload_bytes));

  // Shadow 2: the failure detector on its pre-round copy.
  FailureDetector::RoundReport detection;
  const double detector_ms = Timed(tracer, "detector.observe", [&] {
    detection = detector_before->ObserveRound(
        round, result.data.heard, model.attempt_delivers, model.node_alive);
  });
  if (detection.probe_transmissions != result.probe_transmissions ||
      detection.probe_confirmations != result.probe_confirmations ||
      static_cast<int>(detection.new_suspicions.size()) !=
          result.new_suspicions ||
      static_cast<int>(detection.readmitted.size()) != result.readmissions) {
    Fail(run, "shadow ObserveRound differs from the runtime's detector at "
              "round " + std::to_string(round));
  }
  int false_suspicions = 0;
  for (const SuspectedLink& s : detection.new_suspicions) {
    if (oracle.LinkUp(s.monitor, s.neighbor)) ++false_suspicions;
  }
  run.layers.Add("detector.ms", detector_ms);
  run.layers.Add("detector.probes",
                 static_cast<double>(detection.probe_transmissions));
  run.layers.Add("detector.confirmations",
                 static_cast<double>(detection.probe_confirmations));
  run.layers.Add("detector.suspicions",
                 static_cast<double>(detection.new_suspicions.size()));
  run.layers.Add("detector.false_suspicions", false_suspicions);
  run.layers.Add("detector.readmissions",
                 static_cast<double>(detection.readmitted.size()));

  // Shadow 3: the replan chain, on rounds where the base opened an epoch.
  double replan_total_ms = 0.0;
  if (result.replanned) {
    const Workload& workload = runtime.current_workload();
    std::optional<PathSystem> paths;
    std::optional<GlobalPlan> patched;
    std::optional<CompiledPlan> compiled;
    std::vector<std::vector<uint8_t>> images;
    std::vector<NodeImageDelta> deltas;
    UpdateStats stats;
    const double paths_ms = Timed(tracer, "replan.paths", [&] {
      paths.emplace(runtime.ledger().BelievedTopology());
    });
    const double solve_ms = Timed(tracer, "replan.solve", [&] {
      patched.emplace(ReplanForTopology(*plan_before, *paths, workload.tasks,
                                        workload.functions, &stats));
    });
    const double compile_ms = Timed(tracer, "replan.compile", [&] {
      compiled.emplace(CompiledPlan::Compile(
          *patched, workload.functions, MergePolicy::kGreedyMergePerEdge,
          runtime.base_epoch()));
    });
    const double encode_ms = Timed(tracer, "replan.encode", [&] {
      images = EncodeAllNodeStates(*compiled, workload.functions);
    });
    const double diff_ms = Timed(tracer, "replan.diff", [&] {
      deltas = DiffNodeImages(ep.shadow_images, images);
    });
    if (images != EncodeAllNodeStates(runtime.compiled(), workload.functions)) {
      Fail(run, "shadow replan images differ from the runtime's at round " +
                    std::to_string(round));
    }
    int shipped = 0;
    for (const NodeImageDelta& delta : deltas) shipped += delta.ship_image;
    ep.shadow_images = std::move(images);
    replan_total_ms = paths_ms + solve_ms + compile_ms + encode_ms + diff_ms;
    run.layers.Add("replan.paths_ms", paths_ms);
    run.layers.Add("replan.solve_ms", solve_ms);
    run.layers.Add("replan.compile_ms", compile_ms);
    run.layers.Add("replan.encode_ms", encode_ms);
    run.layers.Add("replan.diff_ms", diff_ms);
    run.layers.Add("replan.edges_reoptimized", stats.edges_reoptimized);
    run.layers.Add("replan.edges_total", stats.edges_total);
    run.layers.Add("replan.images_shipped", shipped);
    run.layers.Add("replan.bumps_shipped",
                   static_cast<double>(deltas.size()) - shipped);
  }

  // What the round spent outside its shadowed parts is the control plane.
  const double self_ms =
      std::max(0.0, round_ms - data_ms - detector_ms - replan_total_ms);
  run.layers.Add("heal.round_self_ms", self_ms);
  if (result.replanned) run.layers.Add("heal.replan_round_self_ms", self_ms);
  run.layers.Add("heal.control_hop_attempts",
                 static_cast<double>(result.control_hop_attempts));
  run.layers.Add("heal.control_delivery_ratio",
                 result.control_hop_attempts == 0
                     ? 1.0
                     : static_cast<double>(result.control_hops_crossed) /
                           static_cast<double>(result.control_hop_attempts));
  run.layers.Add("heal.control_bytes",
                 static_cast<double>(result.control_payload_bytes));
  run.layers.Add("heal.replans", result.replanned ? 1.0 : 0.0);
  run.layers.Add("heal.pending_installs_max", result.pending_installs);
  run.layer_self_ms["runtime"] += data_ms;
  run.layer_self_ms["detector"] += detector_ms;
  run.layer_self_ms["replan"] += replan_total_ms;
  run.layer_self_ms["heal"] += self_ms;
  return result;
}

/// Builds the runtime for one episode, timing the constructor. Metered
/// episodes first run the explicit set-up chain in spans and check it
/// against the runtime.
std::unique_ptr<SelfHealingRuntime> SetUpRuntime(Run& run, HealEpisode& ep,
                                                 const Topology& topology,
                                                 const Workload& workload,
                                                 const SelfHealingOptions& options,
                                                 double* constructor_ms) {
  Tracer& tracer = ep.metered ? run.tracer : run.off;
  std::optional<SetupChain> chain;
  if (ep.metered) {
    chain.emplace(RunSetupChain(run, tracer, topology, workload, true));
  }
  std::unique_ptr<SelfHealingRuntime> runtime;
  *constructor_ms = Timed(tracer, "setup.runtime", [&] {
    runtime = std::make_unique<SelfHealingRuntime>(topology, workload, kBase,
                                                   options);
  });
  if (ep.metered) {
    CheckSetupShadow(run, *chain, *runtime, workload);
    ep.shadow_images = std::move(chain->images);
    runtime->set_metrics(&ep.registry);
  }
  return runtime;
}

// --- Workload inputs -------------------------------------------------------------

struct Deployment {
  Topology topology;
  Workload workload;
  WeightBook weights;
};

Deployment MakeDeployment(Run& run, int nodes, int destinations, int sources,
                          uint64_t seed) {
  std::optional<Topology> topology;
  const double ms = Timed(run.off, "topology.generate", [&] {
    topology.emplace(MakeScalingSeries({nodes}, SubSeed(seed, 1)).front());
  });
  run.layers.Set("topology.generate_ms", ms);
  WorkloadSpec spec;
  spec.destination_count = destinations;
  spec.sources_per_destination = sources;
  spec.selection = SourceSelection::kUniform;
  spec.kind = AggregateKind::kWeightedAverage;
  spec.seed = SubSeed(seed, 2);
  Workload workload = GenerateWorkload(*topology, spec);
  WeightBook weights;
  for (size_t i = 0; i < workload.tasks.size(); ++i) {
    RecordSpec(weights, workload.tasks[i].destination, workload.specs[i]);
  }
  return Deployment{std::move(*topology), std::move(workload),
                    std::move(weights)};
}

std::vector<std::vector<double>> MakeReadings(int node_count, int timesteps,
                                              uint64_t seed) {
  std::vector<std::vector<double>> readings;
  readings.reserve(static_cast<size_t>(timesteps));
  for (int t = 0; t < timesteps; ++t) {
    readings.push_back(
        ReadingGenerator(node_count, SubSeed(seed, 1000 + t)).values());
  }
  return readings;
}

/// Whether an episode sets up (once more): metered episodes once, plain
/// ones up to `reps` times but not after their set-ups took kSetupBudgetMs,
/// so a seed whose set-up is pathologically slow still ends in time.
bool SetUpAgain(bool metered, int done, int reps, double spent_ms) {
  if (done == 0) return true;
  return !metered && done < reps && spent_ms < kSetupBudgetMs;
}

/// Repeats `episode(metered)` until the time budget is spent. Traced runs
/// alternate metered and plain episodes and need at least one of each.
template <typename Episode>
void RunEpisodes(Run& run, Episode&& episode) {
  const Clock::time_point start = Clock::now();
  for (int i = 0;; ++i) {
    const bool metered = run.opt.trace && i % 2 == 0;
    episode(metered);
    const double elapsed_s = e2e::MsBetween(start, Clock::now()) / 1000.0;
    if (elapsed_s >= run.opt.seconds && i + 1 >= kMinEpisodes) break;
  }
}

// --- steady / heal ------------------------------------------------------------

struct HealConfig {
  int nodes;
  int destinations;
  int sources;
  /// Rounds per episode. An episode's first round is a cold one; long
  /// episodes keep those below the ten samples beyond round_ms_tail.
  int rounds;
  /// Loss, faults and the partition-aware runtime (`heal`) or a clean,
  /// fault-free deployment (`steady`).
  bool faults;
  /// Most set-ups timed per plain episode (see SetUpAgain).
  int setup_reps;
};

void RunSelfHealingWorkload(Run& run, const HealConfig& config) {
  const uint64_t seed = run.opt.seed;
  Deployment dep = MakeDeployment(run, config.nodes, config.destinations,
                                  config.sources, seed);
  const std::vector<std::vector<double>> readings =
      MakeReadings(dep.topology.node_count(), config.rounds, seed);
  std::optional<FaultSchedule> faults;
  std::optional<ChannelModel> channel;
  if (config.faults) {
    // About one persistent fault per eight rounds: replan rounds stay near
    // 15% of all rounds, so the median round is a quiet one and the tail a
    // replan one, on every seed.
    FaultScheduleOptions fault_options;
    fault_options.rounds = config.rounds;
    fault_options.transient_link_fraction = 0.0;
    fault_options.node_deaths = config.rounds / 20;
    fault_options.persistent_link_failures = config.rounds / 16;
    fault_options.node_recoveries = config.rounds / 60;
    fault_options.link_heals = config.rounds / 40;
    fault_options.recovery_delay_rounds = 10;
    fault_options.seed = SubSeed(seed, 3);
    faults.emplace(FaultSchedule::Generate(dep.topology, {kBase},
                                           fault_options));
    ChannelOptions channel_options;
    channel_options.good_loss = 0.05;
    channel_options.seed = SubSeed(seed, 4);
    channel.emplace(channel_options);
  }
  // With recovering faults the default runtime can abort: suspicions plus
  // not-yet-readmitted recoveries may cut its believed topology apart, and
  // the legacy replan then routes to an unreachable node. The
  // partition-aware runtime prunes what the base cannot reach instead.
  SelfHealingOptions runtime_options;
  runtime_options.partition_aware = config.faults;
  std::vector<int> onsets;
  if (faults) {
    for (const FaultEvent& event : faults->events()) {
      if (event.type == FaultType::kNodeDeath ||
          event.type == FaultType::kPersistentLink) {
        onsets.push_back(event.round);
      }
    }
  }

  RunEpisodes(run, [&](bool metered) {
    HealEpisode ep;
    ep.metered = metered;
    std::unique_ptr<SelfHealingRuntime> runtime;
    double spent_ms = 0.0;
    for (int rep = 0; SetUpAgain(metered, rep, config.setup_reps, spent_ms);
         ++rep) {
      runtime.reset();
      double setup_ms = 0.0;
      runtime = SetUpRuntime(run, ep, dep.topology, dep.workload,
                             runtime_options, &setup_ms);
      spent_ms += setup_ms;
      if (!metered) run.setup_s.push_back(setup_ms / 1000.0);
    }
    PhysicalOracle oracle(dep.topology.node_count(),
                          faults ? &*faults : nullptr,
                          channel ? &*channel : nullptr);
    Rng check_rng(SubSeed(seed, 5));
    for (int round = 0; round < config.rounds; ++round) {
      const double oracle_ms = Timed(run.off, "oracle", [&] {
        oracle.Advance(round);
      });
      if (faults) {
        if (oracle.CheckAgainstSchedule(dep.topology, check_rng) != 0) {
          Fail(run, "physical oracle disagrees with FaultSchedule at round " +
                        std::to_string(round));
        }
        if (metered) {
          run.layers.Add("oracle.ms", oracle_ms);
          run.layer_self_ms["oracle"] += oracle_ms;
        }
      }
      StepRound(run, ep, *runtime, round,
                readings[static_cast<size_t>(round)], oracle, dep.weights);
    }
    // Heal latency: onset -> first round (inclusive count) by which an
    // epoch was opened, nothing is pending and every alive destination
    // completed. A fault not healed by the episode's end counts to the end.
    for (int onset : onsets) {
      bool replanned = false;
      int healed_at = config.rounds - 1;
      for (int r = onset; r < config.rounds; ++r) {
        const HealEpisode::RoundRecord& rec =
            ep.records[static_cast<size_t>(r)];
        replanned = replanned || rec.replanned;
        if (replanned && rec.pending == 0 && rec.incomplete == 0) {
          healed_at = r;
          break;
        }
      }
      ep.sim.heal_rounds.push_back(healed_at - onset + 1);
    }
    FinishEpisode(run, std::move(ep.sim));
  });
}

// --- churn ----------------------------------------------------------------------

const char* const kTenants[] = {"t0", "t1", "t2", "t3"};
constexpr int kTenantCount = 4;

struct ChurnBatch {
  int round = 0;
  std::vector<TenantRequest> requests;
  /// Destinations this batch newly admits (not resubmissions).
  std::vector<NodeId> admitted;
};

/// Generates a batch schedule that the frontend must accept in full: the
/// generator replays the frontend's rules (refcounted holds, exclusive-hold
/// source mutations, one request per destination per batch) on its own
/// model of the catalog. Resident count stays near the initial size.
std::vector<ChurnBatch> MakeChurnBatches(const Deployment& dep,
                                         WeightBook& weights, int rounds,
                                         int every, int batch_size,
                                         uint64_t seed) {
  struct ModelQuery {
    FunctionSpec spec;
    int holds[kTenantCount] = {0, 0, 0, 0};
    int total() const { return holds[0] + holds[1] + holds[2] + holds[3]; }
  };
  std::map<NodeId, ModelQuery> resident;
  for (size_t i = 0; i < dep.workload.tasks.size(); ++i) {
    ModelQuery query;
    query.spec = dep.workload.specs[i];
    std::sort(query.spec.weights.begin(), query.spec.weights.end());
    query.holds[i % kTenantCount] = 1;
    resident[dep.workload.tasks[i].destination] = query;
  }
  const int target = static_cast<int>(resident.size());
  const int n = dep.topology.node_count();
  Rng rng(seed);
  auto weight_for = [&](NodeId d, NodeId s) {
    auto& book = weights[d];
    auto it = book.find(s);
    if (it != book.end()) return it->second;
    const double w = 0.5 + rng.UniformDouble();
    book[s] = w;
    return w;
  };
  auto random_node = [&] {
    return static_cast<NodeId>(rng.UniformInt(static_cast<uint64_t>(n)));
  };
  auto has_source = [](const FunctionSpec& spec, NodeId s) {
    for (const auto& entry : spec.weights) {
      if (entry.first == s) return true;
    }
    return false;
  };
  auto pick = [&](const std::vector<NodeId>& from) {
    return from[rng.UniformInt(from.size())];
  };

  std::vector<ChurnBatch> batches;
  for (int round = 2; round < rounds - every; round += every) {
    ChurnBatch batch;
    batch.round = round;
    std::set<NodeId> touched;
    for (int k = 0; k < batch_size; ++k) {
      const int size = static_cast<int>(resident.size());
      // Kinds: 0 admit, 1 resubmit, 2 retire, 3 add source, 4 remove source.
      int kind = static_cast<int>(rng.UniformInt(5));
      if (size < target - 4) kind = 0;
      if (size > target + 4) kind = 2;
      std::vector<NodeId> candidates;
      for (const auto& [d, q] : resident) {
        if (touched.contains(d)) continue;
        const bool exclusive = q.total() == 1;
        if (kind == 1 && q.total() < kTenantCount) candidates.push_back(d);
        if (kind == 2) candidates.push_back(d);
        if (kind == 3 && exclusive && q.spec.weights.size() < 12) {
          candidates.push_back(d);
        }
        if (kind == 4 && exclusive && q.spec.weights.size() > 4) {
          candidates.push_back(d);
        }
      }
      if (kind == 0) {
        NodeId d = random_node();
        while (d == kBase || resident.contains(d) || touched.contains(d)) {
          d = random_node();
        }
        ModelQuery query;
        query.spec.kind = AggregateKind::kWeightedAverage;
        std::set<NodeId> sources;
        while (sources.size() < 8) {
          const NodeId s = random_node();
          if (s != d) sources.insert(s);
        }
        for (NodeId s : sources) {
          query.spec.weights.emplace_back(s, weight_for(d, s));
        }
        const int tenant = static_cast<int>(rng.UniformInt(kTenantCount));
        query.holds[tenant] = 1;
        batch.requests.push_back(TenantRequest{
            kTenants[tenant], MutationRequest::Admit(d, query.spec)});
        batch.admitted.push_back(d);
        resident[d] = query;
        touched.insert(d);
        continue;
      }
      if (candidates.empty()) continue;
      const NodeId d = pick(candidates);
      ModelQuery& q = resident[d];
      touched.insert(d);
      if (kind == 1) {
        int tenant = static_cast<int>(rng.UniformInt(kTenantCount));
        while (q.holds[tenant] > 0) tenant = (tenant + 1) % kTenantCount;
        ++q.holds[tenant];
        batch.requests.push_back(TenantRequest{
            kTenants[tenant], MutationRequest::Admit(d, q.spec)});
      } else if (kind == 2) {
        int tenant = static_cast<int>(rng.UniformInt(kTenantCount));
        while (q.holds[tenant] == 0) tenant = (tenant + 1) % kTenantCount;
        --q.holds[tenant];
        batch.requests.push_back(
            TenantRequest{kTenants[tenant], MutationRequest::Retire(d)});
        if (q.total() == 0) resident.erase(d);
      } else {
        int tenant = 0;
        while (q.holds[tenant] == 0) ++tenant;
        if (kind == 3) {
          NodeId s = random_node();
          while (s == d || has_source(q.spec, s)) s = random_node();
          const double w = weight_for(d, s);
          q.spec.weights.emplace_back(s, w);
          std::sort(q.spec.weights.begin(), q.spec.weights.end());
          batch.requests.push_back(TenantRequest{
              kTenants[tenant], MutationRequest::AddSource(d, s, w)});
        } else {
          const size_t drop = rng.UniformInt(q.spec.weights.size());
          const NodeId s = q.spec.weights[drop].first;
          q.spec.weights.erase(q.spec.weights.begin() +
                               static_cast<std::ptrdiff_t>(drop));
          batch.requests.push_back(TenantRequest{
              kTenants[tenant], MutationRequest::RemoveSource(d, s)});
        }
      }
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

struct ChurnConfig {
  int nodes;
  int destinations;
  int sources;
  /// Rounds per episode. The first replan of a fresh runtime builds its
  /// control routes and costs several later replans; episodes are long
  /// enough that a run holds fewer than ten of them, so round_ms_tail (ten
  /// samples beyond it) is a steady-state replan round, not a cold one.
  int rounds;
  /// Rounds between batches. At 8, about one round in eight replans and
  /// the median round is a quiet one.
  int every;
  int batch_size;
  /// Most set-ups timed per plain episode (see SetUpAgain).
  int setup_reps;
};

void RunChurnWorkload(Run& run, const ChurnConfig& config) {
  const uint64_t seed = run.opt.seed;
  Deployment dep = MakeDeployment(run, config.nodes, config.destinations,
                                  config.sources, seed);
  const std::vector<std::vector<double>> readings =
      MakeReadings(dep.topology.node_count(), config.rounds, seed);
  const std::vector<ChurnBatch> batches =
      MakeChurnBatches(dep, dep.weights, config.rounds, config.every,
                       config.batch_size, SubSeed(seed, 6));
  const PhysicalOracle oracle(dep.topology.node_count(), nullptr, nullptr);

  RunEpisodes(run, [&](bool metered) {
    HealEpisode ep;
    ep.metered = metered;
    Tracer& tracer = metered ? run.tracer : run.off;
    std::unique_ptr<SelfHealingRuntime> runtime;
    std::unique_ptr<QueryLifecycleManager> manager;
    std::unique_ptr<MultiTenantFrontend> frontend;
    double spent_ms = 0.0;
    for (int rep = 0; SetUpAgain(metered, rep, config.setup_reps, spent_ms);
         ++rep) {
      frontend.reset();
      manager.reset();
      runtime.reset();
      double runtime_ms = 0.0;
      runtime = SetUpRuntime(run, ep, dep.topology, dep.workload,
                             SelfHealingOptions{}, &runtime_ms);
      const double lifecycle_ms = Timed(tracer, "setup.lifecycle", [&] {
        manager = std::make_unique<QueryLifecycleManager>(
            dep.topology, dep.workload, kBase);
        manager->AttachRuntime(runtime.get());
        frontend = std::make_unique<MultiTenantFrontend>(manager.get());
        for (const char* tenant : kTenants) frontend->RegisterTenant(tenant);
        for (size_t i = 0; i < dep.workload.tasks.size(); ++i) {
          frontend->AdoptResident(kTenants[i % kTenantCount],
                                  dep.workload.tasks[i].destination);
        }
      });
      spent_ms += runtime_ms + lifecycle_ms;
      if (!metered) {
        run.setup_s.push_back((runtime_ms + lifecycle_ms) / 1000.0);
      }
    }
    if (metered) {
      manager->set_metrics(&ep.registry);
      frontend->set_metrics(&ep.registry);
    }

    size_t next_batch = 0;
    int commits = 0;
    int runtime_replans = 0;
    for (int round = 0; round < config.rounds; ++round) {
      if (next_batch < batches.size() &&
          batches[next_batch].round == round) {
        const ChurnBatch& batch = batches[next_batch++];
        TenantBatchResult applied;
        const double ms = Timed(tracer, "qlm.apply_batch", [&] {
          applied = frontend->ApplyBatch(batch.requests);
        });
        run.mutation_ms.push_back(ms);
        run.busy_ms += ms;
        run.operations += static_cast<int64_t>(batch.requests.size());
        run.rejected += applied.rejected;
        ep.sim.requests += static_cast<int64_t>(batch.requests.size());
        ep.sim.rejected += applied.rejected;
        int dedup = 0;
        for (size_t i = 0; i < applied.outcomes.size(); ++i) {
          const MutationOutcome& outcome = applied.outcomes[i];
          dedup += outcome.deduplicated;
          ep.sim.digest.Add(outcome.decision.admitted);
          ep.sim.digest.Add(static_cast<uint64_t>(outcome.refcount));
          if (!outcome.decision.admitted) {
            Fail(run, "churn request " + std::to_string(i) + " at round " +
                          std::to_string(round) + " rejected: " +
                          outcome.decision.detail);
          }
        }
        // A commit that replanned (not a refcount-only dedup/release).
        if (applied.committed && applied.commit.replan.edges_total > 0) {
          ++commits;
        }
        for (NodeId d : batch.admitted) ep.awaiting_result[d] = round;
        if (metered) {
          const UpdateStats& stats = applied.commit.replan;
          run.layers.Add("qlm.batch_ms", ms);
          run.layers.Add("qlm.requests",
                         static_cast<double>(batch.requests.size()));
          run.layers.Add("qlm.accepted", applied.accepted);
          run.layers.Add("qlm.rejected", applied.rejected);
          run.layers.Add("qlm.dedup_hits", dedup);
          run.layers.Add("qlm.sequential_fallbacks",
                         applied.sequential_fallback ? 1.0 : 0.0);
          run.layers.Add("qlm.delta_state_bytes",
                         static_cast<double>(applied.commit.delta_state_bytes));
          if (stats.edges_total > 0) {
            run.layers.Add("qlm.edges_reused_ratio",
                           static_cast<double>(stats.edges_reused) /
                               static_cast<double>(stats.edges_total));
          }
          run.layer_self_ms["lifecycle"] += ms;
        }
      }
      const SelfHealingRoundResult result =
          StepRound(run, ep, *runtime, round,
                    readings[static_cast<size_t>(round)], oracle, dep.weights);
      runtime_replans += result.replanned;
    }
    if (metered && commits > 0) {
      run.layers.Add("qlm.runtime_replans_per_commit",
                     static_cast<double>(runtime_replans) / commits);
    }
    FinishEpisode(run, std::move(ep.sim));
  });
}

// --- pipelined ------------------------------------------------------------------

struct PipelinedConfig {
  int nodes;
  int destinations;
  int sources;
  /// Timesteps per RunPipelined call; an episode is one such batch.
  int batch_timesteps;
  int setup_reps;
};

void RunPipelinedWorkload(Run& run, const PipelinedConfig& config) {
  const uint64_t seed = run.opt.seed;
  Deployment dep = MakeDeployment(run, config.nodes, config.destinations,
                                  config.sources, seed);
  const int n = dep.topology.node_count();
  const int steps = config.batch_timesteps;
  const std::vector<std::vector<double>> readings =
      MakeReadings(n, steps, seed);
  event::DriftOptions drift;
  drift.max_skew_ppm = 1000;
  drift.max_offset_ticks = 8;
  drift.seed = SubSeed(seed, 7);
  event::EventNetwork::PipelineOptions pipeline;
  pipeline.timestep_interval_ticks = 4;
  pipeline.clocks = event::BuildDriftClocks(n, drift);
  ChannelOptions channel_options;
  channel_options.good_loss = 0.05;
  channel_options.seed = SubSeed(seed, 100);
  const ChannelModel channel(channel_options);
  event::SimChannelTransport::Options transport_options;
  transport_options.base_hop_latency_ticks = 2;
  const event::SimChannelTransport transport(&channel, transport_options);
  // Round-barrier oracle per timestep, computed once on copies of the fleet:
  // RunRound gives the values; RunRoundLossy on lossless links gives the
  // plan's energy per attempt and payload bytes per delivery, which scale
  // the engine's own attempt and delivery counts (the pipelined engine
  // reports no energy or bytes).
  std::vector<RuntimeNetwork::Result> oracle;
  std::vector<RuntimeNetwork::LossyResult> lossless;

  RunEpisodes(run, [&](bool metered) {
    Tracer& tracer = metered ? run.tracer : run.off;
    EpisodeSim sim;
    std::optional<SetupChain> chain;
    std::unique_ptr<event::EventNetwork> engine;
    double spent_ms = 0.0;
    for (int rep = 0; SetUpAgain(metered, rep, config.setup_reps, spent_ms);
         ++rep) {
      engine.reset();
      chain.reset();
      const double setup_ms = Timed(tracer, "setup.pipelined", [&] {
        chain.emplace(RunSetupChain(run, tracer, dep.topology, dep.workload,
                                    metered));
        engine = std::make_unique<event::EventNetwork>(*chain->network);
      });
      spent_ms += setup_ms;
      if (!metered) run.setup_s.push_back(setup_ms / 1000.0);
    }
    if (oracle.empty()) {
      RuntimeNetwork fleet = *chain->network;
      for (const auto& r : readings) oracle.push_back(fleet.RunRound(r));
      RuntimeNetwork lossy_fleet = *chain->network;
      LossyLinkModel clean;
      clean.attempt_delivers = [](NodeId, NodeId, int) { return true; };
      for (const auto& r : readings) {
        lossless.push_back(lossy_fleet.RunRoundLossy(r, clean, RetryPolicy{}));
        if (lossless.back().attempts == 0 ||
            lossless.back().deliveries == 0 ||
            !lossless.back().incomplete_destinations.empty()) {
          Fail(run, "lossless round-barrier oracle did not complete");
        }
      }
    }
    obs::MetricsRegistry registry;
    obs::MetricsRegistry event_registry;
    if (metered) {
      engine->set_metrics(&registry);
      engine->set_event_metrics(&event_registry);
    }
    event::EventNetwork::PipelineResult result;
    const double ms = Timed(tracer, "event.run_pipelined", [&] {
      result = engine->RunPipelined(readings, transport, pipeline);
    });
    run.round_ms.push_back(ms / steps);
    run.busy_ms += ms;
    run.timesteps += steps;
    run.operations += steps;
    if (run.opt.trace) (metered ? run.metered_ms : run.plain_ms).push_back(ms);

    if (static_cast<int>(result.timesteps.size()) != steps) {
      Fail(run, "RunPipelined returned the wrong number of timesteps");
      FinishEpisode(run, std::move(sim));
      return;
    }
    int64_t buffered = 0;
    for (int t = 0; t < steps; ++t) {
      const auto& step = result.timesteps[static_cast<size_t>(t)];
      const RuntimeNetwork::Result& expect = oracle[static_cast<size_t>(t)];
      for (const auto& [d, value] : step.destination_values) {
        auto it = expect.destination_values.find(d);
        if (it == expect.destination_values.end() ||
            std::fabs(value - it->second) >
                1e-9 * std::max(1.0, std::fabs(it->second))) {
          Fail(run, "pipelined destination " + std::to_string(d) +
                        " differs from the round-barrier oracle");
        }
      }
      const int64_t expected =
          static_cast<int64_t>(expect.destination_values.size());
      const int64_t incomplete =
          static_cast<int64_t>(step.incomplete_destinations.size());
      if (static_cast<int64_t>(step.destination_values.size()) + incomplete !=
          expected) {
        Fail(run, "pipelined timestep lost track of a destination");
      }
      const RuntimeNetwork::LossyResult& clean = lossless[static_cast<size_t>(t)];
      ++sim.timesteps;
      sim.energy_mj += static_cast<double>(step.attempts) * clean.energy_mj /
                       static_cast<double>(std::max<int64_t>(clean.attempts, 1));
      sim.bytes += static_cast<double>(step.deliveries) *
                   static_cast<double>(clean.payload_bytes) /
                   static_cast<double>(std::max<int64_t>(clean.deliveries, 1));
      sim.coverage_sum += static_cast<double>(expected - incomplete);
      sim.coverage_n += expected;
      sim.destination_timesteps += expected;
      sim.incomplete += incomplete;
      buffered += step.buffered_prestart;
      for (const auto& [d, value] : Sorted(step.destination_values)) {
        sim.digest.Add(static_cast<uint64_t>(d));
        sim.digest.AddDouble(value);
      }
      sim.digest.Add(static_cast<uint64_t>(step.attempts));
      sim.digest.Add(static_cast<uint64_t>(step.deliveries));
      sim.digest.Add(static_cast<uint64_t>(step.retransmissions));
      sim.digest.Add(static_cast<uint64_t>(step.retire_tick));
    }
    sim.digest.Add(result.events_processed);
    sim.digest.Add(static_cast<uint64_t>(result.final_tick));
    if (metered) {
      run.layers.Add("event.events_processed",
                     static_cast<double>(result.events_processed));
      run.layers.Add("event.ns_per_event",
                     ms * 1e6 / static_cast<double>(std::max<uint64_t>(
                                    result.events_processed, 1)));
      run.layers.Add("event.timers_cancelled",
                     static_cast<double>(result.retransmit_timers_cancelled));
      run.layers.Add("event.max_in_flight", result.max_in_flight);
      run.layers.Add("event.buffered_prestart", static_cast<double>(buffered));
      run.layers.Add("event.queue_depth_max",
                     HistogramMaxBound(event_registry, "event.queue_depth"));
      for (const auto& step : result.timesteps) {
        run.layers.Add("runtime.attempts", static_cast<double>(step.attempts));
        run.layers.Add("runtime.retransmissions",
                       static_cast<double>(step.retransmissions));
        run.layers.Add("runtime.duplicates",
                       static_cast<double>(step.duplicates));
        run.layers.Add("runtime.messages_abandoned",
                       static_cast<double>(step.messages_abandoned));
        run.layers.Add("runtime.delivery_ratio",
                       step.attempts == 0
                           ? 1.0
                           : static_cast<double>(step.deliveries) /
                                 static_cast<double>(step.attempts));
      }
      run.layer_self_ms["event"] += ms;
      // The same engine on a one-timestep batch: the per-timestep cost
      // without pipelining, to set against the full batch's.
      engine->set_metrics(nullptr);
      engine->set_event_metrics(nullptr);
      for (int rep = 0; rep < 3; ++rep) {
        run.layers.Add("event.batch1_ms_per_timestep",
                       Timed(tracer, "event.run_pipelined_1", [&] {
                         engine->RunPipelined({readings.front()}, transport,
                                              pipeline);
                       }));
      }
    }
    FinishEpisode(run, std::move(sim));
  });
}

// --- Output ------------------------------------------------------------------------

void Report(Run& run) {
  const EpisodeSim& sim = *run.sim;
  const e2e::Tail round_tail = e2e::TailOf(run.round_ms);
  const e2e::Tail replan_tail = e2e::TailOf(run.replan_ms);
  const e2e::Tail mutation_tail = e2e::TailOf(run.mutation_ms);
  const double timesteps = static_cast<double>(std::max<int64_t>(sim.timesteps, 1));
  const double failed_share =
      static_cast<double>(sim.incomplete + sim.rejected) /
      static_cast<double>(std::max<int64_t>(
          sim.destination_timesteps + sim.requests, 1));

  MetricSet e2e_metrics(kEndToEnd);
  e2e_metrics.Set("setup_s", e2e::Median(run.setup_s));
  e2e_metrics.Set("timesteps_per_s",
                  static_cast<double>(run.timesteps) /
                      std::max(run.busy_ms / 1000.0, 1e-9));
  e2e_metrics.Set("round_ms_p50", e2e::Median(run.round_ms));
  e2e_metrics.Set("round_ms_tail", round_tail.value);
  e2e_metrics.Set("energy_mj_per_timestep", sim.energy_mj / timesteps);
  e2e_metrics.Set("bytes_per_timestep", sim.bytes / timesteps);
  e2e_metrics.Set("coverage_mean",
                  sim.coverage_n == 0
                      ? 1.0
                      : sim.coverage_sum / static_cast<double>(sim.coverage_n));
  e2e_metrics.Set("peak_rss_mb", PeakRssMb());

  // Workload-specific end-to-end figures: reported on every run, and as
  // per-layer metrics on the traced run.
  MetricSet& layers = run.layers;
  layers.Set("replan_ms_p50", e2e::Median(run.replan_ms));
  layers.Set("replan_ms_tail", replan_tail.value);
  layers.Set("mutation_ms_p50", e2e::Median(run.mutation_ms));
  layers.Set("mutation_ms_tail", mutation_tail.value);
  layers.Set("heal_rounds_p50", e2e::Median(sim.heal_rounds));
  layers.Set("admit_to_result_rounds_p50", e2e::Median(sim.admit_rounds));
  layers.Set("failed_share", failed_share);
  if (run.opt.trace && !run.plain_ms.empty()) {
    layers.Set("obs.metrics_overhead_share",
               e2e::Median(run.metered_ms) / e2e::Median(run.plain_ms) - 1.0);
  }
  std::string largest = "none";
  double largest_ms = -1.0;
  for (const auto& [layer, ms] : run.layer_self_ms) {
    if (ms > largest_ms) {
      largest = layer;
      largest_ms = ms;
    }
  }

  auto tail_json = [](const e2e::Tail& tail) {
    std::ostringstream out;
    out << "{\"value\": " << tail.value << ", \"percentile\": "
        << tail.percentile << ", \"samples\": " << tail.samples << "}";
    return out.str();
  };
  std::ostringstream report;
  report.precision(6);
  report << "{\"report\": \"e2e_bench\", \"workload\": \"" << run.opt.workload
         << "\", \"seed\": " << run.opt.seed
         << ", \"trace\": " << (run.opt.trace ? 1 : 0)
         << ", \"smoke\": " << (run.opt.smoke ? 1 : 0)
         << ", \"threads\": " << GlobalThreadCount()
         << ", \"host_cpus\": " << std::thread::hardware_concurrency()
         << ", \"episodes\": " << run.episodes
         << ", \"timesteps_per_episode\": " << sim.timesteps
         << ", \"digest\": \"" << sim.digest.Hex() << "\""
         << ", \"setup_samples\": " << run.setup_s.size()
         << ", \"round_ms_tail\": " << tail_json(round_tail)
         << ", \"replan_ms_tail\": " << tail_json(replan_tail)
         << ", \"mutation_ms_tail\": " << tail_json(mutation_tail)
         << ", \"heal_rounds_samples\": " << sim.heal_rounds.size()
         << ", \"admit_rounds_samples\": " << sim.admit_rounds.size()
         << ", \"failed_share\": " << failed_share
         << ", \"requests\": " << sim.requests
         << ", \"rejected\": " << sim.rejected
         << ", \"end_to_end\": " << e2e_metrics.DetailJson();
  if (run.opt.trace) {
    report << ", \"largest_self_layer\": \"" << largest << "\""
           << ", \"layer_self_ms\": {";
    bool first = true;
    for (const auto& [layer, ms] : run.layer_self_ms) {
      report << (first ? "" : ", ") << "\"" << layer << "\": " << ms;
      first = false;
    }
    report << "}, \"spans\": " << run.tracer.size()
           << ", \"per_layer\": " << layers.DetailJson();
  } else {
    report << ", \"workload_specific\": {\"replan_ms_p50\": "
           << e2e::Median(run.replan_ms) << ", \"replan_samples\": "
           << run.replan_ms.size() << ", \"mutation_ms_p50\": "
           << e2e::Median(run.mutation_ms) << ", \"mutation_samples\": "
           << run.mutation_ms.size() << ", \"heal_rounds_p50\": "
           << e2e::Median(sim.heal_rounds)
           << ", \"admit_to_result_rounds_p50\": "
           << e2e::Median(sim.admit_rounds) << "}";
  }
  report << "}";
  std::cout << report.str() << "\n";

  if (run.opt.trace) {
    std::filesystem::create_directories(kSpanDir);
    const std::string path = std::string(kSpanDir) + "/spans-" + run.opt.workload +
                             "-" + std::to_string(run.opt.seed) + ".json";
    if (!run.tracer.Write(path)) Fail(run, "could not write " + path);
  }

  std::cout << "{\"correct\": " << (run.errors == 0 ? "true" : "false")
            << ", \"attempted\": " << run.operations
            << ", \"failed\": " << run.rejected << ", \"metrics\": "
            << (run.opt.trace ? layers.MetricsJson()
                              : e2e_metrics.MetricsJson())
            << "}" << std::endl;
}

int Usage() {
  std::cerr << "usage: e2e_bench --workload steady|heal|churn|pipelined "
               "--seed N --seconds S --trace 0|1 [--smoke]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) return "";
      return argv[++i];
    };
    if (flag == "--workload") {
      opt.workload = value();
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (flag == "--trace") {
      opt.trace = value() == "1";
    } else if (flag == "--smoke") {
      opt.smoke = true;
    } else {
      return Usage();
    }
  }
  SetGlobalParallelism(kThreads);
  Run run;
  run.opt = opt;
  run.tracer = Tracer(opt.trace);
  const bool smoke = opt.smoke;
  if (opt.workload == "steady") {
    RunSelfHealingWorkload(run, smoke ? HealConfig{1000, 16, 6, 4, false, 1}
                                      : HealConfig{10000, 64, 10, 30, false, 3});
  } else if (opt.workload == "heal") {
    RunSelfHealingWorkload(run, smoke ? HealConfig{300, 12, 6, 24, true, 3}
                                      : HealConfig{1000, 32, 8, 120, true, 20});
  } else if (opt.workload == "churn") {
    RunChurnWorkload(run, smoke ? ChurnConfig{300, 12, 6, 16, 4, 4, 3}
                                : ChurnConfig{1000, 32, 8, 480, 8, 6, 20});
  } else if (opt.workload == "pipelined") {
    RunPipelinedWorkload(run, smoke ? PipelinedConfig{300, 12, 6, 8, 3}
                                    : PipelinedConfig{1000, 32, 8, 8, 20});
  } else {
    return Usage();
  }
  Report(run);
  return run.errors == 0 ? 0 : 1;
}
