// A full mission: 200 rounds of in-network control on the GDI-like network,
// run the way a deployment runs it. A SelfHealingRuntime executes every
// round as wire-level packets over lossy links (ack/retry), detects
// failures in band and disseminates plan images through its control plane.
// A QueryLifecycleManager at the base station serves workload churn (nodes
// die or are deployed: RemoveSource / AddSource) with Corollary-1
// incremental re-planning, and hands each commit to the runtime as a new
// plan epoch. Every complete destination is checked against direct
// evaluation; a wrong aggregate exits non-zero.
//
//   ./mission_sim

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/table.h"
#include "core/m2m.h"
#include "lifecycle/churn_schedule.h"
#include "runtime/channel.h"
#include "sim/self_healing.h"

using namespace m2m;

namespace {

constexpr double kValueTolerance = 1e-4;  // Readings travel as float32.

/// Counts destination values that disagree with AggregateFunction::Direct
/// over the readings of the sources their coverage record names, weighted
/// as in the plan epoch the value was computed under. A record over more
/// than kCoverageExactThreshold sources names them only by count and XOR
/// fingerprint, which must then match that epoch's whole source set.
int CountWrongValues(const RuntimeNetwork::LossyResult& data,
                     const std::vector<double>& readings,
                     const std::map<uint32_t, Workload>& workload_at_epoch) {
  int wrong = 0;
  for (const auto& [destination, value] : data.destination_values) {
    const uint32_t epoch = data.destination_epochs.at(destination);
    const Workload& workload = workload_at_epoch.at(epoch);
    std::map<NodeId, double> weights;
    for (size_t i = 0; i < workload.tasks.size(); ++i) {
      if (workload.tasks[i].destination != destination) continue;
      weights.insert(workload.specs[i].weights.begin(),
                     workload.specs[i].weights.end());
    }
    const auto& coverage = data.destination_coverage.at(destination);
    std::vector<NodeId> sources = coverage.sources;
    if (!coverage.exact_known) {
      uint32_t xor_fold = 0;
      for (const auto& [source, weight] : weights) {
        sources.push_back(source);
        xor_fold ^= static_cast<uint32_t>(source) + 1;
      }
      if (coverage.covered != static_cast<int>(sources.size()) ||
          coverage.xor_fold != xor_fold) {
        sources.clear();
      }
    }
    FunctionSpec spec;
    spec.kind = AggregateKind::kWeightedAverage;
    std::unordered_map<NodeId, double> inputs;
    for (NodeId source : sources) {
      const auto weight = weights.find(source);
      if (weight == weights.end()) break;
      spec.weights.emplace_back(source, weight->second);
      inputs[source] = readings[static_cast<size_t>(source)];
    }
    bool ok = coverage.complete && !sources.empty() &&
              spec.weights.size() == sources.size();
    if (ok) {
      const double expected = MakeAggregateFunction(spec)->Direct(inputs);
      ok = std::fabs(value - expected) <=
           kValueTolerance * std::max(1.0, std::fabs(expected));
    }
    if (!ok) {
      std::fprintf(stderr,
                   "destination %d (epoch %u): value %.6f disagrees with "
                   "direct evaluation\n",
                   destination, epoch, value);
      ++wrong;
    }
  }
  return wrong;
}

}  // namespace

int main() {
  Topology topology = MakeGreatDuckIslandLike();
  WorkloadSpec spec;
  spec.destination_count = 14;
  spec.sources_per_destination = 15;
  spec.dispersion = 0.9;
  spec.kind = AggregateKind::kWeightedAverage;
  spec.seed = 77;
  Workload workload = GenerateWorkload(topology, spec);
  const NodeId base = PickBaseStation(topology);

  const int kPhases = 5;
  const int kRoundsPerPhase = 40;
  const int kRounds = kPhases * kRoundsPerPhase;

  // Node deaths and deployments: seeded source removals and additions.
  ChurnScheduleOptions churn_options;
  churn_options.rounds = kRounds;
  churn_options.admissions = 0;
  churn_options.retirements = 0;
  churn_options.source_adds = 4;
  churn_options.source_removes = 3;
  churn_options.seed = 78;
  const ChurnSchedule churn =
      ChurnSchedule::Generate(topology, workload, {base}, churn_options);

  ChannelOptions channel_options;
  channel_options.good_loss = 0.05;
  channel_options.seed = 78;
  const ChannelModel channel(channel_options);

  SelfHealingRuntime runtime(topology, workload, base);
  QueryLifecycleManager manager(topology, workload, base);
  manager.AttachRuntime(&runtime);
  ReadingGenerator readings(topology.node_count(), 78);

  std::printf("mission: %d nodes, %zu control functions, base station %d, "
              "%.0f%% hop loss, %zu scheduled source changes\n\n",
              topology.node_count(), workload.tasks.size(), base,
              100.0 * channel_options.good_loss, churn.events().size());

  // The believed workload behind every plan epoch the runtime opened, so a
  // value is checked against the weights it was computed with.
  std::map<uint32_t, Workload> workload_at_epoch{{0u, workload}};
  int accepted = 0;
  int rejected = 0;
  UpdateStats replan;
  int64_t values_checked = 0;
  int wrong = 0;

  Table timeline({"rounds", "mean_round_mJ", "mean_attempts",
                  "epochs_opened", "control_bytes", "coverage"});
  for (int phase = 0; phase < kPhases; ++phase) {
    double energy_mj = 0.0;
    int64_t attempts = 0;
    int epochs_opened = 0;
    int64_t control_bytes = 0;
    int64_t covered = 0;
    int64_t expected = 0;
    for (int i = 0; i < kRoundsPerPhase; ++i) {
      const int round = phase * kRoundsPerPhase + i;
      for (const ChurnEvent& event : churn.EventsAt(round)) {
        const MutationResult result = ApplyChurnEvent(manager, event);
        if (!result.decision.admitted) {
          ++rejected;
          continue;
        }
        ++accepted;
        replan.edges_reused += result.replan.edges_reused;
        replan.edges_reoptimized += result.replan.edges_reoptimized;
      }
      readings.Advance(0.15);
      const SelfHealingRoundResult result =
          runtime.RunRound(round, readings.values(), channel.Bind(round));
      if (result.replanned) {
        ++epochs_opened;
        workload_at_epoch[runtime.base_epoch()] = runtime.current_workload();
      }
      wrong += CountWrongValues(result.data, readings.values(),
                                workload_at_epoch);
      values_checked +=
          static_cast<int64_t>(result.data.destination_values.size());
      energy_mj += result.data.energy_mj;
      attempts += result.data.attempts;
      control_bytes += result.control_payload_bytes;
      for (const auto& [destination, coverage] :
           result.data.destination_coverage) {
        covered += coverage.covered;
        expected += coverage.expected;
      }
    }
    timeline.AddRow(
        {std::to_string((phase + 1) * kRoundsPerPhase),
         Table::Num(energy_mj / kRoundsPerPhase),
         Table::Num(static_cast<double>(attempts) / kRoundsPerPhase, 1),
         std::to_string(epochs_opened),
         std::to_string(control_bytes),
         Table::Num(expected == 0 ? 1.0
                                  : static_cast<double>(covered) /
                                        static_cast<double>(expected),
                    4)});
  }
  timeline.Print(std::cout);

  std::printf(
      "\nafter %d rounds: %d source changes admitted (%d rejected) "
      "re-optimized %d edges (%d reused); %lld destination values verified "
      "against direct evaluation.\n",
      kRounds, accepted, rejected, replan.edges_reoptimized,
      replan.edges_reused, static_cast<long long>(values_checked));
  if (wrong > 0) {
    std::fprintf(stderr, "%d destination values disagree with direct "
                 "evaluation\n", wrong);
    return 1;
  }
  return 0;
}
