// Distributed-runtime validation: nodes constructed purely from their
// serialized table images, exchanging encoded packets, must reproduce the
// analytic executor's aggregates. This bench reports the byte-accurate
// costs of the real encoding (varint tags + f32 fields) next to the
// analytic model's fixed unit sizes, plus the per-node state image sizes a
// mote would hold. The runtime's energy also counts the header-only ack
// each delivered message returns along its segment, which the analytic
// model does not send.

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <iostream>

#include "harness.h"

int main() {
  using namespace m2m;
  Topology topology = MakeGreatDuckIslandLike();
  Table table({"destinations", "sources", "analytic_payload_B",
               "encoded_payload_B", "analytic_mJ", "runtime_mJ_with_acks",
               "image_bytes_total", "max_image_B"});
  for (auto [destinations, sources] :
       {std::pair{7, 6}, {14, 12}, {20, 20}, {34, 20}}) {
    WorkloadSpec spec;
    spec.destination_count = destinations;
    spec.sources_per_destination = sources;
    spec.dispersion = 0.9;
    spec.seed = 8500 + destinations;
    Workload workload = GenerateWorkload(topology, spec);
    System system(topology, workload);
    ReadingGenerator readings(topology.node_count(), 35);

    RoundResult analytic =
        system.MakeExecutor().RunRound(readings.values());
    RuntimeNetwork network(system.compiled(), workload.functions);
    RuntimeNetwork::Result distributed =
        network.RunRound(readings.values());
    // Readings travel as float32 fields, so compare at relative 1e-4; a
    // destination the runtime did not complete reads as NaN.
    for (const auto& [destination, expected] : analytic.destination_values) {
      auto it = distributed.destination_values.find(destination);
      const double got = it == distributed.destination_values.end()
                             ? std::nan("")
                             : it->second;
      if (!(std::abs(got - expected) <=
            1e-4 * std::max(1.0, std::abs(expected)))) {
        std::cerr << "runtime_validation: " << destinations << "x" << sources
                  << " destination " << destination << ": runtime "
                  << std::setprecision(9) << got
                  << " vs analytic " << expected << "\n";
        return 1;
      }
    }

    size_t max_image = 0;
    for (const auto& image :
         EncodeAllNodeStates(system.compiled(), workload.functions)) {
      max_image = std::max(max_image, image.size());
    }
    table.AddRow({std::to_string(destinations), std::to_string(sources),
                  std::to_string(analytic.payload_bytes),
                  std::to_string(distributed.payload_bytes),
                  Table::Num(analytic.energy_mj),
                  Table::Num(distributed.energy_mj),
                  std::to_string(network.installed_image_bytes()),
                  std::to_string(max_image)});
  }
  m2m::bench::EmitTable(
      "Distributed runtime — encoded packets vs the analytic model",
      "GDI-like 68-node network, optimal plans; every runtime value "
      "checked against the analytic executor's (relative 1e-4); runtime "
      "energy includes the clean round's header-only acks; image = "
      "serialized per-node tables",
      table);
  return 0;
}
