#ifndef M2M_EVENT_EVENT_RUNTIME_H_
#define M2M_EVENT_EVENT_RUNTIME_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "event/clock.h"
#include "event/transport.h"
#include "obs/metrics.h"
#include "runtime/network.h"

namespace m2m::event {

/// Event-driven execution engine over a RuntimeNetwork fleet: a
/// deterministic discrete-event dispatcher (EventQueue) driving the
/// compiled NodeRuntime state machines through a pluggable Transport,
/// instead of the global round barrier.
///
/// `RunPipelined` is genuinely asynchronous execution the round model
/// cannot express. Per-node virtual clocks release timestep starts on each
/// node's *local* schedule, per-hop latency puts deliveries on the global
/// event line, and multiple timesteps overlap in flight (block-computation
/// pipelining); retirement is per-timestep quiescence. Under drift a fast
/// neighbor's packet can reach a node before its local timestep start; the
/// engine holds it in a per-node pre-start mailbox and replays the mailbox
/// in arrival order right after the start (NodeRuntime rejects receives
/// outside an active round). Retransmit timers are cancelled exactly when
/// the ack lands — the event queue's Cancel in anger. (Lockstep lossy
/// rounds run on the same EventQueue inside `RuntimeNetwork::RunRoundLossy`.)
///
/// The engine borrows the fleet's images and epochs; it never mutates the
/// fleet, so pipelined batches and round-based execution can be
/// interleaved over one deployment.
class EventNetwork {
 public:
  explicit EventNetwork(const RuntimeNetwork& fleet);

  /// No-op: RunPipelined records only the `event.*` set attached through
  /// set_event_metrics. Kept so existing callers still compile.
  void set_metrics(obs::MetricsRegistry* metrics) { (void)metrics; }

  /// Registers the event-engine instrumentation (`event.*`): queue depth,
  /// handler scheduling-latency histogram, pipeline occupancy, processed
  /// event and cancelled timer counters. Pass nullptr to detach.
  void set_event_metrics(obs::MetricsRegistry* metrics);

  struct PipelineOptions {
    /// Local-clock ticks between successive timestep releases: node n
    /// starts timestep t when its local clock reads t * interval. Smaller
    /// intervals (relative to per-timestep completion time) deepen the
    /// pipeline.
    int64_t timestep_interval_ticks = 8;
    /// Per-node clock specs (size node_count); empty = identity clocks.
    std::vector<ClockSpec> clocks;
    RetryPolicy retry;
  };

  struct PipelineResult {
    struct Timestep {
      std::unordered_map<NodeId, double> destination_values;
      std::vector<NodeId> incomplete_destinations;
      int64_t attempts = 0;
      int64_t deliveries = 0;
      int64_t retransmissions = 0;
      int64_t duplicates = 0;  ///< Dedup-suppressed deliveries.
      int64_t messages_abandoned = 0;
      int64_t corrupt_frames = 0;
      /// Deliveries that arrived before the recipient's local round start
      /// and were mailbox-buffered (nonzero only when drift makes a sender
      /// run ahead of its receiver; the pipelining evidence).
      int64_t buffered_prestart = 0;
      int64_t start_tick = -1;   ///< Global tick of the first node start.
      int64_t retire_tick = -1;  ///< Global tick of quiescence.
    };
    std::vector<Timestep> timesteps;
    /// Peak number of timesteps simultaneously live (started, not yet
    /// retired) — >= 2 demonstrates pipelined execution.
    int max_in_flight = 0;
    int64_t final_tick = 0;
    uint64_t events_processed = 0;
    uint64_t retransmit_timers_cancelled = 0;
  };

  /// Runs `readings_per_timestep.size()` timesteps asynchronously over
  /// `transport`. Each timestep executes on its own clones of the fleet's
  /// node runtimes, made when its first node starts and freed when it
  /// retires at quiescence, so overlapping timesteps never share mutable
  /// per-round state and live clones number at most the pipeline depth;
  /// the fleet itself is not mutated.
  PipelineResult RunPipelined(
      const std::vector<std::vector<double>>& readings_per_timestep,
      const Transport& transport, const PipelineOptions& options);

 private:
  struct EventMetricHandles {
    obs::MetricHandle events_processed;
    obs::MetricHandle queue_depth;
    obs::MetricHandle handler_latency_ticks;
    obs::MetricHandle pipeline_occupancy;
    obs::MetricHandle timers_cancelled;
  };

  const RuntimeNetwork* fleet_;
  obs::MetricsRegistry* event_metrics_ = nullptr;
  EventMetricHandles event_handles_;
};

}  // namespace m2m::event

#endif  // M2M_EVENT_EVENT_RUNTIME_H_
