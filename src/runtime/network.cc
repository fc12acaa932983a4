#include "runtime/network.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/check.h"
#include "common/thread_pool.h"
#include "event/event_queue.h"
#include "plan/serialization.h"
#include "runtime/wire_functions.h"

namespace m2m {

namespace {

/// Contiguous node-id region owning node `node` when ids are split into
/// `shard_count` ranges. Region sharding keys every piece of mutable
/// per-delivery state: a packet's recipient fixes its transfer, so all
/// state a delivery touches lives in one shard.
int ShardOfNode(NodeId node, int shard_count, int64_t node_count) {
  return static_cast<int>(static_cast<int64_t>(node) * shard_count /
                          node_count);
}

/// One in-flight message instance per emitted packet; retransmissions
/// reuse the instance with a bumped attempt counter.
struct Transfer {
  NodeId sender = kInvalidNode;
  NodeRuntime::OutgoingPacket packet;
  uint32_t epoch = 0;  ///< Sender's plan epoch, stamped at emission.
  int attempts_made = 0;
  bool delivered_once = false;
  bool acked = false;
  /// Final verdict recorded (attempts histogram, abandoned accounting).
  bool done = false;
  /// Delayed deliveries/acks of this message still in flight.
  int pending_events = 0;
  /// Scheduled retransmissions not yet popped (a pop after the ack lands
  /// is skipped, so these must block the final abandoned verdict).
  int pending_retransmits = 0;
  /// Highest attempt index whose copy has arrived (reorder detection).
  int last_arrival_attempt = 0;
};

/// One agenda entry. The agenda holds every future action:
/// (re)transmissions, plus — under an adversarial channel — delayed packet
/// arrivals and delayed acks. With a clean channel only kTransmit events
/// exist and the schedule is tick-for-tick stop-and-wait. The queue pops
/// in (tick, schedule-seq) order, which is exactly the tick-ascending,
/// append-ordered walk of per-tick vectors — the round barrier is a
/// special case of the discrete-event engine.
struct Event {
  enum class Kind : uint8_t { kTransmit, kDeliver, kAckArrive };
  Kind kind = Kind::kTransmit;
  size_t index = 0;
  int attempt = 0;          ///< kDeliver/kAckArrive: producing attempt.
  bool retransmit = false;  ///< kTransmit: skip if already acked/done.
  bool corrupt = false;
  uint32_t corrupt_bit = 0;
  bool is_dup = false;  ///< Channel-duplicated copy, not a retry.
};

/// Deferred effects of one event. When the tick loop runs sharded, each
/// event mutates only its own transfer and its recipient node's state
/// inline, and records every write to shared round state — result
/// counters, energy terms, heard-evidence, metric/trace records, agenda
/// appends, and packet emissions — into its Fx. The merge applies the
/// records serially in original event order, reproducing the serial
/// path's floating-point addition order, trace byte order, and agenda
/// order exactly (THEORY.md §12). In serial mode each Fx is applied
/// immediately after its event.
struct Fx {
  int64_t attempts = 0;
  int64_t deliveries = 0;
  int64_t duplicates = 0;
  int64_t retransmissions = 0;
  int64_t acks_lost = 0;
  int64_t messages_abandoned = 0;
  int64_t epoch_rejected = 0;
  int64_t payload_bytes = 0;
  int64_t corrupt_frames = 0;
  int64_t spontaneous_duplicates = 0;
  int64_t reordered_deliveries = 0;
  /// Energy deltas, replayed with += in recorded order (floating-point
  /// addition does not commute; the order is part of the byte-identity
  /// contract).
  std::vector<double> energy_terms;
  /// Per-node energy attribution (mJ terms), recorded only when per-node
  /// tracking is on. Kept separate from `energy_terms` so the total's
  /// accumulation order is untouched.
  std::vector<std::pair<NodeId, double>> node_energy_terms;
  std::vector<std::pair<NodeId, NodeId>> heard;
  struct MetricOp {
    enum class Kind : uint8_t { kAdd, kAddNode, kAddEdge, kObserve };
    Kind kind = Kind::kAdd;
    obs::MetricHandle handle;
    NodeId a = kInvalidNode;  ///< Node (kAddNode) or from (kAddEdge).
    NodeId b = kInvalidNode;  ///< To (kAddEdge).
    int64_t value = 0;
  };
  std::vector<MetricOp> metric_ops;
  struct TraceOp {
    bool give_up = false;
    int tick = 0;
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
    int message_id = 0;
    int attempt = 0;
    int payload = 0;
    obs::SendOutcome outcome = obs::SendOutcome::kRx;
    bool ack_lost = false;
    int drop_hop = 0;
  };
  std::vector<TraceOp> trace_ops;
  /// An emitted packet: becomes a new transfer plus its first transmit
  /// event at `tick`.
  struct Emission {
    NodeId sender = kInvalidNode;
    NodeRuntime::OutgoingPacket packet;
    uint32_t epoch = 0;
    int tick = 0;
  };
  /// Agenda appends and emissions interleave within one event (an arrival
  /// can emit packets before scheduling its ack), so they share one
  /// ordered op list.
  struct Op {
    bool emit = false;
    int tick = 0;
    Event event;        ///< !emit: appended verbatim at `tick`.
    Emission emission;  ///< emit: new transfer + first transmit.
  };
  std::vector<Op> ops;

  void Schedule(int tick, const Event& event) {
    Op op;
    op.tick = tick;
    op.event = event;
    ops.push_back(std::move(op));
  }
};

/// What one transmission attempt's forward walk along its segment saw.
struct ForwardWalk {
  bool delivered = false;
  int hops_crossed = 0;
  int delay = 0;
  bool duplicate = false;
  bool corrupt = false;
  uint32_t corrupt_bit = 0;
};

}  // namespace

int64_t RetryPolicy::BackoffWaitTicks(int attempt) const {
  M2M_CHECK_GE(attempt, 1);
  // The clamp doubles as the overflow guard: wait only grows while below
  // max_backoff_ticks, so the product never exceeds
  // max_backoff_ticks * backoff_factor, well inside int64.
  int64_t wait = ack_timeout_ticks;
  for (int k = 1; k < attempt && wait < max_backoff_ticks; ++k) {
    wait *= backoff_factor;
  }
  return std::min(wait, max_backoff_ticks);
}

int64_t RetryPolicy::RetryHorizonTicks() const {
  int64_t horizon = 1;
  int64_t wait = ack_timeout_ticks;
  for (int k = 1; k < max_attempts; ++k) {
    horizon += std::min(wait, max_backoff_ticks);
    if (wait < max_backoff_ticks) wait *= backoff_factor;
  }
  return horizon;
}

RuntimeNetwork::RuntimeNetwork(const CompiledPlan& compiled,
                               const FunctionSet& functions) {
  std::vector<std::vector<uint8_t>> images =
      EncodeAllNodeStates(compiled, functions);
  nodes_.reserve(images.size());
  message_segments_.resize(images.size());
  for (NodeId n = 0; n < compiled.node_count(); ++n) {
    installed_image_bytes_ += static_cast<int64_t>(images[n].size());
    nodes_.emplace_back(n, images[n]);
    // Segments by node-local message id (images index outgoing messages by
    // their position in the outgoing table).
    for (const OutgoingMessageEntry& entry :
         compiled.state(n).outgoing_table) {
      message_segments_[n].push_back(entry.segment);
    }
  }
}

void RuntimeNetwork::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics_ == nullptr) return;
  handles_.tx_attempts = metrics_->Counter("runtime.tx_attempts");
  handles_.tx_bytes = metrics_->Counter("runtime.tx_bytes");
  handles_.rx_packets = metrics_->Counter("runtime.rx_packets");
  handles_.rx_bytes = metrics_->Counter("runtime.rx_bytes");
  handles_.hop_transmissions = metrics_->Counter("runtime.hop_transmissions");
  handles_.retransmissions = metrics_->Counter("runtime.retransmissions");
  handles_.backoff_wait_ticks =
      metrics_->Counter("runtime.backoff_wait_ticks");
  handles_.acks_delivered = metrics_->Counter("runtime.acks_delivered");
  handles_.acks_lost = metrics_->Counter("runtime.acks_lost");
  handles_.dedup_hits = metrics_->Counter("runtime.dedup_hits");
  handles_.epoch_gate_drops = metrics_->Counter("runtime.epoch_gate_drops");
  handles_.messages_abandoned =
      metrics_->Counter("runtime.messages_abandoned");
  // Registered but never recorded: the registry's JSON lists every
  // registered metric in order, and the recorded lossy-round digests
  // (RoundLossyGolden) hash that JSON, so these two stay until those
  // digests are re-recorded.
  metrics_->Counter("runtime.tx_packets");
  metrics_->Counter("runtime.delivery_passes");
  handles_.attempts_per_message =
      metrics_->Histogram("runtime.attempts_per_message");
  handles_.round_ticks = metrics_->Histogram("runtime.round_ticks");
  handles_.installs = metrics_->Counter("runtime.image_installs");
  handles_.install_bytes = metrics_->Counter("runtime.image_install_bytes");
  handles_.chan_corrupt_frames = metrics_->Counter("chan.corrupt_frames");
  handles_.chan_duplicated = metrics_->Counter("chan.duplicated");
  handles_.chan_reordered = metrics_->Counter("chan.reordered");
  handles_.coverage_per_destination = metrics_->Histogram(
      "coverage.per_destination", {0, 10, 25, 50, 75, 90, 100});
  handles_.coverage_degraded_rounds =
      metrics_->Counter("coverage.degraded_rounds");
}

bool RuntimeNetwork::InstallNodeImage(NodeId node,
                                      const std::vector<uint8_t>& image,
                                      std::vector<std::vector<NodeId>> segments) {
  M2M_CHECK(node >= 0 && node < static_cast<NodeId>(nodes_.size()));
  if (!nodes_[node].InstallImage(image)) {
    // Stale lineage: the node already runs a newer epoch; keep its current
    // tables and routes untouched (higher epoch wins).
    return false;
  }
  const size_t outgoing = nodes_[node].decoded().state.outgoing_table.size();
  M2M_CHECK_EQ(segments.size(), outgoing)
      << "node " << node << ": segment routes do not match outgoing table";
  for (const std::vector<NodeId>& segment : segments) {
    M2M_CHECK_GE(segment.size(), 2u);
  }
  message_segments_[node] = std::move(segments);
  if (metrics_ != nullptr) {
    metrics_->AddNode(handles_.installs, node, 1);
    metrics_->AddNode(handles_.install_bytes, node,
                      static_cast<int64_t>(image.size()));
  }
  return true;
}

uint32_t RuntimeNetwork::plan_epoch(NodeId node) const {
  M2M_CHECK(node >= 0 && node < static_cast<NodeId>(nodes_.size()));
  return nodes_[node].plan_epoch();
}

const NodeRuntime& RuntimeNetwork::node_runtime(NodeId node) const {
  M2M_CHECK(node >= 0 && node < static_cast<NodeId>(nodes_.size()));
  return nodes_[node];
}

const std::vector<std::vector<NodeId>>& RuntimeNetwork::node_message_segments(
    NodeId node) const {
  M2M_CHECK(node >= 0 && node < static_cast<NodeId>(nodes_.size()));
  return message_segments_[node];
}

RuntimeNetwork::Result RuntimeNetwork::RunRound(
    const std::vector<double>& readings, const EnergyModel& energy) {
  LossyLinkModel clean;
  clean.attempt_delivers = [](NodeId, NodeId, int) { return true; };
  Result result = RunRoundLossy(readings, clean, RetryPolicy{}, energy);
  M2M_CHECK(result.incomplete_destinations.empty())
      << "destination " << result.incomplete_destinations.front()
      << " never completed its aggregate";
  return result;
}

/// One lossy round, run in three phases: Emit starts the alive nodes and
/// queues their transfers, RunTicks drains the agenda tick by tick, and
/// Finish reads values and coverage off the destinations.
class RuntimeNetwork::LossyRound {
 public:
  LossyRound(RuntimeNetwork& net, const LossyLinkModel& links,
             const RetryPolicy& retry, const EnergyModel& energy,
             EventTrace* trace);

  void Emit(const std::vector<double>& readings);
  void RunTicks();
  LossyResult Finish();

 private:
  bool Alive(NodeId n) const {
    return links_.node_alive == nullptr || links_.node_alive(n);
  }
  void AddTransfer(NodeId sender, NodeRuntime::OutgoingPacket packet,
                   uint32_t epoch, int tick);

  // Fx recorders; each is a no-op when its sink is detached.
  void RecordMetric(Fx& fx, Fx::MetricOp::Kind kind, obs::MetricHandle handle,
                    NodeId a, NodeId b, int64_t value) const;
  void RecordNode(Fx& fx, obs::MetricHandle handle, NodeId node,
                  int64_t value) const {
    RecordMetric(fx, Fx::MetricOp::Kind::kAddNode, handle, node,
                 kInvalidNode, value);
  }
  void RecordAdd(Fx& fx, obs::MetricHandle handle, int64_t value) const {
    RecordMetric(fx, Fx::MetricOp::Kind::kAdd, handle, kInvalidNode,
                 kInvalidNode, value);
  }
  void RecordSend(Fx& fx, size_t index, int tick, int attempt,
                  obs::SendOutcome outcome, bool ack_lost,
                  int drop_hop) const;

  // Tick loop.
  void EvictStaleDedup(int tick);
  void RunWave(const std::vector<Event>& list, size_t begin, size_t end,
               int tick);
  void ProcessEvent(const Event& event, int tick, Fx& fx);
  void ProcessTransmit(size_t index, int tick, Fx& fx);
  ForwardWalk WalkForward(size_t index, int attempt, Fx& fx);
  void ProcessArrival(const Event& arrival, int tick, Fx& fx);
  bool SendAck(size_t index, int attempt, int tick, Fx& fx);
  void ApplyAck(size_t index, Fx& fx);
  void MaybeFinalize(size_t index, int tick, Fx& fx);
  void ApplyFx(Fx& fx);

  // Epilogue.
  std::map<NodeId, std::set<NodeId>> ExpectedSources() const;

  RuntimeNetwork& net_;
  const LossyLinkModel& links_;
  const RetryPolicy& retry_;
  const EnergyModel& energy_;
  EventTrace* const trace_;
  obs::MetricsRegistry* const metrics_;
  const MetricHandles& handles_;
  const bool track_node_energy_;
  const int64_t node_count_;
  int64_t evict_horizon_ticks_ = 0;
  LossyResult result_;
  std::vector<Transfer> transfers_;
  event::EventQueue<Event> agenda_;
};

RuntimeNetwork::LossyRound::LossyRound(RuntimeNetwork& net,
                                       const LossyLinkModel& links,
                                       const RetryPolicy& retry,
                                       const EnergyModel& energy,
                                       EventTrace* trace)
    : net_(net),
      links_(links),
      retry_(retry),
      energy_(energy),
      trace_(trace),
      metrics_(net.metrics_),
      handles_(net.handles_),
      track_node_energy_(net.track_node_energy_),
      node_count_(static_cast<int64_t>(net.nodes_.size())) {
  M2M_CHECK(links.attempt_delivers != nullptr);
  M2M_CHECK_GE(retry.max_attempts, 1);
  M2M_CHECK_GE(retry.ack_timeout_ticks, 1);
  M2M_CHECK_GE(retry.backoff_factor, 1);
  M2M_CHECK_GE(retry.max_backoff_ticks, retry.ack_timeout_ticks)
      << "max_backoff_ticks must not undercut the base ack timeout";
  M2M_CHECK_GE(links.max_delay_ticks, 0);
  // Channel delay widens the duplicate window: a late retransmission can
  // arrive up to max_delay_ticks after it was sent, so the receiver-side
  // dedup eviction horizon stretches by exactly that much (the boundary
  // stays exact — see the delayed-duplicate regression tests). Ticks stay
  // in int; the clamp bounds the horizon, but a pathological policy (huge
  // max_attempts * huge clamp) must fail loudly, not wrap.
  evict_horizon_ticks_ = retry.RetryHorizonTicks() + links.max_delay_ticks;
  M2M_CHECK_LE(evict_horizon_ticks_, int64_t{1} << 30)
      << "retry policy horizon overflows the tick domain";
  if (track_node_energy_) {
    result_.node_energy_mj.assign(net.nodes_.size(), 0.0);
  }
}

void RuntimeNetwork::LossyRound::AddTransfer(
    NodeId sender, NodeRuntime::OutgoingPacket packet, uint32_t epoch,
    int tick) {
  transfers_.push_back(Transfer{sender, std::move(packet), epoch});
  Event event;
  event.index = transfers_.size() - 1;
  agenda_.Schedule(tick, event);
}

// --- Phase 1: emit ---------------------------------------------------------

void RuntimeNetwork::LossyRound::Emit(const std::vector<double>& readings) {
  // Per-node work shards over node-id ranges; emissions merge in node-id
  // order, reproducing the serial transfer/agenda order.
  std::vector<std::vector<NodeRuntime::OutgoingPacket>> drained(
      net_.nodes_.size());
  ParallelFor(node_count_, [&](int64_t begin, int64_t end) {
    for (int64_t n = begin; n < end; ++n) {
      if (!Alive(static_cast<NodeId>(n))) continue;
      net_.nodes_[n].StartRound(readings[n]);
      drained[n] = net_.nodes_[n].DrainReadyPackets();
    }
  });
  for (size_t n = 0; n < net_.nodes_.size(); ++n) {
    for (NodeRuntime::OutgoingPacket& packet : drained[n]) {
      AddTransfer(static_cast<NodeId>(n), std::move(packet),
                  net_.nodes_[n].plan_epoch(), 0);
    }
  }
}

// --- Phase 2: tick loop ----------------------------------------------------

void RuntimeNetwork::LossyRound::RunTicks() {
  std::vector<Event> list;
  while (!agenda_.empty()) {
    const int tick = static_cast<int>(*agenda_.NextTime());
    result_.final_tick = tick;
    EvictStaleDedup(tick);
    // Every event scheduled during processing lands at tick + 1 or later
    // (arrivals collect at arrival + 1; channel delays and backoffs are
    // >= 1), so one wave normally covers the whole tick; the wave loop
    // mirrors the serial index walk in case a schedule ever targets the
    // current tick (the queue's seq tie-break keeps any such stragglers in
    // append order). A merged emission can push into `transfers_`
    // (reallocation), so events go through indices, never held references.
    list.clear();
    size_t processed = 0;
    while (true) {
      while (!agenda_.empty() && agenda_.NextTime() == tick) {
        list.push_back(std::move(agenda_.Pop()->payload));
      }
      if (processed >= list.size()) break;
      const size_t wave_end = list.size();
      RunWave(list, processed, wave_end, tick);
      processed = wave_end;
    }
  }
  if (metrics_ != nullptr) {
    metrics_->Observe(handles_.round_ticks, result_.final_tick);
  }
}

void RuntimeNetwork::LossyRound::EvictStaleDedup(int tick) {
  // Dedup entries older than the (delay-extended) retry horizon can never
  // be duplicated again; drop them so the table stays O(in-flight), not
  // O(received). The boundary is exact: an entry stamped t is retained
  // through processing tick t + horizon, and the last possible duplicate
  // of its message arrives at t + horizon - 1 (obs_test pins the
  // clean-channel boundary, the delayed-duplicate regression the extended
  // one). Eviction is per-node independent, so it shards over node ranges.
  if (tick <= evict_horizon_ticks_) return;
  const int evict_before = tick - static_cast<int>(evict_horizon_ticks_);
  ParallelFor(node_count_, [&](int64_t begin, int64_t end) {
    for (int64_t n = begin; n < end; ++n) {
      net_.nodes_[n].EvictSeenPacketsBefore(evict_before);
    }
  });
}

void RuntimeNetwork::LossyRound::RunWave(const std::vector<Event>& list,
                                         size_t begin, size_t end,
                                         int tick) {
  ThreadPool* pool = GlobalThreadPool();
  const int shard_count =
      pool == nullptr
          ? 1
          : static_cast<int>(std::min<int64_t>(GlobalShardCount(),
                                               node_count_));
  if (shard_count <= 1) {
    // Serial: apply each event's effects immediately after it.
    for (size_t i = begin; i < end; ++i) {
      Fx fx;
      ProcessEvent(list[i], tick, fx);
      ApplyFx(fx);
    }
    return;
  }
  // Parallel wave: events bucket by the recipient region of their
  // transfer, keeping every per-transfer and per-node mutation in exactly
  // one shard, in original event order. The per-event Fx records are then
  // merged serially in event order — identical bytes to the serial walk
  // for any shard count.
  std::vector<std::vector<size_t>> buckets(shard_count);
  for (size_t i = begin; i < end; ++i) {
    buckets[ShardOfNode(transfers_[list[i].index].packet.recipient,
                        shard_count, node_count_)]
        .push_back(i);
  }
  std::vector<Fx> fx(end - begin);
  pool->RunShards(shard_count, [&](int s) {
    for (size_t i : buckets[s]) ProcessEvent(list[i], tick, fx[i - begin]);
  });
  for (size_t i = begin; i < end; ++i) ApplyFx(fx[i - begin]);
}

// Dispatches one event. All transfer-state and recipient-node mutation is
// inline (shard-exclusive: every kind touches only transfers_[index] and
// the recipient node, and the recipient is fixed per transfer); everything
// shared lands in `fx`.
void RuntimeNetwork::LossyRound::ProcessEvent(const Event& event, int tick,
                                              Fx& fx) {
  Transfer& t = transfers_[event.index];
  switch (event.kind) {
    case Event::Kind::kTransmit:
      if (event.retransmit) {
        t.pending_retransmits -= 1;
        if (t.acked || t.done) {
          MaybeFinalize(event.index, tick, fx);
          break;
        }
      }
      ProcessTransmit(event.index, tick, fx);
      break;
    case Event::Kind::kDeliver:
      t.pending_events -= 1;
      ProcessArrival(event, tick, fx);
      MaybeFinalize(event.index, tick, fx);
      break;
    case Event::Kind::kAckArrive:
      t.pending_events -= 1;
      ApplyAck(event.index, fx);
      MaybeFinalize(event.index, tick, fx);
      break;
  }
}

void RuntimeNetwork::LossyRound::ProcessTransmit(size_t index, int tick,
                                                 Fx& fx) {
  Transfer& t = transfers_[index];
  const std::vector<NodeId>& segment =
      net_.message_segments_[t.sender][t.packet.local_message_id];
  const int payload = static_cast<int>(t.packet.payload.size());
  const int attempt = ++t.attempts_made;
  fx.attempts += 1;
  if (attempt > 1) fx.retransmissions += 1;
  RecordNode(fx, handles_.tx_attempts, t.sender, 1);
  RecordNode(fx, handles_.tx_bytes, t.sender, payload);
  if (attempt > 1) RecordAdd(fx, handles_.retransmissions, 1);

  const ForwardWalk walk = WalkForward(index, attempt, fx);
  fx.energy_terms.push_back(walk.hops_crossed *
                            energy_.UnicastHopUj(payload) / 1000.0);
  if (track_node_energy_) {
    for (int h = 0; h < walk.hops_crossed; ++h) {
      fx.node_energy_terms.emplace_back(segment[h],
                                        energy_.TxUj(payload) / 1000.0);
      fx.node_energy_terms.emplace_back(segment[h + 1],
                                        energy_.RxUj(payload) / 1000.0);
    }
  }
  if (!walk.delivered &&
      walk.hops_crossed + 2 <= static_cast<int>(segment.size())) {
    fx.energy_terms.push_back(energy_.TxUj(payload) / 1000.0);
    if (track_node_energy_) {
      // The failed (or dead-recipient) attempt burned one TX at the node
      // the forward walk stalled at.
      fx.node_energy_terms.emplace_back(segment[walk.hops_crossed],
                                        energy_.TxUj(payload) / 1000.0);
    }
  }

  if (walk.delivered) {
    const int delay = std::min(walk.delay, links_.max_delay_ticks);
    Event arrival;
    arrival.kind = Event::Kind::kDeliver;
    arrival.index = index;
    arrival.attempt = attempt;
    arrival.corrupt = walk.corrupt;
    arrival.corrupt_bit = walk.corrupt_bit;
    if (delay <= 0) {
      ProcessArrival(arrival, tick, fx);
    } else {
      t.pending_events += 1;
      fx.Schedule(tick + delay, arrival);
    }
    if (walk.duplicate) {
      // The spontaneous copy trails the original by one tick.
      t.pending_events += 1;
      arrival.is_dup = true;
      fx.Schedule(tick + delay + 1, arrival);
    }
  } else {
    const bool dropped = Alive(t.packet.recipient);
    RecordSend(fx, index, tick, attempt,
               dropped ? obs::SendOutcome::kDropped
                       : obs::SendOutcome::kDeadRecipient,
               /*ack_lost=*/false, dropped ? walk.hops_crossed + 1 : 0);
  }

  // Retry decision at send time: if no ack has landed by the backoff
  // deadline the sender retransmits. A retransmission popped after a
  // delayed ack arrived is skipped, so late acks stop the retry chain.
  if (!t.acked && !t.done && attempt < retry_.max_attempts) {
    const int64_t timeout = retry_.BackoffWaitTicks(attempt);
    t.pending_retransmits += 1;
    Event retransmit;
    retransmit.index = index;
    retransmit.retransmit = true;
    fx.Schedule(tick + static_cast<int>(timeout), retransmit);
    RecordAdd(fx, handles_.backoff_wait_ticks, timeout);
  }
  MaybeFinalize(index, tick, fx);
}

// Data crosses the segment hop by hop; the first dead hop burns one
// transmit and stops the packet. Channel effects (delay, duplication,
// corruption) accumulate along the hops actually crossed.
ForwardWalk RuntimeNetwork::LossyRound::WalkForward(size_t index,
                                                    int attempt, Fx& fx) {
  const Transfer& t = transfers_[index];
  const std::vector<NodeId>& segment =
      net_.message_segments_[t.sender][t.packet.local_message_id];
  ForwardWalk walk;
  walk.delivered = Alive(t.packet.recipient);
  if (!walk.delivered) return walk;
  for (size_t h = 0; h + 1 < segment.size(); ++h) {
    if (!links_.attempt_delivers(segment[h], segment[h + 1], attempt)) {
      walk.delivered = false;
      break;
    }
    ++walk.hops_crossed;
    RecordMetric(fx, Fx::MetricOp::Kind::kAddEdge, handles_.hop_transmissions,
                 segment[h], segment[h + 1], 1);
    // Heartbeat evidence: segment[h+1] heard segment[h] transmit.
    fx.heard.emplace_back(segment[h], segment[h + 1]);
    if (links_.hop_effects != nullptr) {
      HopEffects effects =
          links_.hop_effects(segment[h], segment[h + 1], attempt);
      walk.delay += effects.delay_ticks;
      if (effects.duplicate) walk.duplicate = true;
      if (effects.corrupt && !walk.corrupt) {
        walk.corrupt = true;
        walk.corrupt_bit = effects.corrupt_bit;
      }
    }
  }
  return walk;
}

// One copy of the message arriving at the recipient (inline when the
// channel adds no delay, or as a popped kDeliver event): CRC gate, then
// dedup/epoch-gated receive, then the reverse-path ack walk.
void RuntimeNetwork::LossyRound::ProcessArrival(const Event& arrival,
                                                int tick, Fx& fx) {
  const size_t index = arrival.index;
  Transfer& t = transfers_[index];
  const NodeId recipient_id = t.packet.recipient;
  const int payload = static_cast<int>(t.packet.payload.size());

  if (arrival.corrupt &&
      wire::CorruptedFrameRejected(t.packet.payload, arrival.corrupt_bit)) {
    // Bit-flip in transit: the CRC32 frame check rejects the packet before
    // any decoding. No ack — the sender's retry budget covers corruption
    // exactly like a drop, but the event is *counted*. (A genuine single
    // bit flip is always detected; were the checksum to match, the frame
    // would be intact and is received below.)
    fx.corrupt_frames += 1;
    RecordNode(fx, handles_.chan_corrupt_frames, recipient_id, 1);
    RecordSend(fx, index, tick, arrival.attempt, obs::SendOutcome::kCorrupt,
               /*ack_lost=*/false, /*drop_hop=*/0);
    return;
  }

  fx.deliveries += 1;
  fx.payload_bytes += payload;
  if (arrival.is_dup) {
    fx.spontaneous_duplicates += 1;
    RecordAdd(fx, handles_.chan_duplicated, 1);
  }
  if (arrival.attempt < t.last_arrival_attempt) {
    // A delayed copy landed after a newer attempt already arrived.
    fx.reordered_deliveries += 1;
    RecordAdd(fx, handles_.chan_reordered, 1);
  } else {
    t.last_arrival_attempt = arrival.attempt;
  }
  NodeRuntime& recipient = net_.nodes_[recipient_id];
  RecordNode(fx, handles_.rx_packets, recipient_id, 1);
  RecordNode(fx, handles_.rx_bytes, recipient_id, payload);
  obs::SendOutcome outcome = obs::SendOutcome::kRx;
  switch (recipient.OnReceiveOnce(t.sender, t.packet.local_message_id,
                                  t.epoch, t.packet.payload, tick)) {
    case NodeRuntime::ReceiveOutcome::kFresh:
      t.delivered_once = true;
      for (NodeRuntime::OutgoingPacket& packet :
           recipient.DrainReadyPackets()) {
        Fx::Op op;
        op.emit = true;
        op.emission = Fx::Emission{recipient_id, std::move(packet),
                                   recipient.plan_epoch(), tick + 1};
        fx.ops.push_back(std::move(op));
      }
      break;
    case NodeRuntime::ReceiveOutcome::kDuplicate:
      fx.duplicates += 1;
      RecordNode(fx, handles_.dedup_hits, recipient_id, 1);
      outcome = obs::SendOutcome::kDuplicate;
      break;
    case NodeRuntime::ReceiveOutcome::kEpochMismatch:
      // Dropped whole, but still acked below: the mismatch is a plan
      // generation gap, not a link failure — retrying cannot help.
      t.delivered_once = true;
      fx.epoch_rejected += 1;
      RecordNode(fx, handles_.epoch_gate_drops, recipient_id, 1);
      outcome = obs::SendOutcome::kEpochRejected;
      break;
  }
  const bool ack_ok = SendAck(index, arrival.attempt, tick, fx);
  RecordSend(fx, index, tick, arrival.attempt, outcome, !ack_ok,
             /*drop_hop=*/0);
}

// The ack travels the segment in reverse with a header-only payload. A
// delayed ack arrives as a kAckArrive event — retransmissions it crosses in
// flight are suppressed by the receiver dedup, and the sender stops
// retrying the moment the ack lands. Returns false when a hop drops it.
bool RuntimeNetwork::LossyRound::SendAck(size_t index, int attempt, int tick,
                                         Fx& fx) {
  Transfer& t = transfers_[index];
  const std::vector<NodeId>& segment =
      net_.message_segments_[t.sender][t.packet.local_message_id];
  bool ack_ok = true;
  int ack_hops = 0;
  int ack_delay = 0;
  for (size_t h = segment.size() - 1; h > 0; --h) {
    if (!links_.attempt_delivers(segment[h], segment[h - 1], attempt)) {
      ack_ok = false;
      break;
    }
    ++ack_hops;
    fx.heard.emplace_back(segment[h], segment[h - 1]);
    if (links_.hop_effects != nullptr) {
      ack_delay +=
          links_.hop_effects(segment[h], segment[h - 1], attempt).delay_ticks;
    }
  }
  fx.energy_terms.push_back(ack_hops * energy_.UnicastHopUj(0) / 1000.0);
  if (track_node_energy_) {
    // Replay the crossed ack hops for attribution: segment[h] transmitted
    // the header-only ack, segment[h - 1] received it.
    for (int crossed = 0; crossed < ack_hops; ++crossed) {
      const size_t h = segment.size() - 1 - crossed;
      fx.node_energy_terms.emplace_back(segment[h], energy_.TxUj(0) / 1000.0);
      fx.node_energy_terms.emplace_back(segment[h - 1],
                                        energy_.RxUj(0) / 1000.0);
    }
  }
  if (!ack_ok) {
    fx.energy_terms.push_back(energy_.TxUj(0) / 1000.0);
    if (track_node_energy_) {
      // The failed ack attempt burned one header-only TX at the node the
      // reverse walk stalled at.
      fx.node_energy_terms.emplace_back(segment[segment.size() - 1 - ack_hops],
                                        energy_.TxUj(0) / 1000.0);
    }
    fx.acks_lost += 1;
    RecordNode(fx, handles_.acks_lost, t.sender, 1);
    return false;
  }
  ack_delay = std::min(ack_delay, links_.max_delay_ticks);
  if (ack_delay <= 0) {
    ApplyAck(index, fx);
  } else {
    t.pending_events += 1;
    Event ack;
    ack.kind = Event::Kind::kAckArrive;
    ack.index = index;
    ack.attempt = attempt;
    fx.Schedule(tick + ack_delay, ack);
  }
  return true;
}

void RuntimeNetwork::LossyRound::ApplyAck(size_t index, Fx& fx) {
  RecordNode(fx, handles_.acks_delivered, transfers_[index].sender, 1);
  transfers_[index].acked = true;
}

// Records the final verdict for a message exactly once, as soon as it is
// known: acked, or retry budget spent with nothing left in flight.
void RuntimeNetwork::LossyRound::MaybeFinalize(size_t index, int tick,
                                               Fx& fx) {
  Transfer& t = transfers_[index];
  if (t.done) return;
  const bool spent = t.attempts_made >= retry_.max_attempts &&
                     t.pending_events == 0 && t.pending_retransmits == 0;
  if (!t.acked && !spent) return;
  t.done = true;
  RecordMetric(fx, Fx::MetricOp::Kind::kObserve,
               handles_.attempts_per_message, kInvalidNode, kInvalidNode,
               t.attempts_made);
  if (t.acked || t.delivered_once) return;
  fx.messages_abandoned += 1;
  RecordNode(fx, handles_.messages_abandoned, t.sender, 1);
  if (trace_ != nullptr) {
    Fx::TraceOp op;
    op.give_up = true;
    op.tick = tick;
    op.from = t.sender;
    op.to = t.packet.recipient;
    op.message_id = t.packet.local_message_id;
    fx.trace_ops.push_back(op);
  }
}

void RuntimeNetwork::LossyRound::RecordMetric(Fx& fx, Fx::MetricOp::Kind kind,
                                              obs::MetricHandle handle,
                                              NodeId a, NodeId b,
                                              int64_t value) const {
  if (metrics_ != nullptr) fx.metric_ops.push_back({kind, handle, a, b, value});
}

void RuntimeNetwork::LossyRound::RecordSend(Fx& fx, size_t index, int tick,
                                            int attempt,
                                            obs::SendOutcome outcome,
                                            bool ack_lost,
                                            int drop_hop) const {
  if (trace_ == nullptr) return;
  const Transfer& t = transfers_[index];
  Fx::TraceOp op;
  op.tick = tick;
  op.from = t.sender;
  op.to = t.packet.recipient;
  op.message_id = t.packet.local_message_id;
  op.attempt = attempt;
  op.payload = static_cast<int>(t.packet.payload.size());
  op.outcome = outcome;
  op.ack_lost = ack_lost;
  op.drop_hop = drop_hop;
  fx.trace_ops.push_back(op);
}

// Replays one event's deferred shared-state writes, in recorded order.
void RuntimeNetwork::LossyRound::ApplyFx(Fx& fx) {
  result_.attempts += fx.attempts;
  result_.deliveries += fx.deliveries;
  result_.duplicates += fx.duplicates;
  result_.retransmissions += fx.retransmissions;
  result_.acks_lost += fx.acks_lost;
  result_.messages_abandoned += fx.messages_abandoned;
  result_.epoch_rejected += fx.epoch_rejected;
  result_.payload_bytes += fx.payload_bytes;
  result_.corrupt_frames += fx.corrupt_frames;
  result_.spontaneous_duplicates += fx.spontaneous_duplicates;
  result_.reordered_deliveries += fx.reordered_deliveries;
  for (double term : fx.energy_terms) result_.energy_mj += term;
  for (const auto& [node, term] : fx.node_energy_terms) {
    result_.node_energy_mj[node] += term;
  }
  for (const auto& [from, to] : fx.heard) result_.heard.emplace(from, to);
  if (metrics_ != nullptr) {
    for (const Fx::MetricOp& op : fx.metric_ops) {
      switch (op.kind) {
        case Fx::MetricOp::Kind::kAdd:
          metrics_->Add(op.handle, op.value);
          break;
        case Fx::MetricOp::Kind::kAddNode:
          metrics_->AddNode(op.handle, op.a, op.value);
          break;
        case Fx::MetricOp::Kind::kAddEdge:
          metrics_->AddEdge(op.handle, op.a, op.b, op.value);
          break;
        case Fx::MetricOp::Kind::kObserve:
          metrics_->Observe(op.handle, op.value);
          break;
      }
    }
  }
  if (trace_ != nullptr) {
    for (const Fx::TraceOp& op : fx.trace_ops) {
      if (op.give_up) {
        trace_->GiveUp(op.tick, op.from, op.to, op.message_id);
      } else {
        trace_->Send(op.tick, op.from, op.to, op.message_id, op.attempt,
                     op.payload, op.outcome, op.ack_lost, op.drop_hop);
      }
    }
  }
  for (Fx::Op& op : fx.ops) {
    if (op.emit) {
      AddTransfer(op.emission.sender, std::move(op.emission.packet),
                  op.emission.epoch, op.emission.tick);
    } else {
      agenda_.Schedule(op.tick, op.event);
    }
  }
}

// --- Phase 3: epilogue -----------------------------------------------------

// Expected contributor sets per destination: the union of pre-aggregation
// sites (source -> destination) over every node whose tables are on the
// destination's plan epoch. Dead nodes keep their tables, so a
// not-yet-repaired plan truthfully reports a dead source as
// expected-but-uncovered; once a re-plan routes around it, the new-epoch
// tables no longer expect it and coverage returns to 1.
std::map<NodeId, std::set<NodeId>>
RuntimeNetwork::LossyRound::ExpectedSources() const {
  std::map<NodeId, std::set<NodeId>> expected_sources;
  std::map<NodeId, uint32_t> destination_epoch;
  for (const NodeRuntime& node : net_.nodes_) {
    if (node.is_destination() && Alive(node.id())) {
      destination_epoch[node.id()] = node.plan_epoch();
    }
  }
  for (const NodeRuntime& node : net_.nodes_) {
    for (const PreAggTableEntry& entry : node.decoded().state.preagg_table) {
      auto it = destination_epoch.find(entry.destination);
      if (it == destination_epoch.end()) continue;
      if (node.plan_epoch() != it->second) continue;
      expected_sources[entry.destination].insert(entry.source);
    }
  }
  return expected_sources;
}

RuntimeNetwork::LossyResult RuntimeNetwork::LossyRound::Finish() {
  std::map<NodeId, std::set<NodeId>> expected_sources = ExpectedSources();
  bool any_degraded = false;
  for (const NodeRuntime& node : net_.nodes_) {
    if (!node.is_destination() || !Alive(node.id())) continue;
    std::optional<double> value = node.FinalValue();
    if (value.has_value()) {
      result_.destination_values[node.id()] = *value;
      result_.destination_epochs[node.id()] = node.plan_epoch();
    } else {
      result_.incomplete_destinations.push_back(node.id());
    }
    std::optional<NodeRuntime::CoverageReport> report =
        node.DestinationCoverage();
    if (!report.has_value()) continue;
    LossyResult::DestinationCoverage coverage;
    const std::set<NodeId>& expected = expected_sources[node.id()];
    coverage.expected = static_cast<int>(expected.size());
    coverage.covered = static_cast<int>(report->summary.count);
    coverage.coverage =
        coverage.expected > 0
            ? std::min(1.0, static_cast<double>(coverage.covered) /
                                coverage.expected)
            : 1.0;
    coverage.complete = coverage.covered == coverage.expected;
    coverage.exact_known = report->summary.exact_known;
    coverage.xor_fold = report->summary.xor_fold;
    coverage.sources = report->summary.sources;
    if (!value.has_value()) {
      any_degraded = true;
      if (report->degraded_value.has_value()) {
        result_.degraded_values[node.id()] = *report->degraded_value;
      }
    }
    if (metrics_ != nullptr) {
      metrics_->Observe(
          handles_.coverage_per_destination,
          static_cast<int64_t>(coverage.coverage * 100.0 + 0.5));
    }
    result_.destination_coverage[node.id()] = std::move(coverage);
  }
  if (any_degraded && metrics_ != nullptr) {
    metrics_->Add(handles_.coverage_degraded_rounds, 1);
  }
  return std::move(result_);
}

RuntimeNetwork::LossyResult RuntimeNetwork::RunRoundLossy(
    const std::vector<double>& readings, const LossyLinkModel& links,
    const RetryPolicy& retry, const EnergyModel& energy, EventTrace* trace) {
  M2M_CHECK_EQ(readings.size(), nodes_.size());
  LossyRound round(*this, links, retry, energy, trace);
  round.Emit(readings);
  round.RunTicks();
  return round.Finish();
}

}  // namespace m2m
