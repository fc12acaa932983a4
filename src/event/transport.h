#ifndef M2M_EVENT_TRANSPORT_H_
#define M2M_EVENT_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/ids.h"
#include "runtime/channel.h"
#include "runtime/network.h"

namespace m2m::event {

/// Pluggable link layer for the event-driven runtime.
///
/// A transport answers pure per-(timestep, directed hop, attempt) questions
/// — does this hop deliver, what channel side effects ride along, how many
/// engine ticks does the hop take — and never holds mutable state, so the
/// engine may evaluate hops in any order the event queue produces and a
/// replay is byte-identical. The same compiled node programs run unchanged
/// over any implementation; a UDP-socket transport later only has to answer
/// the same interface from real I/O.
class Transport {
 public:
  virtual ~Transport() = default;

  /// True iff the directed hop (from -> to) delivers on this attempt of
  /// this timestep's message.
  virtual bool AttemptDelivers(int timestep, NodeId from, NodeId to,
                               int attempt) const = 0;

  /// Channel side effects for a crossed hop (delay/duplication/corruption).
  virtual HopEffects EffectsFor(int timestep, NodeId from, NodeId to,
                                int attempt) const {
    (void)timestep;
    (void)from;
    (void)to;
    (void)attempt;
    return HopEffects{};
  }

  /// False while `node` is down for this timestep (neither starts the
  /// round nor receives).
  virtual bool NodeAlive(int timestep, NodeId node) const {
    (void)timestep;
    (void)node;
    return true;
  }

  /// Upper bound on EffectsFor's accumulated delay per attempt direction
  /// (the dedup-eviction horizon extension, as in LossyLinkModel).
  virtual int max_delay_ticks() const { return 0; }

  /// Scheduling latency of one crossed hop in engine ticks (a radio hop
  /// takes time). RunPipelined clamps each hop to at least 1 tick, so the
  /// default of 1 is also the floor.
  virtual int64_t HopLatencyTicks(NodeId from, NodeId to) const {
    (void)from;
    (void)to;
    return 1;
  }

  /// One-line JSON object fragment describing the transport configuration
  /// (bench metadata; see bench::TransportConfigJson).
  virtual std::string Describe() const = 0;
};

/// Simulated asynchronous transport: the event queue is the medium. Loss,
/// burst, duplication, corruption and queueing delay come from the existing
/// adversarial ChannelModel (timestep plays the channel's round role);
/// per-hop latency is a configurable base plus an optional per-link
/// override, always >= 1 tick so delivery is genuinely asynchronous.
class SimChannelTransport : public Transport {
 public:
  struct Options {
    /// Ticks one radio hop takes before the packet is handed to the next
    /// node. Clamped to >= 1.
    int64_t base_hop_latency_ticks = 1;
    /// Optional per-directed-link latency override (return <= 0 to fall
    /// back to the base). Must be pure.
    std::function<int64_t(NodeId from, NodeId to)> link_latency;
    /// Optional liveness mask per (timestep, node). Null = all alive.
    std::function<bool(int timestep, NodeId node)> node_alive;
  };

  /// `channel` may be null for a perfect (lossless, effect-free) medium;
  /// when non-null it must outlive the transport.
  SimChannelTransport(const ChannelModel* channel, Options options);

  bool AttemptDelivers(int timestep, NodeId from, NodeId to,
                       int attempt) const override;
  HopEffects EffectsFor(int timestep, NodeId from, NodeId to,
                        int attempt) const override;
  bool NodeAlive(int timestep, NodeId node) const override;
  int max_delay_ticks() const override;
  int64_t HopLatencyTicks(NodeId from, NodeId to) const override;
  std::string Describe() const override;

 private:
  const ChannelModel* channel_;
  Options options_;
};

}  // namespace m2m::event

#endif  // M2M_EVENT_TRANSPORT_H_
