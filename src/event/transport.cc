#include "event/transport.h"

#include <algorithm>
#include <sstream>

namespace m2m::event {

SimChannelTransport::SimChannelTransport(const ChannelModel* channel,
                                         Options options)
    : channel_(channel), options_(std::move(options)) {
  options_.base_hop_latency_ticks =
      std::max<int64_t>(1, options_.base_hop_latency_ticks);
}

bool SimChannelTransport::AttemptDelivers(int timestep, NodeId from, NodeId to,
                                          int attempt) const {
  if (channel_ == nullptr) return true;
  return channel_->AttemptDelivers(timestep, from, to, attempt);
}

HopEffects SimChannelTransport::EffectsFor(int timestep, NodeId from,
                                           NodeId to, int attempt) const {
  if (channel_ == nullptr) return HopEffects{};
  return channel_->EffectsFor(timestep, from, to, attempt);
}

bool SimChannelTransport::NodeAlive(int timestep, NodeId node) const {
  if (!options_.node_alive) return true;
  return options_.node_alive(timestep, node);
}

int SimChannelTransport::max_delay_ticks() const {
  return channel_ == nullptr ? 0 : channel_->options().max_delay_ticks;
}

int64_t SimChannelTransport::HopLatencyTicks(NodeId from, NodeId to) const {
  if (options_.link_latency) {
    const int64_t latency = options_.link_latency(from, to);
    if (latency > 0) return latency;
  }
  return options_.base_hop_latency_ticks;
}

std::string SimChannelTransport::Describe() const {
  std::ostringstream out;
  out << "{\"kind\": \"sim_channel\", \"hop_latency_ticks\": "
      << options_.base_hop_latency_ticks << ", \"max_delay_ticks\": "
      << max_delay_ticks() << ", \"channel\": "
      << (channel_ == nullptr ? "false" : "true") << "}";
  return out.str();
}

}  // namespace m2m::event
