#include "runtime/node_runtime.h"

#include <utility>

#include "agg/aggregate_function.h"
#include "common/bytes.h"
#include "common/check.h"
#include "runtime/wire_functions.h"

namespace m2m {

namespace {

// Packet unit tag: bit 0 = partial record, bits 4..6 = field count.
constexpr uint8_t kPartialBit = 0x01;

uint8_t MakeTag(bool is_partial, int field_count) {
  M2M_CHECK(field_count >= 1 && field_count <= 7);
  return static_cast<uint8_t>((is_partial ? kPartialBit : 0) |
                              (field_count << 4));
}

}  // namespace

NodeRuntime::NodeRuntime(NodeId id, const std::vector<uint8_t>& image)
    : id_(id), state_(DecodeNodeState(image)) {}

bool NodeRuntime::InstallImage(const std::vector<uint8_t>& image) {
  DecodedNodeState incoming = DecodeNodeState(image);
  if (incoming.plan_epoch == state_.plan_epoch) return true;  // Duplicate.
  if (incoming.plan_epoch < state_.plan_epoch) {
    // Stale lineage (e.g. a partition heals and the other side disseminated
    // under an older epoch): the higher epoch wins, deterministically.
    return false;
  }
  state_ = std::move(incoming);
  // Epoch transition: drop all round state. Old-epoch partials must not
  // survive into the new plan (no cross-epoch merges), and message ids /
  // accumulator shapes may have changed anyway.
  round_active_ = false;
  raw_values_.clear();
  accumulators_.clear();
  ready_units_.clear();
  complete_messages_.clear();
  pending_emits_.clear();
  final_value_.reset();
  seen_packets_.clear();
  return true;
}

void NodeRuntime::StartRound(double reading) {
  round_active_ = true;
  raw_values_.clear();
  accumulators_.clear();
  ready_units_.clear();
  complete_messages_.clear();
  pending_emits_.clear();
  final_value_.reset();
  seen_packets_.clear();

  for (size_t i = 0; i < state_.state.partial_table.size(); ++i) {
    const PartialTableEntry& entry = state_.state.partial_table[i];
    Accumulator accumulator;
    accumulator.expected = entry.expected_contributions;
    accumulator.local_message = entry.message_id;
    accumulator.kind = state_.partial_kinds[i];
    M2M_CHECK(accumulators_.emplace(entry.destination, accumulator).second)
        << "node " << id_ << " has two partial entries for destination "
        << entry.destination;
  }
  // The node's own reading enters the pipeline like any other raw value.
  AcceptRawValue(id_, reading);
}

void NodeRuntime::AcceptRawValue(NodeId source, double value) {
  M2M_CHECK(round_active_);
  if (!raw_values_.emplace(source, value).second) {
    // Duplicate delivery (e.g. the node's own reading with no table use);
    // raw values are idempotent by source.
    return;
  }
  for (const RawTableEntry& entry : state_.state.raw_table) {
    if (entry.source == source) MarkUnitReady(entry.message_id);
  }
  for (size_t i = 0; i < state_.state.preagg_table.size(); ++i) {
    const PreAggTableEntry& entry = state_.state.preagg_table[i];
    if (entry.source != source) continue;
    const DecodedPreAggMeta& meta = state_.preagg_meta[i];
    AcceptPartialRecord(entry.destination,
                        wire::PreAggregate(meta.kind, meta.weight,
                                           meta.param, source, value));
    // Pre-aggregation is where a raw reading becomes a partial record, so
    // this is where its source enters the coverage summary.
    MergeSummaryInto(entry.destination, wire::SingleSource(source));
  }
}

void NodeRuntime::MergeSummaryInto(NodeId destination,
                                   const wire::SourceSummary& summary) {
  auto it = accumulators_.find(destination);
  M2M_CHECK(it != accumulators_.end());
  wire::SourceSummary& mine = it->second.summary;
  mine = mine.count == 0 ? summary : wire::MergeSummaries(mine, summary);
}

void NodeRuntime::AcceptPartialRecord(NodeId destination,
                                      const PartialRecord& record) {
  M2M_CHECK(round_active_);
  auto it = accumulators_.find(destination);
  M2M_CHECK(it != accumulators_.end())
      << "node " << id_ << " received a partial record for destination "
      << destination << " it has no table entry for";
  Accumulator& accumulator = it->second;
  accumulator.record = accumulator.has_record
                           ? wire::Merge(accumulator.kind,
                                         accumulator.record, record)
                           : record;
  accumulator.has_record = true;
  accumulator.received += 1;
  M2M_CHECK_LE(accumulator.received, accumulator.expected)
      << "node " << id_ << " over-received for destination " << destination;
  if (accumulator.received == accumulator.expected) {
    CompleteAccumulator(destination, accumulator);
  }
}

void NodeRuntime::CompleteAccumulator(NodeId destination,
                                      Accumulator& accumulator) {
  if (accumulator.local_message < 0) {
    // This node is the destination: evaluate.
    M2M_CHECK_EQ(destination, id_);
    final_value_ = wire::Evaluate(accumulator.kind, accumulator.record);
    return;
  }
  MarkUnitReady(accumulator.local_message);
}

void NodeRuntime::MarkUnitReady(int local_message) {
  M2M_CHECK(local_message >= 0 &&
            local_message <
                static_cast<int>(state_.state.outgoing_table.size()));
  int ready = ++ready_units_[local_message];
  int expected = state_.state.outgoing_table[local_message].unit_count;
  M2M_CHECK_LE(ready, expected) << "message over-filled at node " << id_;
  if (ready == expected) {
    M2M_CHECK(complete_messages_.insert(local_message).second);
    pending_emits_.push_back(local_message);
  }
}

std::vector<NodeRuntime::OutgoingPacket> NodeRuntime::DrainReadyPackets() {
  std::vector<OutgoingPacket> packets;
  for (int local_message : pending_emits_) {
    const OutgoingMessageEntry& entry =
        state_.state.outgoing_table[local_message];
    ByteWriter writer;
    writer.WriteVarint(static_cast<uint64_t>(entry.unit_count));
    int written = 0;
    for (const RawTableEntry& raw : state_.state.raw_table) {
      if (raw.message_id != local_message) continue;
      writer.WriteU8(MakeTag(/*is_partial=*/false, 1));
      writer.WriteVarint(static_cast<uint64_t>(raw.source));
      writer.WriteF32(static_cast<float>(raw_values_.at(raw.source)));
      ++written;
    }
    for (size_t i = 0; i < state_.state.partial_table.size(); ++i) {
      const PartialTableEntry& partial = state_.state.partial_table[i];
      if (partial.message_id != local_message) continue;
      const Accumulator& accumulator =
          accumulators_.at(partial.destination);
      int fields = wire::FieldCountOf(accumulator.kind);
      writer.WriteU8(MakeTag(/*is_partial=*/true, fields));
      writer.WriteVarint(static_cast<uint64_t>(partial.destination));
      for (int f = 0; f < fields; ++f) {
        writer.WriteF32(static_cast<float>(accumulator.record.fields[f]));
      }
      // Coverage summary rides after the record fields so the receiver can
      // attribute the merge to its contributing sources.
      wire::AppendSourceSummary(accumulator.summary, writer);
      ++written;
    }
    M2M_CHECK_EQ(written, entry.unit_count)
        << "message " << local_message << " at node " << id_
        << " has mismatched unit count";
    packets.push_back(OutgoingPacket{local_message, entry.recipient,
                                     writer.bytes(), entry.unit_count});
  }
  pending_emits_.clear();
  return packets;
}

void NodeRuntime::OnReceive(const std::vector<uint8_t>& packet) {
  ByteReader reader(packet);
  uint64_t unit_count = reader.ReadVarint();
  for (uint64_t i = 0; i < unit_count; ++i) {
    uint8_t tag = reader.ReadU8();
    bool is_partial = (tag & kPartialBit) != 0;
    int fields = tag >> 4;
    NodeId subject = static_cast<NodeId>(reader.ReadVarint());
    if (is_partial) {
      PartialRecord record;
      M2M_CHECK_LE(fields, static_cast<int>(record.fields.size()))
          << "partial unit for destination " << subject
          << " carries too many fields";
      for (int f = 0; f < fields; ++f) {
        record.fields[f] = reader.ReadF32();
      }
      AcceptPartialRecord(subject, record);
      MergeSummaryInto(subject, wire::ReadSourceSummary(reader));
    } else {
      M2M_CHECK_EQ(fields, 1);
      AcceptRawValue(subject, reader.ReadF32());
    }
  }
  M2M_CHECK(reader.AtEnd()) << "trailing bytes in data packet";
}

NodeRuntime::ReceiveOutcome NodeRuntime::OnReceiveOnce(
    NodeId sender, int sender_message_id, uint32_t sender_epoch,
    const std::vector<uint8_t>& packet, int tick) {
  // Epoch gate first: a packet from another plan generation must not touch
  // this node's tables (its units reference the sender's plan, and merging
  // them here would blend two plans into one aggregate). The link layer
  // still acks it so the sender stops retrying.
  if (sender_epoch != state_.plan_epoch) {
    return ReceiveOutcome::kEpochMismatch;
  }
  uint64_t key = (static_cast<uint64_t>(static_cast<uint32_t>(sender)) << 32) |
                 static_cast<uint32_t>(sender_message_id);
  auto [it, fresh] = seen_packets_.emplace(key, tick);
  it->second = tick;  // Refresh the horizon on duplicates too.
  if (!fresh) return ReceiveOutcome::kDuplicate;
  OnReceive(packet);
  return ReceiveOutcome::kFresh;
}

void NodeRuntime::EvictSeenPacketsBefore(int tick) {
  for (auto it = seen_packets_.begin(); it != seen_packets_.end();) {
    if (it->second < tick) {
      it = seen_packets_.erase(it);
    } else {
      ++it;
    }
  }
}

std::optional<double> NodeRuntime::FinalValue() const {
  return final_value_;
}

std::vector<int> NodeRuntime::IncompleteMessages() const {
  std::vector<int> out;
  for (size_t g = 0; g < state_.state.outgoing_table.size(); ++g) {
    if (!complete_messages_.contains(static_cast<int>(g))) {
      out.push_back(static_cast<int>(g));
    }
  }
  return out;
}

std::vector<NodeRuntime::AccumulatorStatus>
NodeRuntime::AccumulatorStatuses() const {
  std::vector<AccumulatorStatus> out;
  for (const auto& [destination, accumulator] : accumulators_) {
    out.push_back(AccumulatorStatus{destination, accumulator.received,
                                    accumulator.expected});
  }
  return out;
}

std::optional<NodeRuntime::CoverageReport> NodeRuntime::DestinationCoverage()
    const {
  if (!state_.state.is_destination) return std::nullopt;
  CoverageReport report;
  auto it = accumulators_.find(id_);
  if (it == accumulators_.end()) {
    // Round not started (or state dropped by an epoch transition): nothing
    // contributed, but the expected count is still known from the tables.
    for (const PartialTableEntry& entry : state_.state.partial_table) {
      if (entry.destination == id_) report.expected = entry.expected_contributions;
    }
    return report;
  }
  const Accumulator& accumulator = it->second;
  report.summary = accumulator.summary;
  report.received = accumulator.received;
  report.expected = accumulator.expected;
  if (accumulator.has_record && accumulator.summary.count > 0) {
    // Guard the kinds whose evaluation divides by an accumulated weight or
    // count — an empty or zero-weight partial cannot be evaluated.
    uint8_t kind = accumulator.kind;
    bool evaluable = true;
    if (kind == static_cast<uint8_t>(AggregateKind::kWeightedAverage)) {
      evaluable = accumulator.record.fields[1] > 0.0;
    } else if (kind == static_cast<uint8_t>(AggregateKind::kWeightedStdDev)) {
      evaluable = accumulator.record.fields[2] > 0.0;
    }
    if (evaluable) {
      report.degraded_value = wire::Evaluate(kind, accumulator.record);
    }
  }
  return report;
}

}  // namespace m2m
