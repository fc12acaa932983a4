#ifndef M2M_EVENT_EVENT_QUEUE_H_
#define M2M_EVENT_EVENT_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/check.h"

namespace m2m::event {

/// Handle to a scheduled event, usable for exact cancellation. The sequence
/// number doubles as the deterministic tie-breaker: two events at the same
/// virtual time fire in the order they were scheduled, on every platform,
/// for every heap layout. A default-constructed id is invalid.
struct EventId {
  uint64_t seq = 0;
  bool valid() const { return seq != 0; }
};

/// Deterministic discrete-event priority queue, keyed by
/// `(time, tie_break_seq)`.
///
/// This is the core of the asynchronous runtime: timer events and
/// message-delivery events both live here, and every ordering decision the
/// simulation makes reduces to the strict weak order below — no pointer
/// values, no hash iteration order, no platform-dependent heap layout leaks
/// into execution order. Replaying the same schedule therefore pops the
/// same events in the same order, byte for byte (tests/event_test.cc pins
/// this with a churn differential).
///
/// Invariant: `pending_` holds exactly the seqs that are scheduled and have
/// neither fired nor been cancelled. A heap entry whose seq is not in
/// `pending_` is a tombstone. Cancellation is therefore *exact* and O(1):
/// `Cancel(id)` succeeds iff it erases `id.seq`, which rejects
/// double-cancel, cancel-after-fire and never-issued ids alike. Tombstones
/// are skipped at the heap top and physically removed by compaction once
/// they outnumber live entries, so a workload that schedules and cancels
/// millions of timers (every acked retransmission cancels one) keeps both
/// the heap and `pending_` at O(live), not O(ever scheduled).
template <typename E>
class EventQueue {
 public:
  struct Fired {
    int64_t time = 0;
    uint64_t seq = 0;
    E payload;
  };

  /// Schedules `payload` at virtual `time`. Times may be scheduled in any
  /// order (including the currently popping time); ties fire in schedule
  /// order.
  EventId Schedule(int64_t time, E payload) {
    const uint64_t seq = ++last_seq_;
    heap_.push_back(Entry{time, seq, std::move(payload)});
    std::push_heap(heap_.begin(), heap_.end(), Later);
    pending_.insert(seq);
    ++scheduled_total_;
    return EventId{seq};
  }

  /// Cancels a pending event. Returns true iff the event was still pending
  /// (it will now never fire); false if it already fired, was already
  /// cancelled, or the id is invalid.
  bool Cancel(EventId id) {
    if (pending_.erase(id.seq) == 0) return false;
    ++cancelled_total_;
    MaybeCompact();
    return true;
  }

  bool empty() const { return pending_.empty(); }

  /// Live (pending, uncancelled) events.
  size_t size() const { return pending_.size(); }

  /// Physical heap entries, including tombstones awaiting compaction. The
  /// memory-boundedness regression asserts this stays O(size()).
  size_t heap_size() const { return heap_.size(); }

  /// Virtual time of the next live event, or nullopt when empty.
  std::optional<int64_t> NextTime() {
    SkipTombstones();
    if (heap_.empty()) return std::nullopt;
    return heap_.front().time;
  }

  /// Pops the next live event in (time, seq) order.
  std::optional<Fired> Pop() {
    SkipTombstones();
    if (heap_.empty()) return std::nullopt;
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    Entry entry = std::move(heap_.back());
    heap_.pop_back();
    pending_.erase(entry.seq);
    return Fired{entry.time, entry.seq, std::move(entry.payload)};
  }

  uint64_t scheduled_total() const { return scheduled_total_; }
  uint64_t cancelled_total() const { return cancelled_total_; }

 private:
  struct Entry {
    int64_t time = 0;
    uint64_t seq = 0;
    E payload;
  };

  /// Max-heap comparator inverted into a min-heap on (time, seq).
  static bool Later(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }

  bool IsTombstone(const Entry& entry) const {
    return pending_.count(entry.seq) == 0;
  }

  size_t tombstones() const { return heap_.size() - pending_.size(); }

  /// Drops tombstones sitting at the heap top so NextTime/Pop only ever
  /// observe live events. A queue nothing was cancelled on (every lossy
  /// round's agenda) pays no set lookup here.
  void SkipTombstones() {
    while (tombstones() > 0 && IsTombstone(heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), Later);
      heap_.pop_back();
    }
  }

  /// Physically removes tombstones once they dominate the heap. Amortized
  /// O(1) per cancellation; keeps heap memory proportional to live events.
  void MaybeCompact() {
    if (tombstones() <= heap_.size() / 2 || heap_.size() < 64) return;
    heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                               [this](const Entry& entry) {
                                 return IsTombstone(entry);
                               }),
                heap_.end());
    std::make_heap(heap_.begin(), heap_.end(), Later);
  }

  friend class EventQueueTestPeer;

  std::vector<Entry> heap_;
  /// Seqs scheduled and neither fired nor cancelled; see the class comment.
  std::unordered_set<uint64_t> pending_;
  uint64_t last_seq_ = 0;
  uint64_t scheduled_total_ = 0;
  uint64_t cancelled_total_ = 0;
};

}  // namespace m2m::event

#endif  // M2M_EVENT_EVENT_QUEUE_H_
