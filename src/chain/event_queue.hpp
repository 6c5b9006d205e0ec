// Discrete-event simulation core.
//
// A single EventQueue drives both simulated ledgers: transaction
// confirmations, mempool-visibility events, HTLC expiries, agent decision
// epochs and oracle settlements are all callbacks scheduled at absolute
// simulation times (hours).  Events at equal times fire in scheduling order
// (FIFO tie-break), which makes simulations fully deterministic.
//
// Storage: one flat 4-ary min-heap of 24-byte Key{when, seq, slot} records
// ordered by (when, seq), plus a callback slab -- the std::function objects
// live in slots_ and never move while the heap sifts; freed slot indices
// are recycled through a free list.  Sequence numbers are unique, so
// (when, seq) is a strict total order and the execution order does not
// depend on the heap's arity or shape.  A 4-ary heap halves the depth of a
// binary one, and sifting 24-byte keys instead of 48-byte key+callback
// events keeps the pop path (the queue's hot spot in population runs)
// within fewer cache lines.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "types.hpp"

namespace swapgame::obs {
class MetricsRegistry;
class Counter;
}  // namespace swapgame::obs

namespace swapgame::chain {

/// Deterministic discrete-event scheduler.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Current simulation time (hours since t0).
  [[nodiscard]] Hours now() const noexcept { return now_; }

  /// Schedules `cb` at absolute time `when`.  Scheduling in the past (before
  /// now()) throws std::invalid_argument; scheduling exactly at now() is
  /// allowed and runs on the next step.
  void schedule_at(Hours when, Callback cb);

  /// Schedules `cb` at now() + delay (delay >= 0).
  void schedule_in(Hours delay, Callback cb);

  /// Runs the earliest event.  Returns false when the queue is empty.  The
  /// callback is moved out of its slab slot before it runs, so whatever it
  /// captured is destroyed when it returns.
  bool step();

  /// Runs events until the queue is empty or `limit` events have run.
  /// Returns the number of events processed.
  std::size_t run(std::size_t limit = kNoLimit);

  /// Runs all events scheduled at times <= `until`, then advances the clock
  /// to `until` (even if no event was pending).  Returns events processed.
  std::size_t run_until(Hours until);

  /// Epoch draining (the parallel population engine, docs/MARKET.md): runs
  /// every event with when STRICTLY before `until` and leaves the clock at
  /// the last processed event (unchanged when nothing fired).  Events at
  /// exactly `until` belong to the next epoch.  Unlike run_until the clock
  /// is NOT advanced to `until`; pair with advance_to at the barrier.
  std::size_t drain_before(Hours until);

  /// Barrier resync: advances the clock to max(now, t) without running
  /// anything.  Lets per-shard queues agree on the epoch boundary before
  /// time-gated operations (Ledger::compact) run against their clocks.
  void advance_to(Hours t) noexcept { if (t > now_) now_ = t; }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }

  /// Time of the earliest pending event, or +infinity when empty (the
  /// parallel population engine uses this to skip event-free epochs).
  [[nodiscard]] Hours next_time() const noexcept {
    return heap_.empty() ? std::numeric_limits<Hours>::infinity()
                         : heap_.front().when;
  }

  /// Optional metrics sink (nullptr = disabled, the default): counts
  /// `queue.events_scheduled` / `queue.events_processed`.  The counter
  /// references are resolved once here so the hot path pays a single
  /// null check, never a registry lookup.
  void set_metrics(obs::MetricsRegistry* metrics);

  static constexpr std::size_t kNoLimit = static_cast<std::size_t>(-1);

 private:
  struct Key {
    Hours when;
    std::uint64_t seq;   // FIFO tie-break, unique per queue
    std::uint32_t slot;  // index of the callback in slots_
  };
  [[nodiscard]] static bool before(const Key& a, const Key& b) noexcept {
    return a.when < b.when || (a.when == b.when && a.seq < b.seq);
  }

  /// Pops the heap top and runs its callback; the heap must be non-empty.
  void run_top();

  std::vector<Key> heap_;  // 4-ary: children of i are 4i+1 .. 4i+4
  std::vector<Callback> slots_;
  std::vector<std::uint32_t> free_slots_;
  Hours now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  obs::Counter* scheduled_counter_ = nullptr;
  obs::Counter* processed_counter_ = nullptr;
};

}  // namespace swapgame::chain
