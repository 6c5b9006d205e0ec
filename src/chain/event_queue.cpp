#include "event_queue.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"

namespace swapgame::chain {

void EventQueue::set_metrics(obs::MetricsRegistry* metrics) {
  scheduled_counter_ =
      metrics == nullptr ? nullptr : &metrics->counter("queue.events_scheduled");
  processed_counter_ =
      metrics == nullptr ? nullptr : &metrics->counter("queue.events_processed");
}

void EventQueue::schedule_at(Hours when, Callback cb) {
  if (!std::isfinite(when)) {
    throw std::invalid_argument("EventQueue::schedule_at: non-finite time");
  }
  if (when < now_) {
    throw std::invalid_argument("EventQueue::schedule_at: time is in the past");
  }
  if (!cb) {
    throw std::invalid_argument("EventQueue::schedule_at: empty callback");
  }
  std::uint32_t slot;
  if (free_slots_.empty()) {
    if (slots_.size() >= std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("EventQueue::schedule_at: too many events");
    }
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(cb));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(cb);
  }
  if (scheduled_counter_ != nullptr) scheduled_counter_->inc();

  // Sift up: move parents down into the hole until the new key fits.
  const Key key{when, next_seq_++, slot};
  std::size_t i = heap_.size();
  heap_.push_back(key);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(key, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
}

void EventQueue::schedule_in(Hours delay, Callback cb) {
  if (!(delay >= 0.0)) {
    throw std::invalid_argument("EventQueue::schedule_in: negative delay");
  }
  schedule_at(now_ + delay, std::move(cb));
}

void EventQueue::run_top() {
  const Key top = heap_.front();
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n != 0) {
    // Sift down: move the earliest child up into the hole until the old
    // last key fits.
    std::size_t i = 0;
    while (true) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      const std::size_t end = first + 4 < n ? first + 4 : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }

  // Take the callback out of its slot before running it: it may schedule
  // new events (which can reuse the slot or grow the slab), and the reset
  // slot holds no captures while it waits for reuse.
  Callback cb = std::move(slots_[top.slot]);
  slots_[top.slot] = nullptr;
  free_slots_.push_back(top.slot);
  now_ = top.when;
  if (processed_counter_ != nullptr) processed_counter_->inc();
  cb();
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  run_top();
  return true;
}

std::size_t EventQueue::run(std::size_t limit) {
  std::size_t processed = 0;
  while (processed < limit && step()) ++processed;
  return processed;
}

std::size_t EventQueue::drain_before(Hours until) {
  if (!std::isfinite(until)) {
    throw std::invalid_argument("EventQueue::drain_before: non-finite time");
  }
  std::size_t processed = 0;
  while (!heap_.empty() && heap_.front().when < until) {
    run_top();
    ++processed;
  }
  return processed;
}

std::size_t EventQueue::run_until(Hours until) {
  if (until < now_) {
    throw std::invalid_argument("EventQueue::run_until: time is in the past");
  }
  std::size_t processed = 0;
  while (!heap_.empty() && heap_.front().when <= until) {
    run_top();
    ++processed;
  }
  now_ = until;
  return processed;
}

}  // namespace swapgame::chain
