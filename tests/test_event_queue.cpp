// Unit tests for the discrete-event scheduler (src/chain/event_queue).
#include "chain/event_queue.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <set>
#include <utility>
#include <vector>

namespace swapgame::chain {
namespace {

TEST(EventQueue, RunsEventsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(q.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 3.0);
}

TEST(EventQueue, EqualTimesFireInSchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CallbacksMayScheduleNewEvents) {
  EventQueue q;
  std::vector<double> fired;
  q.schedule_at(1.0, [&] {
    fired.push_back(q.now());
    q.schedule_at(2.0, [&] { fired.push_back(q.now()); });
  });
  q.run();
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
}

TEST(EventQueue, ScheduleInIsRelative) {
  EventQueue q;
  double fired_at = -1.0;
  q.schedule_at(5.0, [&] {
    q.schedule_in(2.5, [&] { fired_at = q.now(); });
  });
  q.run();
  EXPECT_EQ(fired_at, 7.5);
}

TEST(EventQueue, RunUntilStopsAtBoundaryAndAdvancesClock) {
  EventQueue q;
  std::vector<double> fired;
  q.schedule_at(1.0, [&] { fired.push_back(1.0); });
  q.schedule_at(2.0, [&] { fired.push_back(2.0); });
  q.schedule_at(5.0, [&] { fired.push_back(5.0); });
  EXPECT_EQ(q.run_until(3.0), 2u);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(q.now(), 3.0);   // clock advanced even with no event at 3.0
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_EQ(fired.back(), 5.0);
}

TEST(EventQueue, RunUntilIncludesEventsAtBoundary) {
  EventQueue q;
  bool fired = false;
  q.schedule_at(2.0, [&] { fired = true; });
  q.run_until(2.0);
  EXPECT_TRUE(fired);
}

TEST(EventQueue, RunWithLimit) {
  EventQueue q;
  int count = 0;
  for (int i = 0; i < 10; ++i) q.schedule_at(i, [&] { ++count; });
  EXPECT_EQ(q.run(4), 4u);
  EXPECT_EQ(count, 4);
  EXPECT_EQ(q.pending(), 6u);
}

TEST(EventQueue, RejectsPastAndInvalidScheduling) {
  EventQueue q;
  q.schedule_at(2.0, [] {});
  q.run();
  EXPECT_EQ(q.now(), 2.0);
  EXPECT_THROW(q.schedule_at(1.0, [] {}), std::invalid_argument);
  EXPECT_NO_THROW(q.schedule_at(2.0, [] {}));  // "now" is allowed
  EXPECT_THROW(q.schedule_in(-1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule_at(std::nan(""), [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule_at(3.0, EventQueue::Callback{}),
               std::invalid_argument);
}

TEST(EventQueue, StepReturnsFalseWhenEmpty) {
  EventQueue q;
  EXPECT_FALSE(q.step());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RunUntilRejectsPast) {
  EventQueue q;
  q.schedule_at(5.0, [] {});
  q.run();
  EXPECT_THROW((void)q.run_until(4.0), std::invalid_argument);
}

TEST(EventQueue, HeapChurnPreservesGlobalWhenSeqOrder) {
  // Regression for the vector+push_heap/pop_heap rewrite (the old
  // priority_queue step() moved through a const_cast on top(), formally
  // UB): under heavy interleaved scheduling -- including callbacks that
  // schedule more events at equal and later times -- every event still
  // fires in strict (when, then scheduling-order) sequence.
  EventQueue q;
  std::vector<std::pair<double, int>> fired;
  int tag = 0;
  // A deterministic but scrambled schedule: times cycle through a residue
  // pattern so insertion order is far from heap order.
  for (int i = 0; i < 200; ++i) {
    const double when = static_cast<double>((i * 7) % 31) + 0.25 * (i % 4);
    q.schedule_at(when, [&fired, &q, &tag, when] {
      fired.push_back({when, tag++});
      if (fired.size() % 3 == 0) {
        const double again = q.now() + static_cast<double>(fired.size() % 5);
        q.schedule_at(again, [&fired, &tag, again] {
          fired.push_back({again, tag++});
        });
      }
    });
  }
  q.run();
  ASSERT_GE(fired.size(), 200u);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i - 1].first, fired[i].first);  // time-ordered
    EXPECT_LT(fired[i - 1].second, fired[i].second);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, StaggeredTiesAndSpawnedEventsFireInWhenSeqOrder) {
  // Staggered times with heavy ties; every third event schedules one more
  // at now() and one half an hour later.  Expected order at each integer
  // time t: the initial events of t by index, then the now() spawns of t
  // in spawn order, then at t + 0.5 the delayed spawns in spawn order.
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 40; ++i) {
    const double when = static_cast<double>((i * 7) % 10);
    q.schedule_at(when, [&q, &order, i] {
      order.push_back(i);
      if (i % 3 == 0) {
        q.schedule_in(0.5, [&order, i] { order.push_back(1000 + i); });
        q.schedule_in(0.0, [&order, i] { order.push_back(2000 + i); });
      }
    });
  }
  EXPECT_EQ(q.run(), 40u + 2u * 14u);

  std::vector<int> expected;
  for (int t = 0; t < 10; ++t) {
    std::vector<int> at_t;
    for (int i = 0; i < 40; ++i) {
      if ((i * 7) % 10 == t) at_t.push_back(i);
    }
    expected.insert(expected.end(), at_t.begin(), at_t.end());
    for (const int i : at_t) {
      if (i % 3 == 0) expected.push_back(2000 + i);
    }
    for (const int i : at_t) {
      if (i % 3 == 0) expected.push_back(1000 + i);
    }
  }
  EXPECT_EQ(order, expected);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PendingCountsThroughRunUntil) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  for (int i = 0; i < 5; ++i) q.schedule_at(1.0 + i, [] {});
  EXPECT_EQ(q.pending(), 5u);
  EXPECT_EQ(q.run_until(3.0), 3u);
  EXPECT_EQ(q.pending(), 2u);
  q.run();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RandomizedInterleavingMatchesStableSortModel) {
  // ~10^5 seeded, interleaved schedule/step operations over a handful of
  // distinct time offsets (heavy ties), with callbacks that schedule at
  // now().  A reference model holds every pending (when, seq); each firing
  // must be the model's minimum, i.e. the head of a stable sort by
  // (when, scheduling order).
  EventQueue q;
  std::mt19937_64 rng(20261019);
  std::set<std::pair<double, std::uint64_t>> model;
  std::uint64_t next_seq = 0;
  std::uint64_t fired = 0;
  std::uint64_t mismatches = 0;
  std::uniform_int_distribution<int> offset(0, 4);
  std::uniform_int_distribution<int> coin(0, 99);

  // Declared before use so callbacks can schedule through it.
  std::function<void(double)> schedule;
  schedule = [&](double when) {
    const std::uint64_t seq = next_seq++;
    model.insert({when, seq});
    const bool respawn = coin(rng) < 15;
    q.schedule_at(when, [&, when, seq, respawn] {
      ++fired;
      if (model.empty() || *model.begin() != std::make_pair(when, seq) ||
          q.now() != when) {
        ++mismatches;
      }
      model.erase({when, seq});
      if (respawn) schedule(q.now());
    });
  };

  for (int op = 0; op < 100000; ++op) {
    if (coin(rng) < 55) {
      schedule(q.now() + 0.5 * offset(rng));
    } else {
      q.step();
    }
    ASSERT_EQ(q.pending(), model.size());
  }
  q.run();
  EXPECT_EQ(mismatches, 0u);
  EXPECT_TRUE(model.empty());
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(fired, next_seq);
  EXPECT_GT(fired, 50000u);
}

TEST(EventQueue, CallbackCapturesAreReleasedWhenItReturns) {
  EventQueue q;
  auto token = std::make_shared<int>(7);
  const std::weak_ptr<int> watch = token;
  q.schedule_at(1.0, [token] { EXPECT_EQ(*token, 7); });
  q.schedule_at(2.0, [] {});
  token.reset();
  EXPECT_FALSE(watch.expired());  // held by the pending callback
  ASSERT_TRUE(q.step());
  // Released as soon as the callback ran, although its slot has not been
  // reused by a later schedule_at.
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, SlabReuseKeepsPendingAndOrderUnderChurn) {
  EventQueue q;
  std::vector<int> order;
  int tag = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 30; ++i) {
      const double when = q.now() + static_cast<double>((i * 5) % 7);
      q.schedule_at(when, [&order, t = tag++] { order.push_back(t); });
    }
    const std::size_t before = q.pending();
    EXPECT_EQ(q.run(20), 20u);
    EXPECT_EQ(q.pending(), before - 20);
  }
  EXPECT_EQ(q.pending(), 50u * 10u);
  q.run();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(order.size(), 50u * 30u);
  EXPECT_EQ(std::set<int>(order.begin(), order.end()).size(), order.size());
}

}  // namespace
}  // namespace swapgame::chain
