#include "sim/event_loop.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <random>
#include <string>
#include <vector>

namespace qoed::sim {
namespace {

TEST(EventLoopTest, StartsAtTimeZero) {
  EventLoop loop;
  EXPECT_EQ(loop.now(), kTimeZero);
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(EventLoopTest, DispatchesInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_after(msec(30), [&] { order.push_back(3); });
  loop.schedule_after(msec(10), [&] { order.push_back(1); });
  loop.schedule_after(msec(20), [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now().since_start(), msec(30));
}

TEST(EventLoopTest, SameTimestampPreservesInsertionOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule_after(msec(5), [&order, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventLoopTest, ClockAdvancesToEventTime) {
  EventLoop loop;
  TimePoint seen;
  loop.schedule_after(sec(2), [&] { seen = loop.now(); });
  loop.run();
  EXPECT_EQ(seen.since_start(), sec(2));
}

TEST(EventLoopTest, RunUntilStopsAtDeadlineAndAdvancesClock) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_after(msec(10), [&] { ++fired; });
  loop.schedule_after(msec(100), [&] { ++fired; });
  loop.run_until(TimePoint{msec(50)});
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now().since_start(), msec(50));
  loop.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoopTest, RunUntilWithEmptyQueueAdvancesClock) {
  EventLoop loop;
  loop.run_until(TimePoint{sec(5)});
  EXPECT_EQ(loop.now().since_start(), sec(5));
}

TEST(EventLoopTest, EventAtDeadlineIsDispatched) {
  EventLoop loop;
  bool fired = false;
  loop.schedule_after(msec(50), [&] { fired = true; });
  loop.run_until(TimePoint{msec(50)});
  EXPECT_TRUE(fired);
}

TEST(EventLoopTest, CancelledEventDoesNotFire) {
  EventLoop loop;
  bool fired = false;
  TimerHandle h = loop.schedule_after(msec(10), [&] { fired = true; });
  EXPECT_TRUE(h.active());
  h.cancel();
  EXPECT_FALSE(h.active());
  loop.run();
  EXPECT_FALSE(fired);
}

TEST(EventLoopTest, CancelAfterFireIsNoop) {
  EventLoop loop;
  int fired = 0;
  TimerHandle h = loop.schedule_after(msec(10), [&] { ++fired; });
  loop.run();
  EXPECT_FALSE(h.active());
  h.cancel();  // must not crash or affect anything
  EXPECT_EQ(fired, 1);
}

TEST(EventLoopTest, DefaultHandleIsInert) {
  TimerHandle h;
  EXPECT_FALSE(h.active());
  h.cancel();  // no-op
}

TEST(EventLoopTest, EventsScheduledDuringDispatchRun) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) loop.schedule_after(msec(1), recurse);
  };
  loop.schedule_after(msec(1), recurse);
  loop.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(loop.now().since_start(), msec(5));
}

TEST(EventLoopTest, PastScheduleClampsToNow) {
  EventLoop loop;
  loop.run_until(TimePoint{sec(1)});
  TimePoint seen;
  loop.schedule_at(TimePoint{msec(1)}, [&] { seen = loop.now(); });
  loop.run();
  EXPECT_EQ(seen.since_start(), sec(1));  // not in the past
}

TEST(EventLoopTest, NegativeDelayClampsToNow) {
  EventLoop loop;
  loop.run_until(TimePoint{sec(1)});
  bool fired = false;
  loop.schedule_after(msec(-100), [&] { fired = true; });
  loop.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(loop.now().since_start(), sec(1));
}

TEST(EventLoopTest, StepDispatchesExactlyOne) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_after(msec(1), [&] { ++fired; });
  loop.schedule_after(msec(2), [&] { ++fired; });
  EXPECT_TRUE(loop.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(loop.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(loop.step());
}

TEST(EventLoopTest, DispatchedCounterCounts) {
  EventLoop loop;
  for (int i = 0; i < 7; ++i) loop.schedule_after(msec(i), [] {});
  loop.run();
  EXPECT_EQ(loop.dispatched_events(), 7u);
}

TEST(EventLoopTest, WorkCountsSeparateScheduledRearmedAndDispatched) {
  EventLoop loop;
  TimerHandle a = loop.schedule_after(msec(1), [] {});
  TimerHandle b = loop.schedule_after(msec(2), [] {});
  b.cancel();
  EXPECT_TRUE(loop.rearm(a, TimePoint{msec(3)}));
  EXPECT_FALSE(loop.rearm(b, TimePoint{msec(4)}));
  loop.run();
  EXPECT_EQ(loop.scheduled_events(), 2u);
  EXPECT_EQ(loop.rearmed_events(), 1u);
  EXPECT_EQ(loop.dispatched_events(), 1u);
  EXPECT_EQ(loop.now().since_start(), msec(3));
}

TEST(EventLoopTest, RearmMovesTimerLaterAndTakesSequenceAtTheCall) {
  EventLoop loop;
  std::vector<int> order;
  TimerHandle a = loop.schedule_at(TimePoint{msec(10)}, [&] {
    order.push_back(1);
  });
  loop.schedule_at(TimePoint{msec(20)}, [&] { order.push_back(2); });
  // Equal-time tie with the event above: the re-armed timer is newer.
  EXPECT_TRUE(loop.rearm(a, TimePoint{msec(20)}));
  loop.schedule_at(TimePoint{msec(20)}, [&] { order.push_back(3); });
  EXPECT_TRUE(a.active());
  // Past the deadline of the stale key, the live one has not fired yet.
  loop.run_until(TimePoint{msec(15)});
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(loop.now().since_start(), msec(15));
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
  EXPECT_EQ(loop.now().since_start(), msec(20));
}

TEST(EventLoopTest, RearmRefusesEarlierTimesAndNonPendingTimers) {
  EventLoop loop;
  EventLoop other;
  int fired = 0;
  TimerHandle h = loop.schedule_at(TimePoint{msec(10)}, [&] { ++fired; });
  EXPECT_FALSE(loop.rearm(h, TimePoint{msec(9)}));
  EXPECT_FALSE(other.rearm(h, TimePoint{msec(20)}));
  TimerHandle inert;
  EXPECT_FALSE(loop.rearm(inert, TimePoint{msec(20)}));
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now().since_start(), msec(10));
  EXPECT_FALSE(loop.rearm(h, TimePoint{msec(20)}));  // already fired
  EXPECT_EQ(loop.rearmed_events(), 0u);
}

TEST(EventLoopTest, HandleIsInactiveWhileItsCallbackRuns) {
  EventLoop loop;
  TimerHandle h;
  bool active_inside = true;
  bool rearm_inside = true;
  h = loop.schedule_after(msec(1), [&] {
    active_inside = h.active();
    rearm_inside = loop.rearm(h, loop.now() + msec(1));
    h.cancel();  // no-op on a firing timer
  });
  EXPECT_EQ(loop.run(), 1u);
  EXPECT_FALSE(active_inside);
  EXPECT_FALSE(rearm_inside);
}

TEST(EventLoopTest, StaleHandleDoesNotTouchReusedSlot) {
  EventLoop loop;
  int fired = 0;
  TimerHandle fired_handle = loop.schedule_after(msec(1), [&] { ++fired; });
  loop.run();
  TimerHandle cancelled = loop.schedule_after(msec(1), [&] { ++fired; });
  cancelled.cancel();
  loop.run();  // discards the cancelled key, freeing its slot
  // The freed slots are reused by the next timers.
  TimerHandle live1 = loop.schedule_after(msec(1), [&] { fired += 10; });
  TimerHandle live2 = loop.schedule_after(msec(1), [&] { fired += 100; });
  EXPECT_FALSE(fired_handle.active());
  EXPECT_FALSE(cancelled.active());
  fired_handle.cancel();
  cancelled.cancel();
  EXPECT_FALSE(loop.rearm(fired_handle, loop.now() + msec(5)));
  EXPECT_FALSE(loop.rearm(cancelled, loop.now() + msec(5)));
  EXPECT_TRUE(live1.active());
  EXPECT_TRUE(live2.active());
  loop.run();
  EXPECT_EQ(fired, 111);
}

TEST(EventLoopTest, HandleIsSafeAfterLoopIsDestroyed) {
  TimerHandle pending;
  TimerHandle fired;
  {
    EventLoop loop;
    fired = loop.schedule_after(msec(1), [] {});
    pending = loop.schedule_after(msec(5), [] {});
    loop.run_until(TimePoint{msec(2)});
    EXPECT_TRUE(pending.active());
  }
  EXPECT_FALSE(pending.active());
  EXPECT_FALSE(fired.active());
  pending.cancel();
  fired.cancel();
  TimerHandle copy = pending;
  EXPECT_FALSE(copy.active());
}

// Cancels timers from its destructor, like a socket whose last reference
// lives in a queued closure.
struct CancelOnDestroy {
  std::vector<TimerHandle*> handles;
  int* destroyed = nullptr;
  ~CancelOnDestroy() {
    for (TimerHandle* h : handles) {
      h->cancel();
      EXPECT_FALSE(h->active());
    }
    ++*destroyed;
  }
};

TEST(EventLoopTest, ClosureDestructorMayCancelDuringLoopDestruction) {
  int destroyed = 0;
  TimerHandle own;
  TimerHandle other;
  {
    EventLoop loop;
    auto guard = std::make_shared<CancelOnDestroy>();
    guard->handles = {&own, &other};
    guard->destroyed = &destroyed;
    other = loop.schedule_after(msec(9), [] {});
    own = loop.schedule_after(msec(5), [guard] {});
    guard.reset();  // the queued closure holds the last reference
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
  EXPECT_FALSE(own.active());
  EXPECT_FALSE(other.active());
}

TEST(EventLoopTest, CancelledClosureIsDestroyedWhenItsKeyIsDiscarded) {
  EventLoop loop;
  int destroyed = 0;
  bool other_fired = false;
  TimerHandle other =
      loop.schedule_after(msec(9), [&] { other_fired = true; });
  auto guard = std::make_shared<CancelOnDestroy>();
  guard->handles = {&other};
  guard->destroyed = &destroyed;
  TimerHandle h = loop.schedule_after(msec(5), [guard] {});
  guard.reset();
  h.cancel();
  EXPECT_EQ(destroyed, 0);  // not inside cancel()
  loop.run();
  EXPECT_EQ(destroyed, 1);
  EXPECT_FALSE(other_fired);
}

// --- Differential test against the reference kernel -----------------------
//
// RefLoop is the original kernel: a priority_queue of whole events, one
// shared_ptr<bool> per event for cancellation, and re-arming spelled as
// cancel + schedule. EventLoop must fire exactly the same (id, now) sequence
// for any script.
class RefLoop {
 public:
  struct Handle {
    std::shared_ptr<bool> cancelled;
    TimePoint at;
    std::function<void()> fn;
    bool active() const { return cancelled && !*cancelled; }
    void cancel() {
      if (cancelled) *cancelled = true;
    }
  };

  TimePoint now() const { return now_; }
  std::uint64_t dispatched_events() const { return dispatched_; }
  void request_stop() { stop_ = true; }
  void clear_stop() { stop_ = false; }

  Handle schedule_at(TimePoint at, std::function<void()> fn) {
    if (at < now_) at = now_;
    auto cancelled = std::make_shared<bool>(false);
    queue_.push(Event{at, seq_++, fn, cancelled});
    return Handle{std::move(cancelled), at, std::move(fn)};
  }
  bool rearm(Handle& h, TimePoint at) {
    if (!h.active() || at < h.at) return false;
    h.cancel();
    h = schedule_at(at, h.fn);
    return true;
  }
  std::size_t run() {
    std::size_t n = 0;
    while (!stop_ && step()) ++n;
    return n;
  }
  std::size_t run_until(TimePoint deadline) {
    std::size_t n = 0;
    while (!stop_ && !queue_.empty()) {
      if (*queue_.top().cancelled) {
        queue_.pop();
        continue;
      }
      if (queue_.top().at > deadline) break;
      if (step()) ++n;
    }
    if (!stop_ && now_ < deadline) now_ = deadline;
    return n;
  }
  bool step() {
    while (!queue_.empty()) {
      Event ev = queue_.top();
      queue_.pop();
      if (*ev.cancelled) continue;
      now_ = ev.at;
      *ev.cancelled = true;
      ++dispatched_;
      ev.fn();
      return true;
    }
    return false;
  }

 private:
  struct Event {
    TimePoint at;
    std::uint64_t seq;
    std::function<void()> fn;
    std::shared_ptr<bool> cancelled;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  TimePoint now_{};
  bool stop_ = false;
  std::uint64_t seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

// Drives one loop through a seeded random script and logs everything
// observable. Each event's actions come from an RNG keyed by (seed, id), so
// two loops that fire the same events make the same calls.
template <typename Loop, typename Handle>
class ScriptDriver {
 public:
  explicit ScriptDriver(std::uint64_t seed) : seed_(seed) {}

  std::vector<std::string> run() {
    std::mt19937_64 top(seed_);
    for (int round = 0; round < 40; ++round) {
      const int n_actions = static_cast<int>(top() % 4);
      for (int i = 0; i < n_actions; ++i) act(top);
      if (top() % 4 == 0) {
        log("clear_stop");
        loop_.clear_stop();
      }
      const TimePoint now = loop_.now();
      std::size_t fired = 0;
      switch (top() % 6) {
        case 0:
          fired = loop_.run_until(now);  // at the current time
          break;
        case 1:
        case 2:
          fired = loop_.run_until(now + usec(static_cast<std::int64_t>(
                                            top() % 20000)));
          break;
        case 3:
          fired = loop_.run_until(now + sec(60));  // beyond every key
          break;
        case 4:
          fired = loop_.step() ? 1 : 0;
          break;
        default:
          fired = loop_.run();
          break;
      }
      log("round " + std::to_string(round) + " fired " +
          std::to_string(fired) + " now " + t(loop_.now()));
    }
    loop_.clear_stop();
    log("drain fired " + std::to_string(loop_.run()) + " now " +
        t(loop_.now()) + " dispatched " +
        std::to_string(loop_.dispatched_events()));
    return log_;
  }

 private:
  static std::string t(TimePoint p) {
    return std::to_string(p.since_start().count());
  }
  void log(std::string line) { log_.push_back(std::move(line)); }

  void on_fire(std::size_t id) {
    log("fire " + std::to_string(id) + " @" + t(loop_.now()) +
        (handles_[id].active() ? " active" : ""));
    std::mt19937_64 rng(seed_ * 1000003u + id);
    const int n_actions = static_cast<int>(rng() % 4);
    for (int i = 0; i < n_actions; ++i) act(rng);
  }

  void act(std::mt19937_64& rng) {
    const std::uint64_t kind = rng() % 20;
    const std::size_t target =
        handles_.empty() ? 0
                         : static_cast<std::size_t>(rng() % handles_.size());
    if (kind < 9) {
      if (handles_.size() >= kMaxEvents) return;
      // Past times clamp to now; the coarse grid makes equal-time ties
      // common.
      static constexpr std::int64_t kDelayMs[] = {-3, -1, 0, 0, 1,
                                                  1,  2,  3, 7, 25};
      const TimePoint at =
          loop_.now() + msec(kDelayMs[rng() % std::size(kDelayMs)]);
      const std::size_t id = handles_.size();
      handles_.push_back(loop_.schedule_at(at, [this, id] { on_fire(id); }));
      at_.push_back(at < loop_.now() ? loop_.now() : at);
      log("schedule " + std::to_string(id) + " at " + t(at));
    } else if (handles_.empty()) {
      return;
    } else if (kind < 12) {
      handles_[target].cancel();
      log("cancel " + std::to_string(target));
    } else if (kind < 18) {
      // Re-arm to an earlier, the same or a later time than the target's.
      static constexpr std::int64_t kShiftMs[] = {-2, -1, 0, 0, 1, 2, 4, 30};
      const TimePoint at =
          at_[target] + msec(kShiftMs[rng() % std::size(kShiftMs)]);
      const bool ok = loop_.rearm(handles_[target], at);
      if (ok) at_[target] = at;
      log("rearm " + std::to_string(target) + " to " + t(at) +
          (ok ? " ok" : " refused"));
    } else if (kind < 19) {
      log("active " + std::to_string(target) + " " +
          (handles_[target].active() ? "1" : "0"));
    } else {
      log("request_stop");
      loop_.request_stop();
    }
  }

  static constexpr std::size_t kMaxEvents = 300;
  std::uint64_t seed_;
  Loop loop_;
  std::vector<Handle> handles_;
  std::vector<TimePoint> at_;  // each event's current requested time
  std::vector<std::string> log_;
};

TEST(EventLoopDifferentialTest, MatchesReferenceKernelOnRandomScripts) {
  std::size_t fires = 0;
  std::size_t rearms = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const auto want = ScriptDriver<RefLoop, RefLoop::Handle>(seed).run();
    const auto got = ScriptDriver<EventLoop, TimerHandle>(seed).run();
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "seed " << seed << " line " << i;
      fires += want[i].rfind("fire ", 0) == 0;
      rearms += want[i].find(" ok") != std::string::npos;
    }
  }
  // The scripts must actually exercise the paths they claim to.
  EXPECT_GT(fires, 10000u);
  EXPECT_GT(rearms, 1000u);
}

TEST(TimeTest, FormattingAndConversions) {
  EXPECT_EQ(to_seconds(sec(3)), 3.0);
  EXPECT_EQ(to_millis(msec(7)), 7.0);
  EXPECT_EQ(sec_f(1.5), msec(1500));
  EXPECT_EQ(minutes(2), sec(120));
  EXPECT_EQ(hours(1), minutes(60));
  EXPECT_EQ(format_duration(msec(1500)), "1.500000s");
}

TEST(TimeTest, TimePointArithmetic) {
  TimePoint a{sec(10)};
  TimePoint b = a + sec(5);
  EXPECT_EQ(b - a, sec(5));
  EXPECT_LT(a, b);
  b += msec(1);
  EXPECT_EQ(b.since_start(), sec(15) + msec(1));
  EXPECT_EQ((b - sec(5)).since_start(), sec(10) + msec(1));
}

}  // namespace
}  // namespace qoed::sim
