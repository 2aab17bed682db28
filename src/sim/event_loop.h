// Deterministic single-threaded discrete-event loop.
//
// Dispatch contract. Every schedule_at() and every successful rearm() takes
// the next value of one loop-wide sequence counter at the call. The loop
// fires pending timers in ascending (time, seq) order, so events at equal
// times fire in the order they were scheduled or re-armed, and a run is
// exactly reproducible. A timer re-armed with rearm() fires exactly where
// cancel() followed by schedule_at() at the same call would have put it.
//
// Layout. The queue is a binary heap of small {at, seq, slot} keys; closures
// live in a slot table and are moved out when they fire. A slot is reused
// only after its key leaves the heap. rearm() changes the slot's live
// (at, seq) and leaves the old key queued: when that stale key reaches the
// top it is pushed again at the live (at, seq) without advancing the clock.
// A cancelled closure is destroyed when its key reaches the top, never
// inside cancel(): a closure may hold the last reference to the object that
// cancels it.
//
// Handle lifetime. A TimerHandle names {slot, generation} in slot state that
// the loop shares with its handles, so a handle stays safe to use after the
// loop is gone. A slot's generation changes when its timer fires or its
// cancelled key is discarded; a stale handle therefore never acts on a
// reused slot. A handle is inactive from the moment its callback starts.
// Once the loop's destructor begins, every handle is inactive and cancel()
// is a no-op, including calls from closure destructors run by ~EventLoop;
// the destructor empties the shared state, so a handle that outlives the
// loop pins no per-slot memory.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/time.h"

namespace qoed::sim {

class EventLoop;

namespace detail {

// Per-slot state shared by a loop and the handles into it.
struct TimerSlot {
  TimePoint at;           // live deadline; rearm() moves it later
  std::uint64_t seq = 0;  // live tie-break; newer than the queued key's
                          // after a rearm()
  std::uint32_t gen = 0;  // changes each time the slot is released
  bool pending = false;   // scheduled, not yet fired or cancelled
};

using TimerSlots = std::vector<TimerSlot>;

}  // namespace detail

// Cancellation handle for a scheduled event. Default-constructed handles are
// inert. Cancelling an already-fired or already-cancelled event is a no-op.
class TimerHandle {
 public:
  TimerHandle() = default;

  void cancel();
  bool active() const;

 private:
  friend class EventLoop;
  TimerHandle(std::shared_ptr<detail::TimerSlots> slots, std::uint32_t slot,
              std::uint32_t gen)
      : slots_(std::move(slots)), slot_(slot), gen_(gen) {}

  // The slot this handle names, or nullptr once it no longer holds this
  // handle's pending timer.
  detail::TimerSlot* pending_slot() const;

  std::shared_ptr<detail::TimerSlots> slots_;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class EventLoop {
 public:
  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  TimePoint now() const { return now_; }

  // Schedules `fn` to run at `at` (clamped to now if in the past).
  TimerHandle schedule_at(TimePoint at, std::function<void()> fn);

  // Schedules `fn` to run `delay` after now (negative delays clamp to now).
  TimerHandle schedule_after(Duration delay, std::function<void()> fn);

  // Moves `timer`'s pending event to `at`, keeping its closure, and takes
  // the next sequence number now, exactly as cancel() + schedule_at(at)
  // would. Returns false, changing nothing, when `timer` is not pending on
  // this loop or `at` is earlier than its current time; the caller then
  // falls back to cancel() + schedule_at().
  bool rearm(TimerHandle& timer, TimePoint at);

  // Runs events until the queue is empty. Returns the number dispatched.
  std::size_t run();

  // Runs events with timestamp <= deadline, then advances the clock to
  // exactly `deadline` (even if no event fired there).
  std::size_t run_until(TimePoint deadline);

  std::size_t run_for(Duration d) { return run_until(now_ + d); }

  // Dispatches the single next event, if any. Returns false when idle.
  bool step();

  // Cooperative stop for control policies: a callback running inside the
  // loop may request a stop, making run()/run_until() return before the
  // queue drains. The clock stays at the aborting event's virtual time, so
  // a stop at t is exactly reproducible at any --jobs. The flag is sticky
  // until clear_stop(); pending events stay queued.
  void request_stop() { stop_requested_ = true; }
  bool stop_requested() const { return stop_requested_; }
  void clear_stop() { stop_requested_ = false; }

  // Queued keys, including cancelled ones not yet discarded.
  std::size_t pending_events() const { return heap_.size(); }
  // Exact work counts: schedule_at() calls, callbacks run, and successful
  // rearm() calls (each one a schedule the loop did not have to make).
  std::uint64_t scheduled_events() const { return scheduled_; }
  std::uint64_t dispatched_events() const { return dispatched_; }
  std::uint64_t rearmed_events() const { return rearmed_; }

 private:
  struct Key {
    TimePoint at;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };

  void push_key(const Key& k);
  Key pop_key();
  bool settle_top();
  void fire_top();
  void release(std::uint32_t slot);

  TimePoint now_{};
  bool stop_requested_ = false;
  std::uint64_t next_seq_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t rearmed_ = 0;
  std::vector<Key> heap_;  // min-heap on (at, seq)
  std::vector<std::function<void()>> fns_;  // closure per slot
  std::vector<std::uint32_t> free_;         // released slots, reused LIFO
  std::shared_ptr<detail::TimerSlots> slots_;
};

}  // namespace qoed::sim
