#include "sim/event_loop.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace qoed::sim {

std::string format_time(TimePoint t) { return format_duration(t.since_start()); }

std::string format_duration(Duration d) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6fs", to_seconds(d));
  return buf;
}

detail::TimerSlot* TimerHandle::pending_slot() const {
  if (!slots_ || slot_ >= slots_->size()) return nullptr;
  detail::TimerSlot& s = (*slots_)[slot_];
  return s.pending && s.gen == gen_ ? &s : nullptr;
}

void TimerHandle::cancel() {
  if (detail::TimerSlot* s = pending_slot()) s->pending = false;
}

bool TimerHandle::active() const { return pending_slot() != nullptr; }

namespace {

// std::push_heap/pop_heap keep the greatest element on top; ordering by
// "later" puts the earliest (at, seq) there.
template <typename Key>
bool later(const Key& a, const Key& b) {
  if (a.at != b.at) return a.at > b.at;
  return a.seq > b.seq;
}

}  // namespace

EventLoop::EventLoop() : slots_(std::make_shared<detail::TimerSlots>()) {}

EventLoop::~EventLoop() {
  // Handles may outlive the loop; they keep only this emptied table alive.
  // From here on no handle is active, so cancel() from the queued closures'
  // destructors (run when fns_ is destroyed), or from anywhere later, is a
  // no-op.
  detail::TimerSlots().swap(*slots_);
}

void EventLoop::push_key(const Key& k) {
  heap_.push_back(k);
  std::push_heap(heap_.begin(), heap_.end(), later<Key>);
}

EventLoop::Key EventLoop::pop_key() {
  std::pop_heap(heap_.begin(), heap_.end(), later<Key>);
  const Key k = heap_.back();
  heap_.pop_back();
  return k;
}

void EventLoop::release(std::uint32_t slot) {
  detail::TimerSlot& s = (*slots_)[slot];
  s.pending = false;
  ++s.gen;
  free_.push_back(slot);
}

TimerHandle EventLoop::schedule_at(TimePoint at, std::function<void()> fn) {
  if (at < now_) at = now_;
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(fns_.size());
    slots_->emplace_back();
    fns_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  detail::TimerSlot& s = (*slots_)[slot];
  s.at = at;
  s.seq = next_seq_++;
  s.pending = true;
  fns_[slot] = std::move(fn);
  push_key(Key{at, s.seq, slot});
  ++scheduled_;
  return TimerHandle{slots_, slot, s.gen};
}

TimerHandle EventLoop::schedule_after(Duration delay, std::function<void()> fn) {
  if (delay < Duration::zero()) delay = Duration::zero();
  return schedule_at(now_ + delay, std::move(fn));
}

bool EventLoop::rearm(TimerHandle& timer, TimePoint at) {
  if (timer.slots_ != slots_) return false;
  detail::TimerSlot* s = timer.pending_slot();
  if (s == nullptr || at < s->at) return false;
  s->at = at;
  s->seq = next_seq_++;
  ++rearmed_;
  return true;
}

// Discards cancelled keys and re-queues re-armed ones at their live
// (at, seq) until the top key is a live timer. Never moves the clock.
// Returns false when the queue is empty.
bool EventLoop::settle_top() {
  while (!heap_.empty()) {
    const Key& top = heap_.front();
    const detail::TimerSlot& s = (*slots_)[top.slot];
    if (s.pending && s.seq == top.seq) return true;
    const Key k = pop_key();
    if (s.pending) {
      push_key(Key{s.at, s.seq, k.slot});
      continue;
    }
    // Cancelled: destroy the closure only once the slot is consistent
    // again, since its destructor may cancel or schedule timers.
    std::function<void()> dead;
    dead.swap(fns_[k.slot]);
    release(k.slot);
  }
  return false;
}

// Fires the top key, which settle_top() has made live.
void EventLoop::fire_top() {
  const Key k = pop_key();
  now_ = k.at;
  // Moved out before the call: the callback may schedule events and grow
  // the slot table, and its slot is free (its handle inactive) meanwhile.
  std::function<void()> fn;
  fn.swap(fns_[k.slot]);
  release(k.slot);
  ++dispatched_;
  fn();
}

std::size_t EventLoop::run() {
  std::size_t n = 0;
  while (!stop_requested_ && settle_top()) {
    fire_top();
    ++n;
  }
  return n;
}

std::size_t EventLoop::run_until(TimePoint deadline) {
  std::size_t n = 0;
  while (!stop_requested_ && settle_top()) {
    if (heap_.front().at > deadline) break;
    fire_top();
    ++n;
  }
  // A mid-run stop freezes the clock at the aborting event; otherwise the
  // clock lands exactly on the deadline even when no event fired there.
  if (!stop_requested_ && now_ < deadline) now_ = deadline;
  return n;
}

bool EventLoop::step() {
  if (!settle_top()) return false;
  fire_top();
  return true;
}

}  // namespace qoed::sim
