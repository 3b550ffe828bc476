#include "src/sim/engine.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "src/sim/cpu.h"
#include "src/sim/schedule.h"

namespace sim {

void Engine::ScheduleAt(Time when, std::function<void()> fn) {
  size_t slot;
  if (free_callbacks_.empty()) {
    slot = callbacks_.size();
    callbacks_.push_back(std::move(fn));
  } else {
    slot = free_callbacks_.back();
    free_callbacks_.pop_back();
    callbacks_[slot] = std::move(fn);
  }
  Push(when, Target{.slot = slot}, kCallbackTag);
}

// A 4-ary min-heap: half the depth of a binary heap, and the four children
// of a node share a cache line or two.
void Engine::PushHeap(const PendingEvent& ev) {
  size_t hole = heap_.size();
  heap_.push_back(ev);
  while (hole > 0) {
    const size_t parent = (hole - 1) / 4;
    if (!Before(ev, heap_[parent])) {
      break;
    }
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = ev;
}

Engine::PendingEvent Engine::PopHeap() {
  const PendingEvent top = heap_.front();
  const PendingEvent last = heap_.back();
  heap_.pop_back();
  const size_t n = heap_.size();
  if (n == 0) {
    return top;
  }
  size_t hole = 0;
  for (;;) {
    const size_t first = 4 * hole + 1;
    if (first >= n) {
      break;
    }
    size_t best = first;
    const size_t end = first + 4 < n ? first + 4 : n;
    for (size_t c = first + 1; c < end; ++c) {
      if (Before(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!Before(heap_[best], last)) {
      break;
    }
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = last;
  return top;
}

void Engine::Fire(const PendingEvent& ev) {
  if ((ev.seq & kCallbackTag) == 0) {
    std::coroutine_handle<>::from_address(ev.target.frame).resume();
    return;
  }
  if ((ev.seq & kObjectTag) == kObjectTag) {
    ev.target.object->Resume();
    return;
  }
  // The slot is freed before the call, so a callback that schedules another
  // one may be handed its own slot back.
  const size_t slot = ev.target.slot;
  std::function<void()> fn = std::move(callbacks_[slot]);
  callbacks_[slot] = nullptr;
  free_callbacks_.push_back(slot);
  fn();
}

void Engine::ActorDone(std::exception_ptr e) {
  --live_actors_;
  if (e && !actor_failure_) {
    actor_failure_ = e;
  }
}

void Engine::DispatchOne() {
  if (policy_ != nullptr) {
    DispatchOneWithPolicy();
    return;
  }
  if (!parked_.empty()) {
    DispatchOneLogged();
    return;
  }
  // Nothing is parked, so no wake event is live (HasPending() dropped the
  // stale ones) and nothing will ask where in the instant this event sits.
  const PendingEvent ev = LaneIsNext() ? lane_.pop_front() : PopHeap();
  now_ = ev.when;
  ++dispatches_;
  Fire(ev);
}

void Engine::DispatchOneLogged() {
  if (log_.size() - log_head_ > trim_at_) {
    TrimLog();
  }
  const PendingEvent ev = LaneIsNext() ? lane_.pop_front() : PopHeap();
  now_ = ev.when;
  if (ev.seq == kWakeSeq) {
    Arrive(static_cast<uint32_t>(ev.target.slot));
    return;
  }
  ++dispatches_;
  const uint64_t drawn_before = next_seq_;
  current_seq_ = ev.seq;
  Fire(ev);
  current_seq_ = kOutsideDispatch;
  // A dispatch that drew no seq cannot split a parked poll's window.
  if (next_seq_ != drawn_before && !parked_.empty()) {
    log_.push_back(LogEntry{ev.when, ev.seq, next_seq_});
  }
}

void Engine::DispatchOneWithPolicy() {
  // Drain the full ready set for the next instant. The lane's events for it
  // join the heap first, so the heap yields the whole set in ascending seq
  // and the ready set the policy sees is indexed in FIFO order: choice 0
  // always means "what FIFO would do".
  const Time instant = NextWhen();
  while (!lane_.empty() && lane_.front().when == instant) {
    PushHeap(lane_.pop_front());
  }
  ready_scratch_.clear();
  while (!heap_.empty() && heap_.front().when == instant) {
    ready_scratch_.push_back(PopHeap());
  }
  size_t pick = 0;
  if (ready_scratch_.size() > 1) {
    pick = policy_->ChooseAndRecord(ready_scratch_.size());
  }
  const PendingEvent chosen = ready_scratch_[pick];
  // Unchosen events go back to the heap with their original seq: relative
  // FIFO order among them is preserved, so the next decision point sees a
  // ready set that differs from this one only by the removal of `chosen`
  // (plus whatever `chosen` itself schedules at this instant).
  for (size_t i = 0; i < ready_scratch_.size(); ++i) {
    if (i != pick) {
      PushHeap(ready_scratch_[i]);
    }
  }
  ready_scratch_.clear();
  now_ = chosen.when;
  ++dispatches_;
  Fire(chosen);
}

uint64_t Engine::events_processed() const {
  uint64_t total = dispatches_ + skipped_polls_;
  for (const uint32_t id : parked_) {
    total += SkippedSoFar(parks_[id]);
  }
  return total;
}

// ---- Parked pollers ---------------------------------------------------------
//
// A parked loop's polls are the instants next, next + period, ... The poll at
// q would have queued the poll at q + period with a seq drawn at q, and that
// seq decides the poll's place among the events of its instant. Real events
// draw seqs from next_seq_; a skipped poll draws none, so its draw is named
// by the window it fell in — the value of next_seq_ at that moment — which
// is the counter after the last dispatch that ran before the poll. The
// dispatch log answers that from the poll's own key, and the poll's key needs
// the previous poll's window only when the previous instant had logged
// dispatches to sort against; otherwise the window is order-free.

uint32_t Engine::NewPark(BusyMeter* meter, Time charge) {
  uint32_t id;
  if (free_parks_.empty()) {
    id = static_cast<uint32_t>(parks_.size());
    parks_.emplace_back();
  } else {
    id = free_parks_.back();
    free_parks_.pop_back();
  }
  ParkRecord& r = parks_[id];
  r.meter = meter;
  r.charge = charge;
  r.state = ParkRecord::State::kIdle;
  return id;
}

void Engine::FreePark(uint32_t id) {
  ParkRecord& r = parks_[id];
  if (r.parked()) {
    Unpark(r);
  }
  if (r.state != ParkRecord::State::kIdle) {
    Release(id);
  }
  r.state = ParkRecord::State::kFree;
  r.meter = nullptr;
  ++r.episode;
  free_parks_.push_back(id);
}

void Engine::Unlist(std::vector<uint32_t>& list, uint32_t at, uint32_t ParkRecord::*index) {
  const uint32_t moved = list.back();
  list[at] = moved;
  parks_[moved].*index = at;
  list.pop_back();
}

int Engine::GridCounts::count(uint64_t key) const {
  if (size_ == 0) {
    return 0;
  }
  for (size_t i = Home(key);; i = (i + 1) & (slots_.size() - 1)) {
    if (slots_[i].key == key) {
      return slots_[i].count;
    }
    if (slots_[i].key == 0) {
      return 0;
    }
  }
}

void Engine::GridCounts::Insert(Slot slot) {
  size_t i = Home(slot.key);
  while (slots_[i].key != 0) {
    i = (i + 1) & (slots_.size() - 1);
  }
  slots_[i] = slot;
  ++size_;
}

void Engine::GridCounts::add(uint64_t key) {
  if (size_ > 0) {
    for (size_t i = Home(key); slots_[i].key != 0; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i].key == key) {
        ++slots_[i].count;
        return;
      }
    }
  }
  if (2 * (size_ + 1) > slots_.size()) {
    std::vector<Slot> old =
        std::exchange(slots_, std::vector<Slot>(slots_.empty() ? 16 : 2 * slots_.size()));
    shift_ = 64 - std::countr_zero(slots_.size());
    size_ = 0;
    for (const Slot& slot : old) {
      if (slot.key != 0) {
        Insert(slot);
      }
    }
  }
  Insert(Slot{key, 1});
}

// Backward-shift deletion keeps every probe run gap-free.
void Engine::GridCounts::remove(uint64_t key) {
  const size_t mask = slots_.size() - 1;
  size_t i = Home(key);
  while (slots_[i].key != key) {
    i = (i + 1) & mask;
  }
  if (--slots_[i].count > 0) {
    return;
  }
  for (size_t j = (i + 1) & mask; slots_[j].key != 0; j = (j + 1) & mask) {
    // Move slot j into the hole at i unless its home lies in (i, j].
    if (((j - Home(slots_[j].key)) & mask) >= ((j - i) & mask)) {
      slots_[i] = slots_[j];
      i = j;
    }
  }
  slots_[i] = Slot{};
  --size_;
}

// Gives record `id`, about to park on its grid, a rank among the records
// held there: their polls run in rank order, and a parking record comes
// after those whose poll at now_ already ran. False when no rank fits.
bool Engine::Join(uint32_t id) {
  ParkRecord& r = parks_[id];
  const uint64_t key = GridCounts::Key(r.period, r.phase);
  if (grids_.count(key) == 0) {
    r.rank = kRankLimit / 2;
    return true;
  }
  std::vector<uint32_t>& members = members_scratch_;
  members.clear();
  for (const uint32_t other : held_) {
    if (parks_[other].period == r.period && parks_[other].phase == r.phase) {
      members.push_back(other);
    }
  }
  std::sort(members.begin(), members.end(),
            [&](uint32_t a, uint32_t b) { return parks_[a].rank < parks_[b].rank; });
  for (int attempt = 0; attempt < 2; ++attempt) {
    const auto after = std::partition_point(members.begin(), members.end(),
                                            [&](uint32_t m) { return DrewBefore(parks_[m]); });
    const int64_t lo =
        after == members.begin() ? -1 : static_cast<int64_t>(parks_[*std::prev(after)].rank);
    const int64_t hi =
        after == members.end() ? int64_t{kRankLimit} : static_cast<int64_t>(parks_[*after].rank);
    if (hi - lo >= 2) {
      r.rank = static_cast<uint32_t>((lo + hi) / 2);
      return true;
    }
    if (attempt > 0 || !Respace(members)) {
      return false;
    }
  }
  return false;
}

// Whether held record r drew the seq of its poll at now_ + period before the
// current position, that is whether its poll at now_ (or its park at now_)
// ran already.
bool Engine::DrewBefore(const ParkRecord& r) const {
  if (r.state == ParkRecord::State::kScheduled) {
    return r.wake_at > now_;  // its poll at now_ ran before the wake
  }
  return r.next > now_ || SeqAt(r, now_) < current_seq_;
}

// Spreads the ranks of a grid's held records evenly, keeping their order.
// Each moves its known poll past now_ first, so no seq computed with an old
// rank is ever compared with one computed with a new rank. Not possible
// while one of them has a poll at now_ still to run or queued by seq.
bool Engine::Respace(std::vector<uint32_t>& members) {
  for (const uint32_t m : members) {
    const ParkRecord& r = parks_[m];
    if (r.state == ParkRecord::State::kScheduled || !DrewBefore(r)) {
      return false;
    }
  }
  for (size_t i = 0; i < members.size(); ++i) {
    ParkRecord& r = parks_[members[i]];
    uint64_t window = (r.next_seq >> kSeqShift) + 1;
    if (r.next <= now_) {
      window = WindowBefore(now_, SeqAt(r, now_));
      r.skipped += static_cast<uint64_t>((now_ - r.next) / r.period) + 1;
      r.next = now_ + r.period;
    }
    r.rank = static_cast<uint32_t>((i + 1) * kRankLimit / (members.size() + 2));
    r.next_seq = ParkSeq(window, r.period, r.rank);
  }
  return true;
}

void Engine::Release(uint32_t id) {
  ParkRecord& r = parks_[id];
  Unlist(held_, r.held_at, &ParkRecord::held_at);
  grids_.remove(GridCounts::Key(r.period, r.phase));
  const auto held = std::find_if(held_periods_.begin(), held_periods_.end(),
                                 [&](const auto& p) { return p.first == r.period; });
  if (--held->second == 0) {
    *held = held_periods_.back();
    held_periods_.pop_back();
  }
}

// True if a held record other than `self` may poll at instant `at`.
bool Engine::OthersPollAt(const ParkRecord& self, Time at) const {
  for (const auto& [period, count] : held_periods_) {
    const int polling = grids_.count(GridCounts::Key(period, at % period));
    if (polling > (period == self.period ? 1 : 0)) {
      return true;
    }
  }
  return false;
}

void Engine::Park(uint32_t id, std::coroutine_handle<> h, Time period, Time deadline) {
  const Time first = now_ + period;
  ParkRecord& r = parks_[id];
  r.period = period;
  r.phase = first % period;
  // Sleep instead where a skipped poll could not be accounted exactly: a
  // policy or trace sink sees every event; a period must fit ParkSeq; a
  // deadline at the first poll saves nothing; and a grid can run out of
  // ranks.
  if (policy_ != nullptr || trace_ != nullptr || period >= kMaxParkPeriod ||
      (deadline > 0 && deadline <= first) || !Join(id)) {
    SleepFrame(h, period);
    return;
  }
  if (parked_.empty()) {
    log_.clear();
    log_head_ = 0;
    log_base_ = next_seq_;
    boundaries_.clear();
    trim_at_ = kMinTrim;
  }
  r.frame = h;
  r.next = first;
  r.next_seq = ParkSeq(next_seq_, period, r.rank);
  r.skipped = 0;
  r.wake_at = -1;
  ++r.episode;
  r.state = ParkRecord::State::kParked;
  r.parked_at = static_cast<uint32_t>(parked_.size());
  parked_.push_back(id);
  r.held_at = static_cast<uint32_t>(held_.size());
  held_.push_back(id);
  grids_.add(GridCounts::Key(r.period, r.phase));
  const auto period_it = std::find_if(held_periods_.begin(), held_periods_.end(),
                                      [&](const auto& p) { return p.first == period; });
  if (period_it == held_periods_.end()) {
    held_periods_.emplace_back(period, 1);
  } else {
    ++period_it->second;
  }
  if (r.meter != nullptr) {
    r.meter->engine_ = this;
  }
  if (deadline > 0) {
    // The first poll that sees now() >= deadline.
    PushWake(id, first + (deadline - first + period - 1) / period * period);
  }
}

void Engine::PushWake(uint32_t id, Time at) {
  ParkRecord& r = parks_[id];
  r.wake_at = at;
  Target target;
  target.slot = (static_cast<size_t>(r.episode) << 32) | id;
  PushHeap(PendingEvent{at, kWakeSeq, target});
}

void Engine::Unparked(uint32_t id) {
  ParkRecord& r = parks_[id];
  if (r.state == ParkRecord::State::kScheduled) {
    Release(id);
    r.state = ParkRecord::State::kIdle;
  }
}

// The polled state may have changed at the current position (the event
// being fired, or the end of instant now_ between dispatches): the first
// poll after it must run. A wake event at that poll's instant settles it on
// arrival, when the poll's seq is rarely needed.
void Engine::Wake(uint32_t id) {
  ParkRecord& r = parks_[id];
  if (r.state != ParkRecord::State::kParked) {
    return;
  }
  Time at = r.next;
  if (now_ >= r.next) {
    const Time q = r.next + (now_ - r.next) / r.period * r.period;
    at = q + r.period;
    if (q == now_) {
      const uint64_t seq_q = SeqAt(r, q);
      if (seq_q > current_seq_) {
        // The poll at now_ is still queued behind the current event.
        Resume(id, q, seq_q);
        return;
      }
    }
  }
  r.state = ParkRecord::State::kWaking;
  if (r.wake_at != at) {
    PushWake(id, at);
  }
}

// A wake event for the poll at now_: it sorts before every other event of
// the instant. If nothing else can share the instant, the poll runs now as
// the first event of it; otherwise it is queued under its exact seq.
void Engine::Arrive(uint32_t id) {
  ParkRecord& r = parks_[id];
  if ((!heap_.empty() && heap_.front().when == now_) || OthersPollAt(r, now_)) {
    Resume(id, now_, SeqAt(r, now_));
    return;
  }
  Settle(r, now_);
  ++dispatches_;
  const uint64_t drawn_before = next_seq_;
  current_seq_ = kWakeSeq;
  r.frame.resume();
  current_seq_ = kOutsideDispatch;
  if (next_seq_ != drawn_before && !parked_.empty()) {
    log_.push_back(LogEntry{now_, kWakeSeq, next_seq_});
  }
}

void Engine::Resume(uint32_t id, Time at, uint64_t seq) {
  ParkRecord& r = parks_[id];
  Settle(r, at);
  r.wake_at = at;
  PushHeap(PendingEvent{at, seq, Target{.frame = r.frame.address()}});
}

// Ends r's park with its poll at `at` due: counts the polls it skipped.
void Engine::Settle(ParkRecord& r, Time at) {
  const uint64_t skipped = r.skipped + static_cast<uint64_t>((at - r.next) / r.period);
  skipped_polls_ += skipped;
  if (r.meter != nullptr) {
    r.meter->AddBusy(static_cast<Time>(skipped) * r.charge);
  }
  Unpark(r);
  r.state = ParkRecord::State::kScheduled;
}

void Engine::Unpark(ParkRecord& r) {
  Unlist(parked_, r.parked_at, &ParkRecord::parked_at);
  if (parked_.empty()) {
    log_.clear();
    log_head_ = 0;
    boundaries_.clear();
  }
}

// The seq of r's poll at grid instant q (r.next <= q, and the poll at q -
// period already ran).
uint64_t Engine::SeqAt(const ParkRecord& r, Time q) const {
  Time t = q;
  while (t > r.next && LoggedAt(t - r.period)) {
    t -= r.period;
  }
  uint64_t seq =
      t == r.next ? r.next_seq : ParkSeq(WindowBefore(t - r.period, 0), r.period, r.rank);
  for (; t < q; t += r.period) {
    seq = ParkSeq(WindowBefore(t, seq), r.period, r.rank);
  }
  return seq;
}

// Index of the first live log entry at or after key (when, seq). Lookups
// are for recent polls, so the search gallops back from the end.
size_t Engine::LogLowerBound(Time when, uint64_t seq) const {
  const auto before = [&](const LogEntry& e) {
    return e.when != when ? e.when < when : e.seq < seq;
  };
  size_t hi = log_.size();
  size_t step = 1;
  while (hi > log_head_ && !before(log_[hi - 1])) {
    const size_t lo = hi > log_head_ + step ? hi - step : log_head_;
    if (lo == log_head_ || before(log_[lo])) {
      return static_cast<size_t>(
          std::partition_point(log_.begin() + static_cast<std::ptrdiff_t>(lo),
                               log_.begin() + static_cast<std::ptrdiff_t>(hi), before) -
          log_.begin());
    }
    hi = lo;
    step *= 2;
  }
  return hi;
}

// next_seq_ as an event with key (when, seq) would have seen it: the counter
// after the last logged dispatch or run boundary before that key.
uint64_t Engine::WindowBefore(Time when, uint64_t seq) const {
  const size_t at = LogLowerBound(when, seq);
  uint64_t window = at == log_head_ ? log_base_ : log_[at - 1].counter_after;
  const auto b = std::lower_bound(boundaries_.begin(), boundaries_.end(), when,
                                  [](const Boundary& x, Time t) { return x.at < t; });
  if (b != boundaries_.begin()) {
    window = std::max(window, std::prev(b)->counter);
  }
  return window;
}

bool Engine::LoggedAt(Time when) const {
  const size_t at = LogLowerBound(when, 0);
  return at < log_.size() && log_[at].when == when;
}

// Polls of parked record r that have run (been skipped) by the current
// position.
uint64_t Engine::SkippedSoFar(const ParkRecord& r) const {
  if (now_ < r.next) {
    return r.skipped;
  }
  const auto polls = static_cast<uint64_t>((now_ - r.next) / r.period);
  const Time q = r.next + static_cast<Time>(polls) * r.period;
  const bool ran = q < now_ || SeqAt(r, q) < current_seq_;
  return r.skipped + polls + (ran ? 1 : 0);
}

Time Engine::PendingCharge(const BusyMeter* meter) const {
  Time total = 0;
  for (const uint32_t id : parked_) {
    const ParkRecord& r = parks_[id];
    if (r.meter == meter) {
      total += static_cast<Time>(SkippedSoFar(r)) * r.charge;
    }
  }
  return total;
}

// Seqs drawn between runs come after every poll at or before now_.
void Engine::NoteBoundary() {
  if (parked_.empty()) {
    return;
  }
  uint64_t last = log_.size() > log_head_ ? log_.back().counter_after : log_base_;
  if (!boundaries_.empty()) {
    last = std::max(last, boundaries_.back().counter);
  }
  if (next_seq_ > last) {
    boundaries_.push_back(Boundary{now_, next_seq_});
  }
}

// Drops the older half of the log. A parked record whose known poll is
// older than the cut moves it to its first poll at or after the cut first.
void Engine::TrimLog() {
  const Time cut = std::min(now_, log_[log_head_ + (log_.size() - log_head_) / 2].when);
  for (const uint32_t id : parked_) {
    ParkRecord& r = parks_[id];
    if (r.next < cut) {
      const Time polls = (cut - 1 - r.next) / r.period;
      const Time q = r.next + polls * r.period;
      const uint64_t seq_q = SeqAt(r, q);
      r.next_seq = ParkSeq(WindowBefore(q, seq_q), r.period, r.rank);
      r.next = q + r.period;
      r.skipped += static_cast<uint64_t>(polls) + 1;
    }
  }
  const size_t keep = LogLowerBound(cut, 0);
  if (keep != log_head_) {
    log_base_ = std::max(log_base_, log_[keep - 1].counter_after);
    log_head_ = keep;
  }
  const auto bkeep = std::lower_bound(boundaries_.begin(), boundaries_.end(), cut,
                                      [](const Boundary& x, Time t) { return x.at < t; });
  if (bkeep != boundaries_.begin()) {
    log_base_ = std::max(log_base_, std::prev(bkeep)->counter);
    boundaries_.erase(boundaries_.begin(), bkeep);
  }
  if (log_head_ > log_.size() / 2) {
    log_.erase(log_.begin(), log_.begin() + static_cast<std::ptrdiff_t>(log_head_));
    log_head_ = 0;
  }
  trim_at_ = std::max(kMinTrim, 2 * (log_.size() - log_head_));
}

void Engine::Run() {
  NoteBoundary();
  while (HasPending() && !actor_failure_) {
    DispatchOne();
  }
  if (actor_failure_) {
    std::exception_ptr e = std::exchange(actor_failure_, nullptr);
    std::rethrow_exception(e);
  }
}

bool Engine::RunUntil(Time deadline) {
  NoteBoundary();
  while (HasPending() && !actor_failure_) {
    if (NextWhen() > deadline) {
      now_ = deadline;
      return false;
    }
    DispatchOne();
  }
  if (actor_failure_) {
    std::exception_ptr e = std::exchange(actor_failure_, nullptr);
    std::rethrow_exception(e);
  }
  now_ = deadline;
  // A parked loop polls forever, like the sleep chain it stands for.
  return parked_.empty();
}

}  // namespace sim
