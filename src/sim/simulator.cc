#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace draid::sim {

void
Simulator::schedule(Ticks delay, EventFn fn)
{
    assert(delay >= Ticks::zero());
    scheduleAt(now_ + delay, nullptr, std::move(fn));
}

void
Simulator::schedule(Ticks delay, const char *label, EventFn fn)
{
    assert(delay >= Ticks::zero());
    scheduleAt(now_ + delay, label, std::move(fn));
}

void
Simulator::scheduleAt(Ticks when, EventFn fn)
{
    scheduleAt(when, nullptr, std::move(fn));
}

void
Simulator::scheduleAt(Ticks when, const char *label, EventFn fn)
{
    assert(when >= now_);
    enqueue(Key{when, seq_++, slab_.acquire(Slot{label, std::move(fn)})},
            label);
}

void
Simulator::scheduleAt(Ticks when, std::uint64_t seq, const char *label,
                      EventFn fn)
{
    assert(when >= now_ && seq < seq_);
    const Key key{when, seq, slab_.acquire(Slot{label, std::move(fn)})};
    if (when == now_ && (queuedEvents() == 0 || before(key, queueFront()))) {
        // Due before every queued event, so it belongs to the tick's
        // batch, after the events already run from it.
        const auto pos = std::upper_bound(
            batch_.begin() + static_cast<std::ptrdiff_t>(batchPos_),
            batch_.end(), key,
            [](const Key &a, const Key &b) { return a.seq < b.seq; });
        assert(batchPos_ == 0 || batch_[batchPos_ - 1].seq < seq);
        batch_.insert(pos, key);
        if (engineObserver_)
            engineObserver_->onSchedule(when, label, pendingEvents());
        return;
    }
    enqueue(key, label);
}

void
Simulator::enqueue(const Key &key, const char *label)
{
    if (lane_.empty() || before(lane_.back(), key)) {
        lane_.push_back(key);
    } else {
        heap_.push_back(key);
        std::push_heap(heap_.begin(), heap_.end(), KeyOrder{});
    }
    if (engineObserver_)
        engineObserver_->onSchedule(key.when, label, pendingEvents());
}

const Simulator::Key &
Simulator::queueFront() const
{
    if (lane_.empty())
        return heap_.front();
    if (heap_.empty() || before(lane_.front(), heap_.front()))
        return lane_.front();
    return heap_.front();
}

void
Simulator::drainTick(Ticks when)
{
    const std::size_t queued_before = queuedEvents();
    // Lane and heap each yield their events at `when` in seq order; a
    // reserved seq may put a heap event before a lane event, so merge.
    const auto due = [when](const Key &k) { return k.when == when; };
    for (;;) {
        const bool lane_due = !lane_.empty() && due(lane_.front());
        const bool heap_due = !heap_.empty() && due(heap_.front());
        if (lane_due &&
            (!heap_due || lane_.front().seq < heap_.front().seq)) {
            batch_.push_back(lane_.front());
            lane_.pop_front();
        } else if (heap_due) {
            std::pop_heap(heap_.begin(), heap_.end(), KeyOrder{});
            batch_.push_back(heap_.back());
            heap_.pop_back();
        } else {
            break;
        }
    }
    if (engineObserver_)
        engineObserver_->onBatchDrain(when, batch_.size(), queued_before);
}

void
Simulator::execute(const Key &key)
{
    ++executed_;
    Slot &slot = slab_[key.slot];
    const char *label = slot.label;
    const EventFn fn = std::exchange(slot.fn, nullptr);
    slab_.release(key.slot);
    if (engineObserver_) {
        engineObserver_->onEventStart(now_, label);
        fn();
        engineObserver_->onEventEnd();
    } else {
        fn();
    }
}

void
Simulator::advanceTo(Ticks when)
{
    assert(when >= now_);
    const bool advanced = when > now_;
    now_ = when;
    if (advanced && clockObserver_)
        clockObserver_(now_);
}

void
Simulator::run()
{
    assert(!running_);
    running_ = true;
    stopped_ = false;
    if (engineObserver_)
        engineObserver_->onRunStart();
    while (!stopped_) {
        if (batchPos_ >= batch_.size()) {
            batch_.clear();
            batchPos_ = 0;
            if (queuedEvents() == 0)
                break;
            advanceTo(queueFront().when);
            drainTick(now_);
        }
        execute(batch_[batchPos_++]);
    }
    if (engineObserver_)
        engineObserver_->onRunEnd();
    running_ = false;
}

void
Simulator::runUntil(Ticks deadline)
{
    assert(!running_);
    running_ = true;
    stopped_ = false;
    if (engineObserver_)
        engineObserver_->onRunStart();
    while (!stopped_) {
        if (batchPos_ >= batch_.size()) {
            batch_.clear();
            batchPos_ = 0;
            if (queuedEvents() == 0 || queueFront().when > deadline)
                break;
            advanceTo(queueFront().when);
            drainTick(now_);
        } else if (now_ > deadline) {
            // Batch left over from a stop() at a tick past this deadline
            // (possible when resuming with an earlier deadline): the
            // events stay pending, exactly as heap events past the
            // deadline would.
            break;
        } else {
            execute(batch_[batchPos_++]);
            continue;
        }
        // Freshly drained batch: fall through to the next iteration so
        // the now_ <= deadline guard applies uniformly.
    }
    if (!stopped_ && batchPos_ >= batch_.size() && now_ < deadline)
        advanceTo(deadline);
    if (engineObserver_)
        engineObserver_->onRunEnd();
    running_ = false;
}

} // namespace draid::sim
