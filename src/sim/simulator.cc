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
    const Key key{when, seq_++, slab_.acquire(Slot{label, std::move(fn)})};
    if (lane_.empty() || lane_.back().when <= when) {
        lane_.push_back(key);
    } else {
        heap_.push_back(key);
        std::push_heap(heap_.begin(), heap_.end(), KeyOrder{});
    }
    if (engineObserver_)
        engineObserver_->onSchedule(when, label, pendingEvents());
}

Ticks
Simulator::nextWhen() const
{
    if (lane_.empty())
        return heap_.front().when;
    if (heap_.empty())
        return lane_.front().when;
    return std::min(heap_.front().when, lane_.front().when);
}

void
Simulator::drainTick(Ticks when)
{
    const std::size_t queued_before = queuedEvents();
    // The lane's events at a tick precede the heap's in seq order: a heap
    // event at `when` was pushed while the lane's tail was later than
    // `when`, and that tail stays queued past this tick, so no event
    // scheduled after it can join the lane at `when`.
    while (!lane_.empty() && lane_.front().when == when) {
        batch_.push_back(lane_.front());
        lane_.pop_front();
    }
    assert(batch_.empty() || heap_.empty() || heap_.front().when != when ||
           batch_.back().seq < heap_.front().seq);
    while (!heap_.empty() && heap_.front().when == when) {
        std::pop_heap(heap_.begin(), heap_.end(), KeyOrder{});
        batch_.push_back(heap_.back());
        heap_.pop_back();
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
            advanceTo(nextWhen());
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
            if (queuedEvents() == 0 || nextWhen() > deadline)
                break;
            advanceTo(nextWhen());
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
