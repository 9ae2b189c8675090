#include "sim/deadline_queue.h"

#include <cassert>
#include <utility>

namespace draid::sim {

DeadlineQueue::DeadlineQueue(Simulator &sim, Ticks timeout,
                             const char *label, ExpireFn expire)
    : sim_(sim), timeout_(timeout), label_(label), expire_(std::move(expire))
{
    assert(timeout_ >= Ticks::zero());
}

DeadlineQueue::Handle
DeadlineQueue::arm(std::uint64_t id)
{
    const std::uint64_t seq = sim_.reserveSeq();
    const std::uint32_t slot = entries_.acquire(
        Entry{sim_.now() + timeout_, seq, id, tail_, kNil});
    if (tail_ == kNil)
        head_ = slot;
    else
        entries_[tail_].next = slot;
    tail_ = slot;
    if (!eventPending_)
        scheduleHead();
    return Handle{slot, seq};
}

bool
DeadlineQueue::isArmed(Handle h) const
{
    return h.seq != kNoSeq && entries_[h.slot].seq == h.seq;
}

void
DeadlineQueue::disarm(Handle h)
{
    if (isArmed(h))
        remove(h.slot);
}

void
DeadlineQueue::remove(std::uint32_t slot)
{
    Entry &e = entries_[slot];
    if (e.prev == kNil)
        head_ = e.next;
    else
        entries_[e.prev].next = e.next;
    if (e.next == kNil)
        tail_ = e.prev;
    else
        entries_[e.next].prev = e.prev;
    e.seq = kNoSeq;
    entries_.release(slot);
}

void
DeadlineQueue::scheduleHead()
{
    if (head_ == kNil)
        return;
    const Entry &e = entries_[head_];
    eventPending_ = true;
    sim_.scheduleAt(e.when, e.seq, label_,
                    [this, seq = e.seq]() { fire(seq); });
}

void
DeadlineQueue::fire(std::uint64_t seq)
{
    eventPending_ = false;
    // Entries expire in arm order, so the one this event was scheduled
    // for is the head unless it was disarmed since.
    if (head_ != kNil && entries_[head_].seq == seq) {
        const std::uint64_t id = entries_[head_].id;
        remove(head_);
        ++expired_;
        expire_(id);
    }
    if (!eventPending_)
        scheduleHead();
}

} // namespace draid::sim
