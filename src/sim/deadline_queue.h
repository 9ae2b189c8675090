/**
 * @file
 * DeadlineQueue: cancellable one-shot deadlines of one fixed timeout that
 * keep at most one engine event pending (paper §5.4 explicit timeouts).
 *
 * Deadlines of one fixed timeout expire in the order they were armed, so
 * the queue keeps the live ones in a FIFO list, linked through a SlotPool
 * that holds only live entries, and one engine event at the oldest. Each
 * arm() takes the seq its own event would have had
 * (Simulator::reserveSeq()), and the queue's event for an entry is
 * scheduled under that seq, so a live deadline expires at the very tick
 * and position a per-deadline event would have. disarm() unlinks its
 * entry at once; if that entry was the oldest, the pending event finds it
 * gone when it fires and moves on to the next live one. Nearly every
 * deadline is disarmed long before it is due, so nearly none of them
 * reaches the engine.
 */

#ifndef DRAID_SIM_DEADLINE_QUEUE_H
#define DRAID_SIM_DEADLINE_QUEUE_H

#include <cstdint>
#include <functional>
#include <limits>

#include "sim/simulator.h"
#include "sim/slot_pool.h"
#include "sim/types.h"

namespace draid::sim {

/** Fixed-timeout deadlines of one owner, expiring in arm order. */
class DeadlineQueue
{
  public:
    static constexpr std::uint64_t kNoSeq =
        std::numeric_limits<std::uint64_t>::max();

    /** Names one arm() until it expires or is disarmed. */
    struct Handle
    {
        std::uint32_t slot = 0;
        /** The arm's reserved seq; no arm has the default, kNoSeq. */
        std::uint64_t seq = kNoSeq;
    };

    /** Called with the id given to arm() when that deadline expires. */
    using ExpireFn = std::function<void(std::uint64_t)>;

    /**
     * @param timeout delay from each arm() to its expiry
     * @param label   engine label of the queue's event (a string literal)
     * @param expire  run once for every deadline that expires
     */
    DeadlineQueue(Simulator &sim, Ticks timeout, const char *label,
                  ExpireFn expire);
    DeadlineQueue(const DeadlineQueue &) = delete;
    DeadlineQueue &operator=(const DeadlineQueue &) = delete;

    /** Arm a deadline for @p id, due one timeout from now. */
    Handle arm(std::uint64_t id);

    /** Cancel @p h; a no-op once it has expired or been disarmed. */
    void disarm(Handle h);

    bool isArmed(Handle h) const;

    std::uint64_t expiredCount() const { return expired_; }

  private:
    static constexpr std::uint32_t kNil =
        std::numeric_limits<std::uint32_t>::max();

    /** A live deadline, linked in arm order. */
    struct Entry
    {
        Ticks when;
        std::uint64_t seq = kNoSeq; ///< kNoSeq once the slot is freed
        std::uint64_t id = 0;
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
    };

    /** Unlink @p slot's entry and free its slot. */
    void remove(std::uint32_t slot);

    /** Schedule the queue's event at the oldest live deadline, if any. */
    void scheduleHead();

    /** The queue's event for the entry armed under @p seq. */
    void fire(std::uint64_t seq);

    Simulator &sim_;
    Ticks timeout_;
    const char *label_;
    ExpireFn expire_;
    SlotPool<Entry> entries_;
    std::uint32_t head_ = kNil; ///< oldest live entry
    std::uint32_t tail_ = kNil; ///< newest live entry
    std::uint64_t expired_ = 0;
    bool eventPending_ = false;
};

} // namespace draid::sim

#endif // DRAID_SIM_DEADLINE_QUEUE_H
