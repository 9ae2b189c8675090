/**
 * @file
 * Per-stripe exclusive locks with FIFO waiters.
 *
 * RAID does not allow concurrent writes to the same stripe; the host-side
 * controller admits one write per stripe at a time and queues the rest
 * (§3). The SPDK baseline additionally takes the lock for normal reads
 * (the POC behaviour the paper's §8 optimization removes), which is why
 * dRAID only routes writes through this table.
 */

#ifndef DRAID_RAID_STRIPE_LOCK_H
#define DRAID_RAID_STRIPE_LOCK_H

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>

#include "sim/types.h"
#include "telemetry/probe.h"

namespace draid::raid {

/** FIFO exclusive lock table keyed by stripe index. */
class StripeLockTable
{
  public:
    using Grant = std::function<void()>;

    /**
     * Acquire the lock on @p stripe. @p granted runs immediately (same
     * call stack) if the lock is free, otherwise when released to this
     * waiter.
     */
    void acquire(std::uint64_t stripe, Grant granted);

    /**
     * Release the lock on @p stripe; hands off to the next waiter (its
     * grant callback runs inside this call).
     * @pre the lock is held
     */
    void release(std::uint64_t stripe);

    /** Whether @p stripe is currently locked. */
    bool isLocked(std::uint64_t stripe) const;

    /** Number of stripes currently locked. */
    std::size_t locksHeld() const { return locks_.size(); }

    /** Total grants that had to wait (contention counter). */
    std::uint64_t contendedAcquires() const { return contended_; }

    /**
     * Report to telemetry through @p probe: a StripeLockConvoy event is
     * journaled whenever a stripe accumulates two or more queued waiters
     * behind the holder. The table holds no clock, so the owner supplies
     * @p now. Observe-only.
     */
    void attach(telemetry::Probe probe, std::function<sim::Tick()> now);

  private:
    struct LockState
    {
        bool held = false;
        // draid-lint: cap(ops queued on one stripe; host queue depth)
        std::deque<Grant> waiters;
    };

    // draid-lint: cap(live locked stripes; erased on release)
    std::unordered_map<std::uint64_t, LockState> locks_;
    std::uint64_t contended_ = 0;
    telemetry::Probe probe_;
    std::function<sim::Tick()> now_;
};

} // namespace draid::raid

#endif // DRAID_RAID_STRIPE_LOCK_H
