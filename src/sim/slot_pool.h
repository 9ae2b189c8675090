/**
 * @file
 * SlotPool: values addressed by a 32-bit index that stays valid until the
 * value is released, with released slots reused last-in first-out.
 *
 * A component keeps the state of each command it has in flight here, so
 * its callbacks capture nothing but (this, slot), which std::function
 * stores inline (DESIGN.md §4.1). The owners:
 *  - sim::Simulator: each pending event's label and closure, while only
 *    a small (when, seq, slot) key moves through its heap;
 *  - sim::DeadlineQueue: each live deadline, linked in arm order;
 *  - net::Fabric: each transfer's join state, and each message in flight;
 *  - nvme::Ssd: each command in the media channel or media latency;
 *  - blockdev::NvmfTarget: each Read/Write being served;
 *  - blockdev::NvmfInitiator: each command until its callback has run,
 *    and each batch of commands until its one callback has run;
 *  - core::DraidBdev: each dRAID command being served, each reduction's
 *    reply and each rebuild's spare write.
 * Storage grows to the peak number of live slots and is reused from then
 * on; references into it are invalidated by a later acquire(), indices
 * are not.
 */

#ifndef DRAID_SIM_SLOT_POOL_H
#define DRAID_SIM_SLOT_POOL_H

#include <cassert>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace draid::sim {

/** Index-addressed storage with a LIFO free list. */
template <typename T>
class SlotPool
{
  public:
    /** Store @p value in a free slot (or a new one); return its index. */
    std::uint32_t
    acquire(T value)
    {
        if (free_.empty()) {
            assert(slots_.size() < std::numeric_limits<std::uint32_t>::max());
            slots_.push_back(std::move(value));
            return static_cast<std::uint32_t>(slots_.size() - 1);
        }
        const std::uint32_t slot = free_.back();
        free_.pop_back();
        slots_[slot] = std::move(value);
        return slot;
    }

    /**
     * Return @p slot for reuse. Its value is not destroyed here but by
     * the acquire() that reuses the slot, so empty first whatever must
     * not linger.
     */
    void release(std::uint32_t slot) { free_.push_back(slot); }

    T &operator[](std::uint32_t slot) { return slots_[slot]; }
    const T &operator[](std::uint32_t slot) const { return slots_[slot]; }

  private:
    // draid-lint: cap(peak live slots; released slots are reused)
    std::vector<T> slots_;
    // draid-lint: cap(peak live slots; one index per released slot)
    std::vector<std::uint32_t> free_;
};

} // namespace draid::sim

#endif // DRAID_SIM_SLOT_POOL_H
