/**
 * @file
 * Failure-handling helpers (paper §5.4): explicit per-operation deadlines.
 *
 * dRAID sets an upper bound on the execution time of every operation; an
 * expired operation generates an explicit event at the host-side
 * controller, which retries with a full-stripe write only after every
 * sub-operation has reached a final state.
 */

#ifndef DRAID_CORE_FAILURE_H
#define DRAID_CORE_FAILURE_H

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "sim/simulator.h"
#include "sim/types.h"
#include "telemetry/probe.h"

namespace draid::core {

/**
 * Cancellable one-shot deadlines keyed by operation id.
 *
 * arm() schedules the expiry callback; disarm() (on normal completion)
 * guarantees the callback never fires. Re-arming an id supersedes the
 * previous deadline.
 */
class DeadlineTable
{
  public:
    explicit DeadlineTable(sim::Simulator &sim) : sim_(sim) {}

    /** Arm (or re-arm) a deadline @p delay from now. */
    void arm(std::uint64_t id, sim::Ticks delay, std::function<void()> expire);

    /** Cancel the deadline; no-op if not armed. */
    void disarm(std::uint64_t id);

    bool isArmed(std::uint64_t id) const { return armed_.contains(id); }

    std::uint64_t expiredCount() const { return expired_; }

    /**
     * Report to telemetry through @p probe: every expiry also journals an
     * OpTimeout event (a = operation id). Observe-only.
     */
    void attach(telemetry::Probe probe) { probe_ = probe; }

  private:
    sim::Simulator &sim_;
    // id -> generation; a scheduled event only fires its callback when the
    // generation it captured is still current.
    // draid-lint: cap(one generation per device id; fixed topology)
    std::unordered_map<std::uint64_t, std::uint64_t> armed_;
    std::uint64_t nextGen_ = 1;
    std::uint64_t expired_ = 0;
    telemetry::Probe probe_;
};

/**
 * Array-level failure accounting for fault campaigns: tracks which member
 * devices are currently failed, promotes failures beyond the redundancy
 * level to data loss, records per-stripe losses found during rebuild
 * (e.g. a latent sector error on a survivor), and measures the rebuild
 * exposure window of every failure (fail -> rebuilt).
 *
 * The tracker is bookkeeping only: it never touches the Simulator or the
 * data path. The DraidHost still owns degraded-mode behaviour (it models
 * a single failed device); the tracker is the layer that knows a *second*
 * concurrent failure means the array has lost data even though the host
 * cannot represent it.
 */
class FailureTracker
{
  public:
    /** @param width member devices; @param redundancy failures survivable
     *  (1 for RAID-5, 2 for RAID-6). */
    FailureTracker(std::uint32_t width, std::uint32_t redundancy);

    /**
     * Report to telemetry through @p probe: recordFailure() then journals
     * a DriveFailed event (a = device, b = active failures after this
     * one) unless the caller journaled it already, and any promotion to
     * data loss journals a DataLoss event. Observe-only.
     */
    void attach(telemetry::Probe probe) { probe_ = probe; }

    /**
     * A member device failed at @p tick. Journals DriveFailed (unless
     * @p already_journaled — the DraidHost::markFailed path emits its
     * own) and, when active failures now exceed the redundancy, promotes
     * to data loss with a DataLoss (a = device, b = 0) record. Returns
     * false if the device was already failed (no-op).
     */
    bool recordFailure(std::uint32_t device, sim::Ticks tick,
                       bool already_journaled = false);

    /**
     * Device @p device was rebuilt onto a spare at @p tick: closes its
     * exposure window (the DriveRecovered/HotSpareSwap journal records
     * come from the host's swap path, not from here).
     */
    void recordRebuilt(std::uint32_t device, sim::Ticks tick);

    /**
     * One stripe could not be reconstructed during rebuild (a second
     * fault — latent sector error, dead participant — hit a survivor).
     * Promotes to data loss with a DataLoss (a = stripe, b = 1) record;
     * repeated losses of the same stripe journal once.
     */
    void recordStripeLoss(std::uint64_t stripe, sim::Ticks tick);

    bool dataLoss() const { return dataLoss_; }
    std::uint32_t activeFailures() const { return active_; }
    std::uint64_t lostStripes() const { return lostStripes_; }

    /** Currently failed member devices, ascending. */
    std::vector<std::uint32_t> failedDevices() const;

    /** Closed exposure windows (fail -> rebuilt), in ticks. */
    const std::vector<sim::Tick> &exposureWindows() const
    {
        return exposure_;
    }

    /** Exposure still open for @p now (0 when nothing is failed). */
    sim::Ticks openExposure(sim::Ticks now) const;

  private:
    std::uint32_t width_;
    std::uint32_t redundancy_;
    std::uint32_t active_ = 0;
    bool dataLoss_ = false;
    std::uint64_t lostStripes_ = 0;
    std::uint64_t lastLostStripe_ = 0;
    /** Per-device fail tick; < 0 = not currently failed. */
    // draid-lint: cap(one entry per member device; fixed topology)
    std::vector<std::int64_t> failedAt_;
    // draid-lint: cap(one entry per member device; fixed topology)
    std::vector<sim::Tick> exposure_;
    telemetry::Probe probe_;
};

} // namespace draid::core

#endif // DRAID_CORE_FAILURE_H
