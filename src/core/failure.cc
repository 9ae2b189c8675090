#include "core/failure.h"

#include <algorithm>
#include <utility>

namespace draid::core {

void
DeadlineTable::arm(std::uint64_t id, sim::Ticks delay,
                   std::function<void()> expire)
{
    const std::uint64_t gen = nextGen_++;
    armed_[id] = gen;
    sim_.schedule(delay, "failure.deadline",
                  [this, id, gen, expire = std::move(expire)]() {
        auto it = armed_.find(id);
        if (it == armed_.end() || it->second != gen)
            return; // disarmed or re-armed since
        armed_.erase(it);
        ++expired_;
        probe_.event(telemetry::EventType::kOpTimeout, sim_.now().raw(),
                     id);
        expire();
    });
}

void
DeadlineTable::disarm(std::uint64_t id)
{
    armed_.erase(id);
}

// ---------------------------------------------------------------------------
// FailureTracker
// ---------------------------------------------------------------------------

FailureTracker::FailureTracker(std::uint32_t width, std::uint32_t redundancy)
    : width_(width), redundancy_(redundancy), failedAt_(width, -1)
{
}

bool
FailureTracker::recordFailure(std::uint32_t device, sim::Ticks tick,
                              bool already_journaled)
{
    if (device >= width_ || failedAt_[device] >= 0)
        return false;
    failedAt_[device] = static_cast<std::int64_t>(tick.raw());
    ++active_;
    if (!already_journaled) {
        probe_.event(telemetry::EventType::kDriveFailed, tick.raw(), device,
                     active_);
    }
    if (active_ > redundancy_ && !dataLoss_) {
        dataLoss_ = true;
        probe_.event(telemetry::EventType::kDataLoss, tick.raw(), device, 0);
    }
    return true;
}

void
FailureTracker::recordRebuilt(std::uint32_t device, sim::Ticks tick)
{
    if (device >= width_ || failedAt_[device] < 0)
        return;
    exposure_.push_back(tick.raw() - failedAt_[device]);
    failedAt_[device] = -1;
    --active_;
}

void
FailureTracker::recordStripeLoss(std::uint64_t stripe, sim::Ticks tick)
{
    // One DataLoss record per distinct stripe keeps the journal readable
    // when a rebuild retries the same bad stripe back to back.
    const bool duplicate = lostStripes_ > 0 && stripe == lastLostStripe_;
    if (!duplicate)
        ++lostStripes_;
    lastLostStripe_ = stripe;
    dataLoss_ = true;
    if (!duplicate)
        probe_.event(telemetry::EventType::kDataLoss, tick.raw(), stripe, 1);
}

std::vector<std::uint32_t>
FailureTracker::failedDevices() const
{
    std::vector<std::uint32_t> out;
    for (std::uint32_t d = 0; d < width_; ++d) {
        if (failedAt_[d] >= 0)
            out.push_back(d);
    }
    return out;
}

sim::Ticks
FailureTracker::openExposure(sim::Ticks now) const
{
    sim::Ticks open;
    for (std::uint32_t d = 0; d < width_; ++d) {
        if (failedAt_[d] >= 0)
            open = std::max(open, now - sim::Ticks{failedAt_[d]});
    }
    return open;
}

} // namespace draid::core
