#include "raid/stripe_lock.h"

#include <cassert>
#include <utility>

namespace draid::raid {

void
StripeLockTable::acquire(std::uint64_t stripe, Grant granted)
{
    auto &st = locks_[stripe];
    if (!st.held) {
        st.held = true;
        granted();
        return;
    }
    ++contended_;
    st.waiters.push_back(std::move(granted));
    // Two or more ops queued behind the holder is a convoy forming; one
    // waiter is routine serialization.
    if (probe_.attached() && st.waiters.size() >= 2) {
        probe_.event(telemetry::EventType::kStripeLockConvoy, now_(), stripe,
                     st.waiters.size());
    }
}

void
StripeLockTable::attach(telemetry::Probe probe,
                        std::function<sim::Tick()> now)
{
    probe_ = probe;
    now_ = std::move(now);
}

void
StripeLockTable::release(std::uint64_t stripe)
{
    auto it = locks_.find(stripe);
    assert(it != locks_.end() && it->second.held);
    auto &st = it->second;
    if (st.waiters.empty()) {
        locks_.erase(it);
        return;
    }
    Grant next = std::move(st.waiters.front());
    st.waiters.pop_front();
    // Lock stays held; ownership transfers to the waiter.
    next();
}

bool
StripeLockTable::isLocked(std::uint64_t stripe) const
{
    auto it = locks_.find(stripe);
    return it != locks_.end() && it->second.held;
}

} // namespace draid::raid
