// sim::DeadlineQueue: the arm/disarm/re-arm contract of the host's
// deadline table (§5.4 explicit timeouts), and a differential check that
// every expiry lands where a per-deadline engine event would have fired.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "sim/deadline_queue.h"
#include "sim/rng.h"
#include "sim/simulator.h"

using draid::sim::DeadlineQueue;
using draid::sim::Rng;
using draid::sim::Simulator;
using draid::sim::Tick;
using draid::sim::Ticks;

TEST(DeadlineTable, FiresAfterDelay)
{
    Simulator sim;
    bool fired = false;
    DeadlineQueue q(sim, Ticks{1000}, "deadline",
                    [&](std::uint64_t id) { fired = id == 1; });
    const DeadlineQueue::Handle h = q.arm(1);
    sim.runUntil(Ticks{999});
    EXPECT_FALSE(fired);
    sim.run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(sim.now(), Ticks{1000});
    EXPECT_EQ(q.expiredCount(), 1u);
    EXPECT_FALSE(q.isArmed(h));
}

TEST(DeadlineTable, DisarmPreventsFiring)
{
    Simulator sim;
    bool fired = false;
    DeadlineQueue q(sim, Ticks{1000}, "deadline",
                    [&](std::uint64_t) { fired = true; });
    q.disarm(q.arm(1));
    sim.run();
    EXPECT_FALSE(fired);
    EXPECT_EQ(q.expiredCount(), 0u);
}

TEST(DeadlineTable, ReArmSupersedes)
{
    // Re-arming is disarm + arm: only the second deadline expires, one
    // timeout after it was armed.
    Simulator sim;
    std::vector<Tick> fired;
    DeadlineQueue q(sim, Ticks{1000}, "deadline",
                    [&](std::uint64_t) { fired.push_back(sim.now().raw()); });
    const DeadlineQueue::Handle first = q.arm(1);
    sim.runUntil(Ticks{400});
    q.disarm(first);
    q.arm(1);
    sim.run();
    EXPECT_EQ(fired, std::vector<Tick>{1400});
    EXPECT_EQ(q.expiredCount(), 1u);
}

TEST(DeadlineTable, IndependentIds)
{
    Simulator sim;
    bool a = false, b = false;
    DeadlineQueue q(sim, Ticks{100}, "deadline", [&](std::uint64_t id) {
        (id == 1 ? a : b) = true;
    });
    const DeadlineQueue::Handle ha = q.arm(1);
    sim.runUntil(Ticks{50});
    q.arm(2);
    q.disarm(ha);
    sim.run();
    EXPECT_FALSE(a);
    EXPECT_TRUE(b);
}

TEST(DeadlineTable, DisarmAfterFiringIsNoOp)
{
    Simulator sim;
    int fired = 0;
    DeadlineQueue q(sim, Ticks{10}, "deadline",
                    [&](std::uint64_t) { ++fired; });
    const DeadlineQueue::Handle stale = q.arm(1);
    sim.run();
    q.disarm(stale); // must not crash or corrupt
    EXPECT_FALSE(q.isArmed(stale));
    // The expired entry's slot is reused; the stale handle must not
    // reach the deadline now in it.
    const DeadlineQueue::Handle next = q.arm(2);
    q.disarm(stale);
    EXPECT_TRUE(q.isArmed(next));
    sim.run();
    EXPECT_EQ(fired, 2);
}

TEST(DeadlineTable, IdReusableAfterExpiry)
{
    Simulator sim;
    int fired = 0;
    DeadlineQueue q(sim, Ticks{10}, "deadline",
                    [&](std::uint64_t) { ++fired; });
    q.arm(1);
    sim.run();
    q.arm(1);
    sim.run();
    EXPECT_EQ(fired, 2);
}

TEST(DeadlineQueue, KeepsOneEventPendingAndRunsNoDisarmedDeadline)
{
    Simulator sim;
    DeadlineQueue q(sim, Ticks{1000}, "deadline",
                    [](std::uint64_t) { FAIL() << "disarmed deadline ran"; });
    std::vector<DeadlineQueue::Handle> handles;
    for (std::uint64_t i = 0; i < 100; ++i) {
        handles.push_back(q.arm(i));
        sim.runFor(Ticks{5});
    }
    EXPECT_EQ(sim.pendingEvents(), 1u);
    for (const DeadlineQueue::Handle &h : handles) {
        EXPECT_TRUE(q.isArmed(h));
        q.disarm(h);
        EXPECT_FALSE(q.isArmed(h));
    }
    sim.run();
    // The one event, due at the first deadline, finds nothing to expire.
    EXPECT_EQ(sim.eventsExecuted(), 1u);
    EXPECT_EQ(sim.now(), Ticks{1000});
}

namespace {

/**
 * The reference the queue must match: one engine event per arm, scheduled
 * when it is armed, that does nothing once disarmed.
 */
class PerIdDeadlines
{
  public:
    using Handle = std::size_t;

    PerIdDeadlines(Simulator &sim, Ticks timeout, const char *label,
                   std::function<void(std::uint64_t)> expire)
        : sim_(sim), timeout_(timeout), label_(label),
          expire_(std::move(expire))
    {
    }

    Handle
    arm(std::uint64_t id)
    {
        const Handle h = live_.size();
        live_.push_back(true);
        sim_.schedule(timeout_, label_, [this, h, id]() {
            if (!live_[h])
                return;
            live_[h] = false;
            expire_(id);
        });
        return h;
    }

    void disarm(Handle h) { live_[h] = false; }

  private:
    Simulator &sim_;
    Ticks timeout_;
    const char *label_;
    std::function<void(std::uint64_t)> expire_;
    std::vector<bool> live_;
};

/** One callback of a script run: its tick and what ran. */
struct Fired
{
    Tick tick;
    char kind; ///< 'a'/'b': an expiry of queue A/B; 'f': a foreign event
    std::uint64_t id;

    bool operator==(const Fired &) const = default;
};

/**
 * Drive two deadline owners of different timeouts and a stream of
 * foreign events from one seed: several arms at one tick, random
 * disarms, expiries that arm again, foreign events due exactly at
 * deadline ticks, stop() and runUntil() resumption. Returns every
 * callback in firing order. With @p check_depth set, also checks that
 * the engine never holds more than the pending foreign events plus one
 * event per owner.
 */
template <typename Deadlines>
std::vector<Fired>
runScript(std::uint64_t seed, bool check_depth)
{
    Simulator sim;
    Rng rng(seed);
    std::vector<Fired> log;
    std::uint64_t next_id = 0;
    std::uint64_t foreign_pending = 0;
    std::uint64_t budget = 3000;
    std::map<std::uint64_t, std::pair<int, typename Deadlines::Handle>>
        live; // id -> (owner, handle)
    std::vector<Deadlines *> owners;
    const Ticks timeouts[] = {Ticks{1000}, Ticks{1500}};
    std::function<void(std::uint64_t)> foreign_body;

    const auto depth_ok = [&]() {
        return !check_depth ||
               sim.pendingEvents() <= foreign_pending + owners.size();
    };
    const auto arm = [&](int owner) {
        const std::uint64_t id = next_id++;
        live[id] = {owner, owners[owner]->arm(id)};
    };
    const auto foreign = [&](Ticks delay) {
        const std::uint64_t id = next_id++;
        ++foreign_pending;
        sim.schedule(delay, "foreign", [&, id]() { foreign_body(id); });
    };
    // One random step, run from every callback.
    const auto step = [&]() {
        EXPECT_TRUE(depth_ok());
        if (rng.nextBool(0.03))
            sim.stop();
        for (std::uint64_t n = rng.nextBounded(4); n > 0 && budget > 0;
             --n, --budget) {
            const int owner = static_cast<int>(rng.nextBounded(2));
            switch (rng.nextBounded(7)) {
            case 0: // several arms at one tick
                for (int k = 0; k < 3; ++k)
                    arm(owner);
                break;
            case 1: // a foreign event at the tick an arm is due
                if (rng.nextBool(0.5)) {
                    foreign(timeouts[owner]);
                    arm(owner);
                } else {
                    arm(owner);
                    foreign(timeouts[owner]);
                }
                break;
            case 2:
                arm(owner);
                break;
            case 3: // disarm a random live deadline
            case 4:
                if (!live.empty()) {
                    auto it = live.begin();
                    std::advance(it, rng.nextBounded(live.size()));
                    owners[it->second.first]->disarm(it->second.second);
                    live.erase(it);
                }
                break;
            case 5:
                foreign(Ticks{rng.nextRange(0, 2000)});
                break;
            default:
                foreign(Ticks::zero());
            }
        }
    };
    foreign_body = [&](std::uint64_t id) {
        --foreign_pending;
        log.push_back({sim.now().raw(), 'f', id});
        step();
    };
    const auto expiry = [&](int owner) {
        return [&, owner](std::uint64_t id) {
            auto it = live.find(id);
            EXPECT_TRUE(it != live.end()) << "expired a disarmed deadline";
            if (it != live.end()) {
                EXPECT_EQ(it->second.first, owner);
                live.erase(it);
            }
            log.push_back({sim.now().raw(), owner == 0 ? 'a' : 'b', id});
            if (rng.nextBool(0.3)) // arm again from the expiry
                arm(static_cast<int>(rng.nextBounded(2)));
            step();
        };
    };
    Deadlines a(sim, timeouts[0], "deadline.a", expiry(0));
    Deadlines b(sim, timeouts[1], "deadline.b", expiry(1));
    owners = {&a, &b};

    for (int i = 0; i < 8; ++i)
        step();
    Rng control(seed + 1000);
    while (foreign_pending > 0 || !live.empty()) {
        EXPECT_TRUE(depth_ok());
        if (control.nextBool(0.5))
            sim.run();
        else
            sim.runUntil(sim.now() + Ticks{control.nextRange(0, 3000)});
    }
    sim.run(); // what is left can only be events that expire nothing
    return log;
}

} // namespace

TEST(DeadlineQueue, ExpiresWherePerDeadlineEventsWouldFire)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        const std::vector<Fired> want =
            runScript<PerIdDeadlines>(seed, false);
        const std::vector<Fired> got = runScript<DeadlineQueue>(seed, true);
        std::size_t expiries = 0;
        for (const Fired &f : want)
            expiries += f.kind != 'f';
        EXPECT_GT(expiries, 50u) << "seed " << seed;
        ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
        for (std::size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(got[i], want[i])
                << "seed " << seed << " callback " << i << ": got "
                << got[i].kind << got[i].id << " at " << got[i].tick
                << ", want " << want[i].kind << want[i].id << " at "
                << want[i].tick;
        }
    }
}
