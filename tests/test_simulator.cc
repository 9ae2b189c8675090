// Simulator core: event ordering, determinism, run control.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sim/rng.h"
#include "sim/simulator.h"

using namespace draid::sim;

TEST(Simulator, StartsAtTimeZero)
{
    Simulator sim;
    EXPECT_EQ(sim.now().raw(), 0);
    EXPECT_EQ(sim.eventsExecuted(), 0u);
}

TEST(Simulator, ExecutesEventAtScheduledTime)
{
    Simulator sim;
    Tick fired_at = -1;
    sim.schedule(Ticks{1000}, [&]() { fired_at = sim.now().raw(); });
    sim.run();
    EXPECT_EQ(fired_at, 1000);
    EXPECT_EQ(sim.now().raw(), 1000);
}

TEST(Simulator, EventsFireInTimeOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule(Ticks{300}, [&]() { order.push_back(3); });
    sim.schedule(Ticks{100}, [&]() { order.push_back(1); });
    sim.schedule(Ticks{200}, [&]() { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, SameTickEventsFireFifo)
{
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        sim.schedule(Ticks{50}, [&order, i]() { order.push_back(i); });
    sim.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(Simulator, NestedSchedulingWorks)
{
    Simulator sim;
    Tick second = -1;
    sim.schedule(Ticks{10}, [&]() {
        sim.schedule(Ticks{5}, [&]() { second = sim.now().raw(); });
    });
    sim.run();
    EXPECT_EQ(second, 15);
}

TEST(Simulator, ZeroDelayFiresAtCurrentTime)
{
    Simulator sim;
    bool fired = false;
    sim.schedule(Ticks{100}, [&]() {
        sim.schedule(Ticks{0}, [&]() { fired = true; });
    });
    sim.run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(sim.now().raw(), 100);
}

TEST(Simulator, RunUntilStopsAtDeadline)
{
    Simulator sim;
    int fired = 0;
    sim.schedule(Ticks{100}, [&]() { ++fired; });
    sim.schedule(Ticks{200}, [&]() { ++fired; });
    sim.runUntil(Ticks{150});
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now().raw(), 150);
    sim.run();
    EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilAdvancesClockWhenQueueDrains)
{
    Simulator sim;
    sim.runUntil(Ticks{5000});
    EXPECT_EQ(sim.now().raw(), 5000);
}

TEST(Simulator, StopHaltsExecution)
{
    Simulator sim;
    int fired = 0;
    sim.schedule(Ticks{10}, [&]() {
        ++fired;
        sim.stop();
    });
    sim.schedule(Ticks{20}, [&]() { ++fired; });
    sim.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.pendingEvents(), 1u);
    sim.run(); // resumes
    EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunForAdvancesRelative)
{
    Simulator sim;
    sim.runFor(Ticks{100});
    sim.runFor(Ticks{100});
    EXPECT_EQ(sim.now().raw(), 200);
}

TEST(Simulator, CountsExecutedEvents)
{
    Simulator sim;
    for (int i = 0; i < 25; ++i)
        sim.schedule(Ticks{i}, []() {});
    sim.run();
    EXPECT_EQ(sim.eventsExecuted(), 25u);
}

TEST(Simulator, SameTickFifoStressInterleavedScheduleVariants)
{
    // Interleave relative schedule(), absolute scheduleAt(), labeled and
    // unlabeled overloads at scale; within a tick, execution must follow
    // scheduling order exactly, regardless of which overload queued the
    // event or how deep the same-tick batches get.
    constexpr int kTicks = 64;
    constexpr int kPerTick = 256;
    Simulator sim;
    std::vector<std::pair<Tick, int>> fired;
    fired.reserve(static_cast<std::size_t>(kTicks) * kPerTick);
    int seq = 0;
    // Round-robin across ticks so the heap interleaves ticks maximally.
    for (int j = 0; j < kPerTick; ++j) {
        for (int t = 0; t < kTicks; ++t) {
            const Tick when = 10 * (t + 1);
            const int id = seq++;
            auto fn = [&fired, &sim, id]() {
                fired.emplace_back(sim.now().raw(), id);
            };
            switch (id % 4) {
            case 0: sim.schedule(Ticks{when}, std::move(fn)); break;
            case 1: sim.schedule(Ticks{when}, "stress.rel", std::move(fn)); break;
            case 2: sim.scheduleAt(Ticks{when}, std::move(fn)); break;
            default: sim.scheduleAt(Ticks{when}, "stress.abs", std::move(fn));
            }
        }
    }
    sim.run();
    ASSERT_EQ(fired.size(), static_cast<std::size_t>(kTicks) * kPerTick);
    // Ticks are non-decreasing, and ids within one tick strictly increase
    // in scheduling order.
    std::vector<int> perTickCount(kTicks, 0);
    for (std::size_t i = 1; i < fired.size(); ++i) {
        EXPECT_GE(fired[i].first, fired[i - 1].first);
        if (fired[i].first == fired[i - 1].first) {
            EXPECT_GT(fired[i].second, fired[i - 1].second) << "at " << i;
        }
    }
    for (const auto &[when, id] : fired) {
        EXPECT_EQ(when, 10 * (id % kTicks + 1));
        ++perTickCount[id % kTicks];
    }
    for (int t = 0; t < kTicks; ++t)
        EXPECT_EQ(perTickCount[t], kPerTick);
}

TEST(Simulator, ExecutedPlusPendingIsConserved)
{
    // eventsExecuted() + pendingEvents() must equal total scheduled at
    // every quiescent point, including while same-tick batches are only
    // partially drained (events scheduling more events).
    Simulator sim;
    std::uint64_t totalScheduled = 0;
    const auto conserved = [&]() {
        return sim.eventsExecuted() + sim.pendingEvents() == totalScheduled;
    };
    for (int i = 0; i < 100; ++i) {
        sim.schedule(Ticks{i % 7}, [&]() {
            EXPECT_TRUE(conserved());
            // Fan out from inside a batch: these land on later ticks and
            // on this very tick (delay 0) while the batch is mid-drain.
            for (int k = 0; k < 3; ++k) {
                sim.schedule(Ticks{k}, [&]() { EXPECT_TRUE(conserved()); });
                ++totalScheduled;
            }
        });
        ++totalScheduled;
    }
    EXPECT_EQ(sim.pendingEvents(), 100u);
    sim.run();
    EXPECT_EQ(sim.eventsExecuted(), totalScheduled);
    EXPECT_EQ(sim.pendingEvents(), 0u);
    EXPECT_EQ(totalScheduled, 400u);
}

TEST(Simulator, StopMidBatchKeepsSameTickLeftoversPending)
{
    // stop() from inside a same-tick batch must leave the rest of the
    // batch pending (counted by pendingEvents) and a later run() must
    // execute the leftovers in the original FIFO order.
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        sim.schedule(Ticks{10}, [&sim, &order, i]() {
            order.push_back(i);
            if (i == 2)
                sim.stop();
        });
    sim.schedule(Ticks{20}, [&order]() { order.push_back(100); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(sim.now().raw(), 10);
    EXPECT_EQ(sim.eventsExecuted(), 3u);
    EXPECT_EQ(sim.pendingEvents(), 6u); // 5 same-tick leftovers + tick 20
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 100}));
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(Simulator, RunUntilDoesNotExecuteLeftoverBatchPastDeadline)
{
    // A stop() at tick T leaves same-tick leftovers; resuming with
    // runUntil(deadline < T) must execute none of them and must not move
    // the clock backwards.
    Simulator sim;
    int fired = 0;
    for (int i = 0; i < 4; ++i)
        sim.schedule(Ticks{100}, [&sim, &fired, i]() {
            ++fired;
            if (i == 0)
                sim.stop();
        });
    sim.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now().raw(), 100);
    sim.runUntil(Ticks{50});
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now().raw(), 100);
    EXPECT_EQ(sim.pendingEvents(), 3u);
    sim.runUntil(Ticks{100});
    EXPECT_EQ(fired, 4);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(Simulator, LabeledOverloadsDoNotChangeSemantics)
{
    // The label is attribution-only: two simulators running the same
    // schedule, one labeled and one not, must agree on clock, order, and
    // counters.
    const auto drive = [](Simulator &sim, bool labeled,
                          std::vector<Tick> &ticks) {
        for (int i = 0; i < 32; ++i) {
            auto fn = [&ticks, &sim]() { ticks.push_back(sim.now().raw()); };
            if (labeled)
                sim.schedule(Ticks{i * 3 % 17}, "labeled", std::move(fn));
            else
                sim.schedule(Ticks{i * 3 % 17}, std::move(fn));
        }
        sim.run();
    };
    Simulator plain;
    Simulator tagged;
    std::vector<Tick> plainTicks;
    std::vector<Tick> taggedTicks;
    drive(plain, false, plainTicks);
    drive(tagged, true, taggedTicks);
    EXPECT_EQ(plainTicks, taggedTicks);
    EXPECT_EQ(plain.now().raw(), tagged.now().raw());
    EXPECT_EQ(plain.eventsExecuted(), tagged.eventsExecuted());
}

TEST(Simulator, HeapAndLaneEventsAtOneTickFireInSchedulingOrder)
{
    // The lane takes every event not earlier than its tail: the first two
    // tick-100 events and the tick-300 one go there; the later tick-100
    // and tick-200 events are earlier than the tail and go to the heap.
    // At tick 100 both hold events, and the drain must merge them in
    // scheduling order before the same-tick event the batch schedules.
    Simulator sim;
    std::vector<int> order;
    const auto at = [&](Tick when, int id) {
        sim.scheduleAt(Ticks{when}, [&order, id]() { order.push_back(id); });
    };
    at(100, 0);
    at(100, 1);
    at(300, 2);
    at(100, 3);
    at(200, 4);
    at(100, 5);
    sim.scheduleAt(Ticks{100}, [&]() {
        order.push_back(6);
        sim.schedule(Ticks::zero(), [&order]() { order.push_back(7); });
    });
    EXPECT_EQ(sim.pendingEvents(), 7u);
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 3, 5, 6, 7, 4, 2}));
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(Simulator, FiredHeapClosureIsReleasedBeforeTheNextEvent)
{
    // The tick-300 event holds the lane tail, so the tick-100 events go
    // to the heap. A fired closure must not outlive its call: the next
    // event of the same batch, and of a later batch, sees the sentinel
    // it captured already released.
    Simulator sim;
    auto sentinel = std::make_shared<int>(0);
    std::vector<long> seen;
    const auto check = [&]() { seen.push_back(sentinel.use_count()); };
    sim.scheduleAt(Ticks{300}, [] {});
    sim.scheduleAt(Ticks{100}, [token = sentinel] {});
    sim.scheduleAt(Ticks{100}, check);
    sim.scheduleAt(Ticks{150}, check);
    EXPECT_EQ(sentinel.use_count(), 2);
    sim.run();
    EXPECT_EQ(seen, (std::vector<long>{1, 1}));
}

TEST(Simulator, DestroyingPendingEventsReleasesTheirClosures)
{
    // Events still pending when the simulator goes away, in the lane, in
    // the heap and left in a stopped batch, are destroyed with it.
    auto sentinel = std::make_shared<int>(0);
    {
        Simulator sim;
        sim.scheduleAt(Ticks{10}, [&sim] { sim.stop(); });
        sim.scheduleAt(Ticks{10}, [token = sentinel] {}); // batch leftover
        sim.scheduleAt(Ticks{500}, [token = sentinel] {}); // lane
        sim.scheduleAt(Ticks{200}, [token = sentinel] {}); // heap
        sim.run();
        EXPECT_EQ(sim.pendingEvents(), 3u);
        EXPECT_EQ(sentinel.use_count(), 4);
    }
    EXPECT_EQ(sentinel.use_count(), 1);
}

TEST(Simulator, SeededScheduleFiresInWhenSeqOrder)
{
    // Differential check of the heap + lane engine against the reference
    // order: every event fires exactly once, at its tick, and the whole
    // firing sequence is sorted by (when, scheduling order). The mix
    // covers fixed long-delay timers (per-op deadlines), far-future
    // one-off events that hold up the lane tail, zero-delay and same-tick
    // events, events scheduled from callbacks, stop() and runUntil()
    // resumption; eventsExecuted() + pendingEvents() must equal the
    // events scheduled so far at every callback and every resumption.
    // Callbacks also schedule descending bursts (heap pushes earlier
    // than the lane tail) while fired events free their slots, so every
    // closure carries a token: a reused slot must run the closure it was
    // given, and a fired closure must be released by the next event.
    // Reserved events take their seq with reserveSeq() and are scheduled
    // later by a carrier event that fires before they are due, some at
    // their own tick (so they join the running batch), yet must fire
    // where an event scheduled at reservation time would have.
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Simulator sim;
        Rng rng(seed);
        std::vector<Tick> scheduledAt; // event id (= seq) -> tick
        std::vector<std::pair<Tick, std::uint64_t>> fired;
        std::vector<std::weak_ptr<const std::uint64_t>> tokens; // by id
        std::uint64_t budget = 4000;
        std::function<void(std::uint64_t, std::uint64_t)> body;
        // Carrier id -> the reserved events it schedules when it fires.
        std::map<std::uint64_t, std::vector<std::pair<std::uint64_t, EventFn>>>
            carried;
        std::uint64_t held = 0; // reserved events not scheduled yet
        const auto closure = [&](Tick when) {
            const std::uint64_t id = scheduledAt.size();
            scheduledAt.push_back(when);
            auto token = std::make_shared<const std::uint64_t>(id);
            tokens.push_back(token);
            return EventFn([&body, id, token = std::move(token)]() {
                body(id, *token);
            });
        };
        const auto add = [&](Tick when) {
            const std::uint64_t id = scheduledAt.size();
            EventFn fn = closure(when);
            if (rng.nextBool(0.5))
                sim.scheduleAt(Ticks{when}, "diff", std::move(fn));
            else
                sim.schedule(Ticks{when - sim.now().raw()}, std::move(fn));
            return id;
        };
        const auto reserve = [&](Tick when) {
            const Tick carry_at = rng.nextBool(0.5)
                                      ? when
                                      : rng.nextRange(sim.now().raw(), when);
            // A carrier due at the reserved tick must come first in seq.
            const std::uint64_t early = carry_at == when ? add(carry_at) : 0;
            const std::uint64_t seq = sim.reserveSeq();
            EXPECT_EQ(seq, scheduledAt.size());
            EventFn fn = closure(when);
            const std::uint64_t carrier =
                carry_at == when ? early : add(carry_at);
            carried[carrier].emplace_back(seq, std::move(fn));
            ++held;
        };
        const auto conserved = [&]() {
            return sim.eventsExecuted() + sim.pendingEvents() + held ==
                   scheduledAt.size();
        };
        body = [&](std::uint64_t id, std::uint64_t token) {
            EXPECT_EQ(token, id);
            if (auto it = carried.find(id); it != carried.end()) {
                for (auto &[seq, fn] : it->second) {
                    sim.scheduleAt(Ticks{scheduledAt[seq]}, seq, "reserved",
                                   std::move(fn));
                    --held;
                }
                carried.erase(it);
            }
            if (!fired.empty()) {
                EXPECT_TRUE(tokens[fired.back().second].expired());
            }
            fired.emplace_back(sim.now().raw(), id);
            EXPECT_TRUE(conserved());
            if (rng.nextBool(0.02))
                sim.stop();
            const Tick now = sim.now().raw();
            for (std::uint64_t n = rng.nextBounded(4); n > 0 && budget > 0;
                 --n, --budget) {
                switch (rng.nextBounded(7)) {
                case 0: add(now + 50'000); break;   // fixed deadline
                case 1: add(now + 5'000'000 +       // far-future one-off
                            static_cast<Tick>(rng.nextBounded(1000))); break;
                case 2: add(now); break;            // zero delay
                case 3: add(now + rng.nextRange(1, 200)); break;
                case 4:                             // descending burst
                    for (Tick d = 40; d > 0 && budget > 1; d -= 10, --budget)
                        add(now + d);
                    break;
                case 5: add((now / 100 + 1) * 100); break; // shared tick
                default: reserve(now + rng.nextRange(0, 300));
                }
            }
        };
        for (int i = 0; i < 64; ++i)
            add(rng.nextRange(0, 1000));
        while (sim.pendingEvents() > 0) {
            EXPECT_TRUE(conserved());
            if (rng.nextBool(0.5))
                sim.run();
            else
                sim.runUntil(sim.now() +
                             Ticks{rng.nextRange(0, 20'000)});
        }
        ASSERT_EQ(fired.size(), scheduledAt.size()) << "seed " << seed;
        for (const auto &token : tokens)
            EXPECT_TRUE(token.expired());
        for (std::size_t i = 0; i < fired.size(); ++i) {
            EXPECT_EQ(fired[i].first, scheduledAt[fired[i].second]);
            if (i > 0) {
                ASSERT_LT(fired[i - 1], fired[i])
                    << "seed " << seed << " at " << i;
            }
        }
        EXPECT_EQ(sim.eventsExecuted(), scheduledAt.size());
    }
}

TEST(SimulatorTime, ConversionHelpers)
{
    EXPECT_DOUBLE_EQ(toSeconds(kSecond), 1.0);
    EXPECT_DOUBLE_EQ(toMicros(kMicrosecond), 1.0);
    EXPECT_EQ(fromSeconds(1.5), 3 * kSecond / 2);
    EXPECT_EQ(fromSeconds(0.0), 0);
}
