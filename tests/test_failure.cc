// DeadlineTable: arm/disarm/re-arm semantics (§5.4 explicit timeouts).
// FailureTracker: multi-failure ordering and data-loss promotion.

#include <gtest/gtest.h>

#include <vector>

#include "core/failure.h"
#include "sim/simulator.h"
#include "telemetry/event_journal.h"
#include "telemetry/probe.h"
#include "telemetry/telemetry.h"

using draid::core::DeadlineTable;
using draid::core::FailureTracker;
using draid::sim::Simulator;
using draid::sim::Ticks;
using draid::telemetry::EventJournal;
using draid::telemetry::EventType;
using draid::telemetry::Probe;
using draid::telemetry::Telemetry;

TEST(DeadlineTable, FiresAfterDelay)
{
    Simulator sim;
    DeadlineTable t(sim);
    bool fired = false;
    t.arm(1, Ticks{1000}, [&]() { fired = true; });
    sim.runUntil(Ticks{999});
    EXPECT_FALSE(fired);
    sim.run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(t.expiredCount(), 1u);
    EXPECT_FALSE(t.isArmed(1));
}

TEST(DeadlineTable, DisarmPreventsFiring)
{
    Simulator sim;
    DeadlineTable t(sim);
    bool fired = false;
    t.arm(1, Ticks{1000}, [&]() { fired = true; });
    t.disarm(1);
    sim.run();
    EXPECT_FALSE(fired);
    EXPECT_EQ(t.expiredCount(), 0u);
}

TEST(DeadlineTable, ReArmSupersedes)
{
    Simulator sim;
    DeadlineTable t(sim);
    int fired = 0;
    t.arm(1, Ticks{1000}, [&]() { fired = 1; });
    t.arm(1, Ticks{5000}, [&]() { fired = 2; });
    sim.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(t.expiredCount(), 1u);
}

TEST(DeadlineTable, IndependentIds)
{
    Simulator sim;
    DeadlineTable t(sim);
    bool a = false, b = false;
    t.arm(1, Ticks{100}, [&]() { a = true; });
    t.arm(2, Ticks{200}, [&]() { b = true; });
    t.disarm(1);
    sim.run();
    EXPECT_FALSE(a);
    EXPECT_TRUE(b);
}

TEST(DeadlineTable, DisarmAfterFiringIsNoOp)
{
    Simulator sim;
    DeadlineTable t(sim);
    t.arm(1, Ticks{10}, []() {});
    sim.run();
    t.disarm(1); // must not crash or corrupt
    EXPECT_FALSE(t.isArmed(1));
}

TEST(DeadlineTable, IdReusableAfterExpiry)
{
    Simulator sim;
    DeadlineTable t(sim);
    int fired = 0;
    t.arm(1, Ticks{10}, [&]() { ++fired; });
    sim.run();
    t.arm(1, Ticks{10}, [&]() { ++fired; });
    sim.run();
    EXPECT_EQ(fired, 2);
}

// Two DriveFailed in the same tick on a RAID-5 array: the second must
// promote to data loss, and the journal must carry the exact ordered
// record of what happened.
TEST(FailureTracker, SameTickDualFailurePromotesToDataLoss)
{
    Telemetry tel;
    EventJournal &journal = tel.journal();
    FailureTracker t(4, 1);
    t.attach(Probe(tel, 0));

    EXPECT_TRUE(t.recordFailure(0, Ticks{500}));
    EXPECT_FALSE(t.dataLoss());
    EXPECT_TRUE(t.recordFailure(2, Ticks{500}));
    EXPECT_TRUE(t.dataLoss());
    EXPECT_EQ(t.activeFailures(), 2u);

    const std::vector<EventJournal::Event> ev = journal.snapshot();
    ASSERT_EQ(ev.size(), 3u);
    EXPECT_EQ(ev[0].type, EventType::kDriveFailed);
    EXPECT_EQ(ev[0].tick, 500);
    EXPECT_EQ(ev[0].a, 0u); // device 0
    EXPECT_EQ(ev[0].b, 1u); // one active failure
    EXPECT_EQ(ev[1].type, EventType::kDriveFailed);
    EXPECT_EQ(ev[1].tick, 500);
    EXPECT_EQ(ev[1].a, 2u); // device 2
    EXPECT_EQ(ev[1].b, 2u); // two active failures
    EXPECT_EQ(ev[2].type, EventType::kDataLoss);
    EXPECT_EQ(ev[2].tick, 500);
    EXPECT_EQ(ev[2].a, 2u); // the device that tipped the array over
    EXPECT_EQ(ev[2].b, 0u); // b = 0: drive-level loss
}

// A second failure while the first is still rebuilding (exposure window
// open) is the classic correlated-failure data-loss path. The journal
// must read DriveFailed / RebuildStarted / DriveFailed / DataLoss.
TEST(FailureTracker, FailureDuringRebuildPromotesToDataLoss)
{
    Telemetry tel;
    EventJournal &journal = tel.journal();
    FailureTracker t(4, 1);
    t.attach(Probe(tel, 0));

    EXPECT_TRUE(t.recordFailure(1, Ticks{1000}));
    // The rebuild orchestrator (not the tracker) journals the start.
    journal.record(EventType::kRebuildStarted, 0, 1200, 24, 65536);
    EXPECT_TRUE(t.recordFailure(3, Ticks{1500}));
    EXPECT_TRUE(t.dataLoss());

    const std::vector<EventJournal::Event> ev = journal.snapshot();
    ASSERT_EQ(ev.size(), 4u);
    EXPECT_EQ(ev[0].type, EventType::kDriveFailed);
    EXPECT_EQ(ev[0].a, 1u);
    EXPECT_EQ(ev[1].type, EventType::kRebuildStarted);
    EXPECT_EQ(ev[2].type, EventType::kDriveFailed);
    EXPECT_EQ(ev[2].a, 3u);
    EXPECT_EQ(ev[3].type, EventType::kDataLoss);
    EXPECT_EQ(ev[3].tick, 1500);
    EXPECT_EQ(ev[3].a, 3u);
}

// RAID-6 redundancy: two concurrent failures survive, the third loses.
TEST(FailureTracker, RedundancyTwoSurvivesDualFailure)
{
    FailureTracker t(6, 2);
    EXPECT_TRUE(t.recordFailure(0, Ticks{10}));
    EXPECT_TRUE(t.recordFailure(1, Ticks{20}));
    EXPECT_FALSE(t.dataLoss());
    EXPECT_TRUE(t.recordFailure(2, Ticks{30}));
    EXPECT_TRUE(t.dataLoss());
}

TEST(FailureTracker, DuplicateFailureIsNoOp)
{
    Telemetry tel;
    EventJournal &journal = tel.journal();
    FailureTracker t(4, 1);
    t.attach(Probe(tel, 0));
    EXPECT_TRUE(t.recordFailure(0, Ticks{100}));
    EXPECT_FALSE(t.recordFailure(0, Ticks{200}));
    EXPECT_EQ(t.activeFailures(), 1u);
    EXPECT_FALSE(t.dataLoss());
    EXPECT_EQ(journal.snapshot().size(), 1u);
}

TEST(FailureTracker, RebuiltClosesExposureWindow)
{
    FailureTracker t(4, 1);
    EXPECT_TRUE(t.recordFailure(2, Ticks{1000}));
    EXPECT_EQ(t.openExposure(Ticks{4000}).raw(), 3000);
    t.recordRebuilt(2, Ticks{5000});
    ASSERT_EQ(t.exposureWindows().size(), 1u);
    EXPECT_EQ(t.exposureWindows()[0], 4000);
    EXPECT_EQ(t.activeFailures(), 0u);
    EXPECT_EQ(t.openExposure(Ticks{9000}).raw(), 0);
    // The device is eligible to fail again after the rebuild.
    EXPECT_TRUE(t.recordFailure(2, Ticks{6000}));
    EXPECT_FALSE(t.dataLoss());
}

TEST(FailureTracker, StripeLossJournalsOncePerStripe)
{
    Telemetry tel;
    EventJournal &journal = tel.journal();
    FailureTracker t(4, 1);
    t.attach(Probe(tel, 0));
    t.recordStripeLoss(7, Ticks{100});
    t.recordStripeLoss(7, Ticks{110}); // retry of the same stripe: dedup
    t.recordStripeLoss(9, Ticks{120});
    EXPECT_TRUE(t.dataLoss());
    EXPECT_EQ(t.lostStripes(), 2u);

    const std::vector<EventJournal::Event> ev = journal.snapshot();
    ASSERT_EQ(ev.size(), 2u);
    EXPECT_EQ(ev[0].type, EventType::kDataLoss);
    EXPECT_EQ(ev[0].a, 7u);
    EXPECT_EQ(ev[0].b, 1u); // b = 1: stripe-level loss
    EXPECT_EQ(ev[1].a, 9u);
}

TEST(FailureTracker, FailedDevicesSortedAscending)
{
    FailureTracker t(6, 2);
    EXPECT_TRUE(t.recordFailure(4, Ticks{10}));
    EXPECT_TRUE(t.recordFailure(1, Ticks{20}));
    const std::vector<std::uint32_t> failed = t.failedDevices();
    ASSERT_EQ(failed.size(), 2u);
    EXPECT_EQ(failed[0], 1u);
    EXPECT_EQ(failed[1], 4u);
}
