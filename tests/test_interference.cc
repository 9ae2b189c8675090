// Per-tenant contention attribution: exact blame splits on hand-built
// overlap fixtures, the sums-to-wait invariant under randomized load (the
// same exactness contract the critical-path analyzer carries), keyed
// stripe-lock holds, SLO burn windows, cardinality bounds, and the
// byte-identical double-run determinism of the exported JSON row.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "draid_test_util.h"
#include "sim/pipe.h"
#include "sim/rng.h"
#include "telemetry/interference.h"
#include "telemetry/lane_tap.h"
#include "telemetry/telemetry.h"
#include "workload/fio.h"

using namespace draid;
using namespace draid::testutil;

using telemetry::ContentionTracker;
using RK = ContentionTracker::ResourceKind;

namespace {

/** Tracker with two named tenants and one resource, ready to record. */
struct TwoTenantFixture
{
    ContentionTracker ct;
    telemetry::TenantId a = 0;
    telemetry::TenantId b = 0;
    ContentionTracker::ResourceId res = 0;

    explicit TwoTenantFixture(RK kind = RK::NicTx)
    {
        ct.setEnabled(true);
        a = ct.registerTenant("alice");
        b = ct.registerTenant("bob");
        res = ct.registerResource(/*node=*/1, kind);
        ct.noteOpStart(101, a);
        ct.noteOpStart(202, b);
    }
};

} // namespace

// --- hand-built overlap fixtures ---------------------------------------

TEST(Interference, FullOverlapBlamesTheOccupyingTenant)
{
    TwoTenantFixture f;
    // Alice occupies [0, 100); Bob arrives at 0 and is serviced at 100.
    f.ct.noteOccupancy(f.res, 101, 0, 100);
    f.ct.attributeWait(f.res, 202, 0, 100);

    EXPECT_EQ(f.ct.blameTicks(f.b, f.a, RK::NicTx), 100);
    EXPECT_EQ(f.ct.blameTicks(f.b, ContentionTracker::kUntracked), 0);
    EXPECT_EQ(f.ct.totalWaitTicks(), 100);
    EXPECT_EQ(f.ct.totalBlameTicks(), f.ct.totalWaitTicks());
    EXPECT_EQ(f.ct.waitedOps(), 1u);
    EXPECT_EQ(f.ct.dominantAggressor(f.b, RK::NicTx), f.a);
}

TEST(Interference, PartialCoverageChargesResidualToUntracked)
{
    TwoTenantFixture f;
    // Only [60, 100) of Bob's wait overlaps Alice's occupancy; the first
    // 60 ticks were consumed by something the tracker never saw.
    f.ct.noteOccupancy(f.res, 101, 60, 100);
    f.ct.attributeWait(f.res, 202, 0, 100);

    EXPECT_EQ(f.ct.blameTicks(f.b, f.a, RK::NicTx), 40);
    EXPECT_EQ(f.ct.blameTicks(f.b, ContentionTracker::kUntracked), 60);
    EXPECT_EQ(f.ct.totalBlameTicks(), f.ct.totalWaitTicks());
}

TEST(Interference, SplitBlameAcrossTwoAggressors)
{
    ContentionTracker ct;
    ct.setEnabled(true);
    const auto a = ct.registerTenant("a");
    const auto b = ct.registerTenant("b");
    const auto c = ct.registerTenant("c");
    const auto res = ct.registerResource(2, RK::SsdChannel);
    ct.noteOpStart(1, a);
    ct.noteOpStart(2, b);
    ct.noteOpStart(3, c);

    // a serves [0,70), b serves [70,100); c waits the whole [0,100).
    ct.noteOccupancy(res, 1, 0, 70);
    ct.noteOccupancy(res, 2, 70, 100);
    ct.attributeWait(res, 3, 0, 100);

    EXPECT_EQ(ct.blameTicks(c, a, RK::SsdChannel), 70);
    EXPECT_EQ(ct.blameTicks(c, b, RK::SsdChannel), 30);
    EXPECT_EQ(ct.totalBlameTicks(), ct.totalWaitTicks());
    EXPECT_EQ(ct.dominantAggressor(c, RK::SsdChannel), a);
}

TEST(Interference, SelfQueueingIsBlamedOnTheSameTenant)
{
    TwoTenantFixture f;
    f.ct.noteOpStart(102, f.a); // second op of the SAME tenant
    f.ct.noteOccupancy(f.res, 101, 0, 80);
    f.ct.attributeWait(f.res, 102, 0, 80);

    // Intra-tenant queueing is real wait; it lands on the tenant itself
    // so the row distinguishes self-inflicted pressure from interference.
    EXPECT_EQ(f.ct.blameTicks(f.a, f.a, RK::NicTx), 80);
    EXPECT_EQ(f.ct.totalBlameTicks(), f.ct.totalWaitTicks());
}

TEST(Interference, KeyedLockHoldOpenCloseAttributesToHolder)
{
    TwoTenantFixture f(RK::StripeLock);
    const std::uint64_t stripe = 7;

    // Alice granted at t=10 (open-ended hold), Bob arrives at 10.
    f.ct.openOccupancy(f.res, 101, 10, stripe);
    // Alice releases at 60; close precedes Bob's grant (release order).
    f.ct.closeOccupancy(f.res, 60, stripe);
    f.ct.attributeWait(f.res, 202, 10, 60, stripe);

    EXPECT_EQ(f.ct.blameTicks(f.b, f.a, RK::StripeLock), 50);
    EXPECT_EQ(f.ct.totalBlameTicks(), f.ct.totalWaitTicks());

    // A different stripe's segments must not bleed into this key.
    f.ct.noteOpStart(303, f.a);
    f.ct.openOccupancy(f.res, 303, 100, /*key=*/8);
    f.ct.closeOccupancy(f.res, 150, /*key=*/8);
    f.ct.attributeWait(f.res, 202, 140, 160, stripe);
    EXPECT_EQ(f.ct.blameTicks(f.b, f.a, RK::StripeLock), 50);
    EXPECT_EQ(f.ct.blameTicks(f.b, ContentionTracker::kUntracked), 20);
    EXPECT_EQ(f.ct.totalBlameTicks(), f.ct.totalWaitTicks());
}

TEST(Interference, NoWaitRecordsNothing)
{
    TwoTenantFixture f;
    f.ct.attributeWait(f.res, 202, 100, 100); // serviced immediately
    EXPECT_EQ(f.ct.totalWaitTicks(), 0);
    EXPECT_EQ(f.ct.waitedOps(), 0u);
}

// --- cardinality bounds -------------------------------------------------

TEST(Interference, TenantRegistryOverflowCollapsesToOther)
{
    ContentionTracker ct;
    ct.setEnabled(true);
    std::vector<telemetry::TenantId> ids;
    for (std::size_t i = 0; i < ContentionTracker::kMaxTenants + 5; ++i) {
        std::string name = "t";
        name += std::to_string(i);
        ids.push_back(ct.registerTenant(name));
    }

    // The first kMaxTenants get distinct ids; the rest share "other".
    for (std::size_t i = 0; i < ContentionTracker::kMaxTenants; ++i)
        EXPECT_EQ(ids[i], static_cast<telemetry::TenantId>(i + 1));
    const auto other = ids[ContentionTracker::kMaxTenants];
    for (std::size_t i = ContentionTracker::kMaxTenants; i < ids.size();
         ++i)
        EXPECT_EQ(ids[i], other);
    EXPECT_EQ(ct.tenantName(other), "other");
    // untracked + named + other.
    EXPECT_EQ(ct.tenantCount(), ContentionTracker::kMaxTenants + 2);
}

TEST(Interference, WindowWideningBoundsRetention)
{
    ContentionTracker ct;
    ct.setEnabled(true);
    ct.setWindowTicks(1000);
    const auto t = ct.registerTenant("t");
    // Completions spread over 4x the window budget force merges.
    const std::int64_t spread =
        static_cast<std::int64_t>(ContentionTracker::kMaxWindows) * 4;
    for (std::int64_t i = 0; i < spread; ++i) {
        const std::uint64_t trace = 1000 + static_cast<std::uint64_t>(i);
        ct.noteOpStart(trace, t);
        ct.noteOpComplete(trace, i * 1000 + 500, 100, 4096);
    }
    EXPECT_GT(ct.windowMerges(), 0u);
    EXPECT_GE(ct.windowTicks(), 4000);
    EXPECT_LE(ct.activeWindows(t), ContentionTracker::kMaxWindows);
    // Merging must not lose ops.
    std::ostringstream row;
    ct.writeJsonRow(row, "widen", 1);
    EXPECT_NE(row.str().find("\"ops\":" + std::to_string(spread)),
              std::string::npos);
}

// --- SLO burn windows ---------------------------------------------------

TEST(Interference, BurnWindowsFlagP99AboveTarget)
{
    ContentionTracker ct;
    ct.setEnabled(true);
    ct.setWindowTicks(1000);
    const auto t = ct.registerTenant("svc");
    ct.setSloTargetTicks(t, 500);

    // Window 0: all ops at 100 ticks (healthy). Window 1: all at 900.
    for (int i = 0; i < 10; ++i) {
        const std::uint64_t trace = 10 + static_cast<std::uint64_t>(i);
        ct.noteOpStart(trace, t);
        ct.noteOpComplete(trace, 500, 100, 4096);
    }
    for (int i = 0; i < 10; ++i) {
        const std::uint64_t trace = 50 + static_cast<std::uint64_t>(i);
        ct.noteOpStart(trace, t);
        ct.noteOpComplete(trace, 1500, 900, 4096);
    }
    EXPECT_EQ(ct.activeWindows(t), 2u);
    EXPECT_EQ(ct.burnWindows(t), 1u);

    std::ostringstream row;
    ct.writeJsonRow(row, "slo", 1);
    EXPECT_NE(row.str().find("\"burn_windows\":1"), std::string::npos);
    EXPECT_NE(row.str().find("\"burn_rate\":0.500"), std::string::npos);
}

TEST(Interference, NoTargetNeverBurns)
{
    ContentionTracker ct;
    ct.setEnabled(true);
    const auto t = ct.registerTenant("svc");
    ct.noteOpStart(1, t);
    ct.noteOpComplete(1, 100, 1000000, 4096);
    EXPECT_EQ(ct.burnWindows(t), 0u);
}

// --- reset keeps registrations ------------------------------------------

TEST(Interference, ResetAccountingKeepsTenantsAndResources)
{
    TwoTenantFixture f;
    f.ct.setSloTargetTicks(f.a, 123);
    f.ct.noteOccupancy(f.res, 101, 0, 100);
    f.ct.attributeWait(f.res, 202, 0, 100);
    ASSERT_GT(f.ct.totalWaitTicks(), 0);

    f.ct.resetAccounting();
    EXPECT_EQ(f.ct.totalWaitTicks(), 0);
    EXPECT_EQ(f.ct.totalBlameTicks(), 0);
    EXPECT_EQ(f.ct.waitedOps(), 0u);
    EXPECT_EQ(f.ct.blameTicks(f.b, f.a), 0);
    EXPECT_TRUE(f.ct.enabled());
    EXPECT_EQ(f.ct.tenantName(f.a), "alice");
    EXPECT_EQ(f.ct.tenantName(f.b), "bob");
    EXPECT_EQ(f.ct.resourceCount(), 1u);

    // New waits attribute cleanly after the reset.
    f.ct.noteOpStart(303, f.a);
    f.ct.noteOpStart(404, f.b);
    f.ct.noteOccupancy(f.res, 303, 200, 250);
    f.ct.attributeWait(f.res, 404, 200, 250);
    EXPECT_EQ(f.ct.blameTicks(f.b, f.a), 50);
    EXPECT_EQ(f.ct.totalBlameTicks(), f.ct.totalWaitTicks());
}

// --- sums-to-wait property under randomized FIFO load --------------------

TEST(Interference, PropertySumsToWaitOnRandomizedPipeLoad)
{
    // Drive a real FIFO Pipe with interleaved transfers from three
    // tenants and random sizes/gaps: however the waits land, blame must
    // tile them exactly. (Engine RNG in tests is fine; the tracker
    // itself stays draw-free.)
    sim::Simulator sim;
    sim::Rng rng(42);
    telemetry::Telemetry tel;
    ContentionTracker &ct = tel.contention();
    ct.setEnabled(true);
    const auto res = ct.registerResource(0, RK::NicTx);
    std::vector<telemetry::TenantId> tenants;
    for (int t = 0; t < 3; ++t) {
        std::string name = "t";
        name += std::to_string(t);
        tenants.push_back(ct.registerTenant(name));
    }

    sim::Pipe pipe(sim, /*bytes_per_sec=*/1e9, /*latency=*/sim::Ticks{500},
                   /*per_op=*/sim::Ticks{100});
    telemetry::LaneTap tap(telemetry::LaneTap::Style::kPipe,
                           telemetry::Probe(tel, 0), res);
    pipe.setObserver(&tap);

    std::uint64_t nextTrace = 1;
    int completed = 0;
    constexpr int kOps = 400;
    for (int i = 0; i < kOps; ++i) {
        const std::uint64_t trace = nextTrace++;
        const auto tenant = tenants[rng.nextBounded(tenants.size())];
        ct.noteOpStart(trace, tenant);
        const std::uint64_t bytes = 512 + rng.nextBounded(64 * 1024);
        const sim::Tick at =
            static_cast<sim::Tick>(rng.nextBounded(20'000));
        sim.scheduleAt(sim::Ticks{at}, [&pipe, &completed, trace, bytes] {
            pipe.transfer(bytes, trace, [&completed] { ++completed; });
        });
    }
    sim.run();

    EXPECT_EQ(completed, kOps);
    EXPECT_GT(ct.waitedOps(), 0u);
    EXPECT_GT(ct.totalWaitTicks(), 0);
    EXPECT_EQ(ct.totalBlameTicks(), ct.totalWaitTicks());

    // Per-cell sum equals the total too (nothing double-counted).
    sim::Tick cells = 0;
    for (std::size_t v = 0; v < ct.tenantCount(); ++v)
        for (std::size_t a = 0; a < ct.tenantCount(); ++a)
            cells += ct.blameTicks(static_cast<telemetry::TenantId>(v),
                                   static_cast<telemetry::TenantId>(a));
    EXPECT_EQ(cells, ct.totalWaitTicks());
}

// --- end-to-end: two tenants on a real dRAID array -----------------------

namespace {

/** Victim (4K reads) + aggressor (256K writes) on one dRAID rig; returns
 *  the exported interference row. */
std::string
runTwoTenantMix(std::uint64_t seed)
{
    DraidRig rig(/*targets=*/6);
    telemetry::ContentionTracker &ct =
        rig.cluster->telemetry().contention();
    ct.setEnabled(true);
    const auto victim = ct.registerTenant("victim");
    const auto aggressor = ct.registerTenant("aggressor");
    ct.setSloTargetTicks(victim, 2 * sim::kMillisecond);

    const std::uint64_t workingSet = 8ull << 20;
    // Preload so reads hit written stripes.
    {
        workload::FioConfig pre;
        pre.ioSize = 256 * 1024;
        pre.readRatio = 0.0;
        pre.ioDepth = 8;
        pre.numOps = workingSet / pre.ioSize;
        pre.sequential = true;
        pre.workingSetBytes = workingSet;
        pre.seed = seed;
        workload::FioJob preload(rig.sim(), rig.host(), pre);
        preload.run();
    }
    ct.resetAccounting();

    workload::FioConfig vic;
    vic.ioSize = 4 * 1024;
    vic.readRatio = 1.0;
    vic.ioDepth = 2;
    vic.numOps = 200;
    vic.workingSetBytes = workingSet;
    vic.seed = seed + 1;
    vic.tenant = victim;
    vic.contention = &ct;

    workload::FioConfig agg;
    agg.ioSize = 256 * 1024;
    agg.readRatio = 0.0;
    agg.ioDepth = 16;
    agg.numOps = 150;
    agg.workingSetBytes = workingSet;
    agg.seed = seed + 2;
    agg.tenant = aggressor;
    agg.contention = &ct;

    workload::FioJob vicJob(rig.sim(), rig.host(), vic);
    workload::FioJob aggJob(rig.sim(), rig.host(), agg);
    const auto results =
        workload::runConcurrent(rig.sim(), {&vicJob, &aggJob});
    EXPECT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].errors, 0u);
    EXPECT_EQ(results[1].errors, 0u);

    // The invariant holds end-to-end across every hooked resource (NIC
    // directions, SSD channels, CPU cores, stripe locks).
    EXPECT_EQ(ct.totalBlameTicks(), ct.totalWaitTicks());
    EXPECT_GT(ct.waitedOps(), 0u);

    // The saturating writer must show up as the victim's main source of
    // cross-tenant blame.
    EXPECT_GT(ct.blameTicks(victim, aggressor), 0);
    EXPECT_GT(ct.blameTicks(victim, aggressor),
              ct.blameTicks(victim, victim));

    std::ostringstream row;
    ct.writeJsonRow(row, "test_mix", seed);
    return row.str();
}

} // namespace

TEST(Interference, TwoTenantDraidMixAttributesAggressorPressure)
{
    const std::string row = runTwoTenantMix(7);
    EXPECT_NE(row.find("\"victim\""), std::string::npos);
    EXPECT_NE(row.find("\"aggressor\""), std::string::npos);
    EXPECT_NE(row.find("\"matrix\""), std::string::npos);
    EXPECT_NE(row.find("\"slo\""), std::string::npos);
}

TEST(Interference, ExportedRowIsByteIdenticalAcrossSameSeedRuns)
{
    const std::string first = runTwoTenantMix(11);
    const std::string second = runTwoTenantMix(11);
    EXPECT_EQ(first, second);
}
