// Online scrub (md-style check/repair) on the dRAID host.

#include <gtest/gtest.h>

#include "draid_test_util.h"

using namespace draid;
using namespace draid::testutil;
using core::DraidHost;
using core::DraidOptions;
using raid::RaidLevel;

namespace {

DraidOptions
opts(RaidLevel level)
{
    DraidOptions o;
    o.level = level;
    o.chunkSize = 64 * 1024;
    return o;
}

DraidHost::ScrubResult
scrubSync(DraidRig &rig, std::uint64_t stripe, bool repair)
{
    DraidHost::ScrubResult out;
    bool done = false;
    rig.host().scrubStripe(stripe, repair,
                           [&](DraidHost::ScrubResult r) {
                               out = r;
                               done = true;
                               rig.sim().stop();
                           });
    while (!done && rig.sim().pendingEvents() > 0)
        rig.sim().run();
    return out;
}

} // namespace

class DraidScrub : public ::testing::TestWithParam<RaidLevel>
{
};

TEST_P(DraidScrub, CleanStripeIsConsistent)
{
    DraidRig rig(6, opts(GetParam()));
    ec::Buffer data(rig.host().geometry().stripeDataSize());
    data.fillPattern(1);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, data));
    auto r = scrubSync(rig, 0, /*repair=*/false);
    EXPECT_TRUE(r.ok);
    EXPECT_TRUE(r.consistent);
    EXPECT_FALSE(r.repaired);
}

TEST_P(DraidScrub, DetectsCorruptParity)
{
    DraidRig rig(6, opts(GetParam()));
    const auto &g = rig.host().geometry();
    ec::Buffer data(g.stripeDataSize());
    data.fillPattern(2);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, data));

    // Corrupt the on-disk parity behind the controller's back (simulates
    // an interrupted write after a host crash, §5.4).
    ec::Buffer garbage(g.chunkSize());
    garbage.fill(0x5a);
    rig.cluster->target(g.parityDevice(0)).ssd().store().writeSync(
        0, garbage);

    auto r = scrubSync(rig, 0, /*repair=*/false);
    EXPECT_TRUE(r.ok);
    EXPECT_FALSE(r.consistent);
    EXPECT_FALSE(r.repaired);
}

TEST_P(DraidScrub, RepairRestoresParity)
{
    DraidRig rig(6, opts(GetParam()));
    const auto &g = rig.host().geometry();
    ec::Buffer data(g.stripeDataSize());
    data.fillPattern(3);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, data));

    ec::Buffer garbage(g.chunkSize());
    garbage.fill(0xa5);
    rig.cluster->target(g.parityDevice(0)).ssd().store().writeSync(
        0, garbage);
    if (GetParam() == RaidLevel::kRaid6) {
        rig.cluster->target(g.qDevice(0)).ssd().store().writeSync(
            0, garbage);
    }

    auto r = scrubSync(rig, 0, /*repair=*/true);
    EXPECT_TRUE(r.ok);
    EXPECT_FALSE(r.consistent);
    EXPECT_TRUE(r.repaired);

    // On-disk parity is correct again.
    EXPECT_TRUE(scrubStripe(*rig.cluster, g, 0));
    // And a re-scrub reports consistency.
    auto r2 = scrubSync(rig, 0, /*repair=*/false);
    EXPECT_TRUE(r2.consistent);
}

TEST_P(DraidScrub, RepairReconstructsLatentSectorError)
{
    DraidRig rig(6, opts(GetParam()));
    const auto &g = rig.host().geometry();
    ec::Buffer data(g.stripeDataSize());
    data.fillPattern(4);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, data));

    // Plant an unreadable media range on data chunk 0 of stripe 0.
    auto &ssd = rig.cluster->target(g.dataDevice(0, 0)).ssd();
    ssd.plantLatentSectorError(g.deviceAddress(0, 0), 4096);

    // check-only cannot complete: the chunk is unreadable.
    auto r0 = scrubSync(rig, 0, /*repair=*/false);
    EXPECT_FALSE(r0.ok);

    // repair reconstructs the chunk from the survivors and rewrites it,
    // which remaps the bad sectors.
    auto r = scrubSync(rig, 0, /*repair=*/true);
    EXPECT_TRUE(r.ok);
    EXPECT_FALSE(r.consistent);
    EXPECT_TRUE(r.repaired);
    EXPECT_EQ(ssd.latentSectorErrors(), 0u);

    // The reconstructed chunk carries the original bytes.
    bool ok = false;
    ec::Buffer back =
        readSync(rig.sim(), rig.host(), 0,
                 static_cast<std::uint32_t>(g.stripeDataSize()), &ok);
    EXPECT_TRUE(ok);
    EXPECT_TRUE(back.contentEquals(data));
    EXPECT_TRUE(scrubStripe(*rig.cluster, g, 0));
}

TEST_P(DraidScrub, LatentSectorRepairChargesItsXor)
{
    // The repair XORs one chunk at the host CPU, so halving the XOR
    // bandwidth lengthens the repair scrub's host busy time by that
    // chunk's XOR at the full rate.
    const auto repair_busy = [this](double xor_bw) {
        cluster::TestbedConfig cfg = smallConfig();
        cfg.xorBw = xor_bw;
        cluster::Cluster cluster(cfg, 6);
        core::DraidSystem draid(cluster, opts(GetParam()));
        const auto &g = draid.host().geometry();
        ec::Buffer data(g.stripeDataSize());
        data.fillPattern(6);
        EXPECT_TRUE(writeSync(cluster.sim(), draid.host(), 0, data));
        cluster.target(g.dataDevice(0, 0))
            .ssd()
            .plantLatentSectorError(g.deviceAddress(0, 0), 4096);
        const sim::Ticks before = cluster.host().cpu().busyTime();
        bool repaired = false;
        draid.host().scrubStripe(0, /*repair=*/true,
                                 [&](DraidHost::ScrubResult r) {
                                     repaired = r.repaired;
                                 });
        cluster.sim().run();
        EXPECT_TRUE(repaired);
        return cluster.host().cpu().busyTime() - before;
    };
    const sim::Ticks full = repair_busy(12e9);
    const sim::Ticks half = repair_busy(6e9);
    EXPECT_NEAR(static_cast<double>((half - full).raw()),
                64.0 * 1024 / 12e9 * 1e9, 2.0);
}

TEST_P(DraidScrub, RepairReconstructsParityLatentSectorError)
{
    DraidRig rig(6, opts(GetParam()));
    const auto &g = rig.host().geometry();
    ec::Buffer data(g.stripeDataSize());
    data.fillPattern(5);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, data));

    auto &ssd = rig.cluster->target(g.parityDevice(0)).ssd();
    ssd.plantLatentSectorError(g.deviceAddress(0, 0), 4096);

    auto r = scrubSync(rig, 0, /*repair=*/true);
    EXPECT_TRUE(r.ok);
    EXPECT_TRUE(r.repaired);
    EXPECT_EQ(ssd.latentSectorErrors(), 0u);
    EXPECT_TRUE(scrubStripe(*rig.cluster, g, 0));
}

TEST_P(DraidScrub, RefusesWhileDegraded)
{
    DraidRig rig(6, opts(GetParam()));
    rig.host().markFailed(1);
    auto r = scrubSync(rig, 0, /*repair=*/true);
    EXPECT_FALSE(r.ok);
}

TEST_P(DraidScrub, WholeArraySweepAfterWriteStorm)
{
    DraidRig rig(6, opts(GetParam()));
    const auto &g = rig.host().geometry();
    sim::Rng rng(5);
    const std::uint64_t span = 6 * g.stripeDataSize();
    for (int i = 0; i < 30; ++i) {
        const std::uint32_t len =
            static_cast<std::uint32_t>(1024 * (1 + rng.nextBounded(64)));
        const std::uint64_t off = rng.nextBounded(span - len);
        ec::Buffer data(len);
        data.fillPattern(i);
        ASSERT_TRUE(writeSync(rig.sim(), rig.host(), off, data));
    }
    for (std::uint64_t s = 0; s < 6; ++s) {
        auto r = scrubSync(rig, s, /*repair=*/false);
        EXPECT_TRUE(r.ok);
        EXPECT_TRUE(r.consistent) << "stripe " << s;
    }
}

INSTANTIATE_TEST_SUITE_P(Levels, DraidScrub,
                         ::testing::Values(RaidLevel::kRaid5,
                                           RaidLevel::kRaid6));

TEST(DraidScrubRaid6, FailedRepairWritesReportOnce)
{
    // Both parity chunks mismatch, and both parity targets go down while
    // their repair writes are in flight (148 us in, after the stripe
    // reads and the verification): the pass fails, and reports so once.
    DraidRig rig(6, opts(RaidLevel::kRaid6));
    const auto &g = rig.host().geometry();
    ec::Buffer data(g.stripeDataSize());
    data.fillPattern(7);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, data));

    ec::Buffer garbage(g.chunkSize());
    garbage.fill(0x3c);
    rig.cluster->target(g.parityDevice(0)).ssd().store().writeSync(0, garbage);
    rig.cluster->target(g.qDevice(0)).ssd().store().writeSync(0, garbage);

    int calls = 0;
    DraidHost::ScrubResult result{true, true, true};
    rig.host().scrubStripe(0, /*repair=*/true,
                           [&](DraidHost::ScrubResult r) {
                               ++calls;
                               result = r;
                           });
    rig.sim().schedule(sim::Ticks::us(148), [&]() {
        rig.cluster->failTarget(g.parityDevice(0));
        rig.cluster->failTarget(g.qDevice(0));
    });
    rig.sim().runUntil(sim::Ticks::sec(1));

    EXPECT_EQ(calls, 1);
    EXPECT_FALSE(result.ok);
    EXPECT_FALSE(result.repaired);
}
