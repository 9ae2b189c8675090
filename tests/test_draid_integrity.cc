// dRAID end-to-end data integrity in normal state: every write mode must
// leave correct data AND correct parity on the simulated drives.

#include <gtest/gtest.h>

#include <cstring>

#include "draid_test_util.h"

using namespace draid;
using namespace draid::testutil;
using core::DraidOptions;
using raid::RaidLevel;

namespace {

DraidOptions
smallOptions(RaidLevel level)
{
    DraidOptions o;
    o.level = level;
    o.chunkSize = 64 * 1024; // small chunks keep the tests fast
    return o;
}

} // namespace

class DraidIntegrity : public ::testing::TestWithParam<RaidLevel>
{
};

TEST_P(DraidIntegrity, ReadBackAfterSmallPartialWrite)
{
    DraidRig rig(6, smallOptions(GetParam()));
    ec::Buffer data(16 * 1024);
    data.fillPattern(1);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 4096, data));
    bool ok = false;
    ec::Buffer got = readSync(rig.sim(), rig.host(), 4096, 16 * 1024, &ok);
    ASSERT_TRUE(ok);
    EXPECT_TRUE(got.contentEquals(data));
    EXPECT_TRUE(scrubStripe(*rig.cluster, rig.host().geometry(), 0));
    // RAID-5 at this width picks RMW; RAID-6 with k=4 picks RCW.
    EXPECT_GE(rig.host().counters().rmwWrites +
                  rig.host().counters().rcwWrites,
              1u);
}

TEST(DraidIntegrityRmw, Raid6WideArrayUsesRmw)
{
    // The paper's 8-drive RAID-6 (k=6) does use RMW for small writes.
    DraidOptions o;
    o.level = RaidLevel::kRaid6;
    o.chunkSize = 64 * 1024;
    DraidRig rig(8, o);
    ec::Buffer data(16 * 1024);
    data.fillPattern(11);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, data));
    EXPECT_GE(rig.host().counters().rmwWrites, 1u);
    ec::Buffer got = readSync(rig.sim(), rig.host(), 0, 16 * 1024);
    EXPECT_TRUE(got.contentEquals(data));
    EXPECT_TRUE(scrubStripe(*rig.cluster, rig.host().geometry(), 0));
}

TEST_P(DraidIntegrity, ReadBackAfterRcwWrite)
{
    DraidRig rig(6, smallOptions(GetParam()));
    const auto &g = rig.host().geometry();
    // Cover most (but not all) of a stripe to trigger reconstruct write.
    const std::uint32_t len =
        (g.dataChunks() - 1) * g.chunkSize() + g.chunkSize() / 2;
    ec::Buffer data(len);
    data.fillPattern(2);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, data));
    bool ok = false;
    ec::Buffer got = readSync(rig.sim(), rig.host(), 0, len, &ok);
    ASSERT_TRUE(ok);
    EXPECT_TRUE(got.contentEquals(data));
    EXPECT_TRUE(scrubStripe(*rig.cluster, g, 0));
    EXPECT_GE(rig.host().counters().rcwWrites, 1u);
}

TEST_P(DraidIntegrity, ReadBackAfterFullStripeWrite)
{
    DraidRig rig(6, smallOptions(GetParam()));
    const auto &g = rig.host().geometry();
    ec::Buffer data(g.stripeDataSize());
    data.fillPattern(3);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, data));
    bool ok = false;
    ec::Buffer got = readSync(rig.sim(), rig.host(), 0,
                              static_cast<std::uint32_t>(data.size()), &ok);
    ASSERT_TRUE(ok);
    EXPECT_TRUE(got.contentEquals(data));
    EXPECT_TRUE(scrubStripe(*rig.cluster, g, 0));
    EXPECT_GE(rig.host().counters().fullStripeWrites, 1u);
}

TEST_P(DraidIntegrity, OverwriteUpdatesParity)
{
    DraidRig rig(6, smallOptions(GetParam()));
    const auto &g = rig.host().geometry();
    ec::Buffer first(32 * 1024), second(32 * 1024);
    first.fillPattern(4);
    second.fillPattern(5);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, first));
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, second));
    ec::Buffer got = readSync(rig.sim(), rig.host(), 0, 32 * 1024);
    EXPECT_TRUE(got.contentEquals(second));
    EXPECT_TRUE(scrubStripe(*rig.cluster, g, 0));
}

TEST_P(DraidIntegrity, MultiStripeWrite)
{
    DraidRig rig(6, smallOptions(GetParam()));
    const auto &g = rig.host().geometry();
    const std::uint64_t offset = g.stripeDataSize() - 20000;
    const std::uint32_t len = 50000; // spans two stripes
    ec::Buffer data(len);
    data.fillPattern(6);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), offset, data));
    bool ok = false;
    ec::Buffer got = readSync(rig.sim(), rig.host(), offset, len, &ok);
    ASSERT_TRUE(ok);
    EXPECT_TRUE(got.contentEquals(data));
    EXPECT_TRUE(scrubStripe(*rig.cluster, g, 0));
    EXPECT_TRUE(scrubStripe(*rig.cluster, g, 1));
}

TEST_P(DraidIntegrity, RandomWriteStormLeavesConsistentParity)
{
    DraidRig rig(6, smallOptions(GetParam()));
    const auto &g = rig.host().geometry();
    sim::Rng rng(99);
    const std::uint64_t span = 8 * g.stripeDataSize();

    // A reference model mirrors every write.
    std::vector<std::uint8_t> model(span, 0);
    for (int i = 0; i < 60; ++i) {
        const std::uint32_t len =
            static_cast<std::uint32_t>(1024 * (1 + rng.nextBounded(96)));
        const std::uint64_t off = rng.nextBounded(span - len);
        ec::Buffer data(len);
        data.fillPattern(1000 + i);
        std::memcpy(model.data() + off, data.data(), len);
        ASSERT_TRUE(writeSync(rig.sim(), rig.host(), off, data));
    }

    bool ok = false;
    ec::Buffer all = readSync(rig.sim(), rig.host(), 0,
                              static_cast<std::uint32_t>(span), &ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(std::memcmp(all.data(), model.data(), span), 0);
    for (std::uint64_t s = 0; s < 8; ++s)
        EXPECT_TRUE(scrubStripe(*rig.cluster, g, s)) << "stripe " << s;
}

TEST_P(DraidIntegrity, ConcurrentWritesToSameStripeSerialize)
{
    DraidRig rig(6, smallOptions(GetParam()));
    int completed = 0;
    for (int i = 0; i < 8; ++i) {
        ec::Buffer data(8192);
        data.fillPattern(i);
        rig.host().write(0, std::move(data), [&](blockdev::IoStatus st) {
            EXPECT_EQ(st, blockdev::IoStatus::kOk);
            ++completed;
        });
    }
    rig.sim().run();
    EXPECT_EQ(completed, 8);
    EXPECT_GE(rig.host().stripeLocks().contendedAcquires(), 1u);
    EXPECT_TRUE(scrubStripe(*rig.cluster, rig.host().geometry(), 0));
}

TEST_P(DraidIntegrity, ConcurrentWritesToDistinctStripesProceed)
{
    DraidRig rig(6, smallOptions(GetParam()));
    const auto &g = rig.host().geometry();
    int completed = 0;
    for (int i = 0; i < 4; ++i) {
        ec::Buffer data(4096);
        data.fillPattern(50 + i);
        rig.host().write(static_cast<std::uint64_t>(i) *
                             g.stripeDataSize(),
                         std::move(data), [&](blockdev::IoStatus) {
                             ++completed;
                         });
    }
    rig.sim().run();
    EXPECT_EQ(completed, 4);
    EXPECT_EQ(rig.host().stripeLocks().contendedAcquires(), 0u);
}

TEST_P(DraidIntegrity, UnwrittenRegionsReadZero)
{
    DraidRig rig(6, smallOptions(GetParam()));
    bool ok = false;
    ec::Buffer got = readSync(rig.sim(), rig.host(), 1 << 20, 4096, &ok);
    ASSERT_TRUE(ok);
    EXPECT_TRUE(got.contentEquals(ec::Buffer(4096)));
}

TEST_P(DraidIntegrity, ReadResultSurvivesLaterOverwrite)
{
    // A read result is the caller's: overwriting the range afterwards,
    // healthy or degraded, must not change the bytes it already holds.
    DraidRig rig(6, smallOptions(GetParam()));
    const auto &g = rig.host().geometry();
    const std::uint32_t dev = g.dataDevice(0, 1);
    const std::uint64_t off = g.chunkSize() + 4096; // inside chunk 1
    const std::uint32_t len = 16 * 1024;
    ec::Buffer first(len), second(len), third(len);
    first.fillPattern(18);
    second.fillPattern(19);
    third.fillPattern(20);

    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), off, first));
    ec::Buffer healthy = readSync(rig.sim(), rig.host(), off, len);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), off, second));
    EXPECT_TRUE(healthy.contentEquals(first));

    rig.host().markFailed(dev);
    ec::Buffer degraded = readSync(rig.sim(), rig.host(), off, len);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), off, third));
    EXPECT_TRUE(degraded.contentEquals(second));
    EXPECT_TRUE(
        readSync(rig.sim(), rig.host(), off, len).contentEquals(third));
}

INSTANTIATE_TEST_SUITE_P(Levels, DraidIntegrity,
                         ::testing::Values(RaidLevel::kRaid5,
                                           RaidLevel::kRaid6));

TEST(DraidIntegrityWidths, WideArrayRoundTrip)
{
    DraidOptions o;
    o.level = RaidLevel::kRaid5;
    o.chunkSize = 32 * 1024;
    DraidRig rig(12, o);
    const auto &g = rig.host().geometry();
    ec::Buffer data(g.stripeDataSize());
    data.fillPattern(7);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, data));
    ec::Buffer got = readSync(rig.sim(), rig.host(), 0,
                              static_cast<std::uint32_t>(data.size()));
    EXPECT_TRUE(got.contentEquals(data));
    EXPECT_TRUE(scrubStripe(*rig.cluster, g, 0));
}

TEST(DraidIntegrityWidths, SpareTargetsUnusedByNormalIo)
{
    DraidOptions o;
    o.level = RaidLevel::kRaid5;
    o.chunkSize = 32 * 1024;
    // 8 targets, width 6: targets 6 and 7 are spares.
    DraidRig rig(8, o, 6);
    EXPECT_EQ(rig.host().geometry().width(), 6u);
    ec::Buffer data(64 * 1024);
    data.fillPattern(8);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, data));
    EXPECT_EQ(rig.cluster->target(6).ssd().writesCompleted(), 0u);
    EXPECT_EQ(rig.cluster->target(7).ssd().writesCompleted(), 0u);
}
