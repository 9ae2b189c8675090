// dRAID degraded state: reconstructed reads and every degraded-write case
// (§5.1 degraded handling, §6.1) must return/leave correct data.

#include <gtest/gtest.h>

#include <cstring>

#include "draid_test_util.h"

using namespace draid;
using namespace draid::testutil;
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

/** Preload a recognizable pattern across several stripes. */
void
preload(DraidRig &rig, std::uint64_t bytes, std::vector<std::uint8_t> &model)
{
    model.assign(bytes, 0);
    ec::Buffer data(bytes);
    data.fillPattern(42);
    std::memcpy(model.data(), data.data(), bytes);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, data));
}

} // namespace

class DraidDegraded : public ::testing::TestWithParam<RaidLevel>
{
};

TEST_P(DraidDegraded, DegradedReadReconstructsLostChunk)
{
    DraidRig rig(6, opts(GetParam()));
    const auto &g = rig.host().geometry();
    std::vector<std::uint8_t> model;
    preload(rig, 4 * g.stripeDataSize(), model);

    rig.host().markFailed(2);

    bool ok = false;
    ec::Buffer all = readSync(rig.sim(), rig.host(), 0,
                              static_cast<std::uint32_t>(model.size()),
                              &ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(std::memcmp(all.data(), model.data(), model.size()), 0);
    EXPECT_GE(rig.host().counters().degradedReads, 1u);
}

TEST_P(DraidDegraded, SmallDegradedReadOfLostChunkOnly)
{
    DraidRig rig(6, opts(GetParam()));
    const auto &g = rig.host().geometry();
    std::vector<std::uint8_t> model;
    preload(rig, 2 * g.stripeDataSize(), model);

    const std::uint32_t failed_dev = 1;
    rig.host().markFailed(failed_dev);

    // Find a logical range living exactly on the failed device, stripe 0.
    const std::uint32_t fidx = g.dataIndexOf(0, failed_dev);
    const std::uint64_t off =
        static_cast<std::uint64_t>(fidx) * g.chunkSize() + 1000;
    bool ok = false;
    ec::Buffer got = readSync(rig.sim(), rig.host(), off, 5000, &ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(std::memcmp(got.data(), model.data() + off, 5000), 0);
}

TEST_P(DraidDegraded, DegradedWriteToUntouchedFailedChunkUsesRmw)
{
    DraidRig rig(6, opts(GetParam()));
    const auto &g = rig.host().geometry();
    std::vector<std::uint8_t> model;
    preload(rig, 2 * g.stripeDataSize(), model);

    // A data device of stripe 0 (for RAID-6 at width 6, device 0 is Q).
    const std::uint32_t failed_dev = g.dataDevice(0, 0);
    rig.host().markFailed(failed_dev);

    // Write a chunk that is NOT on the failed device.
    const std::uint32_t fidx = g.dataIndexOf(0, failed_dev);
    const std::uint32_t target_idx = fidx == 0 ? 1 : 0;
    const std::uint64_t off =
        static_cast<std::uint64_t>(target_idx) * g.chunkSize();
    ec::Buffer data(8192);
    data.fillPattern(77);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), off, data));
    std::memcpy(model.data() + off, data.data(), data.size());

    // The lost chunk must still reconstruct correctly afterwards.
    bool ok = false;
    const std::uint64_t lost_off =
        static_cast<std::uint64_t>(fidx) * g.chunkSize();
    ec::Buffer lost = readSync(rig.sim(), rig.host(), lost_off,
                               g.chunkSize(), &ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(std::memcmp(lost.data(), model.data() + lost_off,
                          g.chunkSize()),
              0);
    EXPECT_GE(rig.host().counters().degradedWrites, 1u);
}

TEST_P(DraidDegraded, DegradedWriteToFailedChunkFullCoverage)
{
    DraidRig rig(6, opts(GetParam()));
    const auto &g = rig.host().geometry();
    std::vector<std::uint8_t> model;
    preload(rig, 2 * g.stripeDataSize(), model);

    const std::uint32_t failed_dev = 3;
    rig.host().markFailed(failed_dev);

    const std::uint32_t fidx = g.dataIndexOf(0, failed_dev);
    const std::uint64_t off =
        static_cast<std::uint64_t>(fidx) * g.chunkSize();
    ec::Buffer data(g.chunkSize());
    data.fillPattern(88);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), off, data));
    std::memcpy(model.data() + off, data.data(), data.size());

    // Reading it back must reconstruct the *new* content from parity.
    bool ok = false;
    ec::Buffer got = readSync(rig.sim(), rig.host(), off, g.chunkSize(),
                              &ok);
    ASSERT_TRUE(ok);
    EXPECT_TRUE(got.contentEquals(data));
}

TEST_P(DraidDegraded, DegradedWriteToFailedChunkPartialCoverage)
{
    DraidRig rig(6, opts(GetParam()));
    const auto &g = rig.host().geometry();
    std::vector<std::uint8_t> model;
    preload(rig, 2 * g.stripeDataSize(), model);

    const std::uint32_t failed_dev = 3;
    rig.host().markFailed(failed_dev);

    const std::uint32_t fidx = g.dataIndexOf(0, failed_dev);
    const std::uint64_t off =
        static_cast<std::uint64_t>(fidx) * g.chunkSize() + 7000;
    ec::Buffer data(9000);
    data.fillPattern(99);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), off, data));
    std::memcpy(model.data() + off, data.data(), data.size());

    // The whole failed chunk (old head + new middle + old tail) must
    // reconstruct.
    const std::uint64_t chunk_off =
        static_cast<std::uint64_t>(fidx) * g.chunkSize();
    bool ok = false;
    ec::Buffer got = readSync(rig.sim(), rig.host(), chunk_off,
                              g.chunkSize(), &ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(std::memcmp(got.data(), model.data() + chunk_off,
                          g.chunkSize()),
              0);
    // Served by the targeted parity update alone: every parity bdev
    // (RAID-6 Q too) receives the survivors' slices, so nothing times out
    // into a full-stripe retry.
    EXPECT_EQ(rig.host().counters().retries, 0u);
}

TEST_P(DraidDegraded, WriteToStripeWithFailedParity)
{
    DraidRig rig(6, opts(GetParam()));
    const auto &g = rig.host().geometry();
    std::vector<std::uint8_t> model;
    preload(rig, 4 * g.stripeDataSize(), model);

    // Find a stripe whose P parity lives on device 4, then fail 4.
    std::uint64_t stripe = 0;
    while (g.parityDevice(stripe) != 4)
        ++stripe;
    rig.host().markFailed(4);

    const std::uint64_t off = stripe * g.stripeDataSize() + 123;
    ec::Buffer data(10000);
    data.fillPattern(111);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), off, data));
    std::memcpy(model.data() + off, data.data(), data.size());

    bool ok = false;
    ec::Buffer got = readSync(rig.sim(), rig.host(), off, 10000, &ok);
    ASSERT_TRUE(ok);
    EXPECT_TRUE(got.contentEquals(data));
}

TEST_P(DraidDegraded, FullStripeWriteWhileDegradedThenRecoverable)
{
    DraidRig rig(6, opts(GetParam()));
    const auto &g = rig.host().geometry();
    rig.host().markFailed(1);

    ec::Buffer data(g.stripeDataSize());
    data.fillPattern(321);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, data));

    // Everything (including the never-written lost chunk's content) must
    // read back via reconstruction.
    bool ok = false;
    ec::Buffer got = readSync(rig.sim(), rig.host(), 0,
                              static_cast<std::uint32_t>(data.size()),
                              &ok);
    ASSERT_TRUE(ok);
    EXPECT_TRUE(got.contentEquals(data));
}

TEST_P(DraidDegraded, MixedWorkloadWhileDegradedStaysConsistent)
{
    DraidRig rig(6, opts(GetParam()));
    const auto &g = rig.host().geometry();
    std::vector<std::uint8_t> model;
    const std::uint64_t span = 6 * g.stripeDataSize();
    preload(rig, span, model);
    rig.host().markFailed(2);

    sim::Rng rng(7);
    for (int i = 0; i < 40; ++i) {
        const std::uint32_t len =
            static_cast<std::uint32_t>(1024 * (1 + rng.nextBounded(64)));
        const std::uint64_t off = rng.nextBounded(span - len);
        ec::Buffer data(len);
        data.fillPattern(5000 + i);
        std::memcpy(model.data() + off, data.data(), len);
        ASSERT_TRUE(writeSync(rig.sim(), rig.host(), off, data))
            << "write " << i;
    }
    bool ok = false;
    ec::Buffer all = readSync(rig.sim(), rig.host(), 0,
                              static_cast<std::uint32_t>(span), &ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(std::memcmp(all.data(), model.data(), span), 0);
}

INSTANTIATE_TEST_SUITE_P(Levels, DraidDegraded,
                         ::testing::Values(RaidLevel::kRaid5,
                                           RaidLevel::kRaid6));

TEST(DraidDegradedTraffic, DegradedReadUsesPeerTrafficNotHostNic)
{
    // §6.1: the host receives only the requested bytes; partial results
    // flow between peers.
    DraidOptions o;
    o.level = RaidLevel::kRaid5;
    o.chunkSize = 64 * 1024;
    DraidRig rig(8, o);
    const auto &g = rig.host().geometry();
    std::vector<std::uint8_t> model;
    ec::Buffer data(4 * g.stripeDataSize());
    data.fillPattern(1);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, data));

    rig.host().markFailed(0);
    const std::uint32_t fidx = g.dataIndexOf(0, 0);
    const std::uint64_t off =
        static_cast<std::uint64_t>(fidx) * g.chunkSize();

    const std::uint64_t rx0 =
        rig.cluster->host().nic().rx().bytesTransferred();
    bool ok = false;
    readSync(rig.sim(), rig.host(), off, g.chunkSize(), &ok);
    ASSERT_TRUE(ok);
    const std::uint64_t host_rx =
        rig.cluster->host().nic().rx().bytesTransferred() - rx0;

    // Host receives ~1 chunk (plus capsules), NOT n-1 chunks.
    EXPECT_GE(host_rx, g.chunkSize());
    EXPECT_LT(host_rx, g.chunkSize() + 8192);
}
