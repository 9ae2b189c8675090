// dRAID failure handling (§5.4): transient failures retried with full
// stripe writes; prolonged failures fail over to degraded state.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "draid_test_util.h"

using namespace draid;
using namespace draid::testutil;
using core::DraidOptions;
using raid::RaidLevel;

namespace {

DraidOptions
opts()
{
    DraidOptions o;
    o.level = RaidLevel::kRaid5;
    o.chunkSize = 64 * 1024;
    return o;
}

} // namespace

TEST(DraidFailures, TransientTargetFailureRecoversViaRetry)
{
    DraidRig rig(6, opts());
    const auto &g = rig.host().geometry();
    ec::Buffer pre(2 * g.stripeDataSize());
    pre.fillPattern(1);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, pre));

    // Take the written chunk's device down (stripe 0, data index 0) and
    // schedule its recovery before retries exhaust.
    const std::uint32_t victim = g.dataDevice(0, 0);
    rig.cluster->failTarget(victim);
    rig.sim().schedule(sim::Ticks::ms(60),
                       [&]() { rig.cluster->recoverTarget(victim); });

    ec::Buffer data(8192);
    data.fillPattern(2);
    bool done = false;
    blockdev::IoStatus status = blockdev::IoStatus::kError;
    rig.host().write(0, data.clone(), [&](blockdev::IoStatus st) {
        status = st;
        done = true;
        rig.sim().stop();
    });
    while (!done && rig.sim().pendingEvents() > 0)
        rig.sim().run();

    ASSERT_TRUE(done);
    EXPECT_EQ(status, blockdev::IoStatus::kOk);
    EXPECT_GE(rig.host().counters().retries, 1u);
    EXPECT_FALSE(rig.host().isDegraded());

    // Data and parity must be fully consistent after the retry.
    ec::Buffer got = readSync(rig.sim(), rig.host(), 0, 8192);
    EXPECT_TRUE(got.contentEquals(data));
    EXPECT_TRUE(scrubStripe(*rig.cluster, g, 0));
}

TEST(DraidFailures, ProlongedFailureTriggersFailover)
{
    DraidRig rig(6, opts());
    const auto &g = rig.host().geometry();
    ec::Buffer pre(2 * g.stripeDataSize());
    pre.fillPattern(3);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, pre));

    const std::uint32_t victim = g.dataDevice(0, 0);
    rig.cluster->failTarget(victim); // never recovers

    ec::Buffer data(8192);
    data.fillPattern(4);
    bool done = false;
    blockdev::IoStatus status = blockdev::IoStatus::kError;
    rig.host().write(0, data.clone(), [&](blockdev::IoStatus st) {
        status = st;
        done = true;
        rig.sim().stop();
    });
    while (!done && rig.sim().pendingEvents() > 0)
        rig.sim().run();

    ASSERT_TRUE(done);
    EXPECT_EQ(status, blockdev::IoStatus::kOk);
    EXPECT_TRUE(rig.host().isDegraded());
    EXPECT_EQ(rig.host().failedDevice(), victim);
    EXPECT_GE(rig.host().counters().failovers, 1u);

    // The write completed in degraded mode; data must read back.
    ec::Buffer got = readSync(rig.sim(), rig.host(), 0, 8192);
    EXPECT_TRUE(got.contentEquals(data));
}

TEST(DraidFailures, RetryFullStripeRestoresConsistencyAfterPartialWrite)
{
    // Even if a write was half-applied before the failure, the full-stripe
    // retry must leave data+parity consistent.
    DraidRig rig(6, opts());
    const auto &g = rig.host().geometry();
    ec::Buffer pre(g.stripeDataSize());
    pre.fillPattern(5);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, pre));

    // Fail the parity holder for stripe 0 just before a write; recover it
    // shortly after so the retry (full-stripe) succeeds.
    const std::uint32_t p_dev = g.parityDevice(0);
    rig.cluster->failTarget(p_dev);
    rig.sim().schedule(sim::Ticks::ms(55),
                       [&]() { rig.cluster->recoverTarget(p_dev); });

    ec::Buffer data(16384);
    data.fillPattern(6);
    bool done = false;
    rig.host().write(4096, data.clone(), [&](blockdev::IoStatus st) {
        EXPECT_EQ(st, blockdev::IoStatus::kOk);
        done = true;
        rig.sim().stop();
    });
    while (!done && rig.sim().pendingEvents() > 0)
        rig.sim().run();
    ASSERT_TRUE(done);

    EXPECT_TRUE(scrubStripe(*rig.cluster, g, 0));
    ec::Buffer got = readSync(rig.sim(), rig.host(), 4096, 16384);
    EXPECT_TRUE(got.contentEquals(data));
}

TEST(DraidFailures, RetriedDegradedWriteKeepsFailedChunkBytes)
{
    // Degraded array: a write landing only on the failed chunk goes
    // through the targeted parity update. A survivor is down for a while,
    // so that update times out and the full-stripe retry must replay the
    // failed chunk's new bytes, not just the surviving segments.
    DraidRig rig(6, opts());
    const auto &g = rig.host().geometry();
    ec::Buffer pre(2 * g.stripeDataSize());
    pre.fillPattern(12);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, pre));

    rig.host().markFailed(g.dataDevice(0, 0));
    const std::uint32_t victim = g.dataDevice(0, 1);
    rig.cluster->failTarget(victim);
    rig.sim().schedule(sim::Ticks::ms(60),
                       [&]() { rig.cluster->recoverTarget(victim); });

    ec::Buffer data(8192);
    data.fillPattern(13);
    bool done = false;
    blockdev::IoStatus status = blockdev::IoStatus::kError;
    rig.host().write(0, data.clone(), [&](blockdev::IoStatus st) {
        status = st;
        done = true;
        rig.sim().stop();
    });
    while (!done && rig.sim().pendingEvents() > 0)
        rig.sim().run();

    ASSERT_TRUE(done);
    EXPECT_EQ(status, blockdev::IoStatus::kOk);
    EXPECT_GE(rig.host().counters().retries, 1u);
    bool ok = false;
    ec::Buffer got = readSync(rig.sim(), rig.host(), 0, 8192, &ok);
    ASSERT_TRUE(ok);
    EXPECT_TRUE(got.contentEquals(data));
}

TEST(DraidFailures, ConcurrentWritesToOneDeadTargetFailItOverOnce)
{
    // Two writes on different stripes both hit the same dead target,
    // which holds a different data index in each. Each write blames the
    // device its own commands timed out on, so the array fails over that
    // device once and both writes finish in degraded mode.
    DraidRig rig(6, opts());
    const auto &g = rig.host().geometry();
    ec::Buffer pre(2 * g.stripeDataSize());
    pre.fillPattern(5);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, pre));

    const std::uint32_t victim = g.dataDevice(0, 0);
    std::uint32_t idx1 = 0;
    while (idx1 < g.dataChunks() && g.dataDevice(1, idx1) != victim)
        ++idx1;
    ASSERT_LT(idx1, g.dataChunks());
    ASSERT_NE(idx1, 0u);
    rig.cluster->failTarget(victim); // never recovers

    const std::uint64_t offsets[] = {
        0, g.stripeDataSize() + std::uint64_t{idx1} * g.chunkSize()};
    std::vector<ec::Buffer> data;
    blockdev::IoStatus status[2] = {blockdev::IoStatus::kError,
                                    blockdev::IoStatus::kError};
    int done = 0;
    for (int i = 0; i < 2; ++i) {
        data.emplace_back(8192);
        data.back().fillPattern(6 + i);
        rig.host().write(offsets[i], data.back().clone(),
                         [&, i](blockdev::IoStatus st) {
                             status[i] = st;
                             ++done;
                         });
    }
    rig.sim().runUntil(sim::Ticks::sec(2));

    ASSERT_EQ(done, 2);
    EXPECT_EQ(status[0], blockdev::IoStatus::kOk);
    EXPECT_EQ(status[1], blockdev::IoStatus::kOk);
    EXPECT_EQ(rig.host().failedDevice(), victim);
    EXPECT_EQ(rig.host().counters().failovers, 1u);
    for (int i = 0; i < 2; ++i) {
        ec::Buffer got = readSync(rig.sim(), rig.host(), offsets[i], 8192);
        EXPECT_TRUE(got.contentEquals(data[i])) << "write " << i;
    }
}

TEST(DraidFailures, NetworkJitterDelaysButCompletes)
{
    DraidRig rig(6, opts());
    rig.cluster->fabric().setExtraDelay(3, sim::Ticks::ms(2));

    ec::Buffer data(8192);
    data.fillPattern(7);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, data));
    EXPECT_EQ(rig.host().counters().retries, 0u); // jitter < timeout
    EXPECT_TRUE(scrubStripe(*rig.cluster, rig.host().geometry(), 0));
}

TEST(DraidFailures, ReadOfDownTargetTimesOutWithError)
{
    DraidRig rig(6, opts());
    ec::Buffer pre(64 * 1024);
    pre.fillPattern(8);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, pre));

    // Down but NOT marked failed at the host: plain reads time out.
    rig.cluster->failTarget(0);
    const std::uint32_t fidx =
        rig.host().geometry().dataIndexOf(0, 0);
    const std::uint64_t off =
        static_cast<std::uint64_t>(fidx) *
        rig.host().geometry().chunkSize();
    bool ok = true;
    readSync(rig.sim(), rig.host(), off, 4096, &ok);
    EXPECT_FALSE(ok);

    // After marking failed, the same read succeeds via reconstruction.
    rig.host().markFailed(0);
    bool ok2 = false;
    readSync(rig.sim(), rig.host(), off, 4096, &ok2);
    EXPECT_TRUE(ok2);
}

TEST(DraidFailures, FailedReadHandsBackZeros)
{
    // Reads that touch the down target must fail with `length` zero bytes:
    // a stripe-wide read, whose other chunks land in an assembled buffer
    // the error must not expose, and a read inside the down target's
    // chunk, a single piece with no assembled buffer to zero.
    DraidRig rig(6, opts());
    const auto &g = rig.host().geometry();
    ec::Buffer pre(g.stripeDataSize());
    pre.fillPattern(12);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, pre));

    rig.cluster->failTarget(0);
    const std::uint64_t down_chunk =
        static_cast<std::uint64_t>(g.dataIndexOf(0, 0)) * g.chunkSize();
    const std::pair<std::uint64_t, std::uint32_t> reads[] = {
        {0, static_cast<std::uint32_t>(pre.size())},
        {down_chunk + 4096, 8192},
    };
    for (const auto &[off, len] : reads) {
        SCOPED_TRACE(testing::Message() << "read " << off << "+" << len);
        auto [st, got] = readStatusSync(rig.sim(), rig.host(), off, len);
        EXPECT_EQ(st, blockdev::IoStatus::kError);
        EXPECT_TRUE(got.contentEquals(ec::Buffer(len)));
    }
}

namespace {

/** No bdev of @p rig is left holding a reduce session. */
::testing::AssertionResult
noSessionsLeft(DraidRig &rig)
{
    for (std::uint32_t i = 0; i < rig.system->numBdevs(); ++i) {
        const std::size_t n = rig.system->bdev(i).reduceEngine().activeSessions();
        if (n != 0)
            return ::testing::AssertionFailure()
                   << "bdev " << i << " holds " << n << " session(s)";
    }
    return ::testing::AssertionSuccess();
}

} // namespace

TEST(DraidFailures, LatentSectorErrorUnderRmwOldDataFailsNoDevice)
{
    // The RMW's old-data read hits a latent sector error. The data bdev
    // skips its drive write and fails its sub-command, and P (and Q) get a
    // failed partial, so they persist nothing: the stripe stays
    // consistent. A read error names no suspect, so the write uses up its
    // retries and fails without failing the healthy drive over, as on the
    // baselines.
    for (const RaidLevel level : {RaidLevel::kRaid5, RaidLevel::kRaid6}) {
        SCOPED_TRACE(level == RaidLevel::kRaid5 ? "RAID-5" : "RAID-6");
        DraidOptions o = opts();
        o.level = level;
        DraidRig rig(6, o);
        const auto &g = rig.host().geometry();
        ec::Buffer pre(g.stripeDataSize());
        pre.fillPattern(17);
        ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, pre));

        rig.cluster->target(g.dataDevice(0, 0))
            .ssd()
            .plantLatentSectorError(g.deviceAddress(0, 0), 4096);
        ec::Buffer data(8192);
        data.fillPattern(18);
        const auto rmw_before = rig.host().counters().rmwWrites;
        EXPECT_FALSE(writeSync(rig.sim(), rig.host(), 0, data));
        EXPECT_GT(rig.host().counters().rmwWrites, rmw_before);
        EXPECT_FALSE(rig.host().isDegraded());
        EXPECT_EQ(rig.host().counters().failovers, 0u);
        EXPECT_TRUE(scrubStripe(*rig.cluster, g, 0));
        EXPECT_TRUE(noSessionsLeft(rig));
    }
}

TEST(DraidFailures, LatentSectorErrorUnderRmwOldParityIsRewritten)
{
    // The RMW's old-parity preload hits a latent sector error: P persists
    // nothing and fails its sub-command, and the full-stripe retry
    // rewrites the parity, which clears the bad sector.
    for (const RaidLevel level : {RaidLevel::kRaid5, RaidLevel::kRaid6}) {
        SCOPED_TRACE(level == RaidLevel::kRaid5 ? "RAID-5" : "RAID-6");
        DraidOptions o = opts();
        o.level = level;
        DraidRig rig(6, o);
        const auto &g = rig.host().geometry();
        ec::Buffer pre(g.stripeDataSize());
        pre.fillPattern(19);
        ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, pre));

        auto &ssd = rig.cluster->target(g.parityDevice(0)).ssd();
        ssd.plantLatentSectorError(g.deviceAddress(0, 0), 4096);
        ec::Buffer data(8192);
        data.fillPattern(20);
        EXPECT_TRUE(writeSync(rig.sim(), rig.host(), 0, data));
        EXPECT_GE(rig.host().counters().retries, 1u);
        EXPECT_FALSE(rig.host().isDegraded());
        EXPECT_EQ(ssd.latentSectorErrors(), 0u);
        EXPECT_TRUE(scrubStripe(*rig.cluster, g, 0));
        EXPECT_TRUE(noSessionsLeft(rig));
        EXPECT_TRUE(readSync(rig.sim(), rig.host(), 0, 8192).contentEquals(data));
    }
}

TEST(DraidFailures, DeadlinesDisarmOnSuccess)
{
    DraidRig rig(6, opts());
    for (int i = 0; i < 10; ++i) {
        ec::Buffer data(4096);
        data.fillPattern(i);
        ASSERT_TRUE(writeSync(rig.sim(), rig.host(), i * 4096, data));
    }
    // Let all timeout horizons pass: nothing should fire.
    rig.sim().runFor(sim::Ticks::ms(200));
    EXPECT_EQ(rig.host().counters().retries, 0u);
    EXPECT_EQ(rig.host().counters().failovers, 0u);
}

TEST(DraidFailures, DeadlinesArmedAtOneTickExpireTogetherInArmOrder)
{
    // A read's two NVMe-oF commands (nvmf.timeout) and a write's dRAID op
    // (failure.deadline), all armed at one tick against down targets,
    // expire at one tick in the order they were armed: the two deadline
    // queues interleave exactly as per-deadline events would.
    struct Expiries : sim::EngineObserver
    {
        std::vector<std::pair<sim::Ticks, std::string>> fired;

        void onSchedule(sim::Ticks, const char *, std::size_t) override {}
        void onBatchDrain(sim::Ticks, std::size_t, std::size_t) override {}
        void
        onEventStart(sim::Ticks now, const char *label) override
        {
            if (label != nullptr && (std::string(label) == "nvmf.timeout" ||
                                     std::string(label) == "failure.deadline"))
                fired.emplace_back(now, label);
        }
        void onEventEnd() override {}
        void onRunStart() override {}
        void onRunEnd() override {}
    };

    DraidRig rig(6, opts());
    const auto &g = rig.host().geometry();
    ec::Buffer pre(2 * g.stripeDataSize());
    pre.fillPattern(13);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, pre));
    rig.sim().runFor(rig.cfg.opTimeout * 2); // no deadline left armed

    rig.cluster->failTarget(g.dataDevice(0, 0));
    rig.cluster->failTarget(g.dataDevice(0, 1));
    Expiries expiries;
    rig.sim().setEngineObserver(&expiries);
    const sim::Ticks t0 = rig.sim().now();
    int reads = 0;
    rig.host().read(0, 2 * g.chunkSize(),
                    [&](blockdev::IoStatus st, ec::Buffer) {
                        EXPECT_EQ(st, blockdev::IoStatus::kError);
                        ++reads;
                    });
    ec::Buffer data(4096);
    data.fillPattern(14);
    rig.host().write(0, data.clone(), [](blockdev::IoStatus) {});
    rig.sim().runUntil(t0 + rig.cfg.opTimeout);
    rig.sim().setEngineObserver(nullptr);

    EXPECT_EQ(reads, 1);
    const sim::Ticks due = t0 + rig.cfg.opTimeout;
    const std::vector<std::pair<sim::Ticks, std::string>> want = {
        {due, "nvmf.timeout"},
        {due, "nvmf.timeout"},
        {due, "failure.deadline"},
    };
    EXPECT_EQ(expiries.fired, want);
}
