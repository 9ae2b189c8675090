// Baselines (SPDK POC, Linux MD): data integrity and the host-centric
// bandwidth amplification dRAID eliminates.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "baselines/linux_md.h"
#include "baselines/spdk_raid.h"
#include "draid_test_util.h"

using namespace draid;
using namespace draid::testutil;
using baselines::HostCentricRaid;
using baselines::LinuxMdRaid;
using baselines::SpdkRaid;
using raid::RaidLevel;

namespace {

enum class Kind
{
    kSpdk,
    kLinux,
};

struct BaselineRig
{
    cluster::TestbedConfig cfg;
    std::unique_ptr<cluster::Cluster> cluster;
    std::unique_ptr<HostCentricRaid> raidDev;

    BaselineRig(Kind kind, RaidLevel level, std::uint32_t targets = 6,
                std::uint32_t width = 0)
        : cfg(smallConfig())
    {
        cluster = std::make_unique<cluster::Cluster>(cfg, targets);
        if (kind == Kind::kSpdk) {
            raidDev = std::make_unique<SpdkRaid>(*cluster, level,
                                                 64 * 1024, width);
        } else {
            raidDev = std::make_unique<LinuxMdRaid>(*cluster, level,
                                                    64 * 1024, width);
        }
    }

    sim::Simulator &sim() { return cluster->sim(); }
};

} // namespace

class BaselineParam
    : public ::testing::TestWithParam<std::tuple<Kind, RaidLevel>>
{
  protected:
    Kind kind() const { return std::get<0>(GetParam()); }
    RaidLevel level() const { return std::get<1>(GetParam()); }
};

TEST_P(BaselineParam, PartialWriteRoundTripsWithParity)
{
    BaselineRig rig(kind(), level());
    ec::Buffer data(16 * 1024);
    data.fillPattern(1);
    ASSERT_TRUE(writeSync(rig.sim(), *rig.raidDev, 4096, data));
    bool ok = false;
    ec::Buffer got = readSync(rig.sim(), *rig.raidDev, 4096, 16 * 1024,
                              &ok);
    ASSERT_TRUE(ok);
    EXPECT_TRUE(got.contentEquals(data));
    EXPECT_TRUE(scrubStripe(*rig.cluster, rig.raidDev->geometry(), 0));
}

TEST_P(BaselineParam, FullStripeWriteRoundTrips)
{
    BaselineRig rig(kind(), level());
    const auto &g = rig.raidDev->geometry();
    ec::Buffer data(g.stripeDataSize());
    data.fillPattern(2);
    ASSERT_TRUE(writeSync(rig.sim(), *rig.raidDev, 0, data));
    ec::Buffer got = readSync(rig.sim(), *rig.raidDev, 0,
                              static_cast<std::uint32_t>(data.size()));
    EXPECT_TRUE(got.contentEquals(data));
    EXPECT_TRUE(scrubStripe(*rig.cluster, g, 0));
}

TEST_P(BaselineParam, RandomStormMatchesModel)
{
    BaselineRig rig(kind(), level());
    const auto &g = rig.raidDev->geometry();
    const std::uint64_t span = 4 * g.stripeDataSize();
    std::vector<std::uint8_t> model(span, 0);
    sim::Rng rng(17);
    for (int i = 0; i < 30; ++i) {
        const std::uint32_t len =
            static_cast<std::uint32_t>(1024 * (1 + rng.nextBounded(64)));
        const std::uint64_t off = rng.nextBounded(span - len);
        ec::Buffer data(len);
        data.fillPattern(2000 + i);
        std::memcpy(model.data() + off, data.data(), len);
        ASSERT_TRUE(writeSync(rig.sim(), *rig.raidDev, off, data));
    }
    bool ok = false;
    ec::Buffer all = readSync(rig.sim(), *rig.raidDev, 0,
                              static_cast<std::uint32_t>(span), &ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(std::memcmp(all.data(), model.data(), span), 0);
    for (std::uint64_t s = 0; s < 4; ++s)
        EXPECT_TRUE(scrubStripe(*rig.cluster, g, s));
}

TEST_P(BaselineParam, DegradedReadReconstructs)
{
    BaselineRig rig(kind(), level());
    const auto &g = rig.raidDev->geometry();
    ec::Buffer data(2 * g.stripeDataSize());
    data.fillPattern(3);
    ASSERT_TRUE(writeSync(rig.sim(), *rig.raidDev, 0, data));

    rig.raidDev->markFailed(1);
    bool ok = false;
    ec::Buffer got = readSync(rig.sim(), *rig.raidDev, 0,
                              static_cast<std::uint32_t>(data.size()),
                              &ok);
    ASSERT_TRUE(ok);
    EXPECT_TRUE(got.contentEquals(data));
    EXPECT_GE(rig.raidDev->counters().degradedReads, 1u);
}

TEST_P(BaselineParam, DegradedWriteStaysConsistent)
{
    BaselineRig rig(kind(), level());
    const auto &g = rig.raidDev->geometry();
    const std::uint64_t span = 3 * g.stripeDataSize();
    std::vector<std::uint8_t> model(span, 0);
    ec::Buffer pre(span);
    pre.fillPattern(4);
    std::memcpy(model.data(), pre.data(), span);
    ASSERT_TRUE(writeSync(rig.sim(), *rig.raidDev, 0, pre));

    rig.raidDev->markFailed(0);
    sim::Rng rng(23);
    for (int i = 0; i < 20; ++i) {
        const std::uint32_t len =
            static_cast<std::uint32_t>(1024 * (1 + rng.nextBounded(48)));
        const std::uint64_t off = rng.nextBounded(span - len);
        ec::Buffer data(len);
        data.fillPattern(3000 + i);
        std::memcpy(model.data() + off, data.data(), len);
        ASSERT_TRUE(writeSync(rig.sim(), *rig.raidDev, off, data));
    }
    bool ok = false;
    ec::Buffer all = readSync(rig.sim(), *rig.raidDev, 0,
                              static_cast<std::uint32_t>(span), &ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(std::memcmp(all.data(), model.data(), span), 0);
}

TEST_P(BaselineParam, RebuildOntoSpare)
{
    BaselineRig rig(kind(), level(), 7, 6);
    const auto &g = rig.raidDev->geometry();
    ec::Buffer data(4 * g.stripeDataSize());
    data.fillPattern(5);
    ASSERT_TRUE(writeSync(rig.sim(), *rig.raidDev, 0, data));

    rig.raidDev->markFailed(2);
    int done = 0;
    for (std::uint64_t s = 0; s < 4; ++s) {
        rig.raidDev->reconstructChunk(s, 6, [&](bool ok) {
            EXPECT_TRUE(ok);
            ++done;
        });
    }
    rig.sim().run();
    EXPECT_EQ(done, 4);
    // The spare holds the failed device's chunks for every stripe.
    for (std::uint64_t s = 0; s < 4; ++s) {
        const std::uint64_t addr = g.deviceAddress(s, 0);
        ec::Buffer spare = rig.cluster->target(6).ssd().store().readSync(
            addr, g.chunkSize());
        // Compare with reconstruction from survivors.
        if (g.roleOf(s, 2) == raid::ChunkRole::kData) {
            std::vector<ec::Buffer> sur;
            for (std::uint32_t i = 0; i < g.dataChunks(); ++i) {
                const auto dev = g.dataDevice(s, i);
                if (dev != 2) {
                    sur.push_back(rig.cluster->target(dev)
                                      .ssd()
                                      .store()
                                      .readSync(addr, g.chunkSize()));
                }
            }
            sur.push_back(rig.cluster->target(g.parityDevice(s))
                              .ssd()
                              .store()
                              .readSync(addr, g.chunkSize()));
            EXPECT_TRUE(
                ec::Raid5Codec::recover(sur).contentEquals(spare))
                << "stripe " << s;
        }
    }
}

TEST_P(BaselineParam, SmallDegradedReadOfLostChunkOnly)
{
    // One extent inside the failed chunk: the recovered segment is the
    // whole result.
    BaselineRig rig(kind(), level());
    const auto &g = rig.raidDev->geometry();
    ec::Buffer data(2 * g.stripeDataSize());
    data.fillPattern(17);
    ASSERT_TRUE(writeSync(rig.sim(), *rig.raidDev, 0, data));

    const std::uint32_t failed_dev = 1;
    rig.raidDev->markFailed(failed_dev);
    const std::uint64_t off =
        static_cast<std::uint64_t>(g.dataIndexOf(0, failed_dev)) *
            g.chunkSize() +
        1000;
    bool ok = false;
    ec::Buffer got = readSync(rig.sim(), *rig.raidDev, off, 5000, &ok);
    ASSERT_TRUE(ok);
    ASSERT_EQ(got.size(), 5000u);
    EXPECT_EQ(std::memcmp(got.data(), data.data() + off, 5000), 0);
    EXPECT_EQ(rig.raidDev->counters().degradedReads, 1u);
}

TEST_P(BaselineParam, ReadResultSurvivesLaterOverwrite)
{
    // A read result is the caller's: overwriting the range afterwards,
    // healthy or degraded, must not change the bytes it already holds.
    BaselineRig rig(kind(), level());
    const auto &g = rig.raidDev->geometry();
    const std::uint32_t dev = g.dataDevice(0, 1);
    const std::uint64_t off = g.chunkSize() + 4096; // inside chunk 1
    const std::uint32_t len = 16 * 1024;
    ec::Buffer first(len), second(len), third(len);
    first.fillPattern(18);
    second.fillPattern(19);
    third.fillPattern(20);

    ASSERT_TRUE(writeSync(rig.sim(), *rig.raidDev, off, first));
    ec::Buffer healthy = readSync(rig.sim(), *rig.raidDev, off, len);
    ASSERT_TRUE(writeSync(rig.sim(), *rig.raidDev, off, second));
    EXPECT_TRUE(healthy.contentEquals(first));

    rig.raidDev->markFailed(dev);
    ec::Buffer degraded = readSync(rig.sim(), *rig.raidDev, off, len);
    ASSERT_TRUE(writeSync(rig.sim(), *rig.raidDev, off, third));
    EXPECT_TRUE(degraded.contentEquals(second));
    EXPECT_TRUE(readSync(rig.sim(), *rig.raidDev, off, len)
                    .contentEquals(third));
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, BaselineParam,
    ::testing::Combine(::testing::Values(Kind::kSpdk, Kind::kLinux),
                       ::testing::Values(RaidLevel::kRaid5,
                                         RaidLevel::kRaid6)));

TEST(BaselineTraffic, SpdkRmwCostsDoubleHostTx)
{
    // §2.3: host-centric RMW sends new data AND new parity through the
    // host NIC — 2x outbound for RAID-5.
    BaselineRig rig(Kind::kSpdk, RaidLevel::kRaid5, 8);
    ec::Buffer pre(rig.raidDev->geometry().stripeDataSize());
    pre.fillPattern(6);
    ASSERT_TRUE(writeSync(rig.sim(), *rig.raidDev, 0, pre));

    const std::uint64_t tx0 =
        rig.cluster->host().nic().tx().bytesTransferred();
    const std::uint64_t rx0 =
        rig.cluster->host().nic().rx().bytesTransferred();
    ec::Buffer data(64 * 1024); // one chunk: RMW
    data.fillPattern(7);
    ASSERT_TRUE(writeSync(rig.sim(), *rig.raidDev, 0, data));
    const std::uint64_t tx =
        rig.cluster->host().nic().tx().bytesTransferred() - tx0;
    const std::uint64_t rx =
        rig.cluster->host().nic().rx().bytesTransferred() - rx0;

    // Outbound: data + parity = 2 chunks; inbound: old data + old parity.
    EXPECT_GE(tx, 2u * 64 * 1024);
    EXPECT_LT(tx, 2u * 64 * 1024 + 8192);
    EXPECT_GE(rx, 2u * 64 * 1024);
}

TEST(BaselineTraffic, SpdkDegradedReadAmplifiesHostRx)
{
    // Table 1: D-Read overhead Nx for host-centric RAID.
    BaselineRig rig(Kind::kSpdk, RaidLevel::kRaid5, 8);
    const auto &g = rig.raidDev->geometry();
    ec::Buffer pre(2 * g.stripeDataSize());
    pre.fillPattern(8);
    ASSERT_TRUE(writeSync(rig.sim(), *rig.raidDev, 0, pre));
    rig.raidDev->markFailed(0);

    const std::uint32_t fidx = g.dataIndexOf(0, 0);
    const std::uint64_t off =
        static_cast<std::uint64_t>(fidx) * g.chunkSize();
    const std::uint64_t rx0 =
        rig.cluster->host().nic().rx().bytesTransferred();
    bool ok = false;
    readSync(rig.sim(), *rig.raidDev, off, g.chunkSize(), &ok);
    ASSERT_TRUE(ok);
    const std::uint64_t rx =
        rig.cluster->host().nic().rx().bytesTransferred() - rx0;
    // n-1 = 7 chunks cross the host NIC to deliver one.
    EXPECT_GE(rx, 7u * g.chunkSize());
}

TEST(BaselineBehaviour, SpdkLocksReadsLinuxDoesNot)
{
    BaselineRig spdk(Kind::kSpdk, RaidLevel::kRaid5);
    ec::Buffer pre(64 * 1024);
    pre.fillPattern(9);
    ASSERT_TRUE(writeSync(spdk.sim(), *spdk.raidDev, 0, pre));
    int completed = 0;
    for (int i = 0; i < 8; ++i) {
        spdk.raidDev->read(0, 4096,
                           [&](blockdev::IoStatus, ec::Buffer) {
                               ++completed;
                           });
    }
    spdk.sim().run();
    EXPECT_EQ(completed, 8);
    // SPDK POC serializes same-stripe reads through the stripe lock;
    // the contention counter proves the lock was exercised.
}

TEST(BaselineFailure, TimeoutFailsOverToDegraded)
{
    BaselineRig rig(Kind::kSpdk, RaidLevel::kRaid5);
    const auto &g = rig.raidDev->geometry();
    ec::Buffer pre(g.stripeDataSize());
    pre.fillPattern(10);
    ASSERT_TRUE(writeSync(rig.sim(), *rig.raidDev, 0, pre));

    const std::uint32_t victim = g.dataDevice(0, 0);
    rig.cluster->failTarget(victim);
    ec::Buffer data(8192);
    data.fillPattern(11);
    bool done = false;
    blockdev::IoStatus st = blockdev::IoStatus::kError;
    rig.raidDev->write(0, data.clone(), [&](blockdev::IoStatus s) {
        st = s;
        done = true;
        rig.sim().stop();
    });
    while (!done && rig.sim().pendingEvents() > 0)
        rig.sim().run();
    ASSERT_TRUE(done);
    EXPECT_EQ(st, blockdev::IoStatus::kOk);
    EXPECT_TRUE(rig.raidDev->isDegraded());
    ec::Buffer got = readSync(rig.sim(), *rig.raidDev, 0, 8192);
    EXPECT_TRUE(got.contentEquals(data));
}

TEST(BaselineFailure, ConcurrentWritesToOneDeadTargetFailItOverOnce)
{
    // Two writes on different stripes both hit the same dead target,
    // which holds a different data index in each. The first to use up its
    // retries fails the target over; the other finds it already failed
    // and finishes in degraded mode too, on SPDK and MD alike.
    for (const Kind kind : {Kind::kSpdk, Kind::kLinux}) {
        SCOPED_TRACE(kind == Kind::kSpdk ? "spdk" : "md");
        BaselineRig rig(kind, RaidLevel::kRaid5);
        const auto &g = rig.raidDev->geometry();
        ec::Buffer pre(2 * g.stripeDataSize());
        pre.fillPattern(12);
        ASSERT_TRUE(writeSync(rig.sim(), *rig.raidDev, 0, pre));

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
            data.back().fillPattern(13 + i);
            rig.raidDev->write(offsets[i], data.back().clone(),
                               [&, i](blockdev::IoStatus st) {
                                   status[i] = st;
                                   ++done;
                               });
        }
        rig.sim().runUntil(sim::Ticks::sec(2));

        ASSERT_EQ(done, 2);
        EXPECT_EQ(status[0], blockdev::IoStatus::kOk);
        EXPECT_EQ(status[1], blockdev::IoStatus::kOk);
        EXPECT_EQ(rig.raidDev->failedDevice(), victim);
        for (int i = 0; i < 2; ++i) {
            ec::Buffer got =
                readSync(rig.sim(), *rig.raidDev, offsets[i], 8192);
            EXPECT_TRUE(got.contentEquals(data[i])) << "write " << i;
        }
    }
}

TEST(BaselineFailure, LatentSectorErrorUnderRmwFailsNoDevice)
{
    // A read error names no suspect: an RMW whose old data sits on a
    // latent sector error uses up its retries and fails, but the healthy
    // drive under it is not failed over.
    BaselineRig rig(Kind::kSpdk, RaidLevel::kRaid5);
    const auto &g = rig.raidDev->geometry();
    ec::Buffer pre(g.stripeDataSize());
    pre.fillPattern(17);
    ASSERT_TRUE(writeSync(rig.sim(), *rig.raidDev, 0, pre));

    rig.cluster->target(g.dataDevice(0, 0))
        .ssd()
        .plantLatentSectorError(g.deviceAddress(0, 0), 4096);
    ec::Buffer data(8192);
    data.fillPattern(18);
    const auto rmw_before = rig.raidDev->counters().rmwWrites;
    EXPECT_FALSE(writeSync(rig.sim(), *rig.raidDev, 0, data));
    EXPECT_GT(rig.raidDev->counters().rmwWrites, rmw_before);
    EXPECT_FALSE(rig.raidDev->isDegraded());
}

TEST(BaselineFailure, FailedReadHandsBackZeros)
{
    // Reads that touch the down target must fail with `length` zero bytes:
    // a stripe-wide read, whose other chunks land in an assembled buffer
    // the error must not expose, and a read inside the down target's
    // chunk, a single piece with no assembled buffer to zero.
    BaselineRig rig(Kind::kSpdk, RaidLevel::kRaid5);
    const auto &g = rig.raidDev->geometry();
    ec::Buffer pre(g.stripeDataSize());
    pre.fillPattern(16);
    ASSERT_TRUE(writeSync(rig.sim(), *rig.raidDev, 0, pre));

    rig.cluster->failTarget(g.dataDevice(0, 0));
    const std::pair<std::uint64_t, std::uint32_t> reads[] = {
        {0, static_cast<std::uint32_t>(pre.size())},
        {4096, 8192},
    };
    for (const auto &[off, len] : reads) {
        SCOPED_TRACE(testing::Message() << "read " << off << "+" << len);
        auto [st, got] = readStatusSync(rig.sim(), *rig.raidDev, off, len);
        EXPECT_EQ(st, blockdev::IoStatus::kError);
        EXPECT_TRUE(got.contentEquals(ec::Buffer(len)));
    }
}

TEST(BaselineFailure, RetriedDegradedWriteKeepsFailedChunkBytes)
{
    // The host-centric twin of the dRAID case: the targeted parity update
    // of a write to the failed chunk cannot read a survivor that is down
    // for a while, and every retry must still carry the new bytes.
    BaselineRig rig(Kind::kSpdk, RaidLevel::kRaid5);
    const auto &g = rig.raidDev->geometry();
    ec::Buffer pre(2 * g.stripeDataSize());
    pre.fillPattern(14);
    ASSERT_TRUE(writeSync(rig.sim(), *rig.raidDev, 0, pre));

    rig.raidDev->markFailed(g.dataDevice(0, 0));
    const std::uint32_t victim = g.dataDevice(0, 1);
    rig.cluster->failTarget(victim);
    rig.sim().schedule(sim::Ticks::ms(60),
                       [&]() { rig.cluster->recoverTarget(victim); });

    ec::Buffer data(8192);
    data.fillPattern(15);
    bool done = false;
    blockdev::IoStatus st = blockdev::IoStatus::kError;
    rig.raidDev->write(0, data.clone(), [&](blockdev::IoStatus s) {
        st = s;
        done = true;
        rig.sim().stop();
    });
    while (!done && rig.sim().pendingEvents() > 0)
        rig.sim().run();
    ASSERT_TRUE(done);
    EXPECT_EQ(st, blockdev::IoStatus::kOk);
    EXPECT_GE(rig.raidDev->counters().retries, 1u);
    bool ok = false;
    ec::Buffer got = readSync(rig.sim(), *rig.raidDev, 0, 8192, &ok);
    ASSERT_TRUE(ok);
    EXPECT_TRUE(got.contentEquals(data));
}
