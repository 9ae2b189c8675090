// dRAID protocol-level behaviour: bandwidth accounting (the paper's core
// claim), pipeline/barrier/relay ablations, late-Parity tolerance.

#include <gtest/gtest.h>

#include <cstring>

#include "draid_test_util.h"
#include "workload/fio.h"

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

/** Host tx bytes consumed by one partial-stripe write of `len` bytes. */
std::uint64_t
hostTxForWrite(DraidRig &rig, std::uint32_t len)
{
    ec::Buffer data(len);
    data.fillPattern(9);
    const std::uint64_t tx0 =
        rig.cluster->host().nic().tx().bytesTransferred();
    EXPECT_TRUE(writeSync(rig.sim(), rig.host(), 0, data));
    return rig.cluster->host().nic().tx().bytesTransferred() - tx0;
}

} // namespace

TEST(DraidProtocol, PartialWriteCostsOneUserByteOfHostTx)
{
    // The headline property (§5, Table 1): write overhead 1x at the host.
    DraidRig rig(8, opts());
    const std::uint64_t tx = hostTxForWrite(rig, 128 * 1024);
    EXPECT_GE(tx, 128u * 1024);
    EXPECT_LT(tx, 128u * 1024 + 4096); // + command capsules only
}

TEST(DraidProtocol, PartialParitiesFlowBetweenPeers)
{
    DraidRig rig(8, opts());
    const auto &g = rig.host().geometry();
    ec::Buffer data(128 * 1024);
    data.fillPattern(10);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, data));

    // The written chunks' devices forwarded partial parities: their tx
    // must exceed the paper-trail of small capsules.
    const std::uint32_t dev0 = g.dataDevice(0, 0);
    EXPECT_GE(rig.cluster->target(dev0).nic().tx().bytesTransferred(),
              64u * 1024);
    // And the P bdev pulled them: rx at least the forwarded bytes.
    const std::uint32_t p_dev = g.parityDevice(0);
    EXPECT_GE(rig.cluster->target(p_dev).nic().rx().bytesTransferred(),
              128u * 1024);
}

TEST(DraidProtocol, HostRelayAblationBurnsHostBandwidth)
{
    // p2pForwarding=false models a conventional distributed RAID: the
    // partial parities are relayed through the host.
    auto o = opts();
    o.p2pForwarding = false;
    DraidRig rig(8, o);
    const std::uint64_t tx = hostTxForWrite(rig, 128 * 1024);
    // Host tx now carries user bytes + relayed partial parities.
    EXPECT_GE(tx, 2u * 128 * 1024 - 4096);

    // Data must still be correct.
    ec::Buffer got = readSync(rig.sim(), rig.host(), 0, 128 * 1024);
    ec::Buffer expect(128 * 1024);
    expect.fillPattern(9);
    EXPECT_TRUE(got.contentEquals(expect));
    EXPECT_TRUE(scrubStripe(*rig.cluster, rig.host().geometry(), 0));
}

TEST(DraidProtocol, BarrierAblationStillCorrect)
{
    auto o = opts();
    o.nonBlockingReduce = false;
    DraidRig rig(8, o);
    ec::Buffer data(100 * 1024);
    data.fillPattern(11);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 12345, data));
    ec::Buffer got = readSync(rig.sim(), rig.host(), 12345, 100 * 1024);
    EXPECT_TRUE(got.contentEquals(data));
    EXPECT_TRUE(scrubStripe(*rig.cluster, rig.host().geometry(), 0));
}

TEST(DraidProtocol, BarrierAblationDegradedReadReduces)
{
    // A Reconstruction reducer in barrier mode waits for its peers'
    // stashed partials, then reduces them: the read returns the lost
    // bytes and leaves no session behind.
    auto o = opts();
    o.nonBlockingReduce = false;
    DraidRig rig(6, o);
    const auto &g = rig.host().geometry();
    ec::Buffer data(g.stripeDataSize());
    data.fillPattern(13);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, data));

    rig.host().markFailed(0);
    const std::uint64_t off =
        static_cast<std::uint64_t>(g.dataIndexOf(0, 0)) * g.chunkSize();
    auto [st, got] = readStatusSync(rig.sim(), rig.host(), off, 4096);
    ASSERT_EQ(st, blockdev::IoStatus::kOk);
    ASSERT_EQ(got.size(), 4096u);
    EXPECT_EQ(std::memcmp(got.data(), data.data() + off, 4096), 0);
    for (std::uint32_t i = 0; i < rig.cluster->numTargets(); ++i)
        EXPECT_EQ(rig.system->bdev(i).reduceEngine().activeSessions(), 0u)
            << "bdev " << i;
}

TEST(DraidProtocol, NoPipelineAblationStillCorrect)
{
    auto o = opts();
    o.pipeline = false;
    DraidRig rig(8, o);
    ec::Buffer data(100 * 1024);
    data.fillPattern(12);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 12345, data));
    ec::Buffer got = readSync(rig.sim(), rig.host(), 12345, 100 * 1024);
    EXPECT_TRUE(got.contentEquals(data));
    EXPECT_TRUE(scrubStripe(*rig.cluster, rig.host().geometry(), 0));
}

TEST(DraidProtocol, PipelineImprovesWriteLatency)
{
    // §5.3: overlapping fetch/read/write/forward must strictly reduce
    // partial-write latency versus the serial flow.
    auto run_once = [](bool pipeline) {
        auto o = opts();
        o.pipeline = pipeline;
        DraidRig rig(8, o);
        workload::FioConfig fio;
        fio.ioSize = 64 * 1024;
        fio.ioDepth = 1;
        fio.numOps = 50;
        fio.workingSetBytes = 8ull << 20;
        workload::FioJob job(rig.sim(), rig.host(), fio);
        return job.run().avgLatencyUs;
    };
    const double piped = run_once(true);
    const double serial = run_once(false);
    EXPECT_LT(piped, serial);
}

namespace {

/** Captures the completion a bdev sends back to the "host". */
class CompletionCatcher : public net::Endpoint
{
  public:
    void
    onMessage(const net::Message &msg) override
    {
        if (msg.capsule.opcode == proto::Opcode::kCompletion)
            completions.push_back(msg.capsule);
    }

    std::vector<proto::Capsule> completions;
};

} // namespace

TEST(DraidProtocol, LateParityCommandIsToleratedAndReducesEagerly)
{
    // Drive the server-side controller directly (§5.2): a Peer partial
    // arrives BEFORE the Parity command. The bdev must absorb it
    // immediately and only persist once the Parity command lands.
    cluster::TestbedConfig cfg = smallConfig();
    cluster::Cluster cluster(cfg, 2);
    core::DraidOptions o = opts();
    core::DraidBdev parity_bdev(cluster, 0, o);
    core::DraidBdev peer_bdev(cluster, 1, o);
    CompletionCatcher host;
    cluster.fabric().setEndpoint(cluster.hostId(), &host);

    const std::uint64_t op = 7;
    const std::uint32_t len = 4096;

    ec::Buffer partial(len);
    partial.fillPattern(77);

    // Peer announcement from target 1 (node id 2) to target 0 (node 1).
    proto::Capsule peer;
    peer.opcode = proto::Opcode::kPeer;
    peer.commandId = core::makeCmdId(op, 1);
    peer.fwdOffset = 0;
    peer.fwdLength = len;
    cluster.fabric().send(net::Message{cluster.targetNodeId(1),
                                       cluster.targetNodeId(0), peer,
                                       partial});
    cluster.sim().runFor(sim::Ticks::ms(5));

    // The partial was reduced eagerly but nothing persisted yet.
    auto *session = parity_bdev.reduceEngine().find(op);
    ASSERT_NE(session, nullptr);
    EXPECT_EQ(session->absorbed, 1u);
    EXPECT_FALSE(session->hostCmdSeen);
    EXPECT_TRUE(host.completions.empty());
    EXPECT_EQ(cluster.target(0).ssd().writesCompleted(), 0u);

    // Now the (late) Parity command arrives from the host.
    proto::Capsule par;
    par.opcode = proto::Opcode::kParity;
    par.commandId = core::makeCmdId(op, core::kParitySub);
    par.subtype = proto::Subtype::kNone;
    par.offset = 0;
    par.length = len;
    par.fwdOffset = 0;
    par.fwdLength = len;
    par.waitNum = 1;
    cluster.fabric().send(net::Message{cluster.hostId(),
                                       cluster.targetNodeId(0), par, {}});
    cluster.sim().runFor(sim::Ticks::ms(5));

    EXPECT_GE(parity_bdev.counters().lateParityCmds, 1u);
    ASSERT_EQ(host.completions.size(), 1u);
    EXPECT_EQ(host.completions[0].status, proto::Status::kSuccess);
    EXPECT_TRUE(cluster.target(0).ssd().store().readSync(0, len)
                    .contentEquals(partial));
    EXPECT_EQ(parity_bdev.reduceEngine().activeSessions(), 0u);
}

TEST(DraidProtocol, BdevCountersTrackOperations)
{
    DraidRig rig(8, opts());
    const auto &g = rig.host().geometry();
    ec::Buffer data(64 * 1024); // single-chunk RMW
    data.fillPattern(14);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, data));

    const std::uint32_t d_dev = g.dataDevice(0, 0);
    const std::uint32_t p_dev = g.parityDevice(0);
    EXPECT_EQ(rig.system->bdev(d_dev).counters().partialWrites, 1u);
    EXPECT_EQ(rig.system->bdev(p_dev).counters().parityCmds, 1u);
    EXPECT_GE(rig.system->bdev(p_dev).counters().peersAbsorbed, 1u);
    EXPECT_EQ(rig.system->bdev(p_dev).counters().reductionsFinished, 1u);
    EXPECT_EQ(rig.system->bdev(p_dev).reduceEngine().activeSessions(), 0u);
}

TEST(DraidProtocol, ReadsAreLockFree)
{
    DraidRig rig(8, opts());
    ec::Buffer data(64 * 1024);
    data.fillPattern(15);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, data));

    int completed = 0;
    for (int i = 0; i < 16; ++i) {
        rig.host().read(0, 4096, [&](blockdev::IoStatus, ec::Buffer) {
            ++completed;
        });
    }
    rig.sim().run();
    EXPECT_EQ(completed, 16);
    // Reads never touched the write-lock table.
    EXPECT_EQ(rig.host().stripeLocks().contendedAcquires(), 0u);
}

TEST(DraidProtocol, FullStripeWriteSkipsPeerForwarding)
{
    DraidRig rig(8, opts());
    const auto &g = rig.host().geometry();
    ec::Buffer data(g.stripeDataSize());
    data.fillPattern(16);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, data));
    // FSW computes parity at the host: no Parity/Peer commands at all.
    for (std::uint32_t i = 0; i < rig.system->numBdevs(); ++i) {
        EXPECT_EQ(rig.system->bdev(i).counters().parityCmds, 0u);
        EXPECT_EQ(rig.system->bdev(i).counters().peersAbsorbed, 0u);
    }
}
