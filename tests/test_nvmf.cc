// NVMe-oF initiator + target over the simulated fabric: data fidelity,
// completion matching, timeouts.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "blockdev/nvmf_initiator.h"
#include "blockdev/nvmf_target.h"
#include "cluster/cluster.h"

using namespace draid;
using namespace draid::blockdev;
using namespace draid::cluster;

namespace {

/** Host endpoint that forwards completions to the initiator. */
class HostShim : public net::Endpoint
{
  public:
    explicit HostShim(NvmfInitiator &init) : init_(init) {}

    void
    onMessage(const net::Message &msg) override
    {
        init_.tryComplete(msg);
    }

  private:
    NvmfInitiator &init_;
};

struct Rig
{
    TestbedConfig cfg;
    Cluster cluster;
    CommandIdAllocator ids;
    NvmfInitiator initiator;
    HostShim shim;
    std::vector<std::unique_ptr<NvmfTarget>> targets;

    explicit Rig(std::uint32_t n = 2)
        : cluster(cfg, n), initiator(cluster, ids), shim(initiator)
    {
        cluster.fabric().setEndpoint(cluster.hostId(), &shim);
        for (std::uint32_t i = 0; i < n; ++i)
            targets.push_back(std::make_unique<NvmfTarget>(cluster, i));
    }
};

} // namespace

TEST(Nvmf, RemoteWriteThenReadRoundTrips)
{
    Rig rig;
    ec::Buffer data(64 * 1024);
    data.fillPattern(21);

    bool wrote = false;
    rig.initiator.writeRemote(0, 4096, data, [&](IoStatus st) {
        wrote = st == IoStatus::kOk;
    });
    rig.cluster.sim().run();
    EXPECT_TRUE(wrote);

    ec::Buffer got;
    rig.initiator.readRemote(0, 4096, 64 * 1024,
                             [&](IoStatus st, ec::Buffer d) {
                                 ASSERT_EQ(st, IoStatus::kOk);
                                 // Held alone, so an RMW may take its
                                 // delta in place.
                                 EXPECT_TRUE(d.unique());
                                 got = std::move(d);
                             });
    rig.cluster.sim().run();
    EXPECT_TRUE(got.contentEquals(data));
}

TEST(Nvmf, TargetsAreIndependent)
{
    Rig rig(2);
    ec::Buffer a(4096), b(4096);
    a.fill(0x0a);
    b.fill(0x0b);
    rig.initiator.writeRemote(0, 0, a, [](IoStatus) {});
    rig.initiator.writeRemote(1, 0, b, [](IoStatus) {});
    rig.cluster.sim().run();

    EXPECT_TRUE(rig.cluster.target(0).ssd().store().readSync(0, 4096)
                    .contentEquals(a));
    EXPECT_TRUE(rig.cluster.target(1).ssd().store().readSync(0, 4096)
                    .contentEquals(b));
}

TEST(Nvmf, ManyOutstandingOpsAllComplete)
{
    Rig rig;
    int completed = 0;
    for (int i = 0; i < 100; ++i) {
        rig.initiator.writeRemote(0, static_cast<std::uint64_t>(i) * 8192,
                                  ec::Buffer(8192),
                                  [&](IoStatus st) {
                                      if (st == IoStatus::kOk)
                                          ++completed;
                                  });
    }
    rig.cluster.sim().run();
    EXPECT_EQ(completed, 100);
    EXPECT_EQ(rig.initiator.pendingOps(), 0u);
}

TEST(Nvmf, WriteChargesHostTxAndTargetRx)
{
    Rig rig;
    const std::uint64_t host_tx0 =
        rig.cluster.host().nic().tx().bytesTransferred();
    rig.initiator.writeRemote(0, 0, ec::Buffer(1 << 20), [](IoStatus) {});
    rig.cluster.sim().run();
    const std::uint64_t host_tx =
        rig.cluster.host().nic().tx().bytesTransferred() - host_tx0;
    // Payload (1 MB) plus a command capsule.
    EXPECT_GE(host_tx, 1u << 20);
    EXPECT_LT(host_tx, (1u << 20) + 1024);
}

TEST(Nvmf, ReadChargesTargetTxAndHostRx)
{
    Rig rig;
    rig.initiator.readRemote(0, 0, 1 << 20,
                             [](IoStatus, ec::Buffer) {});
    rig.cluster.sim().run();
    EXPECT_GE(rig.cluster.target(0).nic().tx().bytesTransferred(),
              1u << 20);
    EXPECT_GE(rig.cluster.host().nic().rx().bytesTransferred(), 1u << 20);
}

TEST(Nvmf, TimeoutFiresWhenTargetDown)
{
    Rig rig;
    rig.cluster.failTarget(0);
    IoStatus status = IoStatus::kOk;
    rig.initiator.readRemote(0, 0, 4096, [&](IoStatus st, ec::Buffer) {
        status = st;
    });
    rig.cluster.sim().run();
    EXPECT_EQ(status, IoStatus::kTimedOut);
    EXPECT_EQ(rig.initiator.timeoutsFired(), 1u);
    EXPECT_EQ(rig.initiator.pendingOps(), 0u);
}

TEST(Nvmf, TimeoutWhileQueuedOnHostCpuStillSendsOnce)
{
    // The deadline fires while the command still waits on the host CPU:
    // the callback runs once, with kTimedOut, and the capsule is still
    // sent when the CPU gets to it, even with a later command queued.
    Rig rig;
    rig.cluster.host().cpu().execute(sim::Ticks::ms(60), [] {});
    ec::Buffer data(4096);
    data.fill(0x5a);
    int calls = 0;
    IoStatus status = IoStatus::kOk;
    rig.initiator.writeRemote(0, 0, data, [&](IoStatus st) {
        ++calls;
        status = st;
    });
    rig.cluster.sim().runUntil(sim::Ticks::ms(55));
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(status, IoStatus::kTimedOut);
    IoStatus later = IoStatus::kError;
    rig.initiator.readRemote(0, 8192, 4096,
                             [&](IoStatus st, ec::Buffer) { later = st; });
    rig.cluster.sim().run();
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(later, IoStatus::kOk);
    EXPECT_EQ(rig.initiator.pendingOps(), 0u);
    EXPECT_TRUE(rig.cluster.target(0).ssd().store().readSync(0, 4096)
                    .contentEquals(data));
    EXPECT_TRUE(data.unique());
}

TEST(Nvmf, DroppedTransferReleasesTheTargetsCommand)
{
    // The target goes down after a write's capsule reached it, so the
    // fabric drops the payload pull; the target must let go of the
    // payload, since no completion will ever run for it.
    Rig rig;
    const ec::Buffer data(4096);
    IoStatus status = IoStatus::kOk;
    rig.initiator.writeRemote(0, 0, data, [&](IoStatus st) { status = st; });
    while (rig.cluster.fabric().messagesDelivered() == 0)
        rig.cluster.sim().runFor(sim::Ticks{50});
    rig.cluster.failTarget(0);
    rig.cluster.sim().run();
    EXPECT_EQ(status, IoStatus::kTimedOut);
    EXPECT_EQ(rig.cluster.target(0).ssd().writesCompleted(), 0u);
    EXPECT_TRUE(data.unique());
}

TEST(Nvmf, RecoveredTargetServesAgain)
{
    Rig rig;
    rig.cluster.failTarget(0);
    rig.initiator.readRemote(0, 0, 512, [](IoStatus, ec::Buffer) {});
    rig.cluster.sim().run();
    rig.cluster.recoverTarget(0);
    IoStatus status = IoStatus::kError;
    rig.initiator.readRemote(0, 0, 512, [&](IoStatus st, ec::Buffer) {
        status = st;
    });
    rig.cluster.sim().run();
    EXPECT_EQ(status, IoStatus::kOk);
}

TEST(Nvmf, UnknownCompletionIgnored)
{
    Rig rig;
    proto::Capsule c;
    c.opcode = proto::Opcode::kCompletion;
    c.commandId = 0xdeadull;
    EXPECT_FALSE(rig.initiator.tryComplete(
        net::Message{1, 0, c, {}}));
}

TEST(NvmfBatch, CallsBackOnceWithResultsInListOrder)
{
    Rig rig;
    ec::Buffer a(8192), b(4096);
    a.fillPattern(31);
    b.fillPattern(32);
    rig.cluster.target(0).ssd().store().writeSync(0, a);
    rig.cluster.target(1).ssd().store().writeSync(4096, b);

    ec::Buffer w(4096);
    w.fillPattern(33);
    std::vector<BatchIo> ios;
    ios.push_back(BatchIo::read(5, 1, 4096, 4096));
    ios.push_back(BatchIo::write(6, 1, 65536, w));
    ios.push_back(BatchIo::read(7, 0, 0, 8192));
    int calls = 0;
    BatchResult got;
    rig.initiator.submitBatch(std::move(ios), 0, [&](BatchResult r) {
        ++calls;
        got = std::move(r);
    });
    rig.cluster.sim().run();

    EXPECT_EQ(calls, 1);
    EXPECT_TRUE(got.ok);
    EXPECT_FALSE(got.suspect.has_value());
    ASSERT_EQ(got.ios.size(), 3u);
    const std::uint32_t devices[] = {5, 6, 7};
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(got.ios[i].device, devices[i]);
        EXPECT_EQ(got.ios[i].status, IoStatus::kOk);
    }
    EXPECT_TRUE(got.ios[0].data.contentEquals(b));
    EXPECT_TRUE(got.ios[1].data.empty());
    EXPECT_TRUE(got.ios[2].data.contentEquals(a));
    EXPECT_TRUE(rig.cluster.target(1).ssd().store().readSync(65536, 4096)
                    .contentEquals(w));
    EXPECT_EQ(rig.initiator.pendingOps(), 0u);
}

TEST(NvmfBatch, SuspectIsTheFirstTimedOutCommandsDevice)
{
    // A read error comes first in the list but names no suspect; of the
    // two commands that time out, the earlier in list order is blamed,
    // by the member device it stands for, not by its cluster target.
    Rig rig(3);
    rig.cluster.target(0).ssd().plantLatentSectorError(0, 4096);
    rig.cluster.failTarget(2);
    rig.cluster.failTarget(1);
    std::vector<BatchIo> ios;
    ios.push_back(BatchIo::read(10, 0, 0, 4096));
    ios.push_back(BatchIo::read(12, 2, 0, 4096));
    ios.push_back(BatchIo::write(11, 1, 0, ec::Buffer(4096)));
    int calls = 0;
    BatchResult got;
    rig.initiator.submitBatch(std::move(ios), 0, [&](BatchResult r) {
        ++calls;
        got = std::move(r);
    });
    rig.cluster.sim().run();

    EXPECT_EQ(calls, 1);
    EXPECT_FALSE(got.ok);
    ASSERT_EQ(got.ios.size(), 3u);
    EXPECT_EQ(got.ios[0].status, IoStatus::kError);
    EXPECT_EQ(got.ios[1].status, IoStatus::kTimedOut);
    EXPECT_EQ(got.ios[2].status, IoStatus::kTimedOut);
    EXPECT_TRUE(got.ios[0].data.empty());
    EXPECT_EQ(got.suspect, 12u);
}

TEST(NvmfBatch, ReadErrorAloneNamesNoSuspect)
{
    Rig rig;
    rig.cluster.target(0).ssd().plantLatentSectorError(0, 4096);
    std::vector<BatchIo> ios;
    ios.push_back(BatchIo::read(0, 0, 0, 4096));
    ios.push_back(BatchIo::read(1, 1, 0, 4096));
    BatchResult got;
    rig.initiator.submitBatch(std::move(ios), 0,
                              [&](BatchResult r) { got = std::move(r); });
    rig.cluster.sim().run();

    EXPECT_FALSE(got.ok);
    EXPECT_EQ(got.ios[0].status, IoStatus::kError);
    EXPECT_EQ(got.ios[1].status, IoStatus::kOk);
    EXPECT_FALSE(got.suspect.has_value());
}
