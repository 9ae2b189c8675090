// Fabric: delivery, bandwidth charging, duplex independence, failure
// injection.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "blockdev/nvmf_initiator.h"
#include "blockdev/nvmf_target.h"
#include "cluster/cluster.h"
#include "net/fabric.h"
#include "net/rdma.h"
#include "sim/simulator.h"

using namespace draid;
using namespace draid::net;
using namespace draid::sim;

namespace {

class Recorder : public Endpoint
{
  public:
    void
    onMessage(const Message &msg) override
    {
        if (messages.empty())
            firstSgList = msg.capsule.sgList.data();
        messages.push_back(msg);
    }

    std::vector<Message> messages;
    /** SGE storage of the first message as delivered (not the copy kept). */
    const proto::Sge *firstSgList = nullptr;
};

struct Rig
{
    Simulator sim;
    Fabric fabric{sim, Ticks{1500}};
    Nic nicA{sim, 1e9, Ticks::zero()};
    Nic nicB{sim, 1e9, Ticks::zero()};
    Recorder epA, epB;

    Rig()
    {
        fabric.attach(0, nicA, &epA);
        fabric.attach(1, nicB, &epB);
    }
};

/** One host initiator and one plain NVMe-oF target. */
struct NvmfRig : Endpoint
{
    cluster::TestbedConfig cfg;
    cluster::Cluster cluster{cfg, 1};
    blockdev::CommandIdAllocator ids;
    blockdev::NvmfInitiator initiator{cluster, ids};
    blockdev::NvmfTarget target{cluster, 0};

    NvmfRig() { cluster.fabric().setEndpoint(cluster.hostId(), this); }

    void onMessage(const Message &msg) override { initiator.tryComplete(msg); }
};

} // namespace

TEST(Fabric, DeliversMessageToEndpoint)
{
    Rig rig;
    proto::Capsule c;
    c.opcode = proto::Opcode::kRead;
    c.commandId = 42;
    rig.fabric.send(Message{0, 1, c, {}});
    rig.sim.run();
    ASSERT_EQ(rig.epB.messages.size(), 1u);
    EXPECT_EQ(rig.epB.messages[0].capsule.commandId, 42u);
    EXPECT_EQ(rig.epB.messages[0].from, 0u);
}

TEST(Fabric, DeliveryIncludesPropagationDelay)
{
    Rig rig;
    proto::Capsule c;
    Tick delivered = -1;
    class TimeEp : public Endpoint
    {
      public:
        TimeEp(Simulator &s_, Tick &t_) : sim(s_), t(t_) {}
        void onMessage(const Message &) override { t = sim.now().raw(); }
        Simulator &sim;
        Tick &t;
    } ep(rig.sim, delivered);
    rig.fabric.setEndpoint(1, &ep);
    rig.fabric.send(Message{0, 1, c, {}});
    rig.sim.run();
    // 64 B capsule at 1 B/ns + 1500 ns propagation.
    EXPECT_EQ(delivered, 64 + 1500);
}

TEST(Fabric, RdmaReadChargesTargetTxAndInitiatorRx)
{
    Rig rig;
    bool done = false;
    rig.fabric.rdmaRead(0, 1, 1 << 20, [&]() { done = true; });
    rig.sim.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(rig.nicB.tx().bytesTransferred(), 1u << 20);
    EXPECT_EQ(rig.nicA.rx().bytesTransferred(), 1u << 20);
    EXPECT_EQ(rig.nicA.tx().bytesTransferred(), 0u);
}

TEST(Fabric, RdmaWriteChargesInitiatorTxAndTargetRx)
{
    Rig rig;
    rig.fabric.rdmaWrite(0, 1, 4096, []() {});
    rig.sim.run();
    EXPECT_EQ(rig.nicA.tx().bytesTransferred(), 4096u);
    EXPECT_EQ(rig.nicB.rx().bytesTransferred(), 4096u);
}

TEST(Fabric, FullDuplexDirectionsIndependent)
{
    Rig rig;
    Tick t_read = -1, t_write = -1;
    // Simultaneous opposite transfers should not serialize.
    rig.fabric.rdmaRead(0, 1, 1000000, [&]() { t_read = rig.sim.now().raw(); });
    rig.fabric.rdmaWrite(0, 1, 1000000, [&]() { t_write = rig.sim.now().raw(); });
    rig.sim.run();
    EXPECT_EQ(t_read, 1000000 + 1500);
    EXPECT_EQ(t_write, 1000000 + 1500);
}

TEST(Fabric, SameDirectionTransfersSerialize)
{
    Rig rig;
    Tick t1 = -1, t2 = -1;
    rig.fabric.rdmaWrite(0, 1, 1000000, [&]() { t1 = rig.sim.now().raw(); });
    rig.fabric.rdmaWrite(0, 1, 1000000, [&]() { t2 = rig.sim.now().raw(); });
    rig.sim.run();
    EXPECT_EQ(t1, 1000000 + 1500);
    EXPECT_EQ(t2, 2000000 + 1500);
}

TEST(Fabric, DownNodeDropsMessages)
{
    Rig rig;
    rig.fabric.setNodeDown(1, true);
    rig.fabric.send(Message{0, 1, proto::Capsule{}, {}});
    bool done = false;
    rig.fabric.rdmaRead(0, 1, 100, [&]() { done = true; });
    rig.sim.run();
    EXPECT_TRUE(rig.epB.messages.empty());
    EXPECT_FALSE(done);
    EXPECT_EQ(rig.fabric.messagesDropped(), 2u);

    rig.fabric.setNodeDown(1, false);
    rig.fabric.send(Message{0, 1, proto::Capsule{}, {}});
    rig.sim.run();
    EXPECT_EQ(rig.epB.messages.size(), 1u);
}

TEST(Fabric, ExtraDelayInjected)
{
    Rig rig;
    Tick t = -1;
    class TimeEp : public Endpoint
    {
      public:
        TimeEp(Simulator &s_, Tick &t_) : sim(s_), t(t_) {}
        void onMessage(const Message &) override { t = sim.now().raw(); }
        Simulator &sim;
        Tick &t;
    } ep(rig.sim, t);
    rig.fabric.setEndpoint(1, &ep);
    rig.fabric.setExtraDelay(1, Ticks{10000});
    rig.fabric.send(Message{0, 1, proto::Capsule{}, {}});
    rig.sim.run();
    EXPECT_EQ(t, 64 + 1500 + 10000);
}

TEST(Fabric, PayloadHandleTravelsWithCapsule)
{
    Rig rig;
    ec::Buffer payload(128);
    payload.fillPattern(5);
    rig.fabric.send(Message{0, 1, proto::Capsule{}, payload});
    rig.sim.run();
    ASSERT_EQ(rig.epB.messages.size(), 1u);
    EXPECT_TRUE(rig.epB.messages[0].payload.contentEquals(payload));
}

TEST(Fabric, CompletionIsMovedThroughNotCopied)
{
    // Both NIC-pipe callbacks of a transfer share one join state, so the
    // completion closure is never copied and runs exactly once.
    struct CopyCounter
    {
        int *copies;
        int *runs;
        CopyCounter(int *c, int *r) : copies(c), runs(r) {}
        CopyCounter(const CopyCounter &o) : copies(o.copies), runs(o.runs)
        {
            ++*copies;
        }
        CopyCounter(CopyCounter &&) = default;
        void operator()() const { ++*runs; }
    };
    Rig rig;
    int copies = 0;
    int runs = 0;
    EventFn done = CopyCounter{&copies, &runs};
    rig.fabric.rdmaWrite(0, 1, 4096, std::move(done));
    rig.sim.run();
    EXPECT_EQ(copies, 0);
    EXPECT_EQ(runs, 1);

    // send(): the completion owns the Message. A copy would deep-copy the
    // capsule's SGE vector, so the delivered vector must be the one that
    // was sent.
    proto::Capsule c;
    c.sgList = {proto::Sge{4096, 512}, proto::Sge{8192, 512}};
    const proto::Sge *sent = c.sgList.data();
    rig.fabric.send(Message{0, 1, std::move(c), {}});
    rig.sim.run();
    ASSERT_EQ(rig.epB.messages.size(), 1u);
    EXPECT_EQ(rig.fabric.messagesDelivered(), 1u);
    EXPECT_EQ(rig.epB.firstSgList, sent);
}

TEST(Fabric, InFlightCompletionsAreReleasedWithTheCluster)
{
    // Each component owns the state of the commands it has in flight
    // (the fabric its transfers and messages, the initiator, target and
    // SSD their commands), so callbacks and payloads still held anywhere
    // when the cluster goes away are destroyed with it, not leaked.
    auto sentinel = std::make_shared<int>(0);
    ec::Buffer payload(64);
    {
        Rig rig;
        rig.fabric.rdmaWrite(0, 1, 4096, [token = sentinel] {});
        rig.fabric.send(Message{0, 1, proto::Capsule{}, payload});
        // At 1 GB/s the 4 KB write leaves both pipes at 4,096 ns and
        // delivers 1,500 ns later: stop in between.
        rig.sim.runUntil(Ticks{4200});
        rig.fabric.rdmaWrite(0, 1, 1 << 20, [token = sentinel] {});
        EXPECT_EQ(sentinel.use_count(), 3);
        EXPECT_FALSE(payload.unique());
        EXPECT_EQ(rig.epB.messages.size(), 0u);
    }
    EXPECT_EQ(sentinel.use_count(), 1);
    EXPECT_TRUE(payload.unique());

    // Then one NVMe-oF read, one write and a batch of both, with the
    // cluster destroyed at the first tick of every stage of their life
    // that the counters can tell apart: pending in the initiator, queued
    // on the host CPU, on the wire, in the target's CPU queue, in the SSD
    // channel and media latency, pushed back, and as a completion on the
    // host CPU.
    int done = 0;
    const auto issue = [&done](NvmfRig &rig, std::shared_ptr<int> token,
                               const ec::Buffer &data) {
        rig.initiator.readRemote(
            0, 0, 4096, [&done, token](blockdev::IoStatus, ec::Buffer) {
                ++done;
            });
        rig.initiator.writeRemote(
            0, 1 << 20, data, [&done, token](blockdev::IoStatus) {
                ++done;
            });
        std::vector<blockdev::BatchIo> ios;
        ios.push_back(blockdev::BatchIo::read(0, 0, 8192, 4096));
        ios.push_back(blockdev::BatchIo::write(0, 0, 2 << 20, data));
        rig.initiator.submitBatch(std::move(ios), 0,
                                  [&done, token](blockdev::BatchResult) {
                                      ++done;
                                  });
    };
    const auto stage = [&done](NvmfRig &rig) {
        nvme::Ssd &ssd = rig.cluster.target(0).ssd();
        return std::tuple{rig.cluster.fabric().messagesDelivered(),
                          rig.initiator.pendingOps(),
                          rig.cluster.host().cpu().busyTime().raw(),
                          rig.cluster.target(0).cpu().busyTime().raw(),
                          rig.cluster.target(0).nic().tx().bytesTransferred(),
                          ssd.bytesRead(), ssd.bytesWritten(),
                          ssd.readsCompleted(), ssd.writesCompleted(), done};
    };
    std::vector<Ticks> stops{Ticks::zero()};
    {
        NvmfRig rig;
        const ec::Buffer data(4096);
        issue(rig, nullptr, data);
        std::set<decltype(stage(rig))> seen{stage(rig)};
        for (Ticks t{50}; done < 3; t += Ticks{50}) {
            rig.cluster.sim().runUntil(t);
            if (seen.insert(stage(rig)).second)
                stops.push_back(t);
        }
        // Released slots keep no payload alive.
        EXPECT_TRUE(data.unique());
    }
    ASSERT_GE(stops.size(), 10u);
    stops.pop_back(); // every callback has run
    for (const Ticks stop : stops) {
        ec::Buffer data(4096);
        {
            NvmfRig rig;
            issue(rig, sentinel, data);
            rig.cluster.sim().runUntil(stop);
            EXPECT_GT(sentinel.use_count(), 1) << "at " << stop.raw() << " ns";
        }
        EXPECT_EQ(sentinel.use_count(), 1) << "at " << stop.raw() << " ns";
        EXPECT_TRUE(data.unique()) << "at " << stop.raw() << " ns";
    }
}

TEST(RdmaQp, CountsTraffic)
{
    Rig rig;
    RdmaQp qp(rig.fabric, 0, 1);
    qp.sendCapsule(proto::Capsule{});
    qp.read(100, []() {});
    qp.write(200, []() {});
    rig.sim.run();
    EXPECT_EQ(qp.capsulesSent(), 1u);
    EXPECT_EQ(qp.bytesRead(), 100u);
    EXPECT_EQ(qp.bytesWritten(), 200u);
}

TEST(Fabric, MessagesFromOneSourcePreserveOrder)
{
    Rig rig;
    for (std::uint64_t i = 0; i < 20; ++i) {
        proto::Capsule c;
        c.commandId = i;
        rig.fabric.send(Message{0, 1, c, {}});
    }
    rig.sim.run();
    ASSERT_EQ(rig.epB.messages.size(), 20u);
    for (std::uint64_t i = 0; i < 20; ++i)
        EXPECT_EQ(rig.epB.messages[i].capsule.commandId, i);
}
