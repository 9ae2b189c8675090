/**
 * @file
 * The datacenter fabric: a non-blocking switch connecting every node's NIC,
 * with RDMA-style message and one-sided transfer primitives.
 *
 * Transfers occupy the sender's tx pipe and the receiver's rx pipe in
 * parallel (cut-through), so end-to-end time is one serialization plus the
 * fabric's propagation delay, while both ports are charged the bandwidth.
 *
 * Command capsules travel as Messages: only the capsule's wire size is
 * charged; bulk payloads are always moved by explicit rdmaRead/rdmaWrite
 * calls (matching the NVMe-oF pull model and dRAID's peer-pull reduce).
 *
 * The fabric is also the failure-injection point: nodes can be taken down
 * (messages and transfers silently vanish, §5.4 transient failures) and
 * per-node extra delay can be injected (network jitter).
 */

#ifndef DRAID_NET_FABRIC_H
#define DRAID_NET_FABRIC_H

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ec/buffer.h"
#include "net/nic.h"
#include "proto/capsule.h"
#include "sim/simulator.h"
#include "sim/types.h"
#include "telemetry/probe.h"

namespace draid::net {

/** A capsule in flight, with an optional zero-copy payload handle. */
struct Message
{
    sim::NodeId from = sim::kInvalidNode;
    sim::NodeId to = sim::kInvalidNode;
    proto::Capsule capsule;

    /**
     * Payload handle. Handles ride with the capsule free of charge (they
     * stand for an RDMA-registered remote address); the *bytes* are only
     * charged when a peer pulls them with rdmaRead, exactly like the real
     * one-sided protocol.
     */
    ec::Buffer payload;
};

/** Receives messages addressed to a node. */
class Endpoint
{
  public:
    virtual ~Endpoint() = default;
    virtual void onMessage(const Message &msg) = 0;
};

/** The switch fabric. */
class Fabric
{
  public:
    /**
     * @param sim          owning simulator
     * @param propagation  one-way wire+switch delay
     */
    Fabric(sim::Simulator &sim, sim::Ticks propagation);

    /** Register a node. The NIC and endpoint must outlive the fabric. */
    void attach(sim::NodeId node, Nic &nic, Endpoint *endpoint);

    /**
     * Install or replace a node's message handler. Used by the storage
     * systems, which bind their controllers to already-attached nodes.
     */
    void setEndpoint(sim::NodeId node, Endpoint *endpoint);

    /** Send a command capsule. Silently dropped if either node is down. */
    void send(Message msg);

    /**
     * One-sided RDMA READ: @p initiator pulls @p bytes from @p target.
     * @p done fires when the data has fully arrived at the initiator.
     * Never fires if either node is down. @p trace tags the NIC spans with
     * a per-op trace id (0 = untraced).
     */
    void rdmaRead(sim::NodeId initiator, sim::NodeId target,
                  std::uint64_t bytes, sim::EventFn done,
                  std::uint64_t trace = 0);

    /**
     * One-sided RDMA WRITE: @p initiator pushes @p bytes to @p target.
     * @p done fires when the data has fully arrived at the target.
     */
    void rdmaWrite(sim::NodeId initiator, sim::NodeId target,
                   std::uint64_t bytes, sim::EventFn done,
                   std::uint64_t trace = 0);

    /** Take a node off the network / bring it back. */
    void setNodeDown(sim::NodeId node, bool down);

    bool isDown(sim::NodeId node) const;

    /** Add fixed extra delivery delay for traffic touching @p node. */
    void setExtraDelay(sim::NodeId node, sim::Ticks delay);

    /**
     * Report to telemetry through @p probe: traced transfers record their
     * propagation window (the wire+switch delay after the last byte
     * leaves the ports) as an untagged "fabric" lane span on the source
     * node, so the critical-path analyzer can attribute fabric time
     * separately from NIC serialization. Observe-only.
     */
    void attach(telemetry::Probe probe) { probe_ = probe; }

    Nic &nicOf(sim::NodeId node);

    /** Total messages delivered (tests). */
    std::uint64_t messagesDelivered() const { return delivered_; }

    /** Total messages dropped because a node was down. */
    std::uint64_t messagesDropped() const { return dropped_; }

    sim::Simulator &simulator() { return sim_; }

  private:
    struct Port
    {
        Nic *nic = nullptr;
        Endpoint *endpoint = nullptr;
        sim::Ticks extraDelay;
    };

    /** Parallel-occupancy transfer src.tx || dst.rx, then done. */
    void transferPair(sim::NodeId src, sim::NodeId dst, std::uint64_t bytes,
                      std::uint64_t trace, sim::EventFn done);

    sim::Ticks delayFor(sim::NodeId a, sim::NodeId b) const;

    sim::Simulator &sim_;
    sim::Ticks propagation_;
    telemetry::Probe probe_;
    // draid-lint: cap(one port per registered node; fixed topology)
    std::unordered_map<sim::NodeId, Port> ports_;
    // draid-lint: cap(subset of registered nodes; fixed topology)
    std::unordered_set<sim::NodeId> down_;
    std::uint64_t delivered_ = 0;
    std::uint64_t dropped_ = 0;
};

} // namespace draid::net

#endif // DRAID_NET_FABRIC_H
