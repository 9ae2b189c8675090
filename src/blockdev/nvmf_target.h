/**
 * @file
 * Plain NVMe-oF target: serves standard Read/Write capsules against the
 * node's local SSD. This is the storage-server side of both baselines
 * (Linux MD and the SPDK RAID POC access remote drives through exactly
 * this path); dRAID's server-side controller extends it with the four
 * dRAID opcodes.
 *
 * Wire behaviour follows the RDMA transport binding: a write pulls its
 * payload from the initiator with RDMA READ; a read pushes data with RDMA
 * WRITE and then sends a response capsule.
 */

#ifndef DRAID_BLOCKDEV_NVMF_TARGET_H
#define DRAID_BLOCKDEV_NVMF_TARGET_H

#include <cstdint>

#include "blockdev/block_device.h"
#include "cluster/cluster.h"
#include "net/fabric.h"

namespace draid::blockdev {

/** NVMe-oF target bound to one storage server. */
class NvmfTarget : public net::Endpoint
{
  public:
    /**
     * Binds to target @p index of @p cluster and installs itself as the
     * node's fabric endpoint.
     */
    NvmfTarget(cluster::Cluster &cluster, std::uint32_t index);

    void onMessage(const net::Message &msg) override;

  protected:
    /** Standard read handling; shared with the dRAID subclass. */
    void handleRead(const net::Message &msg);

    /** Standard write handling; shared with the dRAID subclass. */
    void handleWrite(const net::Message &msg);

    /**
     * Send a completion capsule for @p cmd back to @p to. @p trace tags
     * the completion with the originating op's telemetry trace id.
     */
    void sendCompletion(sim::NodeId to, std::uint64_t command_id,
                        proto::Status status, ec::Buffer payload = {},
                        std::uint64_t trace = 0);

    cluster::Cluster &cluster_;
    std::uint32_t index_;
    cluster::Node &node_;

  private:
    /**
     * One Read or Write being served: the capsule fields its
     * continuations read, and the payload on its way between the fabric
     * and the SSD. Every continuation captures only (this, slot).
     */
    struct Command
    {
        std::uint64_t commandId = 0;
        std::uint64_t offset = 0;
        std::uint64_t trace = 0;
        std::uint32_t length = 0;
        sim::NodeId from = sim::kInvalidNode;
        ec::Buffer payload;
    };

    /** Stage the command @p msg carries, with @p payload; its slot. */
    std::uint32_t admit(const net::Message &msg, ec::Buffer payload);

    /** Free @p slot; returns the payload it held. */
    ec::Buffer retire(std::uint32_t slot);

    /** Read stages: command parsed, SSD read back (then pushed). */
    void readParsed(std::uint32_t slot);
    void readLoaded(std::uint32_t slot, IoStatus st, ec::Buffer data);

    /** Write stages: command parsed, payload pulled. */
    void writeParsed(std::uint32_t slot);
    void writePulled(std::uint32_t slot);

    /**
     * Free @p slot and complete its command with @p status, carrying the
     * slot's payload (a read's data once pushed; otherwise none).
     */
    void finish(std::uint32_t slot, proto::Status status);

    /**
     * Commands in flight, owned here so a destroyed target frees them
     * (sim::SlotPool comes through net/fabric.h; blockdev does not
     * include sim directly).
     */
    sim::SlotPool<Command> commands_;
};

} // namespace draid::blockdev

#endif // DRAID_BLOCKDEV_NVMF_TARGET_H
