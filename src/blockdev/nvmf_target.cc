#include "blockdev/nvmf_target.h"

#include <utility>

namespace draid::blockdev {

NvmfTarget::NvmfTarget(cluster::Cluster &cluster, std::uint32_t index)
    : cluster_(cluster), index_(index), node_(cluster.target(index))
{
    cluster_.fabric().setEndpoint(node_.id(), this);
}

void
NvmfTarget::onMessage(const net::Message &msg)
{
    switch (msg.capsule.opcode) {
      case proto::Opcode::kRead:
        handleRead(msg);
        break;
      case proto::Opcode::kWrite:
        handleWrite(msg);
        break;
      default:
        // A plain NVMe-oF target does not understand dRAID opcodes.
        sendCompletion(msg.from, msg.capsule.commandId,
                       proto::Status::kFailed);
        break;
    }
}

std::uint32_t
NvmfTarget::admit(const net::Message &msg, ec::Buffer payload)
{
    const proto::Capsule &c = msg.capsule;
    return commands_.acquire(Command{c.commandId, c.offset, c.traceId,
                                     c.length, msg.from, std::move(payload)});
}

ec::Buffer
NvmfTarget::retire(std::uint32_t slot)
{
    ec::Buffer payload = std::exchange(commands_[slot].payload, {});
    commands_.release(slot);
    return payload;
}

void
NvmfTarget::handleRead(const net::Message &msg)
{
    const std::uint32_t slot = admit(msg, {});
    node_.cpu().execute(cluster_.config().serverCmdCost, msg.capsule.traceId,
                        "srv.cmd", [this, slot]() { readParsed(slot); });
}

void
NvmfTarget::readParsed(std::uint32_t slot)
{
    const Command &c = commands_[slot];
    node_.ssd().read(c.offset, c.length, c.trace,
                     [this, slot](IoStatus st, ec::Buffer data) {
                         readLoaded(slot, st, std::move(data));
                     });
}

void
NvmfTarget::readLoaded(std::uint32_t slot, IoStatus st, ec::Buffer data)
{
    if (st != IoStatus::kOk) {
        finish(slot, proto::Status::kFailed);
        return;
    }
    // Push the data, then the response capsule (RDMA transport binding
    // order).
    Command &c = commands_[slot];
    const std::uint64_t bytes = data.size();
    c.payload = std::move(data);
    const bool pushing = cluster_.fabric().rdmaWrite(
        node_.id(), c.from, bytes,
        [this, slot]() { finish(slot, proto::Status::kSuccess); }, c.trace);
    if (!pushing)
        retire(slot); // a node is down: nothing will complete the command
}

void
NvmfTarget::handleWrite(const net::Message &msg)
{
    const std::uint32_t slot = admit(msg, msg.payload);
    node_.cpu().execute(cluster_.config().serverCmdCost, msg.capsule.traceId,
                        "srv.cmd", [this, slot]() { writeParsed(slot); });
}

void
NvmfTarget::writeParsed(std::uint32_t slot)
{
    // Pull the payload from the initiator.
    const Command &c = commands_[slot];
    const bool pulling = cluster_.fabric().rdmaRead(
        node_.id(), c.from, c.length, [this, slot]() { writePulled(slot); },
        c.trace);
    if (!pulling)
        retire(slot); // a node is down: nothing will complete the command
}

void
NvmfTarget::writePulled(std::uint32_t slot)
{
    Command &c = commands_[slot];
    node_.ssd().write(c.offset, std::exchange(c.payload, {}), c.trace,
                      [this, slot](IoStatus st) {
                          finish(slot, st == IoStatus::kOk
                                           ? proto::Status::kSuccess
                                           : proto::Status::kFailed);
                      });
}

void
NvmfTarget::finish(std::uint32_t slot, proto::Status status)
{
    const Command &c = commands_[slot];
    const sim::NodeId to = c.from;
    const std::uint64_t command_id = c.commandId;
    const std::uint64_t trace = c.trace;
    sendCompletion(to, command_id, status, retire(slot), trace);
}

void
NvmfTarget::sendCompletion(sim::NodeId to, std::uint64_t command_id,
                           proto::Status status, ec::Buffer payload,
                           std::uint64_t trace)
{
    proto::Capsule c;
    c.opcode = proto::Opcode::kCompletion;
    c.commandId = command_id;
    c.status = status;
    c.traceId = trace;
    cluster_.fabric().send(net::Message{node_.id(), to, std::move(c),
                                        std::move(payload)});
}

} // namespace draid::blockdev
