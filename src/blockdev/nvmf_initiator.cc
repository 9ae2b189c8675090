#include "blockdev/nvmf_initiator.h"

#include <utility>

#include "telemetry/interference.h"

namespace draid::blockdev {

NvmfInitiator::NvmfInitiator(cluster::Cluster &cluster,
                             CommandIdAllocator &ids)
    : cluster_(cluster), ids_(ids)
{
}

void
NvmfInitiator::readRemote(std::uint32_t target, std::uint64_t offset,
                          std::uint32_t length, ReadCallback cb,
                          std::uint64_t trace)
{
    const std::uint64_t id = (ids_.alloc() << 8) | 0xff;
    proto::Capsule c;
    c.opcode = proto::Opcode::kRead;
    c.commandId = id;
    c.nsid = target;
    c.offset = offset;
    c.length = length;
    c.traceId = trace;
    c.tenant = cluster_.telemetry().contention().tenantOf(trace);

    arm(id, Pending{true, std::move(cb), {}});
    auto &host = cluster_.host();
    host.cpu().execute(cluster_.config().hostCmdCost, trace, "host.cmd",
                       [this, c, target]() {
        cluster_.fabric().send(net::Message{
            cluster_.hostId(), cluster_.targetNodeId(target), c, {}});
    });
}

void
NvmfInitiator::writeRemote(std::uint32_t target, std::uint64_t offset,
                           ec::Buffer data, WriteCallback cb,
                           std::uint64_t trace)
{
    const std::uint64_t id = (ids_.alloc() << 8) | 0xff;
    proto::Capsule c;
    c.opcode = proto::Opcode::kWrite;
    c.commandId = id;
    c.nsid = target;
    c.offset = offset;
    c.length = static_cast<std::uint32_t>(data.size());
    c.traceId = trace;
    c.tenant = cluster_.telemetry().contention().tenantOf(trace);

    arm(id, Pending{false, {}, std::move(cb)});
    auto &host = cluster_.host();
    host.cpu().execute(cluster_.config().hostCmdCost, trace, "host.cmd",
                       [this, c, target, data = std::move(data)]() {
        cluster_.fabric().send(net::Message{cluster_.hostId(),
                                            cluster_.targetNodeId(target), c,
                                            data});
    });
}

bool
NvmfInitiator::tryComplete(const net::Message &msg)
{
    if (msg.capsule.opcode != proto::Opcode::kCompletion)
        return false;
    auto it = pending_.find(msg.capsule.commandId);
    if (it == pending_.end())
        return false;

    Pending p = std::move(it->second);
    pending_.erase(it);

    const IoStatus st = msg.capsule.status == proto::Status::kSuccess
                            ? IoStatus::kOk
                            : IoStatus::kError;
    auto payload = msg.payload;
    cluster_.host().cpu().execute(
        cluster_.config().hostCompletionCost, msg.capsule.traceId,
        "host.completion",
        [p = std::move(p), st, payload = std::move(payload)]() mutable {
            if (p.isRead)
                p.readCb(st, std::move(payload));
            else
                p.writeCb(st);
        });
    return true;
}

void
NvmfInitiator::arm(std::uint64_t id, Pending p)
{
    pending_.emplace(id, std::move(p));
    cluster_.sim().schedule(cluster_.config().opTimeout, "nvmf.timeout",
                            [this, id]() { onTimeout(id); });
}

void
NvmfInitiator::onTimeout(std::uint64_t id)
{
    auto it = pending_.find(id);
    if (it == pending_.end())
        return; // completed in time
    Pending p = std::move(it->second);
    pending_.erase(it);
    ++timeouts_;
    if (p.isRead)
        p.readCb(IoStatus::kTimedOut, {});
    else
        p.writeCb(IoStatus::kTimedOut);
}

} // namespace draid::blockdev
