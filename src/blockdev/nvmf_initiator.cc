#include "blockdev/nvmf_initiator.h"

#include <cassert>
#include <utility>

#include "telemetry/interference.h"

namespace draid::blockdev {

NvmfInitiator::NvmfInitiator(cluster::Cluster &cluster,
                             CommandIdAllocator &ids)
    : cluster_(cluster),
      ids_(ids),
      deadlines_(cluster.sim(), cluster.config().opTimeout, "nvmf.timeout",
                 [this](std::uint64_t slot) {
                     onTimeout(static_cast<std::uint32_t>(slot));
                 })
{
}

void
NvmfInitiator::readRemote(std::uint32_t target, std::uint64_t offset,
                          std::uint32_t length, ReadCallback cb,
                          std::uint64_t trace)
{
    Command c;
    c.isRead = true;
    c.offset = offset;
    c.length = length;
    c.target = target;
    c.trace = trace;
    c.readCb = std::move(cb);
    submit(std::move(c));
}

void
NvmfInitiator::writeRemote(std::uint32_t target, std::uint64_t offset,
                           ec::Buffer data, WriteCallback cb,
                           std::uint64_t trace)
{
    Command c;
    c.offset = offset;
    c.length = static_cast<std::uint32_t>(data.size());
    c.target = target;
    c.trace = trace;
    c.payload = std::move(data);
    c.writeCb = std::move(cb);
    submit(std::move(c));
}

void
NvmfInitiator::submitBatch(std::vector<BatchIo> ios, std::uint64_t trace,
                           BatchCallback cb)
{
    assert(!ios.empty());
    const auto n = static_cast<std::uint32_t>(ios.size());
    const std::uint32_t b = batches_.acquire(Batch{std::move(ios), n,
                                                   std::move(cb)});
    for (std::uint32_t i = 0; i < n; ++i) {
        BatchIo &io = batches_[b].ios[i];
        Command c;
        c.isRead = io.isRead;
        c.offset = io.offset;
        c.length = io.length;
        c.target = io.target;
        c.trace = trace;
        if (io.isRead) {
            c.readCb = [this, b, i](IoStatus st, ec::Buffer d) {
                settleBatch(b, i, st, std::move(d));
            };
        } else {
            c.payload = std::exchange(io.data, {});
            c.writeCb = [this, b, i](IoStatus st) {
                settleBatch(b, i, st, {});
            };
        }
        submit(std::move(c));
    }
}

void
NvmfInitiator::settleBatch(std::uint32_t slot, std::uint32_t i, IoStatus st,
                           ec::Buffer data)
{
    Batch &batch = batches_[slot];
    batch.ios[i].status = st;
    if (st == IoStatus::kOk)
        batch.ios[i].data = std::move(data);
    if (--batch.pending > 0)
        return;
    BatchResult r;
    r.ios = std::exchange(batch.ios, {});
    const BatchCallback cb = std::exchange(batch.cb, nullptr);
    batches_.release(slot);
    for (const BatchIo &io : r.ios) {
        if (io.status == IoStatus::kOk)
            continue;
        r.ok = false;
        if (io.status == IoStatus::kTimedOut && !r.suspect)
            r.suspect = io.device;
    }
    cb(std::move(r));
}

void
NvmfInitiator::submit(Command c)
{
    c.id = (ids_.alloc() << 8) | 0xff;
    c.tenant = cluster_.telemetry().contention().tenantOf(c.trace);
    const std::uint64_t id = c.id;
    const std::uint64_t trace = c.trace;
    const std::uint32_t slot = commands_.acquire(std::move(c));

    if (spareNodes_.empty()) {
        pending_.emplace(id, slot);
    } else {
        auto node = std::move(spareNodes_.back());
        spareNodes_.pop_back();
        node.key() = id;
        node.mapped() = slot;
        pending_.insert(std::move(node));
    }
    commands_[slot].deadline = deadlines_.arm(slot);
    cluster_.host().cpu().execute(cluster_.config().hostCmdCost, trace,
                                  "host.cmd", [this, slot]() { send(slot); });
}

void
NvmfInitiator::send(std::uint32_t slot)
{
    Command &c = commands_[slot];
    proto::Capsule cap;
    cap.opcode = c.isRead ? proto::Opcode::kRead : proto::Opcode::kWrite;
    cap.commandId = c.id;
    cap.nsid = c.target;
    cap.offset = c.offset;
    cap.length = c.length;
    cap.traceId = c.trace;
    cap.tenant = c.tenant;
    net::Message msg{cluster_.hostId(), cluster_.targetNodeId(c.target),
                     std::move(cap), std::exchange(c.payload, {})};
    c.sent = true;
    if (c.timedOut)
        commands_.release(slot);
    cluster_.fabric().send(std::move(msg));
}

std::uint32_t
NvmfInitiator::stopMatching(PendingMap::iterator it)
{
    const std::uint32_t slot = it->second;
    spareNodes_.push_back(pending_.extract(it));
    return slot;
}

bool
NvmfInitiator::tryComplete(const net::Message &msg)
{
    if (msg.capsule.opcode != proto::Opcode::kCompletion)
        return false;
    auto it = pending_.find(msg.capsule.commandId);
    if (it == pending_.end())
        return false;

    const std::uint32_t slot = stopMatching(it);
    Command &c = commands_[slot];
    deadlines_.disarm(c.deadline);
    c.status = msg.capsule.status == proto::Status::kSuccess
                   ? IoStatus::kOk
                   : IoStatus::kError;
    c.payload = msg.payload;
    cluster_.host().cpu().execute(cluster_.config().hostCompletionCost,
                                  msg.capsule.traceId, "host.completion",
                                  [this, slot]() { complete(slot); });
    return true;
}

void
NvmfInitiator::complete(std::uint32_t slot)
{
    Command &c = commands_[slot];
    const IoStatus st = c.status;
    const bool is_read = c.isRead;
    ec::Buffer payload = std::exchange(c.payload, {});
    const ReadCallback read_cb = std::exchange(c.readCb, nullptr);
    const WriteCallback write_cb = std::exchange(c.writeCb, nullptr);
    commands_.release(slot);
    if (is_read)
        read_cb(st, std::move(payload));
    else
        write_cb(st);
}

void
NvmfInitiator::onTimeout(std::uint32_t slot)
{
    Command &c = commands_[slot];
    stopMatching(pending_.find(c.id));
    const bool is_read = c.isRead;
    const ReadCallback read_cb = std::exchange(c.readCb, nullptr);
    const WriteCallback write_cb = std::exchange(c.writeCb, nullptr);
    // A command still queued on the host CPU keeps its slot for the send.
    if (c.sent)
        commands_.release(slot);
    else
        c.timedOut = true;
    if (is_read)
        read_cb(IoStatus::kTimedOut, {});
    else
        write_cb(IoStatus::kTimedOut);
}

} // namespace draid::blockdev
