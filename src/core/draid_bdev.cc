#include "core/draid_bdev.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>
#include <utility>

#include "ec/gf256.h"
#include "ec/xor_kernel.h"

namespace draid::core {

DraidBdev::DraidBdev(cluster::Cluster &cluster, std::uint32_t index,
                     const DraidOptions &options)
    : NvmfTarget(cluster, index), opts_(options)
{
    // Expose the bdev and reduce-engine tallies as registry probes under
    // this node's scope; the structs stay the source of truth.
    auto scope = cluster_.nodeScope(node_.id()).scope("bdev");
    scope.probe("partial_writes", [this] { return counters_.partialWrites; });
    scope.probe("parity_cmds", [this] { return counters_.parityCmds; });
    scope.probe("peers_absorbed", [this] { return counters_.peersAbsorbed; });
    scope.probe("reconstructions",
                [this] { return counters_.reconstructions; });
    scope.probe("reductions_finished",
                [this] { return counters_.reductionsFinished; });
    scope.probe("late_parity_cmds",
                [this] { return counters_.lateParityCmds; });
    auto reduce = cluster_.nodeScope(node_.id()).scope("reduce");
    reduce.probe("sessions_created",
                 [this] { return reduce_.stats().sessionsCreated; });
    reduce.probe("partials_absorbed",
                 [this] { return reduce_.stats().partialsAbsorbed; });
    reduce.probe("bytes_absorbed",
                 [this] { return reduce_.stats().bytesAbsorbed; });
}

void
DraidBdev::onMessage(const net::Message &msg)
{
    switch (msg.capsule.opcode) {
      case proto::Opcode::kPartialWrite:
        handlePartialWrite(msg);
        break;
      case proto::Opcode::kParity:
        handleParity(msg);
        break;
      case proto::Opcode::kPeer:
        handlePeer(msg);
        break;
      case proto::Opcode::kReconstruction:
        handleReconstruction(msg);
        break;
      case proto::Opcode::kCompletion:
        handleSelfCompletion(msg);
        break;
      default:
        NvmfTarget::onMessage(msg);
        break;
    }
}

// ---------------------------------------------------------------------------
// PartialWrite (Algorithm 1 + §5.3 pipeline)
// ---------------------------------------------------------------------------

void
DraidBdev::handlePartialWrite(const net::Message &msg)
{
    ++counters_.partialWrites;
    const auto cmd = msg.capsule;
    const auto from = msg.from;
    auto payload = msg.payload;

    node_.cpu().execute(cluster_.config().serverCmdCost, cmd.traceId,
                        "srv.cmd", [this, cmd, from, payload]() {
        assert(!cmd.sgList.empty());
        const std::uint64_t chunk_addr = cmd.sgList[0].addr;
        const std::uint32_t chunk_len = cmd.sgList[0].length;

        // Collect the phase-1 I/Os: remote fetch + drive read(s). With the
        // pipeline enabled (§5.3) they all launch at once; without it they
        // run strictly one after another (conventional NVMe-oF ordering).
        struct Phase1
        {
            int outstanding = 0;
            std::size_t next = 0;
            // draid-lint: cap(deferred sub-commands of one op; at most stripe width)
            std::vector<std::function<void()>> serialQueue;
            ec::Buffer newData;
            ec::Buffer oldData;
            ec::Buffer oldHead;
            ec::Buffer oldTail;
        };
        auto ph = std::make_shared<Phase1>();
        auto join = [this, ph, cmd, from]() {
            if (--ph->outstanding == 0) {
                ph->serialQueue.clear(); // break shared_ptr cycle
                partialWritePhase2(cmd, from, std::move(ph->newData),
                                   std::move(ph->oldData),
                                   std::move(ph->oldHead),
                                   std::move(ph->oldTail));
            } else if (ph->next < ph->serialQueue.size()) {
                ph->serialQueue[ph->next++]();
            }
        };

        std::vector<std::function<void()>> starts;

        if (cmd.length > 0) {
            ++ph->outstanding;
            ph->newData = payload;
            starts.push_back([this, from, cmd, join]() {
                cluster_.fabric().rdmaRead(node_.id(), from, cmd.length,
                                           join, cmd.traceId);
            });
        }
        switch (cmd.subtype) {
          case proto::Subtype::kRmw:
            // Old data under the write range.
            ++ph->outstanding;
            starts.push_back([this, cmd, ph, join]() {
                node_.ssd().read(cmd.offset, cmd.length, cmd.traceId,
                                 [ph, join](blockdev::IoStatus,
                                            ec::Buffer data) {
                    ph->oldData = std::move(data);
                    join();
                });
            });
            break;
          case proto::Subtype::kRwWrite: {
            // The chunk parts the write does not cover.
            const std::uint32_t head_len =
                static_cast<std::uint32_t>(cmd.offset - chunk_addr);
            const std::uint32_t tail_len =
                chunk_len - head_len - cmd.length;
            if (head_len > 0) {
                ++ph->outstanding;
                starts.push_back([this, cmd, chunk_addr, head_len, ph,
                                  join]() {
                    node_.ssd().read(chunk_addr, head_len, cmd.traceId,
                                     [ph, join](blockdev::IoStatus,
                                                ec::Buffer data) {
                        ph->oldHead = std::move(data);
                        join();
                    });
                });
            }
            if (tail_len > 0) {
                ++ph->outstanding;
                const std::uint64_t tail_addr = cmd.offset + cmd.length;
                starts.push_back([this, cmd, tail_addr, tail_len, ph,
                                  join]() {
                    node_.ssd().read(tail_addr, tail_len, cmd.traceId,
                                     [ph, join](blockdev::IoStatus,
                                                ec::Buffer data) {
                        ph->oldTail = std::move(data);
                        join();
                    });
                });
            }
            break;
          }
          case proto::Subtype::kRwRead:
            // Forward segment read straight from the drive.
            ++ph->outstanding;
            starts.push_back([this, cmd, chunk_addr, ph, join]() {
                node_.ssd().read(chunk_addr + cmd.fwdOffset, cmd.fwdLength,
                                 cmd.traceId,
                                 [ph, join](blockdev::IoStatus,
                                            ec::Buffer data) {
                    ph->oldData = std::move(data);
                    join();
                });
            });
            break;
          default:
            assert(false && "bad PartialWrite subtype");
        }

        assert(ph->outstanding > 0);
        if (opts_.pipeline) {
            // Launch everything at once: remote fetch overlaps drive reads.
            for (auto &start : starts)
                start();
        } else {
            // Serial: each I/O starts when the previous one completes
            // (join() advances the queue until all are outstanding-done).
            ph->serialQueue = std::move(starts);
            ph->next = 1;
            ph->serialQueue[0]();
        }
    });
}

void
DraidBdev::partialWritePhase2(const proto::Capsule &cmd, sim::NodeId from,
                              ec::Buffer new_data, ec::Buffer old_data,
                              ec::Buffer old_head, ec::Buffer old_tail)
{
    const std::uint64_t chunk_addr = cmd.sgList[0].addr;
    const std::uint32_t chunk_len = cmd.sgList[0].length;
    const auto &cfg = cluster_.config();

    // Derive the partial parity and the CPU cost of doing so.
    ec::Buffer partial;
    std::uint64_t xor_bytes = 0;
    switch (cmd.subtype) {
      case proto::Subtype::kRmw:
        // The old data is a fresh drive read: held alone, it takes the
        // delta in place.
        if (old_data.unique()) {
            ec::xorInto(old_data, new_data);
            partial = std::move(old_data);
        } else {
            partial = ec::xorOf(old_data, new_data);
        }
        xor_bytes = partial.size();
        break;
      case proto::Subtype::kRwWrite: {
        // Assemble the chunk's post-write content: head + new + tail.
        partial = ec::Buffer(chunk_len);
        const std::uint32_t head_len =
            static_cast<std::uint32_t>(cmd.offset - chunk_addr);
        if (!old_head.empty())
            std::memcpy(partial.data(), old_head.data(), old_head.size());
        std::memcpy(partial.data() + head_len, new_data.data(),
                    new_data.size());
        if (!old_tail.empty())
            std::memcpy(partial.data() + head_len + new_data.size(),
                        old_tail.data(), old_tail.size());
        break;
      }
      case proto::Subtype::kRwRead:
        partial = std::move(old_data);
        break;
      default:
        assert(false);
    }

    node_.cpu().executeBytes(xor_bytes, cfg.xorBw, sim::Ticks::zero(), cmd.traceId,
                             "parity.xor", [this, cmd, from, new_data,
                                            partial]() mutable {
        const sim::NodeId relay =
            opts_.p2pForwarding ? sim::kInvalidNode : from;
        auto do_forward = [this, cmd, relay, partial]() {
            forwardToParity(cmd, relay, partial);
        };
        auto do_write = [this, cmd, from, new_data]() {
            if (cmd.length == 0)
                return;
            node_.ssd().write(cmd.offset, new_data, cmd.traceId,
                              [this, cmd, from](blockdev::IoStatus st) {
                sendCompletion(from, cmd.commandId,
                               st == blockdev::IoStatus::kOk
                                   ? proto::Status::kSuccess
                                   : proto::Status::kFailed,
                               {}, cmd.traceId);
            });
        };

        if (opts_.pipeline) {
            // §5.3: the drive write overlaps partial-parity forwarding.
            do_forward();
            do_write();
        } else {
            // Serial: persist first, then forward (pre-pipeline design).
            if (cmd.length == 0) {
                do_forward();
                return;
            }
            node_.ssd().write(cmd.offset, new_data, cmd.traceId,
                              [this, cmd, from,
                               do_forward](blockdev::IoStatus st) {
                do_forward();
                sendCompletion(from, cmd.commandId,
                               st == blockdev::IoStatus::kOk
                                   ? proto::Status::kSuccess
                                   : proto::Status::kFailed,
                               {}, cmd.traceId);
            });
        }
    });
}

// ---------------------------------------------------------------------------
// Parity / Peer reduce (Algorithm 2)
// ---------------------------------------------------------------------------

void
DraidBdev::handleParity(const net::Message &msg)
{
    ++counters_.parityCmds;
    const auto cmd = msg.capsule;
    const auto from = msg.from;
    auto payload = msg.payload;

    node_.cpu().execute(cluster_.config().serverCmdCost, cmd.traceId,
                        "srv.cmd", [this, cmd, from, payload]() {
        const std::uint64_t key = opOf(cmd.commandId);
        auto &s = reduce_.obtain(key);
        if (s.absorbed > 0)
            ++counters_.lateParityCmds;
        s.hostCmdSeen = true;
        s.kind = SessionKind::kParity;
        s.subtype = cmd.subtype;
        s.baseOffset = cmd.fwdOffset;
        s.length = cmd.fwdLength;
        s.chunkDeviceAddr = cmd.offset - cmd.fwdOffset;
        s.replyTo = from;
        s.hostCmdId = cmd.commandId;
        s.remaining += cmd.waitNum;
        s.traceId = cmd.traceId;

        if (cmd.subtype == proto::Subtype::kRmw) {
            // Preload and fold in the old parity window.
            s.preloadPending = true;
            node_.ssd().read(cmd.offset, cmd.length, cmd.traceId,
                             [this, key, cmd](blockdev::IoStatus,
                                              ec::Buffer data) {
                const std::size_t bytes = data.size(); // before the move below
                node_.cpu().executeBytes(
                    bytes, cluster_.config().xorBw, sim::Ticks::zero(), cmd.traceId,
                    "reduce.xor",
                    [this, key, cmd, data = std::move(data)]() mutable {
                        auto *sess = reduce_.find(key);
                        if (!sess)
                            return;
                        ReduceEngine::absorbNoCount(*sess, cmd.fwdOffset,
                                                    std::move(data));
                        sess->preloadPending = false;
                        maybeFinish(key);
                    });
            });
        }

        if (!payload.empty()) {
            // Degraded reconstruct-write: the host contributes the failed
            // chunk's new content itself (pulled like any other partial).
            cluster_.fabric().rdmaRead(node_.id(), from, payload.size(),
                                       [this, key, cmd, payload]() {
                absorbContribution(key, cmd.fwdOffset, payload, true,
                                   cmd.traceId);
            }, cmd.traceId);
        }

        // Barrier-mode ablation: reduction may only start once every
        // expected Peer partial has arrived.
        if (!opts_.nonBlockingReduce) {
            s.barrierExpect = static_cast<int>(cmd.waitNum) -
                              (payload.empty() ? 0 : 1);
            tryBarrierFlush(key);
        }

        maybeFinish(key);
    });
}

void
DraidBdev::tryBarrierFlush(std::uint64_t key)
{
    auto *s = reduce_.find(key);
    if (!s || !s->hostCmdSeen || s->barrierExpect < 0)
        return;
    auto it = stashed_.find(key);
    const std::size_t have = it == stashed_.end() ? 0 : it->second.size();
    if (static_cast<int>(have) < s->barrierExpect)
        return;
    if (it != stashed_.end()) {
        auto pending = std::move(it->second);
        stashed_.erase(it);
        for (auto &[off, buf] : pending)
            absorbContribution(key, off, std::move(buf), true, s->traceId);
    }
    if (s->barrierExpect == 0)
        maybeFinish(key);
}

void
DraidBdev::handlePeer(const net::Message &msg)
{
    const auto cmd = msg.capsule;
    const auto from = msg.from;
    auto payload = msg.payload;

    node_.cpu().execute(cluster_.config().serverCmdCost, cmd.traceId,
                        "srv.cmd", [this, cmd, from, payload]() {
        const std::uint64_t key = opOf(cmd.commandId);
        // Pull the announced partial from the peer.
        cluster_.fabric().rdmaRead(node_.id(), from, cmd.fwdLength,
                                   [this, key, cmd, payload]() {
            if (!opts_.nonBlockingReduce) {
                // Barrier ablation: hold every partial until the full set
                // is present, then reduce serially.
                stashed_[key].emplace_back(cmd.fwdOffset, payload);
                tryBarrierFlush(key);
                return;
            }
            absorbContribution(key, cmd.fwdOffset, payload, true,
                               cmd.traceId);
        }, cmd.traceId);
    });
}

void
DraidBdev::absorbContribution(std::uint64_t key, std::uint32_t offset,
                              ec::Buffer data, bool counted,
                              std::uint64_t trace)
{
    const std::size_t bytes = data.size(); // before the move below
    node_.cpu().executeBytes(bytes, cluster_.config().xorBw, sim::Ticks::zero(), trace,
                             "reduce.xor",
                             [this, key, offset, data = std::move(data),
                              counted]() mutable {
        auto &s = reduce_.obtain(key);
        if (counted)
            ReduceEngine::absorb(s, offset, std::move(data));
        else
            ReduceEngine::absorbNoCount(s, offset, std::move(data));
        ++counters_.peersAbsorbed;
        maybeFinish(key);
    });
}

void
DraidBdev::maybeFinish(std::uint64_t key)
{
    auto *s = reduce_.find(key);
    if (!s || !ReduceEngine::readyToFinish(*s))
        return;

    ++counters_.reductionsFinished;
    ec::Buffer window = ReduceEngine::finalWindow(*s);
    const auto reply_to = s->replyTo;
    const auto cmd_id = s->hostCmdId;
    const auto addr = s->chunkDeviceAddr + s->baseOffset;
    const auto spare = s->spareDest;
    const auto kind = s->kind;
    const auto trace = s->traceId;
    reduce_.erase(key);

    if (kind == SessionKind::kParity) {
        node_.ssd().write(addr, window, trace,
                          [this, reply_to, cmd_id,
                           trace](blockdev::IoStatus st) {
            sendCompletion(reply_to, cmd_id,
                           st == blockdev::IoStatus::kOk
                               ? proto::Status::kSuccess
                               : proto::Status::kFailed,
                           {}, trace);
        });
        return;
    }

    // Reconstruction: deliver the rebuilt segment.
    if (spare != sim::kInvalidNode) {
        // Rebuild: write straight to the spare, then report to the host.
        writeToPeer(spare, addr, window,
                    [this, reply_to, cmd_id, trace](proto::Status st) {
                        sendCompletion(reply_to, cmd_id, st, {}, trace);
                    }, trace);
        return;
    }
    cluster_.fabric().rdmaWrite(node_.id(), reply_to, window.size(),
                                [this, reply_to, cmd_id, window, trace]() {
        sendCompletion(reply_to, cmd_id, proto::Status::kSuccess, window,
                       trace);
    }, trace);
}

// ---------------------------------------------------------------------------
// Reconstruction (§6.1)
// ---------------------------------------------------------------------------

void
DraidBdev::handleReconstruction(const net::Message &msg)
{
    ++counters_.reconstructions;
    const auto cmd = msg.capsule;
    const auto from = msg.from;

    node_.cpu().execute(cluster_.config().serverCmdCost, cmd.traceId,
                        "srv.cmd", [this, cmd, from]() {
        assert(!cmd.sgList.empty());
        const std::uint64_t chunk_addr = cmd.sgList[0].addr;
        const std::uint64_t recon_lo = chunk_addr + cmd.fwdOffset;
        const std::uint64_t recon_hi = recon_lo + cmd.fwdLength;

        // §6.1: one drive I/O covering the union (including any gap).
        std::uint64_t lo = recon_lo, hi = recon_hi;
        const bool also_read =
            cmd.subtype == proto::Subtype::kAlsoRead && cmd.length > 0;
        if (also_read) {
            lo = std::min(lo, cmd.offset);
            hi = std::max(hi, cmd.offset + cmd.length);
        }

        node_.ssd().read(lo, static_cast<std::uint32_t>(hi - lo),
                         cmd.traceId,
                         [this, cmd, from, lo, recon_lo,
                          also_read](blockdev::IoStatus st, ec::Buffer data) {
            if (st != blockdev::IoStatus::kOk) {
                // Media error (e.g. a latent sector error on a survivor):
                // this participant cannot contribute, so the stripe cannot
                // be reconstructed. Fail the host's reducer sub-operation
                // directly — completeSub() finishes the op on the first
                // failed sub, and any later completion from the actual
                // reducer is dropped as stale.
                sendCompletion(from, makeCmdId(opOf(cmd.commandId),
                                               kReducerSub),
                               proto::Status::kFailed, {}, cmd.traceId);
                if (also_read) {
                    sendCompletion(from, cmd.commandId,
                                   proto::Status::kFailed, {}, cmd.traceId);
                }
                return;
            }
            ec::Buffer recon = data.slice(
                static_cast<std::size_t>(recon_lo - lo), cmd.fwdLength);
            if (cmd.subtype == proto::Subtype::kNoReadQ) {
                // Q-parity rebuild: contribute g^idx * chunk.
                applyQCoefficient(recon, cmd.dataIdx);
            }

            const bool is_reducer = cmd.waitNum > 0;
            if (is_reducer) {
                const std::uint64_t key = opOf(cmd.commandId);
                auto &s = reduce_.obtain(key);
                s.hostCmdSeen = true;
                s.kind = SessionKind::kReconstruct;
                s.baseOffset = cmd.fwdOffset;
                s.length = cmd.fwdLength;
                s.chunkDeviceAddr = cmd.sgList[0].addr;
                s.replyTo = from;
                s.hostCmdId = makeCmdId(key, kReducerSub);
                s.remaining += cmd.waitNum;
                s.traceId = cmd.traceId;
                if (cmd.nextDest != from)
                    s.spareDest = cmd.nextDest;
                // Fold in our own chunk's contribution locally. The
                // absorb runs through the CPU queue behind any peer
                // partials already waiting there, so completion must be
                // blocked on it: otherwise the last peer's absorb can
                // drive `remaining` to zero and persist a reduction that
                // is missing this very chunk.
                s.preloadPending = true;
                const std::size_t bytes = recon.size(); // before the move below
                node_.cpu().executeBytes(
                    bytes, cluster_.config().xorBw, sim::Ticks::zero(), cmd.traceId,
                    "reduce.xor",
                    [this, key, off = cmd.fwdOffset,
                     recon = std::move(recon)]() mutable {
                        auto *sess = reduce_.find(key);
                        if (!sess)
                            return;
                        ReduceEngine::absorbNoCount(*sess, off,
                                                    std::move(recon));
                        ++counters_.peersAbsorbed;
                        sess->preloadPending = false;
                        maybeFinish(key);
                    });
            } else {
                // §6.1: prioritize the partial over the direct read path.
                // A degraded write names Q as well (next-dest2).
                forwardToParity(cmd,
                                opts_.p2pForwarding ? sim::kInvalidNode
                                                    : from,
                                recon);
            }

            if (also_read) {
                ec::Buffer direct = data.slice(
                    static_cast<std::size_t>(cmd.offset - lo), cmd.length);
                cluster_.fabric().rdmaWrite(node_.id(), from, direct.size(),
                                            [this, cmd, from, direct]() {
                    sendCompletion(from, cmd.commandId,
                                   proto::Status::kSuccess, direct,
                                   cmd.traceId);
                }, cmd.traceId);
            }
        });
    });
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

void
DraidBdev::forwardPartial(std::uint64_t op_id, sim::NodeId dest,
                          sim::NodeId relay, std::uint32_t fwd_offset,
                          ec::Buffer partial, std::uint16_t data_idx,
                          std::uint64_t trace)
{
    proto::Capsule peer;
    peer.opcode = proto::Opcode::kPeer;
    peer.commandId = makeCmdId(op_id, static_cast<std::uint8_t>(index_));
    peer.fwdOffset = fwd_offset;
    peer.fwdLength = static_cast<std::uint32_t>(partial.size());
    peer.nextDest = dest;
    peer.dataIdx = data_idx;
    peer.traceId = trace;
    const sim::NodeId to = relay != sim::kInvalidNode ? relay : dest;
    cluster_.fabric().send(net::Message{node_.id(), to, std::move(peer),
                                        std::move(partial)});
}

void
DraidBdev::forwardToParity(const proto::Capsule &cmd, sim::NodeId relay,
                           const ec::Buffer &partial)
{
    if (cmd.nextDest != sim::kInvalidNode) {
        forwardPartial(opOf(cmd.commandId), cmd.nextDest, relay,
                       cmd.fwdOffset, partial, cmd.dataIdx, cmd.traceId);
    }
    if (cmd.nextDest2 != sim::kInvalidNode) {
        // Q-bound copy: apply g^idx at the sender so the reducer stays a
        // pure XOR machine (late-Parity safe).
        ec::Buffer qcopy = partial;
        applyQCoefficient(qcopy, cmd.dataIdx);
        node_.cpu().executeBytes(
            qcopy.size(), cluster_.config().gfBw, sim::Ticks::zero(),
            cmd.traceId, "parity.gf", [this, cmd, relay, qcopy]() {
                forwardPartial(opOf(cmd.commandId), cmd.nextDest2, relay,
                               cmd.fwdOffset, qcopy, cmd.dataIdx,
                               cmd.traceId);
            });
    }
}

void
DraidBdev::applyQCoefficient(ec::Buffer &partial, std::uint16_t idx)
{
    const auto &gf = ec::Gf256::instance();
    ec::Buffer out = ec::Buffer::forOverwrite(partial.size());
    gf.mulBlock(gf.pow2(idx), partial.data(), out.data(), out.size());
    partial = std::move(out);
}

void
DraidBdev::handleSelfCompletion(const net::Message &msg)
{
    auto it = selfPending_.find(msg.capsule.commandId);
    if (it == selfPending_.end())
        return; // stale or not ours
    auto done = std::move(it->second);
    selfPending_.erase(it);
    done(msg.capsule.status);
}

void
DraidBdev::writeToPeer(sim::NodeId dest, std::uint64_t offset,
                       ec::Buffer data,
                       std::function<void(proto::Status)> done,
                       std::uint64_t trace)
{
    const std::uint64_t id = makeCmdId(selfNext_++, 0xfe);
    proto::Capsule c;
    c.opcode = proto::Opcode::kWrite;
    c.commandId = id;
    c.offset = offset;
    c.length = static_cast<std::uint32_t>(data.size());
    c.traceId = trace;
    selfPending_[id] = std::move(done);
    cluster_.fabric().send(net::Message{node_.id(), dest, std::move(c),
                                        std::move(data)});
}

} // namespace draid::core
