#include "core/draid_bdev.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#include "ec/gf256.h"

namespace draid::core {

namespace {

/** Sub-command index of a rebuild's spare write; its op id is its slot. */
constexpr std::uint8_t kSpareWriteSub = 0xfe;

proto::Status
statusOf(blockdev::IoStatus st)
{
    return st == blockdev::IoStatus::kOk ? proto::Status::kSuccess
                                         : proto::Status::kFailed;
}

} // namespace

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
    const proto::Capsule &m = msg.capsule;
    switch (m.opcode) {
      case proto::Opcode::kPartialWrite:
        ++counters_.partialWrites;
        break;
      case proto::Opcode::kParity:
        ++counters_.parityCmds;
        break;
      case proto::Opcode::kPeer:
        break;
      case proto::Opcode::kReconstruction:
        ++counters_.reconstructions;
        break;
      case proto::Opcode::kCompletion:
        // Only a rebuild's spare write completes at a bdev.
        assert(subOf(m.commandId) == kSpareWriteSub);
        reply(static_cast<std::uint32_t>(opOf(m.commandId)), m.status);
        return;
      default:
        NvmfTarget::onMessage(msg);
        return;
    }
    const bool sge = !m.sgList.empty();
    const std::uint32_t slot = commands_.acquire(Command{
        .commandId = m.commandId, .offset = m.offset,
        .chunkAddr = sge ? m.sgList[0].addr : 0, .trace = m.traceId,
        .length = m.length, .chunkLen = sge ? m.sgList[0].length : 0,
        .fwdOffset = m.fwdOffset, .fwdLength = m.fwdLength,
        .from = msg.from, .nextDest = m.nextDest, .nextDest2 = m.nextDest2,
        .dataIdx = m.dataIdx, .waitNum = m.waitNum, .opcode = m.opcode,
        .subtype = m.subtype, .status = m.status, .payload = msg.payload});
    node_.cpu().execute(cluster_.config().serverCmdCost, m.traceId,
                        "srv.cmd", [this, slot]() { parsed(slot); });
}

void
DraidBdev::parsed(std::uint32_t slot)
{
    const proto::Opcode op = commands_[slot].opcode;
    if (op == proto::Opcode::kPartialWrite)
        partialWriteParsed(slot);
    else if (op == proto::Opcode::kParity)
        parityParsed(slot);
    else if (op == proto::Opcode::kPeer)
        peerParsed(slot);
    else
        reconstructionParsed(slot);
}

void
DraidBdev::retire(std::uint32_t slot)
{
    commands_[slot] = Command{};
    commands_.release(slot);
}

void
DraidBdev::settle(std::uint32_t slot)
{
    if (--commands_[slot].legs == 0)
        retire(slot);
}

void
DraidBdev::reply(std::uint32_t slot, proto::Status status)
{
    Command &c = commands_[slot];
    sendCompletion(c.from, c.commandId, status, std::exchange(c.payload, {}),
                   c.trace);
    retire(slot);
}

// --- PartialWrite (Algorithm 1 + §5.3 pipeline) ---

void
DraidBdev::partialWriteParsed(std::uint32_t slot)
{
    // Phase 1 is a fixed list of reads: the remote fetch, then the old data
    // (RMW), the chunk parts the write leaves (RW write) or the forward
    // segment (RW read).
    Command &c = commands_[slot];
    const auto add = [&c](std::uint64_t addr, std::uint32_t len,
                          bool remote = false) {
        c.reads[c.numReads++] = Read{addr, len, remote};
    };
    if (c.length > 0)
        add(0, c.length, true);
    switch (c.subtype) {
      case proto::Subtype::kRmw:
        add(c.offset, c.length);
        break;
      case proto::Subtype::kRwWrite: {
        const auto head_len = static_cast<std::uint32_t>(c.offset - c.chunkAddr);
        const std::uint32_t tail_len = c.chunkLen - head_len - c.length;
        if (head_len > 0)
            add(c.chunkAddr, head_len);
        if (tail_len > 0)
            add(c.offset + c.length, tail_len);
        break;
      }
      case proto::Subtype::kRwRead:
        add(c.chunkAddr + c.fwdOffset, c.fwdLength);
        break;
      default:
        assert(false && "bad PartialWrite subtype");
    }
    assert(c.numReads > 0);

    // With the pipeline (§5.3) every read launches at once, so the remote
    // fetch overlaps the drive reads; without it each starts when the
    // previous one lands (conventional NVMe-oF ordering).
    const std::uint8_t n = opts_.pipeline ? c.numReads : 1;
    for (std::uint8_t i = 0; i < n; ++i)
        phase1Issue(slot, i);
}

void
DraidBdev::phase1Issue(std::uint32_t slot, std::uint8_t i)
{
    Command &c = commands_[slot];
    const Read &r = c.reads[i];
    if (!r.remote) {
        // An RMW's old-data read carries the new data as its operand, so
        // the drive returns the delta old ^ new in the same pass.
        const bool rmw = c.subtype == proto::Subtype::kRmw;
        node_.ssd().read(r.addr, r.length, c.trace,
                         [this, slot, i](blockdev::IoStatus st,
                                         ec::Buffer data) {
            Command &d = commands_[slot];
            if (st != blockdev::IoStatus::kOk)
                d.status = proto::Status::kFailed;
            d.reads[i].data = std::move(data);
            phase1Landed(slot, i);
        }, rmw ? c.payload : ec::Buffer());
        return;
    }
    if (!cluster_.fabric().rdmaRead(
            node_.id(), c.from, r.length,
            [this, slot, i]() { phase1Landed(slot, i); }, c.trace)) {
        // A node is down: the new data is lost like an unreadable sector.
        c.status = proto::Status::kFailed;
        phase1Landed(slot, i);
    }
}

void
DraidBdev::phase1Landed(std::uint32_t slot, std::uint8_t i)
{
    Command &c = commands_[slot];
    if (++c.landed == c.numReads)
        partialWritePhase2(slot);
    else if (!opts_.pipeline)
        phase1Issue(slot, static_cast<std::uint8_t>(i + 1));
}

void
DraidBdev::partialWritePhase2(std::uint32_t slot)
{
    Command &c = commands_[slot];
    if (c.status != proto::Status::kSuccess) {
        // The media-error rule: a phase-1 read failed, so no partial can
        // be derived; the new data is not written and the command fails.
        forwardToParity(slot, c.status);
        if (c.length > 0) {
            sendCompletion(c.from, c.commandId, proto::Status::kFailed, {},
                           c.trace);
        }
        retire(slot);
        return;
    }
    // The one drive read of an RMW or RW read comes last in the list.
    Read &drive = c.reads[c.numReads - 1];

    // Derive the partial parity and the CPU cost of doing so.
    std::uint64_t xor_bytes = 0;
    switch (c.subtype) {
      case proto::Subtype::kRmw:
        // The drive read returned the delta old ^ new; its XOR is charged
        // here, where the partial is derived.
        c.partial = std::move(drive.data);
        xor_bytes = c.partial.size();
        break;
      case proto::Subtype::kRwWrite:
        // The chunk's post-write content: new data covering the whole
        // chunk is the partial itself; otherwise the head, the new data
        // and the tail tile the chunk, each at its own place.
        if (c.length == c.chunkLen) {
            c.partial = c.payload;
            break;
        }
        c.partial = ec::Buffer::forOverwrite(c.chunkLen);
        std::memcpy(c.partial.data() + (c.offset - c.chunkAddr),
                    c.payload.data(), c.payload.size());
        for (std::uint8_t i = 0; i < c.numReads; ++i) {
            const Read &r = c.reads[i];
            if (r.remote)
                continue;
            assert(r.data.size() == r.length);
            std::memcpy(c.partial.data() + (r.addr - c.chunkAddr),
                        r.data.data(), r.data.size());
        }
        break;
      case proto::Subtype::kRwRead:
        c.partial = std::move(drive.data);
        break;
      default:
        assert(false);
    }

    node_.cpu().executeBytes(xor_bytes, cluster_.config().xorBw,
                             sim::Ticks::zero(), c.trace, "parity.xor",
                             [this, slot]() { partialWriteXored(slot); });
}

void
DraidBdev::partialWriteXored(std::uint32_t slot)
{
    Command &c = commands_[slot];
    if (opts_.pipeline || c.length == 0) {
        // §5.3: the drive write overlaps partial-parity forwarding.
        forwardToParity(slot);
        if (c.length == 0) {
            settle(slot);
            return;
        }
    }
    // Without the pipeline, persist first, then forward.
    node_.ssd().write(c.offset, std::exchange(c.payload, {}), c.trace,
                      [this, slot](blockdev::IoStatus st) {
                          partialWriteStored(slot, st);
                      });
}

void
DraidBdev::partialWriteStored(std::uint32_t slot, blockdev::IoStatus st)
{
    if (!opts_.pipeline)
        forwardToParity(slot);
    const Command &c = commands_[slot];
    sendCompletion(c.from, c.commandId, statusOf(st), {}, c.trace);
    settle(slot);
}

// --- Parity / Peer reduce (Algorithm 2) ---

void
DraidBdev::parityParsed(std::uint32_t slot)
{
    Command &c = commands_[slot];
    const std::uint64_t key = opOf(c.commandId);
    auto &s = reduce_.obtain(key);
    if (s.absorbed > 0)
        ++counters_.lateParityCmds;
    s.hostCmdSeen = true;
    s.kind = SessionKind::kParity;
    s.baseOffset = c.fwdOffset;
    s.length = c.fwdLength;
    s.chunkDeviceAddr = c.offset - c.fwdOffset;
    s.replyTo = c.from;
    s.hostCmdId = c.commandId;
    s.remaining += c.waitNum;
    s.traceId = c.trace;

    if (c.subtype == proto::Subtype::kRmw) {
        // Preload and fold in the old parity window.
        s.preloadPending = true;
        ++c.legs;
        node_.ssd().read(c.offset, c.length, c.trace,
                         [this, slot](blockdev::IoStatus st, ec::Buffer data) {
                             commands_[slot].status = statusOf(st);
                             commands_[slot].partial = std::move(data);
                             absorbContribution(slot, true);
                         });
    }

    // Degraded reconstruct-write: the host contributes the failed chunk's
    // new content itself (pulled like any other partial).
    const bool hosted = !c.payload.empty();
    if (hosted) {
        ++c.legs;
        if (!cluster_.fabric().rdmaRead(
                node_.id(), c.from, c.payload.size(),
                [this, slot]() { absorbContribution(slot, false); }, c.trace))
            --c.legs;
    }

    // Barrier-mode ablation: reduction may only start once every
    // expected Peer partial has arrived.
    if (!opts_.nonBlockingReduce) {
        s.barrierExpect = static_cast<int>(c.waitNum) - (hosted ? 1 : 0);
        tryBarrierFlush(key);
    }
    settle(slot);
    maybeFinish(key);
}

void
DraidBdev::tryBarrierFlush(std::uint64_t key)
{
    auto *s = reduce_.find(key);
    if (!s || !s->hostCmdSeen || s->barrierExpect < 0 ||
        static_cast<int>(s->stashed.size()) < s->barrierExpect)
        return;
    for (const std::uint32_t slot : std::exchange(s->stashed, {}))
        absorbContribution(slot, false);
    if (s->barrierExpect == 0)
        maybeFinish(key);
}

void
DraidBdev::peerParsed(std::uint32_t slot)
{
    // Pull the announced partial from the peer.
    const Command &c = commands_[slot];
    if (!cluster_.fabric().rdmaRead(node_.id(), c.from, c.fwdLength,
                                    [this, slot]() { peerPulled(slot); },
                                    c.trace))
        retire(slot);
}

void
DraidBdev::peerPulled(std::uint32_t slot)
{
    if (!opts_.nonBlockingReduce) {
        // Barrier ablation: hold every partial until the full set is
        // present, then reduce serially.
        const std::uint64_t key = opOf(commands_[slot].commandId);
        reduce_.obtain(key).stashed.push_back(slot);
        tryBarrierFlush(key);
        return;
    }
    absorbContribution(slot, false);
}

void
DraidBdev::absorbContribution(std::uint32_t slot, bool local)
{
    const Command &c = commands_[slot];
    node_.cpu().executeBytes((local ? c.partial : c.payload).size(),
                             cluster_.config().xorBw, sim::Ticks::zero(),
                             c.trace, "reduce.xor", [this, slot, local]() {
                                 contributionAbsorbed(slot, local);
                             });
}

void
DraidBdev::contributionAbsorbed(std::uint32_t slot, bool local)
{
    Command &c = commands_[slot];
    const std::uint64_t key = opOf(c.commandId);
    auto &s = reduce_.obtain(key);
    if (c.status != proto::Status::kSuccess)
        s.failed = true;
    // A raw Q-bound partial, or a Q rebuild's own chunk, is folded in
    // multiplied by g^data-idx.
    const bool raw_q = c.subtype == proto::Subtype::kRawQ ||
                       c.subtype == proto::Subtype::kNoReadQ;
    const std::uint8_t coef =
        raw_q ? ec::Gf256::instance().pow2(c.dataIdx) : std::uint8_t{1};
    if (local) {
        ReduceEngine::absorbNoCount(s, c.fwdOffset, std::move(c.partial),
                                    coef);
        s.preloadPending = false;
    } else {
        ReduceEngine::absorb(s, c.fwdOffset, std::move(c.payload), coef);
    }
    if (!local || s.kind == SessionKind::kReconstruct)
        ++counters_.peersAbsorbed; // the old parity is no peer's
    settle(slot);
    maybeFinish(key);
}

void
DraidBdev::maybeFinish(std::uint64_t key)
{
    auto *s = reduce_.find(key);
    if (!s || !ReduceEngine::readyToFinish(*s))
        return;

    ++counters_.reductionsFinished;
    const auto addr = s->chunkDeviceAddr + s->baseOffset;
    const auto spare = s->spareDest;
    const auto kind = s->kind;
    const bool failed = s->failed;
    const std::uint32_t slot = commands_.acquire(Command{
        .commandId = s->hostCmdId, .trace = s->traceId, .from = s->replyTo,
        .payload = failed ? ec::Buffer() : ReduceEngine::finalWindow(*s)});
    reduce_.erase(key);
    Command &c = commands_[slot];

    if (failed) { // a contribution is missing: persist and deliver nothing
        reply(slot, proto::Status::kFailed);
        return;
    }

    if (kind == SessionKind::kParity) {
        node_.ssd().write(addr, std::exchange(c.payload, {}), c.trace,
                          [this, slot](blockdev::IoStatus st) {
                              reply(slot, statusOf(st));
                          });
        return;
    }

    // Reconstruction: deliver the rebuilt segment.
    if (spare != sim::kInvalidNode) {
        // Rebuild: write straight to the spare, then report to the host.
        // The spare write's completion names this slot.
        proto::Capsule w;
        w.opcode = proto::Opcode::kWrite;
        w.commandId = makeCmdId(slot, kSpareWriteSub);
        w.offset = addr;
        w.length = static_cast<std::uint32_t>(c.payload.size());
        w.traceId = c.trace;
        cluster_.fabric().send(net::Message{node_.id(), spare, std::move(w),
                                            std::exchange(c.payload, {})});
        return;
    }
    if (!cluster_.fabric().rdmaWrite(
            node_.id(), c.from, c.payload.size(),
            [this, slot]() { reply(slot, proto::Status::kSuccess); }, c.trace))
        retire(slot);
}

// --- Reconstruction (§6.1) ---

void
DraidBdev::reconstructionParsed(std::uint32_t slot)
{
    // §6.1: one drive I/O covering the union (including any gap).
    Command &c = commands_[slot];
    const std::uint64_t recon_lo = c.chunkAddr + c.fwdOffset;
    std::uint64_t lo = recon_lo, hi = recon_lo + c.fwdLength;
    if (c.subtype == proto::Subtype::kAlsoRead && c.length > 0) {
        lo = std::min(lo, c.offset);
        hi = std::max(hi, c.offset + c.length);
    }
    c.reads[0].addr = lo;
    node_.ssd().read(lo, static_cast<std::uint32_t>(hi - lo), c.trace,
                     [this, slot](blockdev::IoStatus st, ec::Buffer data) {
                         reconstructionLoaded(slot, st, std::move(data));
                     });
}

void
DraidBdev::reconstructionLoaded(std::uint32_t slot, blockdev::IoStatus st,
                                ec::Buffer data)
{
    Command &c = commands_[slot];
    const std::uint64_t key = opOf(c.commandId);
    const std::uint64_t lo = c.reads[0].addr;
    const bool ok = st == blockdev::IoStatus::kOk;
    const bool reducer = c.waitNum > 0;
    const bool also_read =
        c.subtype == proto::Subtype::kAlsoRead && c.length > 0;
    if (ok) {
        c.partial = data.slice(
            static_cast<std::size_t>(c.chunkAddr + c.fwdOffset - lo),
            c.fwdLength);
    }

    // A media error (e.g. a latent sector error on a survivor) leaves
    // this participant nothing to contribute: the media-error rule fails
    // the reducer's session, which still counts every partial down.
    if (reducer) {
        auto &s = reduce_.obtain(key);
        s.hostCmdSeen = true;
        s.kind = SessionKind::kReconstruct;
        s.baseOffset = c.fwdOffset;
        s.length = c.fwdLength;
        s.chunkDeviceAddr = c.chunkAddr;
        s.replyTo = c.from;
        s.hostCmdId = makeCmdId(key, kReducerSub);
        s.remaining += c.waitNum;
        s.traceId = c.trace;
        if (c.nextDest != c.from)
            s.spareDest = c.nextDest;
        if (!ok)
            s.failed = true;
        // Fold in our own chunk's contribution locally. The absorb runs
        // through the CPU queue behind any peer partials already waiting
        // there, so completion must be blocked on it: otherwise the last
        // peer's absorb can drive `remaining` to zero and persist a
        // reduction that is missing this very chunk.
        if (ok) {
            s.preloadPending = true;
            absorbContribution(slot, true);
        }
        // Barrier-mode ablation: every peer's partial is stashed until
        // the full set arrived.
        if (!opts_.nonBlockingReduce) {
            s.barrierExpect = c.waitNum;
            tryBarrierFlush(key);
        }
    } else if (ok) {
        // §6.1: prioritize the partial over the direct read path.
        // A degraded write names Q as well (next-dest2).
        forwardToParity(slot);
    } else {
        forwardToParity(slot, proto::Status::kFailed);
    }

    if (also_read && !ok) {
        sendCompletion(c.from, c.commandId, proto::Status::kFailed, {},
                       c.trace);
    } else if (also_read) {
        // Push the requested data to the host from a reply slot.
        const std::uint32_t r = commands_.acquire(Command{
            .commandId = c.commandId, .trace = c.trace, .from = c.from,
            .payload = data.slice(static_cast<std::size_t>(c.offset - lo),
                                  c.length)});
        const Command &d = commands_[r];
        if (!cluster_.fabric().rdmaWrite(
                node_.id(), d.from, d.payload.size(),
                [this, r]() { reply(r, proto::Status::kSuccess); }, d.trace))
            retire(r);
    }
    if (!(reducer && ok))
        settle(slot); // no local absorb holds the slot
    if (reducer && !ok)
        maybeFinish(key);
}

// --- Shared helpers ---

void
DraidBdev::forwardPartial(std::uint32_t slot, sim::NodeId dest,
                          ec::Buffer partial, proto::Status status,
                          bool raw_q)
{
    const Command &c = commands_[slot];
    proto::Capsule peer;
    peer.opcode = proto::Opcode::kPeer;
    peer.commandId =
        makeCmdId(opOf(c.commandId), static_cast<std::uint8_t>(index_));
    peer.subtype = raw_q ? proto::Subtype::kRawQ : proto::Subtype::kNone;
    peer.fwdOffset = c.fwdOffset;
    peer.fwdLength = static_cast<std::uint32_t>(partial.size());
    peer.nextDest = dest;
    peer.dataIdx = c.dataIdx;
    peer.traceId = c.trace;
    peer.status = status;
    const sim::NodeId to = opts_.p2pForwarding ? dest : c.from;
    cluster_.fabric().send(net::Message{node_.id(), to, std::move(peer),
                                        std::move(partial)});
}

void
DraidBdev::forwardToParity(std::uint32_t slot, proto::Status status)
{
    Command &c = commands_[slot];
    const bool to_q = c.nextDest2 != sim::kInvalidNode;
    // A Q rebuild's reducer sums g^idx * chunk: the partial travels raw.
    const bool raw_q = c.subtype == proto::Subtype::kNoReadQ;
    if (c.nextDest != sim::kInvalidNode)
        forwardPartial(slot, c.nextDest,
                       to_q ? c.partial : std::move(c.partial), status,
                       raw_q);
    if (to_q && status != proto::Status::kSuccess) {
        forwardPartial(slot, c.nextDest2, {}, status, true);
    } else if (to_q) {
        // The Q-bound partial shares P's bytes and travels raw: the sender
        // pays the g^idx multiply as parity.gf, and Q's reducer runs it
        // inside its fold (DESIGN.md §4.1).
        ++c.legs;
        node_.cpu().executeBytes(c.partial.size(), cluster_.config().gfBw,
                                 sim::Ticks::zero(), c.trace, "parity.gf",
                                 [this, slot]() { forwardToQ(slot); });
    }
}

void
DraidBdev::forwardToQ(std::uint32_t slot)
{
    Command &c = commands_[slot];
    forwardPartial(slot, c.nextDest2, std::exchange(c.partial, {}),
                   proto::Status::kSuccess, true);
    settle(slot);
}

} // namespace draid::core
