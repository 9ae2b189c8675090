#include "core/draid_host.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#include "core/draid_bdev.h"
#include "ec/gf256.h"
#include "ec/raid5_codec.h"
#include "ec/raid6_codec.h"

namespace draid::core {

namespace {

/** Build a geometry from options + width. */
raid::Geometry
makeGeometry(const DraidOptions &o, std::uint32_t width)
{
    return raid::Geometry(o.level, o.chunkSize, width);
}

} // namespace

DraidHost::DraidHost(cluster::Cluster &cluster, const DraidOptions &options,
                     std::uint32_t width)
    : cluster_(cluster),
      opts_(options),
      width_(width == 0 ? cluster.numTargets() : width),
      geom_(makeGeometry(options, width_)),
      planner_(geom_),
      initiator_(cluster, ids_),
      deadlines_(cluster.sim(), cluster.config().opTimeout,
                 "failure.deadline",
                 [this](std::uint64_t op) { expireOp(op); }),
      rng_(options.seed)
{
    assert(width_ <= cluster.numTargets());
    targetMap_.resize(width_);
    for (std::uint32_t i = 0; i < width_; ++i)
        targetMap_[i] = i;
    cluster_.fabric().setEndpoint(cluster_.hostId(), this);

    setupTelemetry();
    probe_ = cluster_.probe(cluster_.hostId());
    lockRes_ = cluster_.telemetry().contention().registerResource(
        cluster_.hostId(),
        telemetry::ContentionTracker::ResourceKind::StripeLock);
    writeLocks_.attach(probe_, [this] { return cluster_.sim().now().raw(); });

    if (opts_.reducerPolicy == ReducerPolicy::kBwAware) {
        auto sel = std::make_unique<BwAwareReducerSelector>(
            cluster_.config().ewmaAlpha);
        bwAware_ = sel.get();
        selector_ = std::move(sel);
        lastTxBytes_.assign(width_, 0);
        reconTxAttributed_.assign(width_, 0);
        // The refresh timer is armed lazily by reconstruction activity
        // (see armBwTimer) so an idle array leaves the event queue empty.
    } else {
        selector_ = std::make_unique<RandomReducerSelector>();
    }
}

void
DraidHost::setupTelemetry()
{
    // The HostCounters struct stays the source of truth (tests read its
    // fields directly); the registry exposes the same storage via probes
    // instead of duplicating the counts.
    auto scope = cluster_.nodeScope(cluster_.hostId()).scope("draid");
    const HostCounters &c = counters_;
    scope.probe("full_stripe_writes", [&c] {
        return static_cast<double>(c.fullStripeWrites);
    });
    scope.probe("rmw_writes",
                [&c] { return static_cast<double>(c.rmwWrites); });
    scope.probe("rcw_writes",
                [&c] { return static_cast<double>(c.rcwWrites); });
    scope.probe("normal_reads",
                [&c] { return static_cast<double>(c.normalReads); });
    scope.probe("degraded_reads",
                [&c] { return static_cast<double>(c.degradedReads); });
    scope.probe("degraded_writes",
                [&c] { return static_cast<double>(c.degradedWrites); });
    scope.probe("retries", [&c] { return static_cast<double>(c.retries); });
    scope.probe("failovers",
                [&c] { return static_cast<double>(c.failovers); });

    readLatencyUs_ = &scope.histogram("read_latency_us",
                                      telemetry::latencyBucketsUs());
    writeLatencyUs_ = &scope.histogram("write_latency_us",
                                       telemetry::latencyBucketsUs());
}

std::uint64_t
DraidHost::sizeBytes() const
{
    const std::uint64_t stripes =
        cluster_.config().ssd.capacity / geom_.chunkSize();
    return stripes * geom_.stripeDataSize();
}

// ---------------------------------------------------------------------------
// Pending-operation bookkeeping
// ---------------------------------------------------------------------------

std::uint64_t
DraidHost::registerOp(std::set<std::uint8_t> subs,
                      std::function<void(std::uint8_t, ec::Buffer)> on_data,
                      std::function<void(bool)> on_done)
{
    const std::uint64_t op = ids_.alloc();
    PendingOp p;
    p.waitingSubs = std::move(subs);
    p.onData = std::move(on_data);
    p.onDone = std::move(on_done);
    pending_.emplace(op, std::move(p)).first->second.deadline =
        deadlines_.arm(op);
    return op;
}

std::uint64_t
DraidHost::registerWriteOp(std::set<std::uint8_t> subs,
                           std::shared_ptr<StripeWrite> sw)
{
    const std::uint64_t op =
        registerOp(std::move(subs), nullptr, [this, sw](bool ok) {
            if (ok)
                sw->done(true);
            else
                retryStripe(sw);
        });
    pending_.at(op).write = std::move(sw);
    return op;
}

void
DraidHost::completeSub(std::uint64_t op, std::uint8_t sub, bool ok,
                       ec::Buffer payload)
{
    auto it = pending_.find(op);
    if (it == pending_.end())
        return; // stale completion (op already expired and retried)
    auto &p = it->second;
    if (p.waitingSubs.erase(sub) == 0)
        return; // duplicate
    if (!ok)
        p.anyFailure = true;
    if (p.onData && !payload.empty())
        p.onData(sub, std::move(payload));
    if (p.waitingSubs.empty()) {
        deadlines_.disarm(p.deadline);
        auto done = std::move(p.onDone);
        const bool success = !p.anyFailure;
        pending_.erase(it);
        if (done)
            done(success);
    }
}

void
DraidHost::expireOp(std::uint64_t op)
{
    probe_.event(telemetry::EventType::kOpTimeout,
                 cluster_.sim().now().raw(), op);
    auto it = pending_.find(op);
    assert(it != pending_.end()); // completed ops disarm their deadline
    cluster_.telemetry().flightRecorder().noteAbnormal(
        "op.timeout", op, cluster_.hostId(), cluster_.sim().now().raw());
    // The op's first missing sub-command, on its own stripe, is the one
    // its write blames.
    if (StripeWrite *sw = it->second.write.get()) {
        sw->suspect =
            deviceOfSub(sw->plan.stripe, *it->second.waitingSubs.begin());
    }
    auto done = std::move(it->second.onDone);
    pending_.erase(it);
    if (done)
        done(false);
}

// ---------------------------------------------------------------------------
// Fabric endpoint
// ---------------------------------------------------------------------------

void
DraidHost::onMessage(const net::Message &msg)
{
    if (msg.capsule.opcode == proto::Opcode::kPeer) {
        // Host-relay ablation (p2pForwarding == false): pull the partial
        // from the sender and re-announce it to the real destination,
        // spending host NIC bandwidth in both directions.
        const auto cmd = msg.capsule;
        const auto from = msg.from;
        auto payload = msg.payload;
        cluster_.fabric().rdmaRead(cluster_.hostId(), from, cmd.fwdLength,
                                   [this, cmd, payload]() {
            proto::Capsule relay = cmd;
            cluster_.fabric().send(net::Message{cluster_.hostId(),
                                                cmd.nextDest, relay,
                                                payload});
        });
        return;
    }

    if (msg.capsule.opcode != proto::Opcode::kCompletion)
        return; // the host only consumes completions and relayed peers

    if (initiator_.tryComplete(msg))
        return;

    const std::uint64_t op = opOf(msg.capsule.commandId);
    const std::uint8_t sub = subOf(msg.capsule.commandId);
    const bool ok = msg.capsule.status == proto::Status::kSuccess;
    auto payload = msg.payload;
    cluster_.host().cpu().execute(cluster_.config().hostCompletionCost,
                                  msg.capsule.traceId, "host.completion",
                                  [this, op, sub, ok,
                                   payload = std::move(payload)]() mutable {
        completeSub(op, sub, ok, std::move(payload));
    });
}

void
DraidHost::sendCapsule(std::uint32_t device, proto::Capsule capsule,
                       ec::Buffer payload)
{
    const sim::NodeId node = nodeOf(device);
    const std::uint64_t trace = capsule.traceId;
    if (const telemetry::ContentionTracker *ct = probe_.contention())
        capsule.tenant = ct->tenantOf(trace);
    cluster_.host().cpu().execute(cluster_.config().hostCmdCost,
                                  trace, "host.cmd",
                                  [this, node,
                                   capsule = std::move(capsule),
                                   payload = std::move(payload)]() mutable {
        cluster_.fabric().send(net::Message{cluster_.hostId(), node,
                                            std::move(capsule),
                                            std::move(payload)});
    });
}

std::uint32_t
DraidHost::deviceOf(const raid::Extent &e) const
{
    return geom_.dataDevice(e.stripe, e.dataIdx);
}

// ---------------------------------------------------------------------------
// Array management
// ---------------------------------------------------------------------------

void
DraidHost::markFailed(std::uint32_t device)
{
    assert(device < width_);
    failed_ = device;
    probe_.event(telemetry::EventType::kDriveFailed,
                 cluster_.sim().now().raw(), device);
}

void
DraidHost::clearFailed()
{
    if (failed_) {
        probe_.event(telemetry::EventType::kDriveRecovered,
                     cluster_.sim().now().raw(), *failed_);
    }
    failed_.reset();
}

void
DraidHost::replaceDevice(std::uint32_t device, std::uint32_t spare_target)
{
    assert(device < width_);
    assert(spare_target < cluster_.numTargets());
    targetMap_[device] = spare_target;
    probe_.event(telemetry::EventType::kHotSpareSwap,
                 cluster_.sim().now().raw(), device, spare_target);
    if (failed_ && *failed_ == device)
        clearFailed();
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

void
DraidHost::write(std::uint64_t offset, ec::Buffer data,
                 blockdev::WriteCallback cb)
{
    assert(offset + data.size() <= sizeBytes());
    const std::uint64_t trace = probe_.mintOp();
    const sim::Ticks op_start = cluster_.sim().now();
    const std::uint64_t op_bytes = data.size();
    auto plans = planner_.plan(offset, data.size());
    assert(!plans.empty());

    auto remaining = std::make_shared<int>(static_cast<int>(plans.size()));
    auto all_ok = std::make_shared<bool>(true);
    auto wrapped = [this, cb = std::move(cb), trace, op_start,
                    op_bytes](blockdev::IoStatus st) {
        probe_.opComplete(trace, "draid.write", op_start,
                          cluster_.sim().now(), op_bytes, writeLatencyUs_);
        cb(st);
    };

    std::size_t pos = 0;
    for (auto &plan : plans) {
        auto sw = std::make_shared<StripeWrite>();
        sw->plan = plan;
        sw->retriesLeft = opts_.maxRetries;
        sw->traceId = trace;
        for (const auto &seg : plan.writes) {
            sw->segData.push_back(data.slice(pos, seg.length));
            pos += seg.length;
        }
        const std::uint64_t stripe = plan.stripe;
        sw->done = [this, stripe, remaining, all_ok, wrapped](bool ok) {
            // Close the hold window before the release hands the lock to
            // the next waiter, so that waiter's blame split can see it.
            if (telemetry::ContentionTracker *ct = probe_.contention())
                ct->closeOccupancy(lockRes_, cluster_.sim().now().raw(),
                                   stripe);
            writeLocks_.release(stripe);
            if (!ok)
                *all_ok = false;
            if (--*remaining == 0)
                wrapped(*all_ok ? blockdev::IoStatus::kOk
                                : blockdev::IoStatus::kError);
        };
        const sim::Ticks lock_req = cluster_.sim().now();
        writeLocks_.acquire(stripe, [this, sw, stripe, lock_req]() {
            const sim::Ticks now = cluster_.sim().now();
            if (telemetry::ContentionTracker *ct = probe_.contention()) {
                // Blame the grant delay on the writers that held the lock
                // (their hold windows tile [lock_req, now) exactly), then
                // open this writer's own hold window.
                ct->attributeWait(lockRes_, sw->traceId, lock_req.raw(),
                                  now.raw(), stripe);
                ct->openOccupancy(lockRes_, sw->traceId, now.raw(), stripe);
            }
            // The lock wait becomes a "lock" lane span, so the
            // critical-path analyzer can attribute serialization behind
            // another writer separately from queueing; the uncontended
            // fast path stays span-free.
            if (lock_req < now) {
                probe_.span(sw->traceId, "lock", "lock.stripe",
                            lock_req.raw(), now.raw(), {"stripe", stripe});
            }
            executeStripeWrite(sw);
        });
    }
}

void
DraidHost::executeStripeWrite(std::shared_ptr<StripeWrite> sw)
{
    if (failed_) {
        ++counters_.degradedWrites;
        raid::DegradedRoute route =
            planner_.routeDegraded(sw->plan, *failed_);
        switch (route.kind) {
          case raid::DegradedKind::kParityLess:
            executeParityLessWrite(sw);
            return;
          case raid::DegradedKind::kTargeted: {
            // The surviving segments run first as an RMW sub-op (the lost
            // chunk is untouched there, so its unknown content cancels out
            // of the delta); then the lost chunk's segment goes through
            // the targeted parity update. The stripe lock is held across
            // both, and `sw` keeps every segment for a retry.
            const std::size_t pos = route.failedPos;
            if (route.plan.writes.empty()) {
                executeDegradedTargetedWrite(sw, pos);
                return;
            }
            auto phase1 = std::make_shared<StripeWrite>();
            phase1->plan = std::move(route.plan);
            phase1->segData = sw->segData;
            phase1->segData.erase(phase1->segData.begin() +
                                  static_cast<std::ptrdiff_t>(pos));
            phase1->retriesLeft = sw->retriesLeft;
            phase1->done = [this, sw, pos](bool ok) {
                if (ok)
                    executeDegradedTargetedWrite(sw, pos);
                else
                    sw->done(false);
            };
            executePartialStripe(phase1);
            return;
          }
          case raid::DegradedKind::kAsPlanned:
            sw->plan = std::move(route.plan); // same segments
            break;
        }
    }
    if (sw->plan.mode == raid::WriteMode::kFullStripe)
        executeFullStripe(sw); // skips a failed device's write
    else
        executePartialStripe(sw);
}

void
DraidHost::executeDegradedTargetedWrite(std::shared_ptr<StripeWrite> sw,
                                        std::size_t pos)
{
    const raid::WriteSegment seg = sw->plan.writes[pos];
    const ec::Buffer &data = sw->segData[pos];
    const std::uint64_t stripe = sw->plan.stripe;
    const std::uint32_t fidx = seg.dataIdx;
    const bool raid6 = geom_.level() == raid::RaidLevel::kRaid6;
    const std::uint32_t p_dev = geom_.parityDevice(stripe);
    const std::uint32_t q_dev = raid6 ? geom_.qDevice(stripe) : 0;
    const sim::NodeId p_node = nodeOf(p_dev);
    const sim::NodeId q_node =
        raid6 ? nodeOf(q_dev) : sim::kInvalidNode;

    std::set<std::uint8_t> subs{kParitySub};
    if (raid6)
        subs.insert(kQParitySub);
    const std::uint64_t op = registerWriteOp(std::move(subs), sw);

    const std::uint64_t chunk_addr = geom_.deviceAddress(stripe, 0);

    // Survivors forward their slice of the written range straight to the
    // parity bdev(s): P_new[r] = XOR_i!=f D_i[r] ^ new[r].
    std::uint32_t survivors = 0;
    for (std::uint32_t i = 0; i < geom_.dataChunks(); ++i) {
        if (i == fidx)
            continue;
        ++survivors;
        proto::Capsule c;
        c.opcode = proto::Opcode::kReconstruction;
        c.commandId = makeCmdId(op, static_cast<std::uint8_t>(i));
        c.subtype = proto::Subtype::kNoRead;
        c.fwdOffset = seg.offset;
        c.fwdLength = seg.length;
        c.sgList.push_back(proto::Sge{chunk_addr, geom_.chunkSize()});
        c.nextDest = p_node;
        c.nextDest2 = q_node;
        c.dataIdx = static_cast<std::uint16_t>(i);
        c.stripe = stripe;
        c.waitNum = 0;
        c.traceId = sw->traceId;
        sendCapsule(geom_.dataDevice(stripe, i), std::move(c), {});
    }

    auto make_parity = [&](std::uint8_t sub) {
        proto::Capsule c;
        c.opcode = proto::Opcode::kParity;
        c.commandId = makeCmdId(op, sub);
        c.subtype = proto::Subtype::kDegraded;
        c.offset = chunk_addr + seg.offset;
        c.length = seg.length;
        c.fwdOffset = seg.offset;
        c.fwdLength = seg.length;
        c.waitNum = static_cast<std::uint16_t>(survivors + 1);
        c.stripe = stripe;
        c.traceId = sw->traceId;
        return c;
    };
    sendCapsule(p_dev, make_parity(kParitySub), data);
    if (raid6) {
        const auto &gf = ec::Gf256::instance();
        ec::Buffer qdata = ec::Buffer::forOverwrite(data.size());
        gf.mulBlock(gf.pow2(fidx), data.data(), qdata.data(),
                    qdata.size());
        sendCapsule(q_dev, make_parity(kQParitySub), std::move(qdata));
    }
}

void
DraidHost::executeFullStripe(std::shared_ptr<StripeWrite> sw)
{
    ++counters_.fullStripeWrites;
    const std::uint32_t k = geom_.dataChunks();

    // Order the chunk buffers by data index.
    std::vector<ec::Buffer> chunks(k);
    for (std::size_t i = 0; i < sw->plan.writes.size(); ++i)
        chunks[sw->plan.writes[i].dataIdx] = sw->segData[i];

    // The host computes parity for full-stripe writes (§3): no remote
    // reads are needed, so disaggregating would gain nothing.
    const std::uint64_t stripe_bytes = geom_.stripeDataSize();
    auto &cpu = cluster_.host().cpu();
    const auto &cfg = cluster_.config();

    auto issue = [this, sw, chunks]() {
        ec::Buffer p, q;
        if (geom_.level() == raid::RaidLevel::kRaid6) {
            ec::Raid6Codec::computePQ(chunks, p, q);
        } else {
            p = ec::Raid5Codec::computeParity(chunks);
        }

        const std::uint64_t stripe = sw->plan.stripe;
        const std::uint64_t addr = geom_.deviceAddress(stripe, 0);
        std::vector<blockdev::BatchIo> writes;
        const auto add = [&](std::uint32_t dev, ec::Buffer buf) {
            if (failed_ && dev == *failed_)
                return; // lost chunk: content implied by the others
            writes.push_back(blockdev::BatchIo::write(dev, targetOf(dev), addr,
                                                      std::move(buf)));
        };
        for (std::uint32_t i = 0; i < geom_.dataChunks(); ++i)
            add(geom_.dataDevice(stripe, i), chunks[i]);
        add(geom_.parityDevice(stripe), std::move(p));
        if (geom_.level() == raid::RaidLevel::kRaid6)
            add(geom_.qDevice(stripe), std::move(q));
        initiator_.submitBatch(std::move(writes), sw->traceId,
                               finishStripe(sw));
    };

    // Charge the host-side parity computation.
    const std::uint64_t trace = sw->traceId;
    if (geom_.level() == raid::RaidLevel::kRaid6) {
        cpu.executeBytes(stripe_bytes, cfg.xorBw, sim::Ticks::zero(), trace, "parity.xor",
                         [&cpu, &cfg, stripe_bytes, trace, issue]() {
                             cpu.executeBytes(stripe_bytes, cfg.gfBw, sim::Ticks::zero(),
                                              trace, "parity.gf", issue);
                         });
    } else {
        cpu.executeBytes(stripe_bytes, cfg.xorBw, sim::Ticks::zero(), trace, "parity.xor",
                         issue);
    }
}

void
DraidHost::executeParityLessWrite(std::shared_ptr<StripeWrite> sw)
{
    // RAID-5 stripe whose parity device failed: plain data writes.
    const std::uint64_t stripe = sw->plan.stripe;
    std::vector<blockdev::BatchIo> writes;
    for (std::size_t i = 0; i < sw->plan.writes.size(); ++i) {
        const auto &seg = sw->plan.writes[i];
        const std::uint32_t dev = geom_.dataDevice(stripe, seg.dataIdx);
        writes.push_back(blockdev::BatchIo::write(
            dev, targetOf(dev), geom_.deviceAddress(stripe, seg.offset),
            sw->segData[i]));
    }
    initiator_.submitBatch(std::move(writes), sw->traceId, finishStripe(sw));
}

void
DraidHost::executePartialStripe(std::shared_ptr<StripeWrite> sw)
{
    const auto &plan = sw->plan;
    const std::uint64_t stripe = plan.stripe;
    const std::uint32_t chunk = geom_.chunkSize();
    const bool rmw = plan.mode == raid::WriteMode::kReadModifyWrite;
    const bool raid6 = geom_.level() == raid::RaidLevel::kRaid6;

    if (rmw)
        ++counters_.rmwWrites;
    else
        ++counters_.rcwWrites;

    const std::uint32_t p_dev = geom_.parityDevice(stripe);
    const std::uint32_t q_dev = raid6 ? geom_.qDevice(stripe) : 0;
    const bool p_alive = !(failed_ && *failed_ == p_dev);
    const bool q_alive = raid6 && !(failed_ && *failed_ == q_dev);
    assert(p_alive || q_alive || !raid6);

    // Expected completions: every written data chunk plus each live
    // parity reducer.
    std::set<std::uint8_t> subs;
    for (const auto &seg : plan.writes)
        subs.insert(static_cast<std::uint8_t>(seg.dataIdx));
    if (p_alive)
        subs.insert(kParitySub);
    if (q_alive)
        subs.insert(kQParitySub);

    const std::uint64_t op = registerWriteOp(std::move(subs), sw);

    const sim::NodeId p_node =
        p_alive ? nodeOf(p_dev) : sim::kInvalidNode;
    const sim::NodeId q_node =
        q_alive ? nodeOf(q_dev) : sim::kInvalidNode;

    // --- PartialWrite to every written chunk ---
    for (std::size_t i = 0; i < plan.writes.size(); ++i) {
        const auto &seg = plan.writes[i];
        const std::uint64_t chunk_addr = geom_.deviceAddress(stripe, 0);
        proto::Capsule c;
        c.opcode = proto::Opcode::kPartialWrite;
        c.commandId = makeCmdId(op, static_cast<std::uint8_t>(seg.dataIdx));
        c.subtype = rmw ? proto::Subtype::kRmw : proto::Subtype::kRwWrite;
        c.offset = chunk_addr + seg.offset;
        c.length = seg.length;
        c.fwdOffset = rmw ? seg.offset : 0;
        c.fwdLength = rmw ? seg.length : chunk;
        c.sgList.push_back(proto::Sge{chunk_addr, chunk});
        c.nextDest = p_node;
        c.nextDest2 = q_node;
        c.dataIdx = static_cast<std::uint16_t>(seg.dataIdx);
        c.stripe = stripe;
        c.traceId = sw->traceId;
        sendCapsule(geom_.dataDevice(stripe, seg.dataIdx), std::move(c),
                    sw->segData[i]);
    }

    // --- PartialWrite(RW_READ) to untouched chunks (reconstruct write) ---
    for (const auto idx : plan.rcwReads) {
        const std::uint32_t dev = geom_.dataDevice(stripe, idx);
        if (failed_ && dev == *failed_)
            continue; // excluded by the degraded planner
        const std::uint64_t chunk_addr = geom_.deviceAddress(stripe, 0);
        proto::Capsule c;
        c.opcode = proto::Opcode::kPartialWrite;
        c.commandId = makeCmdId(op, static_cast<std::uint8_t>(idx));
        c.subtype = proto::Subtype::kRwRead;
        c.offset = chunk_addr;
        c.length = 0;
        c.fwdOffset = 0;
        c.fwdLength = chunk;
        c.sgList.push_back(proto::Sge{chunk_addr, chunk});
        c.nextDest = p_node;
        c.nextDest2 = q_node;
        c.dataIdx = static_cast<std::uint16_t>(idx);
        c.stripe = stripe;
        c.traceId = sw->traceId;
        sendCapsule(dev, std::move(c), {});
    }

    // --- Parity commands ---
    const std::uint32_t wait_num = plan.waitNum;
    auto make_parity = [&](std::uint8_t sub) {
        proto::Capsule c;
        c.opcode = proto::Opcode::kParity;
        c.commandId = makeCmdId(op, sub);
        c.subtype = rmw ? proto::Subtype::kRmw : proto::Subtype::kNone;
        c.offset = geom_.deviceAddress(stripe, plan.parityOffset);
        c.length = plan.parityLength;
        c.fwdOffset = plan.parityOffset;
        c.fwdLength = plan.parityLength;
        c.waitNum = static_cast<std::uint16_t>(wait_num);
        c.stripe = stripe;
        c.traceId = sw->traceId;
        return c;
    };

    if (p_alive)
        sendCapsule(p_dev, make_parity(kParitySub), {});
    if (q_alive)
        sendCapsule(q_dev, make_parity(kQParitySub), {});
}

blockdev::BatchCallback
DraidHost::finishStripe(std::shared_ptr<StripeWrite> sw)
{
    return [this, sw = std::move(sw)](blockdev::BatchResult r) {
        if (r.ok) {
            sw->done(true);
            return;
        }
        if (r.suspect)
            sw->suspect = r.suspect;
        retryStripe(sw);
    };
}

void
DraidHost::retryStripe(std::shared_ptr<StripeWrite> sw)
{
    if (sw->retriesLeft-- <= 0) {
        // Retries are used up (DESIGN.md §4.1): fail the suspect over if
        // the array is healthy and re-execute in degraded mode, which a
        // suspect already failed gets too; otherwise fail the write.
        const auto suspect = std::exchange(sw->suspect, std::nullopt);
        if (suspect && !failed_) {
            ++counters_.failovers;
            markFailed(*suspect);
        }
        if (suspect && failed_ == suspect)
            executeStripeWrite(sw);
        else
            sw->done(false);
        return;
    }
    ++counters_.retries;

    // §5.4: a full stripe write is always used for retries, built from
    // idempotent plain reads and writes. Fetch the final content of every
    // data chunk, then rewrite the stripe wholesale.
    const std::uint64_t stripe = sw->plan.stripe;
    const std::uint32_t k = geom_.dataChunks();
    const std::uint32_t chunk = geom_.chunkSize();

    struct Gather
    {
        // draid-lint: cap(stripe width; one buffer per gathered chunk)
        std::vector<ec::Buffer> chunks;
        int remaining = 0;
        bool ok = true;
    };
    auto g = std::make_shared<Gather>();
    g->chunks.assign(k, ec::Buffer());
    g->remaining = static_cast<int>(k);

    auto merged = [this, sw, g, stripe, chunk]() {
        if (!g->ok) {
            retryStripe(sw); // count down further retries
            return;
        }
        // Overlay the new segments and reissue as a full-stripe plan.
        for (std::size_t i = 0; i < sw->plan.writes.size(); ++i) {
            const auto &seg = sw->plan.writes[i];
            std::memcpy(g->chunks[seg.dataIdx].data() + seg.offset,
                        sw->segData[i].data(), seg.length);
        }
        auto fsw = std::make_shared<StripeWrite>();
        fsw->plan.stripe = stripe;
        fsw->plan.mode = raid::WriteMode::kFullStripe;
        fsw->plan.parityOffset = 0;
        fsw->plan.parityLength = chunk;
        for (std::uint32_t idx = 0; idx < g->chunks.size(); ++idx) {
            fsw->plan.writes.push_back(raid::WriteSegment{idx, 0, chunk});
            fsw->segData.push_back(g->chunks[idx]);
        }
        fsw->retriesLeft = sw->retriesLeft;
        fsw->suspect = sw->suspect;
        fsw->traceId = sw->traceId;
        fsw->done = sw->done;
        executeFullStripe(fsw);
    };

    for (std::uint32_t idx = 0; idx < k; ++idx) {
        // Chunks fully covered by the write need no read.
        const auto *covering = [&]() -> const raid::WriteSegment * {
            for (const auto &s : sw->plan.writes) {
                if (s.dataIdx == idx && s.offset == 0 && s.length == chunk)
                    return &s;
            }
            return nullptr;
        }();
        if (covering) {
            for (std::size_t i = 0; i < sw->plan.writes.size(); ++i) {
                if (&sw->plan.writes[i] == covering)
                    g->chunks[idx] = sw->segData[i].clone();
            }
            if (--g->remaining == 0)
                merged();
            continue;
        }
        readChunk(stripe, idx, [this, g, idx, merged](bool ok,
                                                      ec::Buffer data) {
            if (!ok) {
                g->ok = false;
                g->chunks[idx] = ec::Buffer(geom_.chunkSize());
            } else {
                g->chunks[idx] = std::move(data);
            }
            if (--g->remaining == 0)
                merged();
        }, sw->traceId);
    }
}

std::uint32_t
DraidHost::deviceOfSub(std::uint64_t stripe, std::uint8_t sub) const
{
    if (sub == kParitySub)
        return geom_.parityDevice(stripe);
    if (sub == kQParitySub)
        return geom_.qDevice(stripe);
    assert(sub < geom_.dataChunks());
    return geom_.dataDevice(stripe, sub);
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

void
DraidHost::read(std::uint64_t offset, std::uint32_t length,
                blockdev::ReadCallback cb)
{
    assert(offset + length <= sizeBytes());
    ++counters_.normalReads;
    auto join = std::make_shared<blockdev::ReadJoin>();
    join->cb = std::move(cb);
    join->trace = probe_.mintOp();
    join->opStart = cluster_.sim().now();
    join->span = "draid.read";
    join->length = length;
    auto groups = geom_.mapByStripe(offset, length);
    join->pending = static_cast<int>(groups.size());
    for (auto &g : groups)
        readStripeGroup(g.stripe, std::move(g.extents), join);
}

void
DraidHost::settleRead(blockdev::ReadJoin &join, bool ok)
{
    join.settle(ok, probe_, cluster_.sim().now(), readLatencyUs_);
}

void
DraidHost::readStripeGroup(std::uint64_t stripe,
                           raid::PlacedExtents extents,
                           std::shared_ptr<blockdev::ReadJoin> join)
{
    const bool has_failed_extent =
        failed_ && std::any_of(extents.begin(), extents.end(),
                               [this](const raid::PlacedExtent &g) {
                                   return deviceOf(g.extent) == *failed_;
                               });
    if (has_failed_extent) {
        degradedStripeRead(stripe, std::move(extents), std::move(join));
        return;
    }

    // The group settles once per extent instead of once as a whole.
    join->pending += static_cast<int>(extents.size()) - 1;
    for (const auto &g : extents) {
        const std::uint32_t dev = deviceOf(g.extent);
        const std::uint64_t addr =
            geom_.deviceAddress(stripe, g.extent.offset);
        const std::uint32_t slot =
            extentReads_.acquire(ExtentRead{join, g.outPos});
        initiator_.readRemote(
            targetOf(dev), addr, g.extent.length,
            [this, slot](blockdev::IoStatus st, ec::Buffer data) {
                landExtent(slot, st, std::move(data));
            },
            join->trace);
    }
}

void
DraidHost::landExtent(std::uint32_t slot, blockdev::IoStatus st,
                      ec::Buffer data)
{
    ExtentRead &r = extentReads_[slot];
    const std::shared_ptr<blockdev::ReadJoin> join = std::move(r.join);
    const std::size_t pos = r.pos;
    extentReads_.release(slot);
    const bool ok = st == blockdev::IoStatus::kOk;
    if (ok)
        join->land(pos, std::move(data));
    settleRead(*join, ok);
}

void
DraidHost::degradedStripeRead(std::uint64_t stripe,
                              raid::PlacedExtents extents,
                              std::shared_ptr<blockdev::ReadJoin> join)
{
    ++counters_.degradedReads;
    assert(failed_);
    const std::uint32_t fidx = geom_.dataIndexOf(stripe, *failed_);

    const auto failed_it =
        std::find_if(extents.begin(), extents.end(),
                     [fidx](const raid::PlacedExtent &g) {
                         return g.extent.dataIdx == fidx;
                     });
    assert(failed_it != extents.end());
    const std::uint32_t recon_off = failed_it->extent.offset;
    const std::uint32_t recon_len = failed_it->extent.length;
    const std::size_t recon_out = failed_it->outPos;

    const auto participants = geom_.rebuildSources(stripe, *failed_);
    const std::uint32_t reducer = selector_->select(participants, rng_);
    probe_.event(telemetry::EventType::kDegradedReadServed,
                 cluster_.sim().now().raw(), stripe, recon_len);
    noteReconstructionLoad(recon_len);
    if (bwAware_ && reducer < reconTxAttributed_.size())
        reconTxAttributed_[reducer] += recon_len;

    // The reducer's window and every also-read survivor land in the join.
    auto extents_shared =
        std::make_shared<raid::PlacedExtents>(std::move(extents));
    auto on_data = [join, extents_shared, recon_out,
                    fidx](std::uint8_t sub, ec::Buffer payload) {
        if (sub == kReducerSub) {
            join->land(recon_out, std::move(payload));
            return;
        }
        for (const auto &g : *extents_shared) {
            if (g.extent.dataIdx == sub && g.extent.dataIdx != fidx) {
                join->land(g.outPos, std::move(payload));
                return;
            }
        }
    };

    const std::uint64_t trace = join->trace;
    registerAndBroadcastReconstruction(
        stripe, participants, reducer, recon_off, recon_len,
        /*spare_node=*/sim::kInvalidNode, *extents_shared, fidx,
        std::move(on_data),
        [this, join = std::move(join)](bool ok) { settleRead(*join, ok); },
        proto::Subtype::kNoRead, trace);
}

void
DraidHost::registerAndBroadcastReconstruction(
    std::uint64_t stripe, const std::vector<std::uint32_t> &participants,
    std::uint32_t reducer, std::uint32_t recon_off, std::uint32_t recon_len,
    sim::NodeId spare_node, const raid::PlacedExtents &extents,
    std::uint32_t fidx, std::function<void(std::uint8_t, ec::Buffer)> on_data,
    std::function<void(bool)> done, proto::Subtype base_subtype,
    std::uint64_t trace)
{
    // Expected completions: the reducer plus every chunk we also read.
    std::set<std::uint8_t> subs{kReducerSub};
    for (const auto &g : extents) {
        if (g.extent.dataIdx != fidx)
            subs.insert(static_cast<std::uint8_t>(g.extent.dataIdx));
    }

    const std::uint64_t op =
        registerOp(std::move(subs), std::move(on_data), std::move(done));

    const std::uint64_t chunk_addr = geom_.deviceAddress(stripe, 0);
    const sim::NodeId reducer_node = nodeOf(reducer);

    for (const auto dev : participants) {
        const bool is_reducer = dev == reducer;
        const bool is_parity = dev == geom_.parityDevice(stripe) ||
                               (geom_.level() == raid::RaidLevel::kRaid6 &&
                                dev == geom_.qDevice(stripe));
        std::uint32_t idx = 0;
        const raid::PlacedExtent *read_extent = nullptr;
        if (!is_parity) {
            idx = geom_.dataIndexOf(stripe, dev);
            for (const auto &g : extents) {
                if (g.extent.dataIdx == idx)
                    read_extent = &g;
            }
        }

        proto::Capsule c;
        c.opcode = proto::Opcode::kReconstruction;
        c.commandId = makeCmdId(
            op, is_parity ? kParitySub : static_cast<std::uint8_t>(idx));
        c.subtype = read_extent ? proto::Subtype::kAlsoRead : base_subtype;
        if (read_extent) {
            c.offset = chunk_addr + read_extent->extent.offset;
            c.length = read_extent->extent.length;
        }
        c.fwdOffset = recon_off;
        c.fwdLength = recon_len;
        c.sgList.push_back(proto::Sge{chunk_addr, geom_.chunkSize()});
        c.dataIdx = static_cast<std::uint16_t>(idx);
        c.stripe = stripe;
        c.traceId = trace;
        if (is_reducer) {
            c.nextDest = spare_node != sim::kInvalidNode
                             ? spare_node
                             : cluster_.hostId();
            c.waitNum =
                static_cast<std::uint16_t>(participants.size() - 1);
        } else {
            c.nextDest = reducer_node;
            c.waitNum = 0;
        }
        sendCapsule(dev, std::move(c), {});
    }
}

void
DraidHost::readChunk(std::uint64_t stripe, std::uint32_t data_idx,
                     std::function<void(bool, ec::Buffer)> cb,
                     std::uint64_t trace)
{
    const std::uint32_t dev = geom_.dataDevice(stripe, data_idx);
    const std::uint32_t chunk = geom_.chunkSize();
    const std::uint64_t addr = geom_.deviceAddress(stripe, 0);

    if (failed_ && dev == *failed_) {
        auto join = std::make_shared<blockdev::ReadJoin>();
        join->cb = [cb](blockdev::IoStatus st, ec::Buffer data) {
            cb(st == blockdev::IoStatus::kOk, std::move(data));
        };
        join->trace = trace;
        join->length = chunk;
        join->pending = 1;
        raid::PlacedExtents extents;
        extents.push_back(
            raid::PlacedExtent{raid::Extent{stripe, data_idx, 0, chunk}, 0});
        degradedStripeRead(stripe, std::move(extents), std::move(join));
        return;
    }
    initiator_.readRemote(targetOf(dev), addr, chunk,
                          [cb](blockdev::IoStatus st, ec::Buffer data) {
                              cb(st == blockdev::IoStatus::kOk,
                                 std::move(data));
                          },
                          trace);
}

// ---------------------------------------------------------------------------
// Rebuild (§6)
// ---------------------------------------------------------------------------

void
DraidHost::reconstructChunk(std::uint64_t stripe, std::uint32_t spare_target,
                            std::function<void(bool)> done)
{
    assert(failed_);
    assert(spare_target < cluster_.numTargets());
    const raid::ChunkRole role = geom_.roleOf(stripe, *failed_);
    const std::uint32_t chunk = geom_.chunkSize();
    const auto participants = geom_.rebuildSources(stripe, *failed_);
    // A lost parity matches no data extent; a lost Q (sum g^i D_i) has
    // its reducer multiply each contribution by g^i.
    const std::uint32_t fidx = role == raid::ChunkRole::kData
                                   ? geom_.dataIndexOf(stripe, *failed_)
                                   : geom_.dataChunks();
    const proto::Subtype subtype = role == raid::ChunkRole::kParityQ
                                       ? proto::Subtype::kNoReadQ
                                       : proto::Subtype::kNoRead;

    const std::uint32_t reducer = selector_->select(participants, rng_);
    noteReconstructionLoad(chunk);
    if (bwAware_ && reducer < reconTxAttributed_.size())
        reconTxAttributed_[reducer] += chunk;

    const std::uint64_t trace = probe_.mint();
    const sim::Ticks start = cluster_.sim().now();
    auto wrapped = [this, done = std::move(done), trace, start,
                    chunk](bool ok) {
        probe_.opComplete(trace, "draid.reconstruct", start,
                          cluster_.sim().now(), chunk, nullptr);
        done(ok);
    };
    registerAndBroadcastReconstruction(
        stripe, participants, reducer, 0, chunk,
        cluster_.targetNodeId(spare_target), {}, fidx, nullptr,
        std::move(wrapped), subtype, trace);
}

// ---------------------------------------------------------------------------
// Bandwidth-aware planning (§6.2)
// ---------------------------------------------------------------------------

void
DraidHost::armBwTimer()
{
    if (!bwAware_ || bwTimerArmed_)
        return;
    bwTimerArmed_ = true;
    cluster_.sim().schedule(cluster_.config().rebalancePeriod,
                            "draid.bw_refresh",
                            [this]() { refreshBwPlan(); });
}

void
DraidHost::refreshBwPlan()
{
    bwTimerArmed_ = false;
    const bool had_activity = reconBytesWindow_ > 0 || !pending_.empty();
    const auto &cfg = cluster_.config();
    const double dt = sim::toSeconds(cfg.rebalancePeriod);

    std::vector<std::uint32_t> targets;
    std::vector<double> available;
    for (std::uint32_t i = 0; i < width_; ++i) {
        if (failed_ && *failed_ == i)
            continue;
        auto &nic = cluster_.target(targetOf(i)).nic();
        const std::uint64_t tx_now = nic.tx().bytesTransferred();
        const double tx_rate =
            static_cast<double>(tx_now - lastTxBytes_[i]) / dt;
        lastTxBytes_[i] = tx_now;
        const double recon_rate =
            static_cast<double>(reconTxAttributed_[i]) / dt;
        reconTxAttributed_[i] = 0;
        targets.push_back(i);
        available.push_back(
            std::max(0.0, nic.goodput() - std::max(0.0, tx_rate -
                                                            recon_rate)));
    }
    const double load = static_cast<double>(reconBytesWindow_) / dt;
    reconBytesWindow_ = 0;

    if (!targets.empty() && bwAware_) {
        bwAware_->refresh(targets, available, load,
                          static_cast<double>(width_ - 1));
    }
    // Keep ticking only while reconstruction work is flowing; otherwise
    // quiesce and let the next degraded operation re-arm the timer.
    if (had_activity)
        armBwTimer();
}

// ---------------------------------------------------------------------------
// DraidSystem assembly
// ---------------------------------------------------------------------------

DraidSystem::DraidSystem(cluster::Cluster &cluster,
                         const DraidOptions &options, std::uint32_t width)
{
    for (std::uint32_t i = 0; i < cluster.numTargets(); ++i)
        bdevs_.push_back(std::make_unique<DraidBdev>(cluster, i, options));
    host_ = std::make_unique<DraidHost>(cluster, options, width);
}

DraidSystem::~DraidSystem() = default;

} // namespace draid::core
