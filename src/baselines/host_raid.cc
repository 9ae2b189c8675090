#include "baselines/host_raid.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <string>
#include <utility>

#include "telemetry/trace.h"

#include "ec/gf256.h"
#include "ec/raid5_codec.h"
#include "ec/raid6_codec.h"
#include "ec/xor_kernel.h"

namespace draid::baselines {

HostCentricRaid::HostCentricRaid(cluster::Cluster &cluster,
                                 raid::RaidLevel level,
                                 std::uint32_t chunk_size,
                                 std::uint32_t width,
                                 const HostRaidTuning &tuning)
    : cluster_(cluster),
      tuning_(tuning),
      width_(width == 0 ? cluster.numTargets() : width),
      geom_(level, chunk_size, width_),
      planner_(geom_),
      initiator_(cluster, ids_),
      probe_(cluster.probe(cluster.hostId()))
{
    assert(width_ <= cluster.numTargets());
    cluster_.fabric().setEndpoint(cluster_.hostId(), this);
    for (std::uint32_t i = 0; i < cluster.numTargets(); ++i) {
        targets_.push_back(
            std::make_unique<blockdev::NvmfTarget>(cluster, i));
    }

    // Probes over the existing counters plus op-latency histograms, under
    // host0.raid.* (one system under test per cluster).
    auto scope = cluster_.nodeScope(cluster_.hostId()).scope("raid");
    scope.probe("full_stripe_writes",
                [this] { return counters_.fullStripeWrites; });
    scope.probe("rmw_writes", [this] { return counters_.rmwWrites; });
    scope.probe("rcw_writes", [this] { return counters_.rcwWrites; });
    scope.probe("normal_reads", [this] { return counters_.normalReads; });
    scope.probe("degraded_reads",
                [this] { return counters_.degradedReads; });
    scope.probe("degraded_writes",
                [this] { return counters_.degradedWrites; });
    scope.probe("retries", [this] { return counters_.retries; });
    readLatencyUs_ =
        &scope.histogram("read_latency_us", telemetry::latencyBucketsUs());
    writeLatencyUs_ =
        &scope.histogram("write_latency_us", telemetry::latencyBucketsUs());
}

std::uint64_t
HostCentricRaid::sizeBytes() const
{
    const std::uint64_t stripes =
        cluster_.config().ssd.capacity / geom_.chunkSize();
    return stripes * geom_.stripeDataSize();
}

void
HostCentricRaid::onMessage(const net::Message &msg)
{
    initiator_.tryComplete(msg);
}

void
HostCentricRaid::markFailed(std::uint32_t device)
{
    assert(device < width_);
    failed_ = device;
}

void
HostCentricRaid::chargeDataPath(std::uint64_t bytes, sim::EventFn fn,
                                std::uint64_t trace)
{
    cluster_.host().cpu().executeBytes(bytes, tuning_.dataPathBw, sim::Ticks::zero(), trace,
                                       "host.datapath", std::move(fn));
}

void
HostCentricRaid::chargeReadPath(std::uint64_t bytes, sim::EventFn fn,
                                std::uint64_t trace)
{
    cluster_.host().cpu().executeBytes(bytes, tuning_.readPathBw, sim::Ticks::zero(), trace,
                                       "host.readpath", std::move(fn));
}

void
HostCentricRaid::chargeXor(std::uint64_t bytes, sim::EventFn fn,
                           std::uint64_t trace)
{
    cluster_.host().cpu().executeBytes(bytes, tuning_.xorBw, sim::Ticks::zero(), trace,
                                       "parity.xor", std::move(fn));
}

void
HostCentricRaid::chargeGf(std::uint64_t bytes, sim::EventFn fn,
                          std::uint64_t trace)
{
    cluster_.host().cpu().executeBytes(bytes, tuning_.gfBw, sim::Ticks::zero(), trace,
                                       "parity.gf", std::move(fn));
}

void
HostCentricRaid::submitCharged(std::vector<blockdev::BatchIo> ios,
                               std::uint64_t trace,
                               blockdev::BatchCallback cb)
{
    std::uint64_t bytes = 0;
    for (const auto &io : ios)
        bytes += io.length;
    chargeDataPath(bytes, [this, ios = std::move(ios), trace,
                           cb = std::move(cb)]() mutable {
        initiator_.submitBatch(std::move(ios), trace, std::move(cb));
    }, trace);
}

void
HostCentricRaid::retryAfter(std::shared_ptr<StripeWrite> sw,
                            const blockdev::BatchResult &r)
{
    if (r.suspect)
        sw->suspect = r.suspect;
    retryStripe(std::move(sw));
}

blockdev::BatchCallback
HostCentricRaid::finishStripe(std::shared_ptr<StripeWrite> sw)
{
    return [this, sw = std::move(sw)](blockdev::BatchResult r) {
        if (r.ok)
            sw->done(true);
        else
            retryAfter(sw, r);
    };
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

void
HostCentricRaid::write(std::uint64_t offset, ec::Buffer data,
                       blockdev::WriteCallback cb)
{
    assert(offset + data.size() <= sizeBytes());
    const std::uint64_t trace = probe_.mintOp();
    const sim::Ticks op_start = cluster_.sim().now();
    const std::uint64_t op_bytes = data.size();
    auto wrapped = [this, cb, trace, op_start,
                    op_bytes](blockdev::IoStatus st) {
        probe_.opComplete(trace, "raid.write", op_start,
                          cluster_.sim().now(), op_bytes, writeLatencyUs_);
        cb(st);
    };
    auto plans = planner_.plan(offset, data.size());
    auto remaining = std::make_shared<int>(static_cast<int>(plans.size()));
    auto all_ok = std::make_shared<bool>(true);

    // Kernel-path submission overhead (queue delay + per-op CPU).
    auto submit = [this, plans = std::move(plans), data, remaining, all_ok,
                   wrapped, trace]() mutable {
        std::size_t pos = 0;
        for (auto &plan : plans) {
            auto sw = std::make_shared<StripeWrite>();
            sw->plan = plan;
            sw->retriesLeft = tuning_.maxRetries;
            sw->traceId = trace;
            for (const auto &seg : plan.writes) {
                sw->segData.push_back(data.slice(pos, seg.length));
                pos += seg.length;
            }
            const std::uint64_t stripe = plan.stripe;
            sw->done = [this, stripe, remaining, all_ok,
                        wrapped](bool ok) {
                locks_.release(stripe);
                if (!ok)
                    *all_ok = false;
                if (--*remaining == 0)
                    wrapped(*all_ok ? blockdev::IoStatus::kOk
                                    : blockdev::IoStatus::kError);
            };
            locks_.acquire(stripe,
                           [this, sw]() { executeStripeWrite(sw); });
        }
    };

    cluster_.sim().schedule(tuning_.queueDelay, "hostraid.queue",
                            [this, submit, trace]() mutable {
        cluster_.host().cpu().execute(tuning_.perOpCost + tuning_.lockCost,
                                      trace, "host.submit",
                                      std::move(submit));
    });
}

void
HostCentricRaid::executeStripeWrite(std::shared_ptr<StripeWrite> sw)
{
    if (failed_) {
        ++counters_.degradedWrites;
        raid::DegradedRoute route =
            planner_.routeDegraded(sw->plan, *failed_);
        switch (route.kind) {
          case raid::DegradedKind::kParityLess:
            doParityLess(sw);
            return;
          case raid::DegradedKind::kTargeted: {
            // Surviving segments go through an ordinary RMW sub-op, then
            // the failed segment updates the parity window directly from
            // the survivors' slices (no reconstruction round-trip — the
            // same targeted path dRAID uses, only host-centric). `sw`
            // keeps every segment for a retry.
            const std::size_t pos = route.failedPos;
            if (route.plan.writes.empty()) {
                doDegradedTargeted(sw, pos);
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
                    doDegradedTargeted(sw, pos);
                else
                    sw->done(false);
            };
            doRmw(phase1);
            return;
          }
          case raid::DegradedKind::kAsPlanned:
            sw->plan = std::move(route.plan); // same segments
            break;
        }
    }
    switch (sw->plan.mode) {
      case raid::WriteMode::kFullStripe:
        doFullStripe(sw);
        return;
      case raid::WriteMode::kReadModifyWrite:
        doRmw(sw);
        return;
      case raid::WriteMode::kReconstructWrite:
        doRcw(sw);
        return;
    }
}

void
HostCentricRaid::doDegradedTargeted(std::shared_ptr<StripeWrite> sw,
                                    std::size_t pos)
{
    const raid::WriteSegment seg = sw->plan.writes[pos];
    const std::uint64_t stripe = sw->plan.stripe;
    const bool raid6 = geom_.level() == raid::RaidLevel::kRaid6;
    const std::uint64_t addr = geom_.deviceAddress(stripe, seg.offset);

    // Fetch every survivor's slice of the written range.
    std::vector<blockdev::BatchIo> reads;
    for (std::uint32_t i = 0; i < geom_.dataChunks(); ++i) {
        if (i == seg.dataIdx)
            continue;
        const std::uint32_t dev = geom_.dataDevice(stripe, i);
        reads.push_back(blockdev::BatchIo::read(dev, dev, addr, seg.length));
    }
    const std::uint64_t bytes = static_cast<std::uint64_t>(seg.length) *
                                (reads.size() + 1 + (raid6 ? 1 : 0));
    const auto assemble = [this, sw, pos, seg, stripe, raid6,
                           addr](blockdev::BatchResult r) {
        if (!r.ok) {
            retryAfter(sw, r);
            return;
        }
        // P_new[r] = XOR_i!=f D_i[r] ^ new[r];
        // Q_new[r] = sum g^i D_i[r] ^ g^f new[r].
        ec::Buffer p(seg.length);
        ec::Buffer q(raid6 ? seg.length : 0);
        const auto &gf = ec::Gf256::instance();
        const ec::Buffer &data = sw->segData[pos];
        for (const auto &io : r.ios) {
            ec::xorInto(p.data(), io.data.data(), seg.length);
            if (raid6) {
                gf.mulAccum(gf.pow2(geom_.dataIndexOf(stripe, io.device)),
                            io.data.data(), q.data(), seg.length);
            }
        }
        ec::xorInto(p.data(), data.data(), seg.length);
        if (raid6) {
            gf.mulAccum(gf.pow2(seg.dataIdx), data.data(), q.data(),
                        seg.length);
        }

        chargeXor(static_cast<std::uint64_t>(seg.length) * (r.ios.size() + 1),
                  [this, sw, stripe, addr, p = std::move(p),
                   q = std::move(q), raid6]() mutable {
            const std::uint32_t p_dev = geom_.parityDevice(stripe);
            std::vector<blockdev::BatchIo> writes;
            writes.push_back(
                blockdev::BatchIo::write(p_dev, p_dev, addr, std::move(p)));
            if (raid6) {
                const std::uint32_t q_dev = geom_.qDevice(stripe);
                writes.push_back(blockdev::BatchIo::write(q_dev, q_dev, addr,
                                                          std::move(q)));
            }
            initiator_.submitBatch(std::move(writes), sw->traceId,
                                   finishStripe(sw));
        }, sw->traceId);
    };
    chargeDataPath(bytes, [this, sw, reads = std::move(reads),
                           assemble]() mutable {
        initiator_.submitBatch(std::move(reads), sw->traceId, assemble);
    }, sw->traceId);
}

void
HostCentricRaid::doFullStripe(std::shared_ptr<StripeWrite> sw)
{
    ++counters_.fullStripeWrites;
    const std::uint32_t k = geom_.dataChunks();

    std::vector<ec::Buffer> chunks(k);
    for (std::size_t i = 0; i < sw->plan.writes.size(); ++i)
        chunks[sw->plan.writes[i].dataIdx] = sw->segData[i];

    const bool raid6 = geom_.level() == raid::RaidLevel::kRaid6;
    const std::uint64_t stripe_bytes = geom_.stripeDataSize();

    chargeXor(stripe_bytes, [this, sw, chunks, raid6, stripe_bytes]() {
        auto issue = [this, sw, chunks, raid6]() {
            ec::Buffer p, q;
            if (raid6)
                ec::Raid6Codec::computePQ(chunks, p, q);
            else
                p = ec::Raid5Codec::computeParity(chunks);

            const std::uint64_t stripe = sw->plan.stripe;
            const std::uint64_t addr = geom_.deviceAddress(stripe, 0);
            std::vector<blockdev::BatchIo> writes;
            const auto add = [&](std::uint32_t dev, ec::Buffer buf) {
                if (!(failed_ && dev == *failed_))
                    writes.push_back(
                        blockdev::BatchIo::write(dev, dev, addr, std::move(buf)));
            };
            for (std::uint32_t i = 0; i < geom_.dataChunks(); ++i)
                add(geom_.dataDevice(stripe, i), chunks[i]);
            add(geom_.parityDevice(stripe), std::move(p));
            if (raid6)
                add(geom_.qDevice(stripe), std::move(q));
            submitCharged(std::move(writes), sw->traceId, finishStripe(sw));
        };
        if (raid6)
            chargeGf(stripe_bytes, issue, sw->traceId);
        else
            issue();
    }, sw->traceId);
}

void
HostCentricRaid::doRmw(std::shared_ptr<StripeWrite> sw)
{
    ++counters_.rmwWrites;
    const std::uint64_t stripe = sw->plan.stripe;
    const auto &plan = sw->plan;
    const bool raid6 = geom_.level() == raid::RaidLevel::kRaid6;

    const std::uint32_t p_dev = geom_.parityDevice(stripe);
    const std::uint32_t q_dev = raid6 ? geom_.qDevice(stripe) : 0;
    const bool p_alive = !(failed_ && *failed_ == p_dev);
    const bool q_alive = raid6 && !(failed_ && *failed_ == q_dev);
    const std::uint64_t paddr = geom_.deviceAddress(stripe, plan.parityOffset);

    // Read phase: old data under each segment + old parity windows.
    std::vector<blockdev::BatchIo> reads;
    for (const auto &seg : plan.writes) {
        const std::uint32_t dev = geom_.dataDevice(stripe, seg.dataIdx);
        reads.push_back(blockdev::BatchIo::read(
            dev, dev, geom_.deviceAddress(stripe, seg.offset), seg.length));
    }
    if (p_alive) {
        reads.push_back(
            blockdev::BatchIo::read(p_dev, p_dev, paddr, plan.parityLength));
    }
    if (q_alive) {
        reads.push_back(
            blockdev::BatchIo::read(q_dev, q_dev, paddr, plan.parityLength));
    }

    submitCharged(std::move(reads), sw->traceId,
                  [this, sw, stripe, p_alive, q_alive, p_dev, q_dev,
                   paddr](blockdev::BatchResult r) {
        if (!r.ok) {
            retryAfter(sw, r);
            return;
        }
        // Deltas -> new parity windows, updated in place: the old windows
        // are fresh reads, moved out of the batch so that nothing else
        // holds them (DESIGN.md §4.2).
        const std::size_t n = sw->plan.writes.size();
        std::uint64_t xor_bytes = 0;
        ec::Buffer new_p, new_q; // window-sized
        if (p_alive)
            new_p = std::move(r.ios[n].data);
        if (q_alive)
            new_q = std::move(r.ios[n + (p_alive ? 1 : 0)].data);
        assert(!p_alive || new_p.unique());
        assert(!q_alive || new_q.unique());
        const auto &gf = ec::Gf256::instance();
        for (std::size_t i = 0; i < n; ++i) {
            const auto &seg = sw->plan.writes[i];
            // The old data is a fresh read: held alone, it takes the
            // delta in place.
            ec::Buffer &old_seg = r.ios[i].data;
            ec::Buffer delta;
            if (old_seg.unique()) {
                ec::xorInto(old_seg, sw->segData[i]);
                delta = std::move(old_seg);
            } else {
                delta = ec::xorOf(old_seg, sw->segData[i]);
            }
            xor_bytes += 2 * delta.size();
            const std::uint32_t rel = seg.offset - sw->plan.parityOffset;
            if (p_alive)
                ec::xorInto(new_p.data() + rel, delta.data(), delta.size());
            if (q_alive) {
                gf.mulAccum(gf.pow2(seg.dataIdx), delta.data(),
                            new_q.data() + rel, delta.size());
            }
        }

        chargeXor(xor_bytes, [this, sw, stripe, new_p, new_q, p_alive,
                              q_alive, p_dev, q_dev, paddr]() {
            std::vector<blockdev::BatchIo> writes;
            for (std::size_t i = 0; i < sw->plan.writes.size(); ++i) {
                const auto &seg = sw->plan.writes[i];
                const std::uint32_t dev =
                    geom_.dataDevice(stripe, seg.dataIdx);
                writes.push_back(blockdev::BatchIo::write(
                    dev, dev, geom_.deviceAddress(stripe, seg.offset),
                    sw->segData[i]));
            }
            if (p_alive) {
                writes.push_back(
                    blockdev::BatchIo::write(p_dev, p_dev, paddr, new_p));
            }
            if (q_alive) {
                writes.push_back(
                    blockdev::BatchIo::write(q_dev, q_dev, paddr, new_q));
            }
            submitCharged(std::move(writes), sw->traceId, finishStripe(sw));
        }, sw->traceId);
    });
}

void
HostCentricRaid::doRcw(std::shared_ptr<StripeWrite> sw)
{
    ++counters_.rcwWrites;
    const std::uint64_t stripe = sw->plan.stripe;
    const std::uint32_t k = geom_.dataChunks();
    const std::uint32_t chunk = geom_.chunkSize();
    const std::uint64_t addr = geom_.deviceAddress(stripe, 0);

    auto after_reads = [this, sw, stripe, k, chunk,
                        addr](blockdev::BatchResult r) {
        if (!r.ok) {
            retryAfter(sw, r);
            return;
        }
        // Final content of every data chunk: merged old+new for partially
        // written chunks, read for untouched ones.
        std::vector<ec::Buffer> chunks(k);
        for (auto &io : r.ios)
            chunks[geom_.dataIndexOf(stripe, io.device)] = std::move(io.data);
        const auto &plan = sw->plan;
        for (std::size_t i = 0; i < plan.writes.size(); ++i) {
            const auto &seg = plan.writes[i];
            auto &c = chunks[seg.dataIdx];
            if (c.empty())
                c = ec::Buffer(chunk);
            std::memcpy(c.data() + seg.offset, sw->segData[i].data(),
                        seg.length);
        }

        const bool raid6 = geom_.level() == raid::RaidLevel::kRaid6;
        const std::uint64_t stripe_bytes = geom_.stripeDataSize();
        chargeXor(stripe_bytes, [this, sw, chunks = std::move(chunks),
                                 stripe, addr, raid6, stripe_bytes]() {
            auto issue = [this, sw, chunks, stripe, addr, raid6]() {
                ec::Buffer p, q;
                if (raid6)
                    ec::Raid6Codec::computePQ(chunks, p, q);
                else
                    p = ec::Raid5Codec::computeParity(chunks);

                std::vector<blockdev::BatchIo> writes;
                for (std::size_t i = 0; i < sw->plan.writes.size(); ++i) {
                    const auto &seg = sw->plan.writes[i];
                    const std::uint32_t dev =
                        geom_.dataDevice(stripe, seg.dataIdx);
                    writes.push_back(blockdev::BatchIo::write(
                        dev, dev, geom_.deviceAddress(stripe, seg.offset),
                        sw->segData[i]));
                }
                const std::uint32_t p_dev = geom_.parityDevice(stripe);
                if (!(failed_ && *failed_ == p_dev)) {
                    writes.push_back(
                        blockdev::BatchIo::write(p_dev, p_dev, addr, p));
                }
                if (raid6) {
                    const std::uint32_t q_dev = geom_.qDevice(stripe);
                    if (!(failed_ && *failed_ == q_dev)) {
                        writes.push_back(
                            blockdev::BatchIo::write(q_dev, q_dev, addr, q));
                    }
                }
                submitCharged(std::move(writes), sw->traceId,
                              finishStripe(sw));
            };
            if (raid6)
                chargeGf(stripe_bytes, issue, sw->traceId);
            else
                issue();
        }, sw->traceId);
    };

    // Read phase: every chunk whose final content is not fully known.
    std::vector<bool> fully_written(k, false);
    for (const auto &seg : sw->plan.writes) {
        if (seg.offset == 0 && seg.length == chunk)
            fully_written[seg.dataIdx] = true;
    }
    std::vector<blockdev::BatchIo> reads;
    for (std::uint32_t i = 0; i < k; ++i) {
        if (fully_written[i])
            continue;
        const std::uint32_t dev = geom_.dataDevice(stripe, i);
        reads.push_back(blockdev::BatchIo::read(dev, dev, addr, chunk));
    }
    if (reads.empty()) {
        after_reads({});
        return;
    }
    submitCharged(std::move(reads), sw->traceId, std::move(after_reads));
}

void
HostCentricRaid::doParityLess(std::shared_ptr<StripeWrite> sw)
{
    const std::uint64_t stripe = sw->plan.stripe;
    std::vector<blockdev::BatchIo> writes;
    for (std::size_t i = 0; i < sw->plan.writes.size(); ++i) {
        const auto &seg = sw->plan.writes[i];
        const std::uint32_t dev = geom_.dataDevice(stripe, seg.dataIdx);
        writes.push_back(blockdev::BatchIo::write(
            dev, dev, geom_.deviceAddress(stripe, seg.offset),
            sw->segData[i]));
    }
    submitCharged(std::move(writes), sw->traceId, finishStripe(sw));
}

void
HostCentricRaid::retryStripe(std::shared_ptr<StripeWrite> sw)
{
    if (sw->retriesLeft-- <= 0) {
        // Retries are used up (DESIGN.md §4.1): fail the suspect over if
        // the array is healthy and re-execute in degraded mode, which a
        // suspect already failed gets too; otherwise fail the write.
        const auto suspect = std::exchange(sw->suspect, std::nullopt);
        if (suspect && !failed_)
            markFailed(*suspect);
        if (suspect && failed_ == suspect)
            executeStripeWrite(sw);
        else
            sw->done(false);
        return;
    }
    ++counters_.retries;
    executeStripeWrite(sw);
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

void
HostCentricRaid::read(std::uint64_t offset, std::uint32_t length,
                      blockdev::ReadCallback cb)
{
    assert(offset + length <= sizeBytes());
    ++counters_.normalReads;
    auto join = std::make_shared<blockdev::ReadJoin>();
    join->cb = std::move(cb);
    join->trace = probe_.mintOp();
    join->opStart = cluster_.sim().now();
    join->span = "raid.read";
    join->length = length;
    auto groups = geom_.mapByStripe(offset, length);
    join->pending = static_cast<int>(groups.size());

    const std::uint64_t trace = join->trace;
    auto submit = [this, groups = std::move(groups),
                   join = std::move(join)]() mutable {
        for (auto &g : groups)
            readStripeGroup(g.stripe, std::move(g.extents), join);
    };
    cluster_.sim().schedule(tuning_.queueDelay, "hostraid.queue",
                            [this, submit, trace]() mutable {
        cluster_.host().cpu().execute(tuning_.perOpCost, trace,
                                      "host.submit", std::move(submit));
    });
}

void
HostCentricRaid::settleRead(blockdev::ReadJoin &join, bool ok)
{
    join.settle(ok, probe_, cluster_.sim().now(), readLatencyUs_);
}

void
HostCentricRaid::readStripeGroup(std::uint64_t stripe,
                                 raid::PlacedExtents extents,
                                 std::shared_ptr<blockdev::ReadJoin> join)
{
    const std::uint64_t trace = join->trace;
    auto run = [this, stripe, extents = std::move(extents),
                join = std::move(join), trace]() mutable {
        const bool has_failed =
            failed_ && std::any_of(extents.begin(), extents.end(),
                                   [this](const raid::PlacedExtent &g) {
                                       return geom_.dataDevice(
                                                  g.extent.stripe,
                                                  g.extent.dataIdx) ==
                                              *failed_;
                                   });
        if (has_failed) {
            degradedStripeRead(stripe, std::move(extents), std::move(join));
            return;
        }
        std::vector<blockdev::BatchIo> reads;
        std::uint64_t bytes = 0;
        for (const auto &g : extents) {
            const std::uint32_t dev =
                geom_.dataDevice(stripe, g.extent.dataIdx);
            reads.push_back(blockdev::BatchIo::read(
                dev, dev, geom_.deviceAddress(stripe, g.extent.offset),
                g.extent.length));
            bytes += g.extent.length;
        }
        chargeReadPath(bytes, [this, stripe, trace, reads = std::move(reads),
                               extents = std::move(extents),
                               join = std::move(join)]() mutable {
            initiator_.submitBatch(std::move(reads), trace,
                                   [this, stripe, extents = std::move(extents),
                                    join = std::move(join)](
                                       blockdev::BatchResult r) {
                for (std::size_t i = 0; r.ok && i < extents.size(); ++i)
                    join->land(extents[i].outPos, std::move(r.ios[i].data));
                // The SPDK POC holds the stripe lock (§8) until the
                // group's last read is in; MD takes none.
                if (tuning_.lockReads)
                    locks_.release(stripe);
                settleRead(*join, r.ok);
            });
        }, trace);
    };

    if (tuning_.lockReads) {
        locks_.acquire(stripe,
                       [this, run = std::move(run), trace]() mutable {
            cluster_.host().cpu().execute(tuning_.lockCost, trace,
                                          "host.lock", std::move(run));
        });
        return;
    }
    run();
}

void
HostCentricRaid::degradedStripeRead(std::uint64_t stripe,
                                    raid::PlacedExtents extents,
                                    std::shared_ptr<blockdev::ReadJoin> join)
{
    ++counters_.degradedReads;
    const std::uint32_t fidx = geom_.dataIndexOf(stripe, *failed_);
    const auto failed_it =
        std::find_if(extents.begin(), extents.end(),
                     [fidx](const raid::PlacedExtent &g) {
                         return g.extent.dataIdx == fidx;
                     });
    assert(failed_it != extents.end());
    const std::uint32_t fo = failed_it->extent.offset;
    const std::uint32_t fl = failed_it->extent.length;
    const std::size_t fpos = failed_it->outPos;
    const std::uint64_t trace = join->trace;

    // The host fetches the recon window of every surviving data chunk and
    // of P (n-1 reads). Requested survivor extents are fetched separately
    // — the host-centric baselines lack dRAID's §6.1 union co-design.
    std::vector<blockdev::BatchIo> reads;
    const std::uint64_t recon_addr = geom_.deviceAddress(stripe, fo);
    for (const auto dev : geom_.rebuildSources(stripe, *failed_))
        reads.push_back(blockdev::BatchIo::read(dev, dev, recon_addr, fl));
    const std::size_t n_recon = reads.size();
    std::uint64_t total_bytes = static_cast<std::uint64_t>(fl) * n_recon;
    std::vector<std::size_t> out_pos; ///< per survivor extent read
    for (const auto &g : extents) {
        if (g.extent.dataIdx == fidx)
            continue;
        const std::uint32_t dev = geom_.dataDevice(stripe, g.extent.dataIdx);
        reads.push_back(blockdev::BatchIo::read(
            dev, dev, geom_.deviceAddress(stripe, g.extent.offset),
            g.extent.length));
        out_pos.push_back(g.outPos);
        total_bytes += g.extent.length;
    }

    // The group settles once, when the recon slices and the survivor
    // extents are all in. readStripeGroup's run holds the SPDK read lock.
    auto done = [this, stripe, n_recon, out_pos = std::move(out_pos), fpos,
                 fl, trace, join](blockdev::BatchResult r) {
        const auto settle = [this, stripe, join](bool ok) {
            if (tuning_.lockReads)
                locks_.release(stripe);
            settleRead(*join, ok);
        };
        if (!r.ok) {
            settle(false);
            return;
        }
        std::vector<ec::Buffer> recon;
        for (std::size_t i = 0; i < r.ios.size(); ++i) {
            if (i < n_recon)
                recon.push_back(std::move(r.ios[i].data));
            else
                join->land(out_pos[i - n_recon], std::move(r.ios[i].data));
        }
        const std::uint64_t xor_bytes =
            static_cast<std::uint64_t>(fl) * recon.size();
        chargeXor(xor_bytes, [join, fpos, settle,
                              recon = std::move(recon)]() {
            join->land(fpos, ec::Raid5Codec::recover(recon));
            settle(true);
        }, trace);
    };
    total_bytes = static_cast<std::uint64_t>(
        static_cast<double>(total_bytes) * tuning_.degradedPathFactor);
    chargeDataPath(total_bytes, [this, reads = std::move(reads), trace,
                                 done = std::move(done)]() mutable {
        initiator_.submitBatch(std::move(reads), trace, std::move(done));
    }, trace);
}

// ---------------------------------------------------------------------------
// Rebuild
// ---------------------------------------------------------------------------

void
HostCentricRaid::reconstructChunk(std::uint64_t stripe,
                                  std::uint32_t spare_target,
                                  std::function<void(bool)> done)
{
    assert(failed_);
    const std::uint64_t trace = probe_.mint();
    const sim::Ticks op_start = cluster_.sim().now();
    done = [this, trace, op_start, inner = std::move(done),
            chunk_bytes = geom_.chunkSize()](bool ok) {
        probe_.opComplete(trace, "raid.reconstruct", op_start,
                          cluster_.sim().now(), chunk_bytes, nullptr);
        inner(ok);
    };
    const bool q_rebuild =
        geom_.roleOf(stripe, *failed_) == raid::ChunkRole::kParityQ;
    const std::uint32_t chunk = geom_.chunkSize();
    const std::uint64_t addr = geom_.deviceAddress(stripe, 0);

    std::vector<blockdev::BatchIo> reads;
    for (const auto dev : geom_.rebuildSources(stripe, *failed_))
        reads.push_back(blockdev::BatchIo::read(dev, dev, addr, chunk));

    auto assemble = [this, stripe, spare_target, chunk, addr, q_rebuild,
                     trace, done = std::move(done)](
                        blockdev::BatchResult r) mutable {
        if (!r.ok) {
            done(false);
            return;
        }
        auto write_out = [this, spare_target, addr, trace,
                          done](ec::Buffer rebuilt) mutable {
            initiator_.writeRemote(spare_target, addr, std::move(rebuilt),
                                   [done](blockdev::IoStatus st) mutable {
                                       done(st == blockdev::IoStatus::kOk);
                                   }, trace);
        };
        const std::uint64_t bytes =
            static_cast<std::uint64_t>(chunk) * r.ios.size();
        if (q_rebuild) {
            chargeGf(bytes, [this, stripe, r = std::move(r), chunk,
                             write_out]() mutable {
                // Q = sum g^i D_i; a lost Q's sources are the data chunks.
                const auto &gf = ec::Gf256::instance();
                ec::Buffer q(chunk);
                for (const auto &io : r.ios) {
                    gf.mulAccum(gf.pow2(geom_.dataIndexOf(stripe, io.device)),
                                io.data.data(), q.data(), chunk);
                }
                write_out(std::move(q));
            }, trace);
            return;
        }
        std::vector<ec::Buffer> bufs;
        for (auto &io : r.ios)
            bufs.push_back(std::move(io.data));
        chargeXor(bytes, [bufs = std::move(bufs), write_out]() mutable {
            write_out(ec::Raid5Codec::recover(bufs));
        }, trace);
    };
    submitCharged(std::move(reads), trace, std::move(assemble));
}

} // namespace draid::baselines
