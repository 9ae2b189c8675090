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

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

namespace {

struct WriteTally
{
    int remaining = 0;
    bool ok = true;
    std::optional<std::uint32_t> suspect;
};

} // namespace

void
HostCentricRaid::write(std::uint64_t offset, ec::Buffer data,
                       blockdev::WriteCallback cb)
{
    assert(offset + data.size() <= sizeBytes());
    const std::uint64_t trace = probe_.mint();
    cluster_.telemetry().contention().noteOpStart(trace);
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
    const std::uint64_t stripe = sw->plan.stripe;

    if (!failed_) {
        switch (sw->plan.mode) {
          case raid::WriteMode::kFullStripe:
            doFullStripe(sw);
            return;
          case raid::WriteMode::kReadModifyWrite:
            doRmw(sw);
            return;
          case raid::WriteMode::kReconstructWrite:
            doRcw(sw, std::nullopt);
            return;
        }
    }

    ++counters_.degradedWrites;
    const raid::ChunkRole role = geom_.roleOf(stripe, *failed_);
    if (role == raid::ChunkRole::kParityP &&
        geom_.level() == raid::RaidLevel::kRaid5) {
        doParityLess(sw);
        return;
    }
    if (role != raid::ChunkRole::kData) {
        // One parity lost; the normal flow skips it.
        switch (sw->plan.mode) {
          case raid::WriteMode::kFullStripe:
            doFullStripe(sw);
            return;
          case raid::WriteMode::kReadModifyWrite:
            doRmw(sw);
            return;
          case raid::WriteMode::kReconstructWrite:
            doRcw(sw, std::nullopt);
            return;
        }
    }

    const std::uint32_t fidx = geom_.dataIndexOf(stripe, *failed_);
    const auto written =
        std::find_if(sw->plan.writes.begin(), sw->plan.writes.end(),
                     [fidx](const raid::WriteSegment &s) {
                         return s.dataIdx == fidx;
                     });
    if (sw->plan.mode == raid::WriteMode::kFullStripe) {
        doFullStripe(sw);
        return;
    }
    if (written == sw->plan.writes.end()) {
        // Untouched failed chunk cancels out of the delta: force RMW.
        auto &plan = sw->plan;
        plan.mode = raid::WriteMode::kReadModifyWrite;
        plan.rcwReads.clear();
        std::uint32_t lo = geom_.chunkSize(), hi = 0;
        for (const auto &s : plan.writes) {
            lo = std::min(lo, s.offset);
            hi = std::max(hi, s.offset + s.length);
        }
        plan.parityOffset = lo;
        plan.parityLength = hi - lo;
        doRmw(sw);
        return;
    }
    // Peel the failed chunk's segment off: surviving segments go through
    // an ordinary RMW sub-op, then the failed segment updates the parity
    // window directly from the survivors' slices (no reconstruction
    // round-trip — the same targeted path dRAID uses, only host-centric).
    const raid::WriteSegment failed_seg = *written;
    const std::size_t seg_pos =
        static_cast<std::size_t>(written - sw->plan.writes.begin());
    ec::Buffer failed_data = sw->segData[seg_pos];
    sw->plan.writes.erase(written);
    sw->segData.erase(sw->segData.begin() +
                      static_cast<std::ptrdiff_t>(seg_pos));

    if (sw->plan.writes.empty()) {
        doDegradedTargeted(sw, failed_seg, std::move(failed_data));
        return;
    }
    auto phase1 = std::make_shared<StripeWrite>();
    phase1->plan = sw->plan;
    phase1->plan.mode = raid::WriteMode::kReadModifyWrite;
    phase1->plan.rcwReads.clear();
    std::uint32_t lo = geom_.chunkSize(), hi = 0;
    for (const auto &s : phase1->plan.writes) {
        lo = std::min(lo, s.offset);
        hi = std::max(hi, s.offset + s.length);
    }
    phase1->plan.parityOffset = lo;
    phase1->plan.parityLength = hi - lo;
    phase1->segData = sw->segData;
    phase1->retriesLeft = sw->retriesLeft;
    phase1->done = [this, sw, failed_seg,
                    failed_data = std::move(failed_data)](bool ok) mutable {
        if (!ok) {
            sw->done(false);
            return;
        }
        doDegradedTargeted(sw, failed_seg, std::move(failed_data));
    };
    doRmw(phase1);
}

void
HostCentricRaid::doDegradedTargeted(std::shared_ptr<StripeWrite> sw,
                                    const raid::WriteSegment &seg,
                                    ec::Buffer data)
{
    const std::uint64_t stripe = sw->plan.stripe;
    const std::uint32_t fidx = seg.dataIdx;
    const bool raid6 = geom_.level() == raid::RaidLevel::kRaid6;
    const std::uint64_t addr = geom_.deviceAddress(stripe, seg.offset);

    struct Ctx
    {
        // draid-lint: cap(stripe width; one slice per parity update)
        std::vector<std::pair<std::uint32_t, ec::Buffer>> slices;
        int remaining = 0;
        bool ok = true;
        std::optional<std::uint32_t> suspect;
    };
    auto ctx = std::make_shared<Ctx>();

    auto assemble = [this, sw, ctx, seg, stripe, fidx, raid6, addr,
                     data = std::move(data)]() mutable {
        if (!ctx->ok) {
            sw->suspect = ctx->suspect;
            retryStripe(sw);
            return;
        }
        // P_new[r] = XOR_i!=f D_i[r] ^ new[r];
        // Q_new[r] = sum g^i D_i[r] ^ g^f new[r].
        ec::Buffer p(seg.length);
        ec::Buffer q(raid6 ? seg.length : 0);
        const auto &gf = ec::Gf256::instance();
        for (const auto &[idx, slice] : ctx->slices) {
            ec::xorInto(p.data(), slice.data(), seg.length);
            if (raid6) {
                gf.mulAccum(gf.pow2(idx), slice.data(), q.data(),
                            seg.length);
            }
        }
        ec::xorInto(p.data(), data.data(), seg.length);
        if (raid6)
            gf.mulAccum(gf.pow2(fidx), data.data(), q.data(), seg.length);

        chargeXor(static_cast<std::uint64_t>(seg.length) *
                      (ctx->slices.size() + 1),
                  [this, sw, stripe, addr, p = std::move(p),
                   q = std::move(q), raid6]() mutable {
            const std::uint64_t trace = sw->traceId;
            auto tally = std::make_shared<WriteTally>();
            tally->remaining = 1 + (raid6 ? 1 : 0);
            auto finish = [this, sw, tally](std::uint32_t dev,
                                            blockdev::IoStatus st) {
                if (st != blockdev::IoStatus::kOk) {
                    tally->ok = false;
                    if (st == blockdev::IoStatus::kTimedOut)
                        tally->suspect = dev;
                }
                if (--tally->remaining == 0) {
                    if (tally->ok) {
                        sw->done(true);
                    } else {
                        sw->suspect = tally->suspect;
                        retryStripe(sw);
                    }
                }
            };
            const std::uint32_t p_dev = geom_.parityDevice(stripe);
            initiator_.writeRemote(p_dev, addr, p,
                                   [finish, p_dev](blockdev::IoStatus st) {
                                       finish(p_dev, st);
                                   }, trace);
            if (raid6) {
                const std::uint32_t q_dev = geom_.qDevice(stripe);
                initiator_.writeRemote(
                    q_dev, addr, q,
                    [finish, q_dev](blockdev::IoStatus st) {
                        finish(q_dev, st);
                    }, trace);
            }
        }, sw->traceId);
    };

    // Fetch every survivor's slice of the written range.
    std::vector<std::uint32_t> survivors;
    for (std::uint32_t i = 0; i < geom_.dataChunks(); ++i) {
        if (i != fidx)
            survivors.push_back(i);
    }
    ctx->remaining = static_cast<int>(survivors.size());
    chargeDataPath(static_cast<std::uint64_t>(seg.length) *
                       (survivors.size() + 1 + (raid6 ? 1 : 0)),
                   [this, sw, ctx, survivors, stripe, addr, seg,
                    assemble]() mutable {
        for (const auto idx : survivors) {
            const std::uint32_t dev = geom_.dataDevice(stripe, idx);
            initiator_.readRemote(
                dev, addr, seg.length,
                [ctx, idx, dev, assemble](blockdev::IoStatus st,
                                          ec::Buffer d) mutable {
                    if (st == blockdev::IoStatus::kOk) {
                        ctx->slices.emplace_back(idx, std::move(d));
                    } else {
                        ctx->ok = false;
                        if (st == blockdev::IoStatus::kTimedOut)
                            ctx->suspect = dev;
                    }
                    if (--ctx->remaining == 0)
                        assemble();
                }, sw->traceId);
        }
    }, sw->traceId);
}

void
HostCentricRaid::doFullStripe(std::shared_ptr<StripeWrite> sw)
{
    ++counters_.fullStripeWrites;
    const std::uint64_t stripe = sw->plan.stripe;
    const std::uint32_t k = geom_.dataChunks();
    const std::uint64_t addr = geom_.deviceAddress(stripe, 0);

    std::vector<ec::Buffer> chunks(k);
    for (std::size_t i = 0; i < sw->plan.writes.size(); ++i)
        chunks[sw->plan.writes[i].dataIdx] = sw->segData[i];

    const bool raid6 = geom_.level() == raid::RaidLevel::kRaid6;
    const std::uint64_t stripe_bytes = geom_.stripeDataSize();

    chargeXor(stripe_bytes, [this, sw, stripe, addr, chunks, raid6,
                             stripe_bytes]() {
        auto issue = [this, sw, stripe, addr, chunks, raid6]() {
            ec::Buffer p, q;
            if (raid6)
                ec::Raid6Codec::computePQ(chunks, p, q);
            else
                p = ec::Raid5Codec::computeParity(chunks);

            std::vector<std::pair<std::uint32_t, ec::Buffer>> ios;
            for (std::uint32_t i = 0; i < geom_.dataChunks(); ++i)
                ios.emplace_back(geom_.dataDevice(stripe, i), chunks[i]);
            ios.emplace_back(geom_.parityDevice(stripe), p);
            if (raid6)
                ios.emplace_back(geom_.qDevice(stripe), q);

            auto tally = std::make_shared<WriteTally>();
            std::uint64_t total_bytes = 0;
            for (auto &[dev, buf] : ios) {
                if (failed_ && dev == *failed_)
                    continue;
                ++tally->remaining;
                total_bytes += buf.size();
            }
            assert(tally->remaining > 0);
            chargeDataPath(total_bytes, [this, sw, addr, ios, tally]() {
                for (const auto &[dev, buf] : ios) {
                    if (failed_ && dev == *failed_)
                        continue;
                    const std::uint32_t d = dev;
                    initiator_.writeRemote(
                        d, addr, buf,
                        [this, sw, tally, d](blockdev::IoStatus st) {
                            if (st != blockdev::IoStatus::kOk) {
                                tally->ok = false;
                                if (st == blockdev::IoStatus::kTimedOut)
                                    tally->suspect = d;
                            }
                            if (--tally->remaining == 0) {
                                if (tally->ok) {
                                    sw->done(true);
                                } else {
                                    if (tally->suspect)
                                        sw->suspect = tally->suspect;
                                    retryStripe(sw);
                                }
                            }
                        }, sw->traceId);
                }
            }, sw->traceId);
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

    struct Ctx
    {
        int remaining = 0;
        bool ok = true;
        std::optional<std::uint32_t> suspect;
        // draid-lint: cap(stripe width; preread of touched chunks)
        std::vector<ec::Buffer> oldSegs;
        ec::Buffer oldP;
        ec::Buffer oldQ;
    };
    auto ctx = std::make_shared<Ctx>();
    ctx->oldSegs.resize(plan.writes.size());

    auto after_reads = [this, sw, ctx, stripe, p_alive, q_alive, p_dev,
                        q_dev]() {
        if (!ctx->ok) {
            sw->suspect = ctx->suspect;
            retryStripe(sw);
            return;
        }
        // Deltas -> new parity windows.
        std::uint64_t xor_bytes = 0;
        ec::Buffer new_p = ctx->oldP; // window-sized
        ec::Buffer new_q = ctx->oldQ;
        const auto &gf = ec::Gf256::instance();
        for (std::size_t i = 0; i < sw->plan.writes.size(); ++i) {
            const auto &seg = sw->plan.writes[i];
            ec::Buffer delta =
                ec::xorOf(ctx->oldSegs[i], sw->segData[i]);
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
                              q_alive, p_dev, q_dev]() {
            const std::uint64_t paddr =
                geom_.deviceAddress(stripe, sw->plan.parityOffset);

            auto tally = std::make_shared<WriteTally>();
            std::uint64_t bytes = 0;
            tally->remaining = static_cast<int>(sw->plan.writes.size()) +
                               (p_alive ? 1 : 0) + (q_alive ? 1 : 0);
            for (const auto &seg : sw->plan.writes)
                bytes += seg.length;
            bytes += (p_alive ? new_p.size() : 0) +
                     (q_alive ? new_q.size() : 0);

            auto finish = [this, sw, tally](std::uint32_t dev,
                                            blockdev::IoStatus st) {
                if (st != blockdev::IoStatus::kOk) {
                    tally->ok = false;
                    if (st == blockdev::IoStatus::kTimedOut)
                        tally->suspect = dev;
                }
                if (--tally->remaining == 0) {
                    if (tally->ok) {
                        sw->done(true);
                    } else {
                        sw->suspect = tally->suspect;
                        retryStripe(sw);
                    }
                }
            };

            chargeDataPath(bytes, [this, sw, stripe, paddr, new_p, new_q,
                                   p_alive, q_alive, p_dev, q_dev,
                                   finish]() {
                for (std::size_t i = 0; i < sw->plan.writes.size(); ++i) {
                    const auto &seg = sw->plan.writes[i];
                    const std::uint32_t dev =
                        geom_.dataDevice(stripe, seg.dataIdx);
                    initiator_.writeRemote(
                        dev, geom_.deviceAddress(stripe, seg.offset),
                        sw->segData[i],
                        [finish, dev](blockdev::IoStatus st) {
                            finish(dev, st);
                        }, sw->traceId);
                }
                if (p_alive) {
                    initiator_.writeRemote(
                        p_dev, paddr, new_p,
                        [finish, p_dev](blockdev::IoStatus st) {
                            finish(p_dev, st);
                        }, sw->traceId);
                }
                if (q_alive) {
                    initiator_.writeRemote(
                        q_dev, paddr, new_q,
                        [finish, q_dev](blockdev::IoStatus st) {
                            finish(q_dev, st);
                        }, sw->traceId);
                }
            }, sw->traceId);
        }, sw->traceId);
    };

    // Read phase: old data under each segment + old parity windows.
    ctx->remaining = static_cast<int>(plan.writes.size()) +
                     (p_alive ? 1 : 0) + (q_alive ? 1 : 0);
    std::uint64_t read_bytes = 0;
    for (const auto &seg : plan.writes)
        read_bytes += seg.length;
    read_bytes += (p_alive ? plan.parityLength : 0) +
                  (q_alive ? plan.parityLength : 0);

    chargeDataPath(read_bytes, [this, sw, ctx, stripe, p_alive, q_alive,
                                p_dev, q_dev, after_reads]() {
        auto join = [ctx, after_reads](bool ok, std::uint32_t dev) {
            if (!ok) {
                ctx->ok = false;
                ctx->suspect = dev;
            }
            if (--ctx->remaining == 0)
                after_reads();
        };
        for (std::size_t i = 0; i < sw->plan.writes.size(); ++i) {
            const auto &seg = sw->plan.writes[i];
            const std::uint32_t dev = geom_.dataDevice(stripe, seg.dataIdx);
            initiator_.readRemote(
                dev, geom_.deviceAddress(stripe, seg.offset), seg.length,
                [ctx, i, join, dev](blockdev::IoStatus st, ec::Buffer d) {
                    if (st == blockdev::IoStatus::kOk)
                        ctx->oldSegs[i] = std::move(d);
                    join(st == blockdev::IoStatus::kOk, dev);
                }, sw->traceId);
        }
        const std::uint64_t paddr =
            geom_.deviceAddress(stripe, sw->plan.parityOffset);
        if (p_alive) {
            initiator_.readRemote(
                p_dev, paddr, sw->plan.parityLength,
                [ctx, join, p_dev](blockdev::IoStatus st, ec::Buffer d) {
                    if (st == blockdev::IoStatus::kOk)
                        ctx->oldP = std::move(d);
                    join(st == blockdev::IoStatus::kOk, p_dev);
                }, sw->traceId);
        }
        if (q_alive) {
            initiator_.readRemote(
                q_dev, paddr, sw->plan.parityLength,
                [ctx, join, q_dev](blockdev::IoStatus st, ec::Buffer d) {
                    if (st == blockdev::IoStatus::kOk)
                        ctx->oldQ = std::move(d);
                    join(st == blockdev::IoStatus::kOk, q_dev);
                }, sw->traceId);
        }
    }, sw->traceId);
}

void
HostCentricRaid::doRcw(std::shared_ptr<StripeWrite> sw,
                       std::optional<ec::Buffer> failed_chunk_content)
{
    ++counters_.rcwWrites;
    const std::uint64_t stripe = sw->plan.stripe;
    const std::uint32_t k = geom_.dataChunks();
    const std::uint32_t chunk = geom_.chunkSize();
    const bool raid6 = geom_.level() == raid::RaidLevel::kRaid6;

    // Final content of every data chunk: merged old+new for partially
    // written chunks, read for untouched ones, supplied for a failed one.
    struct Ctx
    {
        // draid-lint: cap(stripe width; one buffer per data chunk)
        std::vector<ec::Buffer> chunks;
        int remaining = 0;
        bool ok = true;
        std::optional<std::uint32_t> suspect;
    };
    auto ctx = std::make_shared<Ctx>();
    ctx->chunks.assign(k, ec::Buffer());

    std::optional<std::uint32_t> fidx;
    if (failed_chunk_content) {
        assert(failed_);
        fidx = geom_.dataIndexOf(stripe, *failed_);
        ctx->chunks[*fidx] = *failed_chunk_content;
    }

    auto after_reads = [this, sw, ctx, stripe, chunk, raid6]() {
        if (!ctx->ok) {
            sw->suspect = ctx->suspect;
            retryStripe(sw);
            return;
        }
        // Overlay new segments.
        const auto &plan = sw->plan;
        for (std::size_t i = 0; i < plan.writes.size(); ++i) {
            const auto &seg = plan.writes[i];
            auto &c = ctx->chunks[seg.dataIdx];
            if (c.empty())
                c = ec::Buffer(chunk);
            std::memcpy(c.data() + seg.offset, sw->segData[i].data(),
                        seg.length);
        }

        const std::uint64_t stripe_bytes = geom_.stripeDataSize();
        chargeXor(stripe_bytes, [this, sw, ctx, stripe, raid6,
                                 stripe_bytes]() {
            auto issue = [this, sw, ctx, stripe, raid6]() {
                ec::Buffer p, q;
                if (raid6)
                    ec::Raid6Codec::computePQ(ctx->chunks, p, q);
                else
                    p = ec::Raid5Codec::computeParity(ctx->chunks);

                const std::uint32_t p_dev = geom_.parityDevice(stripe);
                const std::uint32_t q_dev = raid6 ? geom_.qDevice(stripe)
                                                  : 0;
                const bool p_alive = !(failed_ && *failed_ == p_dev);
                const bool q_alive =
                    raid6 && !(failed_ && *failed_ == q_dev);

                auto tally = std::make_shared<WriteTally>();
                tally->remaining =
                    static_cast<int>(sw->plan.writes.size()) +
                    (p_alive ? 1 : 0) + (q_alive ? 1 : 0);
                if (tally->remaining == 0) {
                    sw->done(true);
                    return;
                }
                std::uint64_t bytes = 0;
                for (const auto &seg : sw->plan.writes)
                    bytes += seg.length;
                bytes += (p_alive ? p.size() : 0) +
                         (q_alive ? q.size() : 0);

                auto finish = [this, sw, tally](std::uint32_t dev,
                                                blockdev::IoStatus st) {
                    if (st != blockdev::IoStatus::kOk) {
                        tally->ok = false;
                        if (st == blockdev::IoStatus::kTimedOut)
                            tally->suspect = dev;
                    }
                    if (--tally->remaining == 0) {
                        if (tally->ok) {
                            sw->done(true);
                        } else {
                            sw->suspect = tally->suspect;
                            retryStripe(sw);
                        }
                    }
                };
                chargeDataPath(bytes, [this, sw, stripe, p, q, p_dev,
                                       q_dev, p_alive, q_alive, finish]() {
                    const std::uint64_t addr =
                        geom_.deviceAddress(stripe, 0);
                    for (std::size_t i = 0; i < sw->plan.writes.size();
                         ++i) {
                        const auto &seg = sw->plan.writes[i];
                        const std::uint32_t dev =
                            geom_.dataDevice(stripe, seg.dataIdx);
                        initiator_.writeRemote(
                            dev, geom_.deviceAddress(stripe, seg.offset),
                            sw->segData[i],
                            [finish, dev](blockdev::IoStatus st) {
                                finish(dev, st);
                            }, sw->traceId);
                    }
                    if (p_alive) {
                        initiator_.writeRemote(
                            p_dev, addr, p,
                            [finish, p_dev](blockdev::IoStatus st) {
                                finish(p_dev, st);
                            }, sw->traceId);
                    }
                    if (q_alive) {
                        initiator_.writeRemote(
                            q_dev, addr, q,
                            [finish, q_dev](blockdev::IoStatus st) {
                                finish(q_dev, st);
                            }, sw->traceId);
                    }
                }, sw->traceId);
            };
            if (raid6)
                chargeGf(stripe_bytes, issue, sw->traceId);
            else
                issue();
        }, sw->traceId);
    };

    // Read phase: every chunk whose final content is not fully known.
    std::vector<std::uint32_t> to_read;
    std::vector<bool> fully_written(k, false);
    for (const auto &seg : sw->plan.writes) {
        if (seg.offset == 0 && seg.length == chunk)
            fully_written[seg.dataIdx] = true;
    }
    for (std::uint32_t i = 0; i < k; ++i) {
        if (fully_written[i])
            continue;
        if (fidx && *fidx == i)
            continue; // content supplied by the caller
        to_read.push_back(i);
    }
    if (to_read.empty()) {
        after_reads();
        return;
    }
    ctx->remaining = static_cast<int>(to_read.size());
    chargeDataPath(static_cast<std::uint64_t>(to_read.size()) * chunk,
                   [this, sw, ctx, stripe, to_read, after_reads]() {
        const std::uint64_t addr = geom_.deviceAddress(stripe, 0);
        for (const auto idx : to_read) {
            const std::uint32_t dev = geom_.dataDevice(stripe, idx);
            initiator_.readRemote(
                dev, addr, geom_.chunkSize(),
                [ctx, idx, dev, after_reads](blockdev::IoStatus st,
                                             ec::Buffer d) {
                    if (st == blockdev::IoStatus::kOk) {
                        ctx->chunks[idx] = std::move(d);
                    } else {
                        ctx->ok = false;
                        if (st == blockdev::IoStatus::kTimedOut)
                            ctx->suspect = dev;
                    }
                    if (--ctx->remaining == 0)
                        after_reads();
                }, sw->traceId);
        }
    }, sw->traceId);
}

void
HostCentricRaid::doParityLess(std::shared_ptr<StripeWrite> sw)
{
    const std::uint64_t stripe = sw->plan.stripe;
    auto tally = std::make_shared<WriteTally>();
    tally->remaining = static_cast<int>(sw->plan.writes.size());
    std::uint64_t bytes = 0;
    for (const auto &seg : sw->plan.writes)
        bytes += seg.length;
    chargeDataPath(bytes, [this, sw, stripe, tally]() {
        for (std::size_t i = 0; i < sw->plan.writes.size(); ++i) {
            const auto &seg = sw->plan.writes[i];
            const std::uint32_t dev =
                geom_.dataDevice(stripe, seg.dataIdx);
            initiator_.writeRemote(
                dev, geom_.deviceAddress(stripe, seg.offset),
                sw->segData[i],
                [this, sw, tally, dev](blockdev::IoStatus st) {
                    if (st != blockdev::IoStatus::kOk) {
                        tally->ok = false;
                        if (st == blockdev::IoStatus::kTimedOut)
                            tally->suspect = dev;
                    }
                    if (--tally->remaining == 0) {
                        if (tally->ok) {
                            sw->done(true);
                        } else {
                            sw->suspect = tally->suspect;
                            retryStripe(sw);
                        }
                    }
                }, sw->traceId);
        }
    }, sw->traceId);
}

void
HostCentricRaid::retryStripe(std::shared_ptr<StripeWrite> sw)
{
    if (sw->retriesLeft-- <= 0) {
        if (!failed_ && sw->suspect) {
            markFailed(*sw->suspect);
            executeStripeWrite(sw);
            return;
        }
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
    const std::uint64_t trace = probe_.mint();
    cluster_.telemetry().contention().noteOpStart(trace);
    const sim::Ticks op_start = cluster_.sim().now();
    auto extents = geom_.map(offset, length);
    ec::Buffer out(length);

    std::vector<std::pair<std::uint64_t, std::vector<GroupExtent>>> groups;
    std::size_t pos = 0;
    for (const auto &e : extents) {
        if (groups.empty() || groups.back().first != e.stripe)
            groups.push_back({e.stripe, {}});
        groups.back().second.push_back(GroupExtent{e, pos});
        pos += e.length;
    }

    auto remaining = std::make_shared<int>(static_cast<int>(groups.size()));
    auto all_ok = std::make_shared<bool>(true);
    auto group_done = [this, remaining, all_ok, out, cb, trace, op_start,
                       length](bool ok) {
        if (!ok)
            *all_ok = false;
        if (--*remaining == 0) {
            probe_.opComplete(trace, "raid.read", op_start,
                              cluster_.sim().now(), length, readLatencyUs_);
            cb(*all_ok ? blockdev::IoStatus::kOk
                       : blockdev::IoStatus::kError,
               out);
        }
    };

    auto submit = [this, groups = std::move(groups), out, group_done,
                   trace]() mutable {
        for (auto &[stripe, ge] : groups)
            readStripeGroup(stripe, std::move(ge), out, group_done, trace);
    };
    cluster_.sim().schedule(tuning_.queueDelay, "hostraid.queue",
                            [this, submit, trace]() mutable {
        cluster_.host().cpu().execute(tuning_.perOpCost, trace,
                                      "host.submit", std::move(submit));
    });
}

void
HostCentricRaid::readStripeGroup(std::uint64_t stripe,
                                 std::vector<GroupExtent> extents,
                                 ec::Buffer out,
                                 std::function<void(bool)> done,
                                 std::uint64_t trace)
{
    // The SPDK POC locks the stripe for normal reads (§8); MD does not.
    if (tuning_.lockReads) {
        auto inner = std::move(done);
        done = [this, stripe, inner = std::move(inner)](bool ok) {
            locks_.release(stripe);
            inner(ok);
        };
    }
    auto run = [this, stripe, extents = std::move(extents), out,
                done = std::move(done), trace]() mutable {
        const bool has_failed =
            failed_ && std::any_of(extents.begin(), extents.end(),
                                   [this](const GroupExtent &g) {
                                       return geom_.dataDevice(
                                                  g.extent.stripe,
                                                  g.extent.dataIdx) ==
                                              *failed_;
                                   });
        if (has_failed) {
            degradedStripeRead(stripe, std::move(extents), out,
                               std::move(done), trace);
            return;
        }
        auto remaining =
            std::make_shared<int>(static_cast<int>(extents.size()));
        auto all_ok = std::make_shared<bool>(true);
        std::uint64_t bytes = 0;
        for (const auto &g : extents)
            bytes += g.extent.length;
        chargeReadPath(bytes, [this, stripe,
                               extents = std::move(extents), out,
                               remaining, all_ok, done, trace]() {
            for (const auto &g : extents) {
                const std::uint32_t dev =
                    geom_.dataDevice(stripe, g.extent.dataIdx);
                initiator_.readRemote(
                    dev, geom_.deviceAddress(stripe, g.extent.offset),
                    g.extent.length,
                    [g, out, remaining, all_ok,
                     done](blockdev::IoStatus st, ec::Buffer d) mutable {
                        if (st != blockdev::IoStatus::kOk) {
                            *all_ok = false;
                        } else {
                            std::memcpy(out.data() + g.outPos, d.data(),
                                        d.size());
                        }
                        if (--*remaining == 0)
                            done(*all_ok);
                    }, trace);
            }
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
                                    std::vector<GroupExtent> extents,
                                    ec::Buffer out,
                                    std::function<void(bool)> done,
                                    std::uint64_t trace)
{
    ++counters_.degradedReads;
    const std::uint32_t fidx = geom_.dataIndexOf(stripe, *failed_);
    const auto failed_it =
        std::find_if(extents.begin(), extents.end(),
                     [fidx](const GroupExtent &g) {
                         return g.extent.dataIdx == fidx;
                     });
    assert(failed_it != extents.end());
    const std::uint32_t fo = failed_it->extent.offset;
    const std::uint32_t fl = failed_it->extent.length;
    const std::size_t fpos = failed_it->outPos;

    struct Ctx
    {
        // draid-lint: cap(stripe width; recon-range slices)
        std::vector<ec::Buffer> recon; ///< recon-range slices to XOR
        int remaining = 0;
        bool ok = true;
        bool release = false;
    };
    auto ctx = std::make_shared<Ctx>();

    auto extents_shared =
        std::make_shared<std::vector<GroupExtent>>(std::move(extents));

    auto finish = [this, ctx, out, fpos, fl, trace,
                   done = std::move(done)]() mutable {
        if (!ctx->ok) {
            done(false);
            return;
        }
        chargeXor(static_cast<std::uint64_t>(fl) * ctx->recon.size(),
                  [ctx, out, fpos, done = std::move(done)]() mutable {
            ec::Buffer rebuilt = ec::Raid5Codec::recover(ctx->recon);
            std::memcpy(out.data() + fpos, rebuilt.data(), rebuilt.size());
            done(true);
        }, trace);
    };

    // The host fetches the recon window of every surviving data chunk and
    // of P (n-1 reads). Requested survivor extents are fetched separately
    // — the host-centric baselines lack dRAID's §6.1 union co-design.
    std::uint64_t total_bytes = 0;
    std::vector<std::uint32_t> recon_devs;
    for (std::uint32_t i = 0; i < geom_.dataChunks(); ++i) {
        if (i == fidx)
            continue;
        recon_devs.push_back(geom_.dataDevice(stripe, i));
        total_bytes += fl;
    }
    recon_devs.push_back(geom_.parityDevice(stripe));
    total_bytes += fl;
    for (const auto &g : *extents_shared) {
        if (g.extent.dataIdx != fidx)
            total_bytes += g.extent.length;
    }

    ctx->remaining = static_cast<int>(recon_devs.size());
    for (const auto &g : *extents_shared) {
        if (g.extent.dataIdx != fidx)
            ++ctx->remaining;
    }

    total_bytes = static_cast<std::uint64_t>(
        static_cast<double>(total_bytes) * tuning_.degradedPathFactor);
    chargeDataPath(total_bytes, [this, ctx, recon_devs, extents_shared,
                                 stripe, fo, fl, fidx, out, trace,
                                 finish]() mutable {
        const std::uint64_t recon_addr = geom_.deviceAddress(stripe, fo);
        for (const auto dev : recon_devs) {
            initiator_.readRemote(
                dev, recon_addr, fl,
                [ctx, finish](blockdev::IoStatus st,
                              ec::Buffer d) mutable {
                    if (st != blockdev::IoStatus::kOk)
                        ctx->ok = false;
                    else
                        ctx->recon.push_back(std::move(d));
                    if (--ctx->remaining == 0)
                        finish();
                }, trace);
        }
        for (const auto &g : *extents_shared) {
            if (g.extent.dataIdx == fidx)
                continue;
            const std::uint32_t dev =
                geom_.dataDevice(stripe, g.extent.dataIdx);
            initiator_.readRemote(
                dev, geom_.deviceAddress(stripe, g.extent.offset),
                g.extent.length,
                [ctx, g, out, finish](blockdev::IoStatus st,
                                      ec::Buffer d) mutable {
                    if (st != blockdev::IoStatus::kOk) {
                        ctx->ok = false;
                    } else {
                        std::memcpy(out.data() + g.outPos, d.data(),
                                    d.size());
                    }
                    if (--ctx->remaining == 0)
                        finish();
                }, trace);
        }
    }, trace);
}

void
HostCentricRaid::readChunk(std::uint64_t stripe, std::uint32_t data_idx,
                           std::function<void(bool, ec::Buffer)> cb,
                           std::uint64_t trace)
{
    const std::uint32_t dev = geom_.dataDevice(stripe, data_idx);
    const std::uint32_t chunk = geom_.chunkSize();
    const std::uint64_t addr = geom_.deviceAddress(stripe, 0);
    if (failed_ && dev == *failed_) {
        ec::Buffer out(chunk);
        std::vector<GroupExtent> extents{
            GroupExtent{raid::Extent{stripe, data_idx, 0, chunk}, 0}};
        degradedStripeRead(stripe, std::move(extents), out,
                           [cb, out](bool ok) { cb(ok, out); }, trace);
        return;
    }
    initiator_.readRemote(dev, addr, chunk,
                          [cb](blockdev::IoStatus st, ec::Buffer d) {
                              cb(st == blockdev::IoStatus::kOk,
                                 std::move(d));
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
    const raid::ChunkRole role = geom_.roleOf(stripe, *failed_);
    const std::uint32_t chunk = geom_.chunkSize();
    const std::uint64_t addr = geom_.deviceAddress(stripe, 0);

    // Sources: all surviving data chunks, plus P when rebuilding data.
    std::vector<std::uint32_t> sources;
    const bool q_rebuild = role == raid::ChunkRole::kParityQ;
    for (std::uint32_t i = 0; i < geom_.dataChunks(); ++i) {
        const std::uint32_t dev = geom_.dataDevice(stripe, i);
        if (dev != *failed_)
            sources.push_back(dev);
    }
    if (role == raid::ChunkRole::kData)
        sources.push_back(geom_.parityDevice(stripe));

    struct Ctx
    {
        // draid-lint: cap(stripe width; one buffer per surviving device)
        std::vector<ec::Buffer> bufs;
        // draid-lint: cap(parallel to bufs; stripe width)
        std::vector<std::uint32_t> idxs; ///< data index per buf (Q rebuild)
        int remaining = 0;
        bool ok = true;
    };
    auto ctx = std::make_shared<Ctx>();
    ctx->remaining = static_cast<int>(sources.size());

    auto assemble = [this, ctx, stripe, spare_target, chunk, addr, q_rebuild,
                     trace, done = std::move(done)]() mutable {
        if (!ctx->ok) {
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
            static_cast<std::uint64_t>(chunk) * ctx->bufs.size();
        if (q_rebuild) {
            chargeGf(bytes, [this, ctx, chunk, write_out]() mutable {
                const auto &gf = ec::Gf256::instance();
                ec::Buffer q(chunk);
                for (std::size_t i = 0; i < ctx->bufs.size(); ++i) {
                    gf.mulAccum(gf.pow2(ctx->idxs[i]),
                                ctx->bufs[i].data(), q.data(), chunk);
                }
                write_out(std::move(q));
            }, trace);
            return;
        }
        chargeXor(bytes, [ctx, write_out]() mutable {
            write_out(ec::Raid5Codec::recover(ctx->bufs));
        }, trace);
    };

    chargeDataPath(static_cast<std::uint64_t>(chunk) * sources.size(),
                   [this, ctx, sources, stripe, addr, chunk, trace,
                    assemble]() mutable {
        for (const auto dev : sources) {
            std::uint32_t idx = 0;
            if (geom_.roleOf(stripe, dev) == raid::ChunkRole::kData)
                idx = geom_.dataIndexOf(stripe, dev);
            initiator_.readRemote(
                dev, addr, chunk,
                [ctx, idx, assemble](blockdev::IoStatus st,
                                     ec::Buffer d) mutable {
                    if (st != blockdev::IoStatus::kOk) {
                        ctx->ok = false;
                    } else {
                        ctx->bufs.push_back(std::move(d));
                        ctx->idxs.push_back(idx);
                    }
                    if (--ctx->remaining == 0)
                        assemble();
                }, trace);
        }
    }, trace);
}

} // namespace draid::baselines
