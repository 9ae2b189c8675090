/**
 * @file
 * Online stripe scrubbing for DraidHost: md-style `check` / `repair`.
 *
 * Reads the whole stripe — data chunks and parity chunk(s) — through the
 * ordinary remote-read path, recomputes the expected parity with the
 * erasure-coding library, and (optionally) rewrites a mismatching parity
 * chunk. Used operationally after crash recovery (§5.4 host failures:
 * out-of-sync stripes found via the write-intent bitmap get scrubbed).
 */

#include <utility>
#include <vector>

#include "core/draid_host.h"
#include "ec/raid5_codec.h"
#include "ec/raid6_codec.h"

namespace draid::core {

void
DraidHost::scrubStripe(std::uint64_t stripe, bool repair,
                       std::function<void(ScrubResult)> done)
{
    if (failed_) {
        done(ScrubResult{});
        return;
    }
    // Journal the pass outcome: b = 0 clean / 1 inconsistent / 2 repaired.
    done = [this, stripe, done = std::move(done)](ScrubResult r) {
        if (r.ok) {
            cluster_.telemetry().journal().record(
                telemetry::EventType::kScrubPass, cluster_.hostId(),
                cluster_.sim().now().raw(), stripe,
                r.repaired ? 2 : (r.consistent ? 0 : 1));
        }
        done(r);
    };
    const std::uint32_t k = geom_.dataChunks();
    const std::uint32_t chunk = geom_.chunkSize();
    const std::uint64_t addr = geom_.deviceAddress(stripe, 0);
    const bool raid6 = geom_.level() == raid::RaidLevel::kRaid6;

    // Rewrite each of @p fixes in place as one batch; the pass succeeds
    // only if every write does.
    auto rewrite = [this, addr](std::vector<std::pair<std::uint32_t,
                                                      ec::Buffer>> fixes,
                                std::function<void(ScrubResult)> finish) {
        std::vector<blockdev::BatchIo> writes;
        for (auto &[device, fix] : fixes) {
            writes.push_back(blockdev::BatchIo::write(
                device, targetOf(device), addr, std::move(fix)));
        }
        initiator_.submitBatch(std::move(writes), 0,
                               [finish = std::move(finish)](
                                   blockdev::BatchResult r) {
            finish(r.ok ? ScrubResult{true, false, true} : ScrubResult{});
        });
    };

    // Read the whole stripe in list order: data chunks 0..k-1, P, Q.
    std::vector<blockdev::BatchIo> reads;
    const auto read = [&](std::uint32_t device) {
        reads.push_back(
            blockdev::BatchIo::read(device, targetOf(device), addr, chunk));
    };
    for (std::uint32_t i = 0; i < k; ++i)
        read(geom_.dataDevice(stripe, i));
    read(geom_.parityDevice(stripe));
    if (raid6)
        read(geom_.qDevice(stripe));

    auto verify = [this, stripe, repair, raid6, k, rewrite,
                   done = std::move(done)](blockdev::BatchResult r) mutable {
        std::vector<ec::Buffer> data;
        for (std::uint32_t i = 0; i < k; ++i)
            data.push_back(std::move(r.ios[i].data));
        ec::Buffer p = std::move(r.ios[k].data);
        ec::Buffer q = raid6 ? std::move(r.ios[k + 1].data) : ec::Buffer();
        if (!r.ok) {
            // Chunks that could not be read (media errors), by list index.
            std::vector<std::uint32_t> unreadable;
            for (std::uint32_t i = 0; i < r.ios.size(); ++i) {
                if (r.ios[i].status != blockdev::IoStatus::kOk)
                    unreadable.push_back(i);
            }
            if (!repair || unreadable.size() != 1) {
                done(ScrubResult{});
                return;
            }
            // Exactly one chunk was unreadable (a latent sector error
            // surfaced by the scrub): reconstruct it from the survivors
            // and rewrite it in place, which also clears the bad range
            // on the drive.
            const std::uint32_t fi = unreadable.front();
            ec::Buffer fix;
            if (fi < k) {
                // Data chunk: XOR of P and the surviving data chunks.
                std::vector<ec::Buffer> survivors;
                survivors.reserve(k);
                survivors.push_back(p);
                for (std::uint32_t j = 0; j < k; ++j) {
                    if (j != fi)
                        survivors.push_back(data[j]);
                }
                fix = ec::Raid5Codec::recover(survivors);
            } else if (fi == k) {
                fix = ec::Raid5Codec::computeParity(data);
            } else {
                ec::Buffer ep, eq;
                ec::Raid6Codec::computePQ(data, ep, eq);
                fix = std::move(eq);
            }
            const std::uint32_t device = r.ios[fi].device;
            const std::size_t fix_bytes = fix.size();
            cluster_.host().cpu().executeBytes(
                fix_bytes, cluster_.config().xorBw, sim::Ticks::zero(),
                [rewrite, device, fix = std::move(fix),
                 done = std::move(done)]() mutable {
                    rewrite({{device, std::move(fix)}}, std::move(done));
                });
            return;
        }
        ec::Buffer expect_p, expect_q;
        if (raid6)
            ec::Raid6Codec::computePQ(data, expect_p, expect_q);
        else
            expect_p = ec::Raid5Codec::computeParity(data);

        // Charge the verification XOR/GF work on the host core.
        const std::uint64_t bytes = geom_.stripeDataSize();
        cluster_.host().cpu().executeBytes(
            bytes, cluster_.config().xorBw, sim::Ticks::zero(),
            [this, stripe, repair, raid6, rewrite, p = std::move(p),
             q = std::move(q), expect_p = std::move(expect_p),
             expect_q = std::move(expect_q),
             done = std::move(done)]() mutable {
                const bool p_ok = p.contentEquals(expect_p);
                const bool q_ok = !raid6 || q.contentEquals(expect_q);
                if (p_ok && q_ok) {
                    done(ScrubResult{true, true, false});
                    return;
                }
                if (!repair) {
                    done(ScrubResult{true, false, false});
                    return;
                }
                // Repair: rewrite whichever parity chunk mismatched.
                std::vector<std::pair<std::uint32_t, ec::Buffer>> fixes;
                if (!p_ok)
                    fixes.emplace_back(geom_.parityDevice(stripe), expect_p);
                if (!q_ok)
                    fixes.emplace_back(geom_.qDevice(stripe), expect_q);
                rewrite(std::move(fixes), std::move(done));
            });
    };
    initiator_.submitBatch(std::move(reads), 0, std::move(verify));
}

} // namespace draid::core
