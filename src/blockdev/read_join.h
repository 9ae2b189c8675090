/**
 * @file
 * The completion join of one RAID read, shared by the dRAID host and the
 * host-centric baselines: every piece of the requested range lands here,
 * and the caller's callback runs once, after the last piece has settled.
 */

#ifndef DRAID_BLOCKDEV_READ_JOIN_H
#define DRAID_BLOCKDEV_READ_JOIN_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

#include "blockdev/block_device.h"
#include "ec/buffer.h"
#include "telemetry/probe.h"

namespace draid::blockdev {

/**
 * One read's join state, allocated once per read and shared by every
 * sub-operation that lands a piece of it. It owns the caller's callback
 * and the result.
 *
 * A piece that covers the whole range (a single-extent read, served
 * directly or reconstructed) becomes the result as-is, the counterpart of
 * one-sided RDMA straight into the application buffer. A split read
 * assembles its pieces into one buffer, allocated when the first lands.
 * A failed read hands back `length` zero bytes, never the pieces that did
 * land. Adopting a payload needs no unique() check (DESIGN.md §4.2):
 * every piece is freshly read or reconstructed for this read, and no read
 * consumer mutates its result.
 */
struct ReadJoin
{
    ReadCallback cb;
    std::uint64_t trace = 0; ///< telemetry id the sub-operations carry
    sim::Ticks opStart;      ///< submission time of the read
    /** Op span recorded at completion; null for a host-internal read. */
    const char *span = nullptr;
    std::uint32_t length = 0;
    bool ok = true;
    int pending = 0; ///< pieces (or whole groups) still to settle
    ec::Buffer out;  ///< empty until the first piece lands

    /** Place @p payload at byte @p pos of the result. */
    void
    land(std::size_t pos, ec::Buffer payload)
    {
        if (out.empty()) {
            if (pos == 0 && payload.size() == length) {
                out = std::move(payload);
                return;
            }
            out = ec::Buffer::forOverwrite(length);
        }
        std::memcpy(out.data() + pos, payload.data(), payload.size());
    }

    /**
     * Settle one piece. The last records the read's op span through
     * @p probe (none for a host-internal read) and runs the callback with
     * the result, or with zeros on failure.
     */
    void
    settle(bool piece_ok, const telemetry::Probe &probe, sim::Ticks now,
           telemetry::Histogram *latency_us)
    {
        ok = ok && piece_ok;
        if (--pending > 0)
            return;
        if (span)
            probe.opComplete(trace, span, opStart, now, length, latency_us);
        if (ok)
            cb(IoStatus::kOk, std::move(out));
        else
            cb(IoStatus::kError, ec::Buffer(length));
    }
};

} // namespace draid::blockdev

#endif // DRAID_BLOCKDEV_READ_JOIN_H
