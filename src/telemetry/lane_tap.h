/**
 * @file
 * LaneTap: the telemetry-side adapter for the sim::ServiceObserver seam.
 *
 * src/sim's FIFO resources (Pipe, CpuCore) report every traced service
 * commitment through sim/service.h without knowing telemetry exists; a
 * LaneTap attached via setObserver() translates each ServiceRecord into
 * contention attribution and a trace span through its Probe.
 *
 * One LaneTap serves one resource. Style selects the span shape:
 *  - kPipe: lane = name = the resource's label, "bytes" span arg.
 *  - kCpu:  lane = "cpu", name = the work label, no payload arg.
 *  - kSilent: no span; the owner records its own (the SSD channel, whose
 *    span includes media latency).
 */

#ifndef DRAID_TELEMETRY_LANE_TAP_H
#define DRAID_TELEMETRY_LANE_TAP_H

#include <cstdint>

#include "sim/service.h"
#include "telemetry/probe.h"

namespace draid::telemetry {

/** Observe-only bridge from one FIFO resource into telemetry. */
class LaneTap final : public sim::ServiceObserver
{
  public:
    enum class Style
    {
        kPipe,   ///< bandwidth lane: span lane/name = resource label
        kCpu,    ///< compute lane: span lane "cpu", name = work label
        kSilent, ///< contention attribution only
    };

    /** A dark tap. */
    LaneTap() = default;

    /** Spans land on @p probe's node; contention is attributed to
     *  resource id @p res. */
    LaneTap(Style style, Probe probe, std::uint32_t res)
        : style_(style), probe_(probe), res_(res)
    {
    }

    void onService(const sim::ServiceRecord &rec) override;

  private:
    Style style_ = Style::kSilent;
    Probe probe_;
    std::uint32_t res_ = 0;
};

} // namespace draid::telemetry

#endif // DRAID_TELEMETRY_LANE_TAP_H
