#include "telemetry/lane_tap.h"

#include "telemetry/interference.h"

namespace draid::telemetry {

void
LaneTap::onService(const sim::ServiceRecord &rec)
{
    if (ContentionTracker *ct = probe_.contention()) {
        // FIFO service: [arrival, start) is exactly tiled by the occupancy
        // segments already recorded, so the blame split sums to the wait.
        ct->attributeWait(res_, rec.trace, rec.arrival.raw(),
                          rec.start.raw());
        ct->noteOccupancy(res_, rec.trace, rec.start.raw(), rec.end.raw());
    }
    if (style_ == Style::kSilent)
        return;
    const bool cpu = style_ == Style::kCpu;
    probe_.span(rec.trace, cpu ? "cpu" : rec.what, rec.what,
                rec.start.raw(), rec.end.raw(),
                cpu ? SpanArg{} : SpanArg{"bytes", rec.bytes});
}

} // namespace draid::telemetry
