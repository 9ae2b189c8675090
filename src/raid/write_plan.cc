#include "raid/write_plan.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace draid::raid {

std::uint64_t
StripeWritePlan::userBytes() const
{
    std::uint64_t total = 0;
    for (const auto &w : writes)
        total += w.length;
    return total;
}

void
StripeWritePlan::forceRmw()
{
    mode = WriteMode::kReadModifyWrite;
    rcwReads.clear();
    std::uint32_t lo = std::numeric_limits<std::uint32_t>::max(), hi = 0;
    for (const auto &s : writes) {
        lo = std::min(lo, s.offset);
        hi = std::max(hi, s.offset + s.length);
    }
    parityOffset = writes.empty() ? 0 : lo;
    parityLength = hi - parityOffset;
    waitNum = static_cast<std::uint32_t>(writes.size());
}

std::vector<StripeWritePlan>
WritePlanner::plan(std::uint64_t offset, std::uint64_t length) const
{
    std::vector<StripeWritePlan> plans;
    for (const auto &group : geom_.mapByStripe(offset, length)) {
        std::vector<WriteSegment> segs;
        segs.reserve(group.extents.size());
        for (const auto &pe : group.extents) {
            segs.push_back(WriteSegment{pe.extent.dataIdx, pe.extent.offset,
                                        pe.extent.length});
        }
        plans.push_back(planStripe(group.stripe, std::move(segs)));
    }
    return plans;
}

StripeWritePlan
WritePlanner::planStripe(std::uint64_t stripe,
                         std::vector<WriteSegment> segs) const
{
    assert(!segs.empty());
    StripeWritePlan p;
    p.stripe = stripe;
    p.writes = std::move(segs);
    std::sort(p.writes.begin(), p.writes.end(),
              [](const WriteSegment &a, const WriteSegment &b) {
                  return a.dataIdx < b.dataIdx;
              });

    const std::uint32_t k = geom_.dataChunks();
    const std::uint32_t pc = geom_.parityCount();
    const std::uint32_t chunk = geom_.chunkSize();
    const auto w = static_cast<std::uint32_t>(p.writes.size());

    const bool full_coverage =
        w == k && std::all_of(p.writes.begin(), p.writes.end(),
                              [chunk](const WriteSegment &s) {
                                  return s.offset == 0 && s.length == chunk;
                              });
    if (full_coverage) {
        p.mode = WriteMode::kFullStripe;
        p.parityOffset = 0;
        p.parityLength = chunk;
        p.waitNum = 0;
        return p;
    }

    // Byte-based mode rule (see class comment), priced on the RMW plan.
    p.forceRmw();
    const std::uint64_t written_bytes = p.userBytes();
    const std::uint64_t rmw_reads =
        written_bytes + static_cast<std::uint64_t>(pc) * p.parityLength;
    const std::uint64_t rcw_reads =
        static_cast<std::uint64_t>(k) * chunk - written_bytes;
    if (rmw_reads < rcw_reads)
        return p;

    p.mode = WriteMode::kReconstructWrite;
    // Untouched data chunks are read whole and contribute to parity.
    std::vector<bool> touched(k, false);
    for (const auto &s : p.writes)
        touched[s.dataIdx] = true;
    for (std::uint32_t i = 0; i < k; ++i) {
        if (!touched[i])
            p.rcwReads.push_back(i);
    }
    p.parityOffset = 0;
    p.parityLength = chunk;
    p.waitNum = w + static_cast<std::uint32_t>(p.rcwReads.size());
    return p;
}

DegradedRoute
WritePlanner::routeDegraded(const StripeWritePlan &plan,
                            std::uint32_t failed) const
{
    DegradedRoute route{DegradedKind::kAsPlanned, 0, plan};
    switch (geom_.roleOf(plan.stripe, failed)) {
      case ChunkRole::kParityP:
        if (geom_.level() == RaidLevel::kRaid5)
            route.kind = DegradedKind::kParityLess;
        return route;
      case ChunkRole::kParityQ:
        return route;
      case ChunkRole::kData:
        break;
    }
    if (plan.mode == WriteMode::kFullStripe)
        return route; // the flow skips the lost chunk's device write

    const std::uint32_t fidx = geom_.dataIndexOf(plan.stripe, failed);
    const auto written =
        std::find_if(plan.writes.begin(), plan.writes.end(),
                     [fidx](const WriteSegment &s) {
                         return s.dataIdx == fidx;
                     });
    if (written != plan.writes.end()) {
        route.kind = DegradedKind::kTargeted;
        route.failedPos =
            static_cast<std::size_t>(written - plan.writes.begin());
        route.plan.writes.erase(route.plan.writes.begin() +
                                static_cast<std::ptrdiff_t>(route.failedPos));
    }
    route.plan.forceRmw();
    return route;
}

} // namespace draid::raid
