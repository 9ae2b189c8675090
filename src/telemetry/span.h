/**
 * @file
 * TraceSpan: the one span record every telemetry sink shares.
 *
 * A span is a fixed-size POD. Its lane, name and argument keys are static
 * strings owned by the recording site, and its arguments are numbers, so
 * recording a span allocates nothing and the same value can sit in the
 * tracer's store, the flight-recorder ring and an exemplar chain without
 * conversion. Argument values become strings only in the Chrome export.
 */

#ifndef DRAID_TELEMETRY_SPAN_H
#define DRAID_TELEMETRY_SPAN_H

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "sim/types.h"

namespace draid::telemetry {

/** One numeric span argument ("bytes", "stripe", "ok"); unused while
 *  @c key is nullptr. */
struct SpanArg
{
    const char *key = nullptr;
    std::uint64_t value = 0;

    bool operator==(const SpanArg &) const = default;
};

/** One timed span on one node's lane. */
struct TraceSpan
{
    static constexpr std::size_t kMaxArgs = 2;

    std::uint64_t traceId = 0; ///< 0 = not tied to a user op
    sim::NodeId node = 0;      ///< Chrome pid
    /** Owning tenant (ContentionTracker id); 0 = untracked. */
    std::uint32_t tenant = 0;
    const char *lane = ""; ///< Chrome tid name: "op", "nic.tx", "ssd"...
    const char *name = ""; ///< e.g. "draid.write", "ssd.read"
    sim::Tick start = 0;
    sim::Tick end = 0;
    /** Shown in the trace viewer; filled from the front. */
    SpanArg args[kMaxArgs] = {};

    /** Value of argument @p key; 0 when the span does not carry it. */
    std::uint64_t
    arg(const char *key) const
    {
        for (const SpanArg &a : args) {
            if (a.key != nullptr && std::strcmp(a.key, key) == 0)
                return a.value;
        }
        return 0;
    }

    /** Field-wise; names compare by pointer (static strings). */
    bool operator==(const TraceSpan &) const = default;
};

} // namespace draid::telemetry

#endif // DRAID_TELEMETRY_SPAN_H
