#include "telemetry/probe.h"

#include "telemetry/telemetry.h"

namespace draid::telemetry {

std::uint64_t
Probe::mint() const
{
    return telemetry_ != nullptr ? telemetry_->tracer().mint() : 0;
}

ContentionTracker *
Probe::contention() const
{
    if (telemetry_ == nullptr || !telemetry_->contention().enabled())
        return nullptr;
    return &telemetry_->contention();
}

void
Probe::record(bool tagged, std::uint64_t trace, const char *lane,
              const char *name, sim::Tick start, sim::Tick end, SpanArg a0,
              SpanArg a1) const
{
    if (trace == 0 || telemetry_ == nullptr)
        return;
    Tracer &tracer = telemetry_->tracer();
    if (!tracer.active())
        return;
    tracer.recordSpan(TraceSpan{
        .traceId = trace,
        .node = node_,
        .tenant = tagged ? telemetry_->contention().tenantOf(trace) : 0,
        .lane = lane,
        .name = name,
        .start = start,
        .end = end,
        .args = {a0, a1},
    });
}

void
Probe::opComplete(std::uint64_t trace, const char *name, sim::Ticks start,
                  sim::Ticks end, std::uint64_t bytes,
                  Histogram *latency_us) const
{
    if (latency_us != nullptr)
        latency_us->observe(static_cast<double>((end - start).raw()) /
                            sim::kMicrosecond);
    if (telemetry_ == nullptr)
        return;
    // Capture the tenant before noteOpComplete releases the binding.
    ContentionTracker &ct = telemetry_->contention();
    const std::uint32_t tenant = ct.tenantOf(trace);
    if (ct.enabled())
        ct.noteOpComplete(trace, end.raw(), (end - start).raw(), bytes);
    Tracer &tracer = telemetry_->tracer();
    if (trace == 0 || !tracer.active())
        return;
    tracer.recordOpCompletion(TraceSpan{
        .traceId = trace,
        .node = node_,
        .tenant = tenant,
        .lane = "op",
        .name = name,
        .start = start.raw(),
        .end = end.raw(),
        .args = {{"bytes", bytes}},
    });
}

void
Probe::event(EventType type, sim::Tick tick, std::uint64_t a,
             std::uint64_t b) const
{
    if (telemetry_ != nullptr)
        telemetry_->journal().record(type, node_, tick, a, b);
}

} // namespace draid::telemetry
