#include "telemetry/trace.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <utility>

#include "telemetry/metrics.h"

namespace draid::telemetry {

namespace {

/** Monotonic host clock for self-timing. Wall-clock reads are legal in
 *  src/telemetry/ (lint-exempt) and never influence what is recorded. */
std::uint64_t
selfNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

void
Tracer::retain(const TraceSpan &span)
{
    if (!enabled_)
        return;
    if (samplePeriod_ > 1 && !traceSampled(span.traceId, samplePeriod_)) {
        ++sampledOut_;
        return;
    }
    if (spans_.size() >= spanCap_) {
        ++dropped_;
        return;
    }
    spans_.push_back(span);
}

void
Tracer::recordSpan(const TraceSpan &span)
{
    const std::uint64_t t0 = selfClock();
    for (SpanSink *sink : sinks_)
        sink->onSpan(span);
    // Sub-spans of in-flight ops are buffered, sampled or not, so a sink
    // asking for chains sees each op whole. A straggler that arrives after
    // its op completed starts a chain that never completes. Ids are minted
    // in issue order, so the smallest pending id is the oldest op — the
    // one most likely abandoned (e.g. rebuild stripes, which have no op
    // completion): it is evicted first.
    if (span.traceId != 0 && wantsChains()) {
        pendingChains_[span.traceId].push_back(span);
        while (pendingChains_.size() > kPendingOpCap) {
            pendingChains_.erase(pendingChains_.begin());
            ++evictedChains_;
        }
    }
    retain(span);
    charge(spanCost_, 1, t0);
}

void
Tracer::recordOpCompletion(const TraceSpan &span)
{
    const std::uint64_t t0 = selfClock();
    std::vector<TraceSpan> chain;
    if (span.traceId != 0 && wantsChains()) {
        if (auto pending = pendingChains_.extract(span.traceId))
            chain = std::move(pending.mapped());
        chain.push_back(span);
    }
    for (SpanSink *sink : sinks_)
        sink->onOpComplete(span, chain);
    retain(span);
    charge(opCost_, 1, t0);
}

std::uint64_t
Tracer::selfClock() const
{
    return selfTiming_ ? selfNowNs() : 0;
}

void
Tracer::charge(SelfCost &cost, std::uint64_t calls, std::uint64_t since)
{
    if (!selfTiming_)
        return;
    cost.calls += calls;
    cost.ns += selfNowNs() - since;
}

std::uint64_t
Tracer::retainedBytes() const
{
    std::uint64_t bytes = spans_.size() * sizeof(TraceSpan);
    for (const auto &[id, chain] : pendingChains_)
        bytes += chain.size() * sizeof(TraceSpan);
    return bytes;
}

void
Tracer::setNodeName(sim::NodeId node, std::string name)
{
    nodeNames_[node] = std::move(name);
}

void
Tracer::clear()
{
    spans_.clear();
    pendingChains_.clear();
    dropped_ = 0;
    sampledOut_ = 0;
    evictedChains_ = 0;
    spanCost_ = SelfCost{};
    opCost_ = SelfCost{};
    counterCost_ = SelfCost{};
    nextId_ = 1;
}

namespace {

/** Ticks (integer ns) -> Chrome ts (fractional microseconds). */
void
writeMicros(std::ostream &os, sim::Tick t)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%" PRId64 ".%03d", t / 1000,
                  static_cast<int>(t % 1000));
    os << buf;
}

} // namespace

void
Tracer::writeChromeTrace(std::ostream &os, const UtilizationRounds &counters,
                         std::uint64_t droppedCounters) const
{
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    auto sep = [&]() {
        if (!first)
            os << ",";
        first = false;
        os << "\n";
    };

    // Stable small thread ids per (node, lane), in first-use order.
    std::map<std::pair<sim::NodeId, std::string>, int> tids;
    auto tidOf = [&tids](sim::NodeId node, const std::string &lane) {
        auto [it, inserted] =
            tids.emplace(std::make_pair(node, lane),
                         static_cast<int>(tids.size()) + 1);
        (void)inserted;
        return it->second;
    };
    for (const auto &s : spans_)
        tidOf(s.node, s.lane);

    // Process metadata: node names.
    for (const auto &[node, name] : nodeNames_) {
        sep();
        os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << node
           << ",\"tid\":0,\"args\":{\"name\":";
        writeJsonString(os, name);
        os << "}}";
    }
    // Thread metadata: lane names.
    for (const auto &[key, tid] : tids) {
        sep();
        os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << key.first
           << ",\"tid\":" << tid << ",\"args\":{\"name\":";
        writeJsonString(os, key.second);
        os << "}}";
    }

    // Truncation metadata: an exported trace that silently lost spans is
    // worse than no trace — surface cap drops and the sampling skim so a
    // viewer knows the stream is partial.
    if (dropped_ > 0 || droppedCounters > 0 || sampledOut_ > 0) {
        sep();
        os << "{\"ph\":\"M\",\"name\":\"trace_truncation\",\"pid\":0,"
           << "\"tid\":0,\"args\":{\"dropped_spans\":" << dropped_
           << ",\"dropped_counters\":" << droppedCounters
           << ",\"sampled_out_spans\":" << sampledOut_
           << ",\"sample_period\":" << samplePeriod_ << "}}";
    }

    for (const auto &s : spans_) {
        sep();
        os << "{\"ph\":\"X\",\"name\":";
        writeJsonString(os, s.name);
        os << ",\"cat\":\"draid\",\"pid\":" << s.node
           << ",\"tid\":" << tidOf(s.node, s.lane) << ",\"ts\":";
        writeMicros(os, s.start);
        os << ",\"dur\":";
        writeMicros(os, s.end >= s.start ? s.end - s.start : 0);
        os << ",\"args\":{\"trace\":" << s.traceId;
        if (s.tenant != 0)
            os << ",\"tenant\":" << s.tenant;
        // Argument values are numbers in the span and strings in the
        // export, which is the only place they are formatted.
        for (const SpanArg &a : s.args) {
            if (a.key == nullptr)
                continue;
            os << ",";
            writeJsonString(os, a.key);
            os << ":\"" << a.value << "\"";
        }
        os << "}}";
    }

    for (const auto &[idx, round] : counters.rounds) {
        for (std::size_t i = 0; i < counters.sources.size(); ++i) {
            const UtilizationRounds::Source &src = counters.sources[i];
            sep();
            os << "{\"ph\":\"C\",\"name\":";
            writeJsonString(os, src.name);
            os << ",\"pid\":" << src.node << ",\"tid\":0,\"ts\":";
            writeMicros(os, round.tick);
            os << ",\"args\":{\"value\":";
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.4f", round.values[i]);
            os << buf << "}}";
        }
    }

    os << "\n]}";
}

std::string
Tracer::toChromeTraceJson(const UtilizationRounds &counters,
                          std::uint64_t droppedCounters) const
{
    std::ostringstream oss;
    writeChromeTrace(oss, counters, droppedCounters);
    return oss.str();
}

} // namespace draid::telemetry
