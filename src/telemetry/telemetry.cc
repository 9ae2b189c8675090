#include "telemetry/telemetry.h"

#include <cassert>
#include <cstdio>
#include <fstream>
#include <utility>

#include "sim/stats.h"

namespace draid::telemetry {

void
UtilizationSampler::addSource(sim::NodeId node, std::string name,
                              std::function<sim::Ticks()> busy)
{
    store_.sources.push_back({node, std::move(name)});
    meters_.push_back(Meter{std::move(busy), sim::Ticks::zero()});
}

void
UtilizationSampler::start(sim::Simulator &sim, sim::Ticks interval,
                          Tracer *tracer)
{
    assert(interval > sim::Ticks::zero());
    interval_ = interval;
    lastEmit_ = sim.now();
    nextSample_ = sim.now() + interval;
    tracer_ = tracer;
    for (Meter &m : meters_)
        m.lastBusy = m.busy();
    sim.setClockObserver([this](sim::Ticks now) { onClockAdvance(now); });
}

void
UtilizationSampler::onClockAdvance(sim::Ticks now)
{
    if (meters_.empty() || interval_ <= sim::Ticks::zero() ||
        now < nextSample_)
        return;
    // One sample per advance, stamped at the greatest interval boundary
    // <= now, covering the whole window since the previous emission. The
    // busy counters include committed (future) occupancy, so clamp.
    const sim::Ticks boundary =
        nextSample_ + ((now - nextSample_) / interval_) * interval_;
    ++rounds_;
    if (emitStride_ > 1 && (rounds_ - 1) % emitStride_ != 0) {
        // Skipped boundary: no emission, but the window since lastEmit_
        // keeps accumulating, so the next emitted round covers it.
        droppedSamples_ += meters_.size();
        nextSample_ = boundary + interval_;
        return;
    }
    const std::uint64_t t0 = tracer_ ? tracer_->selfClock() : 0;
    auto &rows = store_.rounds;
    // Past the cap, merge adjacent rounds (mean value over the doubled
    // window, stamped at the later boundary; an odd last round passes
    // through) and skip every 2nd future boundary to match. A cap smaller
    // than two rounds leaves nothing to halve.
    if (store_.samples() + meters_.size() > sampleCap_ && rows.size() >= 2) {
        droppedSamples_ += (rows.size() / 2) * meters_.size();
        sim::regroup(rows, 2,
                     [](UtilizationRounds::Round &dst,
                        const UtilizationRounds::Round &src) {
                         dst.tick = src.tick;
                         for (std::size_t i = 0; i < dst.values.size(); ++i)
                             dst.values[i] =
                                 (dst.values[i] + src.values[i]) / 2.0;
                     });
        emitStride_ *= 2;
    }
    const sim::Ticks window = boundary - lastEmit_;
    UtilizationRounds::Round &row =
        rows[static_cast<std::int64_t>(rows.size())];
    row.tick = boundary.raw();
    row.values.reserve(meters_.size());
    for (Meter &m : meters_) {
        const sim::Ticks busyNow = m.busy();
        double frac =
            window > sim::Ticks::zero()
                ? static_cast<double>((busyNow - m.lastBusy).raw()) /
                      static_cast<double>(window.raw())
                : 0.0;
        if (frac > 1.0)
            frac = 1.0;
        m.lastBusy = busyNow;
        row.values.push_back(frac);
    }
    lastEmit_ = boundary;
    nextSample_ = boundary + interval_;
    if (tracer_)
        tracer_->chargeCounters(meters_.size(), t0);
}

std::uint64_t
UtilizationSampler::retainedBytes() const
{
    std::uint64_t bytes = 0;
    for (const UtilizationRounds::Source &src : store_.sources)
        bytes += sizeof(src) + src.name.size();
    for (const auto &[idx, round] : store_.rounds)
        bytes += sizeof(idx) + sizeof(round) +
                 round.values.size() * sizeof(double);
    return bytes;
}

void
Telemetry::writeMetricsJson(std::ostream &os) const
{
    os << "{\"metrics\":";
    metrics_.writeJson(os);
    os << ",\"timelines\":[";
    // One series per source, in source order; none before the first round.
    const UtilizationRounds &store = sampler_.rounds();
    if (!store.rounds.empty()) {
        for (std::size_t i = 0; i < store.sources.size(); ++i) {
            if (i)
                os << ",";
            os << "{\"node\":" << store.sources[i].node << ",\"name\":";
            writeJsonString(os, store.sources[i].name);
            os << ",\"samples\":[";
            bool firstSample = true;
            for (const auto &[idx, round] : store.rounds) {
                if (!firstSample)
                    os << ",";
                firstSample = false;
                char buf[48];
                std::snprintf(buf, sizeof(buf), "[%lld,%.4f]",
                              static_cast<long long>(round.tick),
                              round.values[i]);
                os << buf;
            }
            os << "]}";
        }
    }
    os << "]}";
}

std::uint64_t
Telemetry::retainedTelemetryBytes() const
{
    return tracer_.retainedBytes() + exemplars_.retainedBytes() +
           sampler_.retainedBytes() + contention_.retainedBytes() +
           recorder_.size() * sizeof(TraceSpan) +
           journal_.size() * sizeof(EventJournal::Event);
}

bool
Telemetry::saveMetricsJson(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    writeMetricsJson(out);
    out << "\n";
    return static_cast<bool>(out);
}

bool
Telemetry::saveChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    tracer_.writeChromeTrace(out, sampler_.rounds(),
                             sampler_.droppedSamples());
    out << "\n";
    return static_cast<bool>(out);
}

} // namespace draid::telemetry
