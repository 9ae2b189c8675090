#include "core/reconstruct.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace draid::core {

RebuildJob::RebuildJob(sim::Simulator &sim, StripeFn fn,
                       std::uint64_t num_stripes, std::uint32_t chunk_bytes,
                       int window)
    : sim_(sim),
      fn_(std::move(fn)),
      numStripes_(num_stripes),
      progressStride_(std::max<std::uint64_t>(num_stripes / 8, 1)),
      chunkBytes_(chunk_bytes),
      window_(window)
{
    assert(window_ > 0);
}

void
RebuildJob::start(std::function<void(bool)> done)
{
    onFinished_ = std::move(done);
    startTick_ = sim_.now();
    probe_.event(telemetry::EventType::kRebuildStarted, sim_.now().raw(),
                 numStripes_, chunkBytes_);
    if (numStripes_ == 0) {
        finished_ = true;
        endTick_ = sim_.now();
        probe_.event(telemetry::EventType::kRebuildCompleted,
                     sim_.now().raw(), 0, 0);
        if (onFinished_)
            onFinished_(true);
        return;
    }
    pump();
}

void
RebuildJob::registerMetrics(telemetry::MetricScope scope)
{
    scope.probe("stripes_done", [this] { return done_; });
    scope.probe("failures", [this] { return failures_; });
    scope.probe("in_flight",
                [this] { return static_cast<std::uint64_t>(inFlight_); });
}

void
RebuildJob::pump()
{
    while (inFlight_ < window_ && next_ < numStripes_) {
        const std::uint64_t stripe = next_++;
        ++inFlight_;
        const std::uint64_t trace = probe_.mint();
        const sim::Ticks issued = sim_.now();
        fn_(stripe, [this, stripe, trace, issued](bool ok) {
            probe_.untaggedSpan(trace, "rebuild", "rebuild.stripe",
                                issued.raw(), sim_.now().raw(),
                                {"stripe", stripe}, {"ok", ok ? 1u : 0u});
            if (!ok && stripeFailed_)
                stripeFailed_(stripe);
            onStripeDone(ok);
        });
    }
}

void
RebuildJob::onStripeDone(bool ok)
{
    --inFlight_;
    ++done_;
    if (!ok)
        ++failures_;
    if (done_ == numStripes_) {
        finished_ = true;
        endTick_ = sim_.now();
        probe_.event(telemetry::EventType::kRebuildCompleted,
                     sim_.now().raw(), done_, failures_);
        if (onFinished_)
            onFinished_(failures_ == 0);
        return;
    }
    if (done_ % progressStride_ == 0) {
        probe_.event(telemetry::EventType::kRebuildProgress,
                     sim_.now().raw(), done_, numStripes_);
    }
    pump();
}

double
RebuildJob::throughputMBps() const
{
    const sim::Ticks dt = (finished_ ? endTick_ : sim_.now()) - startTick_;
    if (dt <= sim::Ticks::zero())
        return 0.0;
    return static_cast<double>(done_) * chunkBytes_ / sim::toSeconds(dt) /
           1e6;
}

} // namespace draid::core
