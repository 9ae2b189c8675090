#include "sim/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace draid::sim {

void
LatencyRecorder::record(Ticks sample)
{
    const Tick raw = sample.raw();
    ++count_;
    sum_ += raw;
    const auto u = static_cast<unsigned __int128>(
        static_cast<std::uint64_t>(raw));
    sumSq_ += u * u;
    if (count_ == 1) {
        min_ = raw;
        max_ = raw;
    } else {
        min_ = std::min(min_, raw);
        max_ = std::max(max_, raw);
    }
    samples_.add(sample);
}

Ticks
LatencyRecorder::min() const
{
    return Ticks{count_ == 0 ? 0 : min_};
}

Ticks
LatencyRecorder::max() const
{
    return Ticks{count_ == 0 ? 0 : max_};
}

double
LatencyRecorder::mean() const
{
    if (count_ == 0)
        return 0.0;
    return static_cast<double>(sum_) / static_cast<double>(count_);
}

double
LatencyRecorder::stddev() const
{
    const std::uint64_t n = count_;
    if (n < 2)
        return 0.0;
    // Exact integral moments: Var = (n·Σs² − (Σs)²) / n². Samples are
    // ticks (≤ ~2^40) so the 128-bit products cannot overflow, and the
    // single fp conversion at the edge keeps the result independent of
    // summation order (draid-lint fp-accum). The running sumSq_ covers
    // every recorded sample, so stddev stays exact under decimation.
    const auto sum = static_cast<unsigned __int128>(
        static_cast<std::uint64_t>(sum_));
    const unsigned __int128 num =
        static_cast<unsigned __int128>(n) * sumSq_ - sum * sum;
    return std::sqrt(static_cast<double>(num)) / static_cast<double>(n);
}

Ticks
LatencyRecorder::percentile(double p) const
{
    if (count_ == 0)
        return Ticks::zero();
    assert(p >= 0.0 && p <= 100.0);
    // The extremes are exact running aggregates — decimation must not
    // lose the true min/max — and nearest-rank rounding must not shift
    // them onto a neighbouring sample.
    if (p <= 0.0)
        return Ticks{min_};
    if (p >= 100.0)
        return Ticks{max_};
    return samples_.percentile(p);
}

void
LatencyRecorder::clear()
{
    *this = LatencyRecorder{};
}

void
SampleSet::merge(const SampleSet &other)
{
    cap_ = std::max(cap_, other.cap_);
    stride_ = std::max(stride_, other.stride_);
    seen_ += other.seen_;
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    sorted_ = false;
    while (samples_.size() > cap_)
        halve();
}

Ticks
SampleSet::percentile(double p) const
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
    return Ticks{nearestRank(samples_, p)};
}

void
SampleSet::halve()
{
    // Keep the even positions. In arrival order those are exactly the
    // samples on the doubled stride's `seen % stride == 0` lattice (the
    // cap is even); after a query they are every second order statistic.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < samples_.size(); i += 2)
        samples_[kept++] = samples_[i];
    samples_.resize(kept);
    stride_ *= 2;
}

void
ThroughputMeter::start(Ticks now)
{
    bytes_ = 0;
    ops_ = 0;
    begin_ = now;
    end_ = now;
}

void
ThroughputMeter::complete(std::uint64_t bytes)
{
    bytes_ += bytes;
    ++ops_;
}

void
ThroughputMeter::finish(Ticks now)
{
    end_ = now;
}

double
ThroughputMeter::bandwidthMBps() const
{
    const Ticks dt = end_ - begin_;
    if (dt <= Ticks::zero())
        return 0.0;
    return static_cast<double>(bytes_) / toSeconds(dt) / 1e6;
}

double
ThroughputMeter::kiops() const
{
    const Ticks dt = end_ - begin_;
    if (dt <= Ticks::zero())
        return 0.0;
    return static_cast<double>(ops_) / toSeconds(dt) / 1e3;
}

} // namespace draid::sim
