/**
 * @file
 * Measurement helpers: bounded latency sample sets, the window-map
 * regroup used by every merge-doubling windowed series, latency
 * distributions and throughput meters.
 *
 * Public time-valued parameters and results use the strong sim::Ticks type
 * (draid-lint rule tick-unit); the retained sample vector stays raw Tick
 * internally, converted only at the API edge.
 */

#ifndef DRAID_SIM_STATS_H
#define DRAID_SIM_STATS_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "sim/types.h"

namespace draid::sim {

/**
 * Nearest-rank percentile of an ascending-sorted vector: the element of
 * 1-based rank ceil(p/100 * n), p in [0, 100]; T{} when empty. The
 * epsilon absorbs floating-point noise in p/100 * n (0.999 * 1000 =
 * 999.0000000000001) that would otherwise push an exact boundary one
 * rank up. At p50 and p99 it ranks exactly like a plain ceil, so one
 * rule serves every percentile the simulator reports.
 */
template <typename T>
T
nearestRank(const std::vector<T> &sorted, double p)
{
    if (sorted.empty())
        return T{};
    const std::size_t n = sorted.size();
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    if (rank > 0)
        --rank;
    return sorted[std::min(rank, n - 1)];
}

/**
 * A bounded latency sample set. Every sample is offered to it; a
 * deterministic 1-in-stride subset is retained for percentile queries:
 *  - add() keeps the i-th offered sample iff i % stride == 0; when the
 *    retained set is full it first drops every second retained sample
 *    and doubles the stride, so coverage stays end to end at half the
 *    resolution instead of truncating the tail;
 *  - merge() pools two sets (the larger stride and cap win) and halves
 *    the pool until it fits;
 *  - percentile() sorts the retained samples in place on the first query
 *    after a change. A later halving then keeps every second order
 *    statistic, an equally uniform subsample.
 * Every decision is a pure function of the offered sequence and the
 * query sequence, so results stay byte-identical across runs.
 */
class SampleSet
{
  public:
    explicit SampleSet(std::size_t cap) : cap_(cap) {}

    /** Offer one sample. */
    void add(Ticks sample)
    {
        if (seen_++ % stride_ != 0)
            return;
        if (samples_.size() >= cap_)
            halve();
        samples_.push_back(sample.raw());
        sorted_ = false;
    }

    /** Pool @p other into this set. */
    void merge(const SampleSet &other);

    /** Nearest-rank percentile over the retained samples; zero if none. */
    Ticks percentile(double p) const;

    /** Samples offered (exact, independent of retention). */
    std::uint64_t seen() const { return seen_; }
    std::size_t retained() const { return samples_.size(); }
    std::uint64_t dropped() const { return seen_ - samples_.size(); }
    /** Current keep stride (1 until the cap is first hit). */
    std::uint64_t stride() const { return stride_; }
    /** Heap bytes of the retained samples (size-based, deterministic). */
    std::uint64_t retainedBytes() const
    {
        return samples_.size() * sizeof(Tick);
    }

  private:
    /** Keep every second retained sample and double the stride. */
    void halve();

    // Raw Tick is storage here; the API edge converts to sim::Ticks.
    // draid-lint: cap(cap_; halved in place on overflow)
    mutable std::vector<Tick> samples_;
    mutable bool sorted_ = true;
    std::uint64_t seen_ = 0;
    std::uint64_t stride_ = 1;
    std::size_t cap_;
};

/**
 * Widen a window-indexed map by an integral @p factor: entry i moves to
 * floor(i / factor), keeping window starts on multiples of the wider
 * width. Entries landing on one index combine in ascending order: the
 * first is moved in, each later one is folded in by @p merge(dst, src).
 */
template <typename T, typename Merge>
void
regroup(std::map<std::int64_t, T> &bins, std::int64_t factor, Merge merge)
{
    std::map<std::int64_t, T> out;
    for (auto &[idx, value] : bins) {
        const std::int64_t g =
            idx >= 0 ? idx / factor : (idx - factor + 1) / factor;
        auto [it, fresh] = out.try_emplace(g, std::move(value));
        if (!fresh)
            merge(it->second, value);
    }
    bins = std::move(out);
}

/**
 * Records a distribution of latencies (in ticks) and computes summary
 * statistics with memory bounded independent of sample count: count, sum,
 * sum-of-squares, min and max are exact running aggregates, while the
 * retained SampleSet — used only for interior percentiles — is capped at
 * kSampleCap.
 */
class LatencyRecorder
{
  public:
    /** Retained samples before stride decimation kicks in. */
    static constexpr std::size_t kSampleCap = 262'144;

    /** Add one sample. */
    void record(Ticks sample);

    /** Samples recorded (exact, independent of retention). */
    std::size_t count() const { return static_cast<std::size_t>(count_); }
    /** Samples currently retained for percentile queries. */
    std::size_t retainedSamples() const { return samples_.retained(); }
    /** Samples dropped by decimation (aggregates stay exact). */
    std::uint64_t droppedSamples() const { return samples_.dropped(); }
    /** Current keep stride (1 until the cap is first hit). */
    std::uint64_t sampleStride() const { return samples_.stride(); }

    Ticks min() const;
    Ticks max() const;

    /** Arithmetic mean in ticks; 0 when empty. */
    double mean() const;

    /** Population standard deviation; 0 when fewer than two samples. */
    double stddev() const;

    /**
     * p-th percentile by nearest-rank on the retained samples, p in
     * [0, 100]. p=0 is exactly min() and p=100 exactly max(). Returns
     * zero when empty.
     */
    Ticks percentile(double p) const;

    /** Mean in microseconds, the unit the paper plots. */
    double meanMicros() const { return mean() / kMicrosecond; }

    /** Tail latency: the 99.9th percentile (nearest-rank). */
    Ticks p999() const { return percentile(99.9); }

    void clear();

  private:
    SampleSet samples_{kSampleCap};
    Tick sum_ = 0;
    unsigned __int128 sumSq_ = 0; ///< exact second moment (stddev)
    std::uint64_t count_ = 0;
    Tick min_ = 0;
    Tick max_ = 0;
};

/**
 * Accumulates completed bytes/operations over a measurement window and
 * reports bandwidth and IOPS in the paper's units.
 */
class ThroughputMeter
{
  public:
    /** Mark the start of the measurement window. */
    void start(Ticks now);

    /** Record a completed operation of @p bytes. */
    void complete(std::uint64_t bytes);

    /** Mark the end of the measurement window. */
    void finish(Ticks now);

    std::uint64_t bytes() const { return bytes_; }
    std::uint64_t ops() const { return ops_; }
    Ticks elapsed() const { return end_ - begin_; }

    /** Bandwidth in MB/s (10^6 bytes per second, as FIO reports). */
    double bandwidthMBps() const;

    /** Completed operations per second, in thousands (KIOPS). */
    double kiops() const;

  private:
    std::uint64_t bytes_ = 0;
    std::uint64_t ops_ = 0;
    Ticks begin_;
    Ticks end_;
};

} // namespace draid::sim

#endif // DRAID_SIM_STATS_H
