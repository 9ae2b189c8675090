// Characterization tests for the bounded sample paths: LatencyRecorder,
// the adaptive WindowedAggregator, the ContentionTracker's tenant /
// SLO-window sets and the UtilizationSampler's round merging. Each test
// drives its path well past the sample cap (and, for the windowed paths,
// through several window doublings and merges), then compares the
// exported result with golden values. Few figure benches reach these
// caps, so these tests are what pins decimation, merging and ranking
// byte for byte.
//
// Inputs come from a fixed splitmix64 stream, never from the simulation
// RNG, so the goldens depend only on the code under test. Long outputs
// are compared through an FNV-1a 64 hash.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "sim/stats.h"
#include "telemetry/event_journal.h"
#include "telemetry/interference.h"
#include "telemetry/telemetry.h"
#include "telemetry/timeline.h"

using namespace draid;

namespace {

std::uint64_t
splitmix(std::uint64_t x)
{
    std::uint64_t z = x + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Heavy-tailed latency in ticks: mostly 5-15 us, 1% up to ~1 ms. */
sim::Tick
latencyOf(std::uint64_t i)
{
    const std::uint64_t h = splitmix(i);
    sim::Tick lat = 5000 + static_cast<sim::Tick>(h % 10'000);
    if ((h >> 32) % 100 == 0)
        lat += static_cast<sim::Tick>((h >> 40) % 1'000'000);
    return lat;
}

std::string
hex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
fnv1a64(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return hex64(h);
}

std::string
summarize(const sim::LatencyRecorder &rec)
{
    std::ostringstream os;
    for (double p : {1.0, 50.0, 90.0, 99.0, 99.9, 99.99})
        os << "p" << p << "=" << rec.percentile(p).raw() << ";";
    os << "retained=" << rec.retainedSamples()
       << ";stride=" << rec.sampleStride();
    return os.str();
}

} // namespace

TEST(DecimationGolden, LatencyRecorderPastCap)
{
    sim::LatencyRecorder rec;
    for (std::uint64_t i = 0; i < 600'000; ++i)
        rec.record(sim::Ticks{latencyOf(i)});
    ASSERT_EQ(rec.count(), 600'000u);
    EXPECT_EQ(summarize(rec),
              "p1=5099;p50=10058;p90=14088;p99=14999;p99.9=919325;"
              "p99.99=998322;retained=150000;stride=4");
}

TEST(DecimationGolden, LatencyRecorderQueryThenDecimate)
{
    // A percentile query sorts the retained set in place; a later
    // decimation then keeps every second order statistic.
    sim::LatencyRecorder rec;
    for (std::uint64_t i = 0; i < 300'000; ++i)
        rec.record(sim::Ticks{latencyOf(i)});
    EXPECT_EQ(summarize(rec),
              "p1=5103;p50=10053;p90=14069;p99=14998;p99.9=903305;"
              "p99.99=997898;retained=150000;stride=2");
    for (std::uint64_t i = 300'000; i < 600'000; ++i)
        rec.record(sim::Ticks{latencyOf(i)});
    EXPECT_EQ(summarize(rec),
              "p1=5099;p50=10065;p90=14084;p99=14997;p99.9=911329;"
              "p99.99=997898;retained=150000;stride=4");
}

TEST(DecimationGolden, AdaptiveAggregatorWidensAndCoalesces)
{
    telemetry::WindowedAggregator agg;
    // 300k completions over ~10 ms with up to 50 us of hashed jitter, so
    // bins fill out of order, overflow the 512-sample cap and merge with
    // other decimated bins while the width doubles from 1 us to 64 us.
    const std::uint64_t n = 300'000;
    for (std::uint64_t i = 0; i < n; ++i) {
        const sim::Tick base =
            static_cast<sim::Tick>(i * 10'000'000 / n);
        const sim::Tick end =
            base + static_cast<sim::Tick>(splitmix(i + n) % 50'000);
        agg.addOp(sim::Ticks{end}, sim::Ticks{latencyOf(i)},
                  4096 + (splitmix(i) % 4) * 4096);
    }
    EXPECT_EQ(agg.opsAdded(), n);
    EXPECT_EQ(agg.windowTicks().raw(), 64 * sim::kMicrosecond);
    EXPECT_EQ(agg.droppedLatencySamples(), 225'700u);

    std::vector<telemetry::EventJournal::Event> events;
    events.push_back(
        {telemetry::EventType::kRebuildStarted, 0, 2'000'000, 8, 0});
    events.push_back(
        {telemetry::EventType::kRebuildCompleted, 0, 7'000'000, 8, 0});
    telemetry::UtilizationRounds rounds;
    for (sim::NodeId node = 1; node <= 3; ++node)
        rounds.sources.push_back({node, "ssd.util"});
    for (sim::Tick t = 0; t < 10'000'000; t += 100'000) {
        telemetry::UtilizationRounds::Round &row =
            rounds.rounds[static_cast<std::int64_t>(rounds.rounds.size())];
        row.tick = t;
        for (sim::NodeId node = 1; node <= 3; ++node) {
            const double v = static_cast<double>(
                splitmix(static_cast<std::uint64_t>(t) + node) % 1000) /
                1000.0;
            row.values.push_back(node == 1 ? v : v / 4);
        }
    }
    std::ostringstream os;
    telemetry::writeTimelineJson(
        os, telemetry::buildTimeline(agg, events, rounds, 0));
    EXPECT_EQ(fnv1a64(os.str()), "4da703fc868f78f9");
}

TEST(DecimationGolden, ContentionTrackerMergesAndDecimates)
{
    // 1.2 s of activity at the 1 ms base window forces three width
    // doublings; 30k completions per tenant overflow the 4096-sample
    // tenant set, and every 8 ms window ends up with ~200 completions
    // against its 64-sample cap.
    telemetry::ContentionTracker ct;
    ct.setEnabled(true);
    const auto a = ct.registerTenant("a");
    const auto b = ct.registerTenant("b");
    ct.setSloTargetTicks(a, 30'000);
    ct.setSloTargetTicks(b, 60'000);
    const auto res = ct.registerResource(1, telemetry::ContentionTracker::
                                                ResourceKind::SsdChannel);
    // One FIFO channel shared by both tenants: arrivals every 20 us,
    // service times of 12-22 us, so waits queue behind the other tenant.
    const std::uint64_t n = 60'000;
    sim::Tick busyUntil = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        const sim::Tick arrival = static_cast<sim::Tick>(i) * 20'000;
        const std::uint64_t trace = i + 1;
        ct.noteOpStart(trace, i % 2 == 0 ? a : b);
        const sim::Tick start = std::max(arrival, busyUntil);
        busyUntil =
            start + 12'000 + static_cast<sim::Tick>(splitmix(i) % 10'000);
        ct.attributeWait(res, trace, arrival, start);
        ct.noteOccupancy(res, trace, start, busyUntil);
        const sim::Tick lat = latencyOf(i) + (start - arrival);
        ct.noteOpComplete(trace, arrival + lat, lat, 4096);
    }
    EXPECT_EQ(ct.windowMerges(), 3u);
    EXPECT_EQ(ct.totalBlameTicks(), ct.totalWaitTicks());

    std::ostringstream os;
    ct.writeJsonRow(os, "golden", 1);
    EXPECT_EQ(fnv1a64(os.str()), "00111bcad2a8c01a");
}

TEST(DecimationGolden, UtilizationSamplerMergesRounds)
{
    // Three sources with hashed busy increments, a 17-sample cap (five
    // rounds of three) and irregular clock jumps that sometimes cross
    // several boundaries at once: the sampler merges rounds seven times,
    // each time with an odd last round that passes through unmerged.
    sim::Simulator sim;
    telemetry::Telemetry tel;
    telemetry::UtilizationSampler &sampler = tel.sampler();
    sim::Tick busy[3] = {0, 0, 0};
    for (sim::NodeId node = 1; node <= 3; ++node) {
        sampler.addSource(node, node == 2 ? "ssd.util" : "nic.tx.util",
                          [&busy, node] {
                              return sim::Ticks{busy[node - 1]};
                          });
    }
    sampler.setSampleCap(17);
    sampler.start(sim, sim::Ticks{1000});
    sim::Tick now = 0;
    for (std::uint64_t i = 0; i < 300; ++i) {
        now += 500 + static_cast<sim::Tick>(splitmix(i) % 2500);
        for (std::uint64_t s = 0; s < 3; ++s)
            busy[s] += static_cast<sim::Tick>(splitmix(i * 3 + s + 7) % 1200);
        sampler.onClockAdvance(sim::Ticks{now});
    }
    EXPECT_EQ(sampler.emitStride(), 128u);
    EXPECT_EQ(sampler.droppedSamples(), 843u);

    std::ostringstream metrics;
    tel.writeMetricsJson(metrics);
    EXPECT_EQ(fnv1a64(metrics.str()), "8cc6f080024a8f50");

    std::ostringstream binned;
    for (const telemetry::UtilizationSeries &s : telemetry::binUtilization(
             tel.sampler().rounds(), sim::Ticks::zero(),
             sim::Ticks{now / 8 + 1}, 8)) {
        binned << s.node << ":" << s.name;
        for (double v : s.perWindow)
            binned << "," << std::to_string(v);
        binned << ";";
    }
    EXPECT_EQ(fnv1a64(binned.str()), "1a51ab359517cd25");
}
