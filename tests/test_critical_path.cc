/**
 * @file
 * Critical-path analyzer and flight recorder tests: exact hand-computable
 * breakdowns, the breakdown-sums-to-latency invariant on real traffic, the
 * 4+1 bottleneck verdict, ring wraparound, post-mortem dumps, and the
 * determinism guard with the always-on recorder.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/reconstruct.h"
#include "draid_test_util.h"
#include "telemetry/critical_path.h"
#include "telemetry/flight_recorder.h"

namespace draid {
namespace {

using telemetry::CriticalPathFold;
using telemetry::CriticalPathReport;
using telemetry::FlightRecorder;
using telemetry::Phase;
using telemetry::TraceSpan;
using testutil::DraidRig;
using testutil::readSync;
using testutil::writeSync;

core::DraidOptions
fourPlusOneOptions()
{
    core::DraidOptions o;
    o.chunkSize = 64 * 1024;
    return o;
}

TraceSpan
span(std::uint64_t id, sim::NodeId node, const char *lane,
     const char *name, sim::Tick start, sim::Tick end)
{
    TraceSpan s;
    s.traceId = id;
    s.node = node;
    s.lane = lane;
    s.name = name;
    s.start = start;
    s.end = end;
    return s;
}

sim::Tick
phaseSum(const telemetry::OpBreakdown &op)
{
    sim::Tick sum = 0;
    for (sim::Tick t : op.phaseTicks)
        sum += t;
    return sum;
}

// ---------------------------------------------------------------------------
// Hand-built breakdowns (exact, hand-computable phase times)
// ---------------------------------------------------------------------------

TEST(CriticalPath, HandBuiltDegradedReadBreakdownIsExact)
{
    // The span shape of a stylized 4+1 degraded read, with round numbers:
    // host command, request out, fabric hop, survivor SSD reads, reducer
    // XOR, reduced data back — then an uncovered completion tail.
    std::vector<TraceSpan> spans;
    spans.push_back(span(7, 0, "op", "draid.read", 0, 1000));
    spans.push_back(span(7, 0, "cpu", "host.cmd", 0, 100));
    spans.push_back(span(7, 0, "nic.tx", "xfer", 100, 300));
    spans.push_back(span(7, 0, "fabric", "fabric.prop", 300, 350));
    spans.push_back(span(7, 2, "ssd", "ssd.read", 350, 600));
    spans.push_back(span(7, 2, "cpu", "reduce.xor", 600, 700));
    spans.push_back(span(7, 0, "nic.rx", "xfer", 700, 900));

    const CriticalPathReport report =
        telemetry::analyzeCriticalPath(spans);
    ASSERT_EQ(report.ops.size(), 1u);
    const auto &op = report.ops[0];

    EXPECT_EQ(op.phase(Phase::kCpu), 100);
    EXPECT_EQ(op.phase(Phase::kNic), 400);
    EXPECT_EQ(op.phase(Phase::kFabric), 50);
    EXPECT_EQ(op.phase(Phase::kSsd), 250);
    EXPECT_EQ(op.phase(Phase::kReduce), 100);
    EXPECT_EQ(op.phase(Phase::kLockWait), 0);
    EXPECT_EQ(op.phase(Phase::kQueue), 100); // the [900, 1000) tail
    EXPECT_EQ(phaseSum(op), op.latency());

    // All seven resource spans are disjoint: the longest chain is their
    // total, and it is a strict lower bound on the latency.
    EXPECT_EQ(op.chainTicks, 900);
    EXPECT_LE(op.chainTicks, op.latency());
}

TEST(CriticalPath, OverlapChargesHighestPriorityPhaseOnce)
{
    // An SSD read overlapping a NIC transfer: the overlap [50, 100) is
    // charged once, to the SSD (higher priority), never double-counted.
    std::vector<TraceSpan> spans;
    spans.push_back(span(1, 0, "op", "draid.read", 0, 200));
    spans.push_back(span(1, 1, "ssd", "ssd.read", 0, 100));
    spans.push_back(span(1, 0, "nic.rx", "xfer", 50, 150));

    const CriticalPathReport report =
        telemetry::analyzeCriticalPath(spans);
    ASSERT_EQ(report.ops.size(), 1u);
    const auto &op = report.ops[0];
    EXPECT_EQ(op.phase(Phase::kSsd), 100);
    EXPECT_EQ(op.phase(Phase::kNic), 50);
    EXPECT_EQ(op.phase(Phase::kQueue), 50);
    EXPECT_EQ(phaseSum(op), 200);

    // The two spans overlap, so the chain picks only one of them.
    EXPECT_EQ(op.chainTicks, 100);
}

TEST(CriticalPath, SpansOutsideTheRootWindowAreClamped)
{
    // A resource span leaking past both ends of the op (e.g. a shared NIC
    // transfer of a neighbouring op) only counts inside the op's window.
    std::vector<TraceSpan> spans;
    spans.push_back(span(3, 0, "op", "draid.write", 100, 200));
    spans.push_back(span(3, 1, "ssd", "ssd.write", 50, 250));

    const CriticalPathReport report =
        telemetry::analyzeCriticalPath(spans);
    ASSERT_EQ(report.ops.size(), 1u);
    EXPECT_EQ(report.ops[0].phase(Phase::kSsd), 100);
    EXPECT_EQ(report.ops[0].phase(Phase::kQueue), 0);
    EXPECT_EQ(phaseSum(report.ops[0]), 100);
}

TEST(CriticalPath, RootlessSpansFeedResourcesButNotOps)
{
    // Rebuild-style traffic with no "op" root still counts toward busy
    // fractions (it competes for the same NICs and SSDs).
    std::vector<TraceSpan> spans;
    spans.push_back(span(9, 2, "ssd", "ssd.read", 0, 600));
    spans.push_back(span(9, 2, "nic.tx", "xfer", 600, 800));

    const CriticalPathReport report =
        telemetry::analyzeCriticalPath(spans);
    EXPECT_TRUE(report.ops.empty());
    ASSERT_TRUE(report.hasVerdict());
    EXPECT_EQ(report.bottleneck().lane, "ssd");
    EXPECT_EQ(report.bottleneck().node, 2u);
    EXPECT_EQ(report.bottleneck().busyTicks, 600);
}

TEST(CriticalPath, DominantPhaseTiesGoToTheLowerPhase)
{
    telemetry::OpBreakdown op;
    EXPECT_EQ(op.dominant(), Phase::kQueue); // all zero: the first phase
    op.phaseTicks[static_cast<std::size_t>(Phase::kNic)] = 50;
    op.phaseTicks[static_cast<std::size_t>(Phase::kSsd)] = 50;
    EXPECT_EQ(op.dominant(), Phase::kNic);
    op.phaseTicks[static_cast<std::size_t>(Phase::kQueue)] = 50;
    EXPECT_EQ(op.dominant(), Phase::kQueue);
    op.phaseTicks[static_cast<std::size_t>(Phase::kSsd)] = 51;
    EXPECT_EQ(op.dominant(), Phase::kSsd);
}

// ---------------------------------------------------------------------------
// The live fold: same report as a replay of the retained spans
// ---------------------------------------------------------------------------

void
expectSameReport(const CriticalPathReport &live,
                 const CriticalPathReport &replay)
{
    ASSERT_EQ(live.ops.size(), replay.ops.size());
    for (std::size_t i = 0; i < live.ops.size(); ++i) {
        const telemetry::OpBreakdown &a = live.ops[i];
        const telemetry::OpBreakdown &b = replay.ops[i];
        EXPECT_EQ(a.traceId, b.traceId);
        EXPECT_EQ(a.name, b.name);
        EXPECT_EQ(a.start, b.start);
        EXPECT_EQ(a.end, b.end);
        EXPECT_EQ(a.phaseTicks, b.phaseTicks) << "trace " << a.traceId;
        EXPECT_EQ(a.chainTicks, b.chainTicks) << "trace " << a.traceId;
    }
    for (std::size_t p = 0; p < telemetry::kNumPhases; ++p) {
        EXPECT_EQ(live.phases[p].totalTicks, replay.phases[p].totalTicks);
        EXPECT_EQ(live.phases[p].meanUs, replay.phases[p].meanUs);
        EXPECT_EQ(live.phases[p].p50Us, replay.phases[p].p50Us);
        EXPECT_EQ(live.phases[p].p99Us, replay.phases[p].p99Us);
        EXPECT_EQ(live.phases[p].share, replay.phases[p].share);
    }
    EXPECT_EQ(live.windowStart, replay.windowStart);
    EXPECT_EQ(live.windowEnd, replay.windowEnd);
    ASSERT_EQ(live.resources.size(), replay.resources.size());
    for (std::size_t i = 0; i < live.resources.size(); ++i) {
        EXPECT_EQ(live.resources[i].node, replay.resources[i].node);
        EXPECT_EQ(live.resources[i].lane, replay.resources[i].lane);
        EXPECT_EQ(live.resources[i].busyTicks,
                  replay.resources[i].busyTicks);
        EXPECT_EQ(live.resources[i].busyFraction,
                  replay.resources[i].busyFraction);
    }
}

TEST(CriticalPathFold, MergesTouchingRunsAndClampsStraddlersToTheWindow)
{
    // Roots make the window [100, 1000]. On node 3's SSD: a run that
    // straddles the window start, a touching span, a gap, two
    // overlapping spans, a run straddling the window end and one past
    // it. Node 5's SSD closes a run inside the window and one straddling
    // its end while the window is complete. Node 4's NIC is busy only
    // before the window.
    std::vector<TraceSpan> spans;
    spans.push_back(span(9, 3, "ssd", "ssd.read", 50, 150));
    spans.push_back(span(9, 3, "ssd", "ssd.read", 150, 200));
    spans.push_back(span(9, 4, "nic.tx", "xfer", 0, 50));
    spans.push_back(span(9, 3, "ssd", "ssd.read", 300, 400));
    spans.push_back(span(1, 0, "op", "draid.read", 100, 600));
    spans.push_back(span(9, 3, "ssd", "ssd.read", 500, 700));
    spans.push_back(span(9, 3, "ssd", "ssd.read", 650, 800));
    spans.push_back(span(2, 0, "op", "draid.read", 400, 1000));
    spans.push_back(span(8, 5, "ssd", "ssd.write", 150, 250));
    spans.push_back(span(8, 5, "ssd", "ssd.write", 550, 1100));
    spans.push_back(span(8, 5, "ssd", "ssd.write", 1150, 1200));
    spans.push_back(span(9, 3, "ssd", "ssd.read", 900, 1200));
    spans.push_back(span(9, 3, "ssd", "ssd.read", 1300, 1400));

    CriticalPathFold fold;
    for (const TraceSpan &s : spans) {
        if (std::string_view(s.lane) == "op")
            fold.onOpComplete(s, {});
        else
            fold.onSpan(s);
    }
    const CriticalPathReport report = fold.report();
    EXPECT_EQ(report.windowStart, 100);
    EXPECT_EQ(report.windowEnd, 1000);
    ASSERT_EQ(report.resources.size(), 3u);
    // [100, 200) + [300, 400) + [500, 800) + [900, 1000).
    EXPECT_EQ(report.bottleneck().node, 3u);
    EXPECT_EQ(report.bottleneck().lane, "ssd");
    EXPECT_EQ(report.bottleneck().busyTicks, 600);
    EXPECT_DOUBLE_EQ(report.bottleneck().busyFraction, 600.0 / 900.0);
    // [150, 250) + [550, 1000).
    EXPECT_EQ(report.resources[1].node, 5u);
    EXPECT_EQ(report.resources[1].busyTicks, 550);
    EXPECT_EQ(report.resources[2].node, 4u);
    EXPECT_EQ(report.resources[2].busyTicks, 0);
    expectSameReport(report, telemetry::analyzeCriticalPath(spans));

    // reset() forgets everything folded.
    fold.reset();
    const CriticalPathReport empty = fold.report();
    EXPECT_TRUE(empty.ops.empty());
    EXPECT_FALSE(empty.hasVerdict());
}

TEST(CriticalPathFold, LiveFoldMatchesReplayOfRetainedSpans)
{
    for (const std::uint64_t period : {1u, 4u}) {
        SCOPED_TRACE(period);
        // 5+1 RAID-5 members plus a spare target for the rebuild stripe.
        DraidRig rig(7, fourPlusOneOptions(), 6);
        telemetry::Tracer &tracer = rig.cluster->tracer();
        tracer.setEnabled(true);
        tracer.setSamplePeriod(period);
        CriticalPathFold fold(&tracer);
        tracer.bind(&fold);

        ec::Buffer big(320 * 1024);
        big.fillPattern(3);
        ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, big));
        int outstanding = 0;
        for (int i = 0; i < 16; ++i) {
            ++outstanding;
            const std::uint64_t off =
                static_cast<std::uint64_t>(i % 8) * 24 * 1024;
            auto done = [&](blockdev::IoStatus st) {
                EXPECT_EQ(st, blockdev::IoStatus::kOk);
                if (--outstanding == 0)
                    rig.sim().stop();
            };
            if (i % 2 == 0) {
                ec::Buffer b(16 * 1024);
                b.fillPattern(static_cast<std::uint8_t>(20 + i));
                rig.host().write(off, std::move(b), done);
            } else {
                rig.host().read(off, 32 * 1024,
                                [done](blockdev::IoStatus st, ec::Buffer) {
                                    done(st);
                                });
            }
        }
        while (outstanding > 0 && rig.sim().pendingEvents() > 0)
            rig.sim().run();
        ASSERT_EQ(outstanding, 0);

        // Degraded reads, then one rebuild stripe: spans, but no root.
        rig.host().markFailed(rig.host().geometry().dataDevice(0, 0));
        bool ok = false;
        readSync(rig.sim(), rig.host(), 0, 64 * 1024, &ok);
        ASSERT_TRUE(ok);
        core::RebuildJob job(
            rig.sim(),
            [&](std::uint64_t stripe, std::function<void(bool)> done) {
                rig.host().reconstructChunk(stripe, 6, std::move(done));
            },
            1, rig.host().geometry().chunkSize());
        job.attach(rig.cluster->probe(rig.cluster->hostId()));
        bool rebuilt = false;
        job.start([&](bool r) {
            rebuilt = r;
            rig.sim().stop();
        });
        while (!job.finished() && rig.sim().pendingEvents() > 0)
            rig.sim().run();
        ASSERT_TRUE(rebuilt);
        readSync(rig.sim(), rig.host(), 96 * 1024, 64 * 1024, &ok);
        ASSERT_TRUE(ok);
        tracer.unbind(&fold);

        const std::vector<TraceSpan> &spans = tracer.spans();
        std::set<std::uint64_t> roots;
        std::set<std::uint64_t> ids;
        for (const TraceSpan &s : spans)
            (std::string_view(s.lane) == "op" ? roots : ids)
                .insert(s.traceId);
        const CriticalPathReport live = fold.report();
        if (period == 1) {
            EXPECT_GE(live.ops.size(), 19u);
            bool rootless = false;
            for (std::uint64_t id : ids)
                rootless = rootless || roots.count(id) == 0;
            EXPECT_TRUE(rootless);
        }
        EXPECT_FALSE(live.ops.empty());
        EXPECT_TRUE(live.hasVerdict());
        expectSameReport(live, telemetry::analyzeCriticalPath(spans));
    }
}

// ---------------------------------------------------------------------------
// Real traffic: the partition is exact for every op
// ---------------------------------------------------------------------------

TEST(CriticalPathE2E, BreakdownSumsToLatencyForEveryOp)
{
    DraidRig rig(6, fourPlusOneOptions());
    rig.cluster->tracer().setEnabled(true);

    // Mixed traffic: serial writes and reads, a burst of concurrent
    // same-stripe writes (stripe-lock waits), and a degraded read.
    ec::Buffer big(192 * 1024);
    big.fillPattern(1);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, big));
    ec::Buffer small(16 * 1024);
    small.fillPattern(2);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 128 * 1024, small));
    bool ok = false;
    readSync(rig.sim(), rig.host(), 32 * 1024, 64 * 1024, &ok);
    ASSERT_TRUE(ok);

    int outstanding = 0;
    for (int i = 0; i < 4; ++i) {
        ec::Buffer b(16 * 1024);
        b.fillPattern(static_cast<std::uint8_t>(10 + i));
        ++outstanding;
        rig.host().write(static_cast<std::uint64_t>(i) * 16 * 1024,
                         std::move(b), [&](blockdev::IoStatus st) {
                             EXPECT_EQ(st, blockdev::IoStatus::kOk);
                             if (--outstanding == 0)
                                 rig.sim().stop();
                         });
    }
    while (outstanding > 0 && rig.sim().pendingEvents() > 0)
        rig.sim().run();
    ASSERT_EQ(outstanding, 0);

    rig.host().markFailed(rig.host().geometry().dataDevice(0, 0));
    readSync(rig.sim(), rig.host(), 0, 16 * 1024, &ok);
    ASSERT_TRUE(ok);

    const CriticalPathReport report = telemetry::analyzeCriticalPath(
        rig.cluster->tracer().spans());
    ASSERT_GE(report.ops.size(), 7u);
    for (const auto &op : report.ops) {
        EXPECT_EQ(phaseSum(op), op.latency())
            << op.name << " trace " << op.traceId;
        EXPECT_LE(op.chainTicks, op.latency()) << op.name;
        EXPECT_GT(op.chainTicks, 0) << op.name;
    }

    // Sanity on attribution: real traffic spends time on SSDs and NICs,
    // and the concurrent burst must have produced lock waits.
    EXPECT_GT(report.phase(Phase::kSsd).totalTicks, 0u);
    EXPECT_GT(report.phase(Phase::kNic).totalTicks, 0u);
    EXPECT_GT(report.phase(Phase::kLockWait).totalTicks, 0u);
    EXPECT_GT(report.phase(Phase::kReduce).totalTicks, 0u); // degraded read
}

// ---------------------------------------------------------------------------
// Bottleneck verdict: 4+1 RMW writes bound by the parity server
// ---------------------------------------------------------------------------

TEST(CriticalPathE2E, SequentialRmwWritesBottleneckOnParityServer)
{
    // Width-5 rig: a 4+1 RAID-5 array. 16 KB sequential writes confined
    // to stripe 0 are all read-modify-writes through stripe 0's fixed
    // parity device, whose SSD does ~4x the work of any data SSD (every
    // op reads+writes parity; each data SSD sees a quarter of the ops).
    DraidRig rig(5, fourPlusOneOptions());
    rig.cluster->tracer().setEnabled(true);

    const auto &g = rig.host().geometry();
    const std::uint64_t stripe_data = g.stripeDataSize(); // 256 KB
    for (int i = 0; i < 40; ++i) {
        ec::Buffer b(16 * 1024);
        b.fillPattern(static_cast<std::uint8_t>(i));
        const std::uint64_t off =
            (static_cast<std::uint64_t>(i) * 16 * 1024) % stripe_data;
        ASSERT_TRUE(writeSync(rig.sim(), rig.host(), off, b));
    }

    const CriticalPathReport report = telemetry::analyzeCriticalPath(
        rig.cluster->tracer().spans());
    ASSERT_TRUE(report.hasVerdict());
    const sim::NodeId parity_node =
        rig.cluster->targetNodeId(g.parityDevice(0));
    EXPECT_EQ(report.bottleneck().node, parity_node);
    // The parity server's SSD (or, for tiny chunks, its NIC) bounds the
    // run; with 16 KB RMWs the SSD channel dominates.
    EXPECT_EQ(report.bottleneck().lane, "ssd");
    EXPECT_GT(report.bottleneck().busyFraction, 0.0);
}

// ---------------------------------------------------------------------------
// Flight recorder: ring behaviour and post-mortems
// ---------------------------------------------------------------------------

TEST(FlightRecorder, RingWrapAroundKeepsNewestRecords)
{
    FlightRecorder fr(8);
    EXPECT_EQ(fr.capacity(), 8u);
    for (std::uint64_t i = 0; i < 20; ++i)
        fr.note("evt", i, 3, static_cast<sim::Tick>(100 * i));

    EXPECT_EQ(fr.size(), 8u);
    EXPECT_EQ(fr.totalRecorded(), 20u);
    const auto records = fr.snapshot();
    ASSERT_EQ(records.size(), 8u);
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].traceId, 12 + i); // oldest surviving first
        EXPECT_EQ(records[i].start,
                  static_cast<sim::Tick>(100 * (12 + i)));
        EXPECT_STREQ(records[i].lane, "event");
    }
}

TEST(FlightRecorder, MirrorsSpansEvenWhenExportTracingIsDark)
{
    telemetry::Tracer tracer;
    FlightRecorder fr(16);
    tracer.bind(&fr);

    // Export tracing off, recorder on: recording sites stay active...
    EXPECT_FALSE(tracer.enabled());
    EXPECT_TRUE(tracer.active());
    EXPECT_NE(tracer.mint(), 0u);

    tracer.recordSpan(span(1, 2, "ssd", "ssd.write", 10, 20));
    EXPECT_EQ(fr.size(), 1u);
    // ...but nothing is retained for export.
    EXPECT_TRUE(tracer.spans().empty());

    // Disabling the recorder turns the whole pipeline dark.
    fr.setEnabled(false);
    EXPECT_FALSE(tracer.active());
    EXPECT_EQ(tracer.mint(), 0u);
    tracer.recordSpan(span(2, 2, "ssd", "ssd.write", 30, 40));
    EXPECT_EQ(fr.size(), 1u);
}

TEST(FlightRecorder, DumpListsRecentRecords)
{
    FlightRecorder fr(16);
    fr.record(span(42, 1, "nic.tx", "xfer", 1000, 2000));
    fr.note("op.timeout", 42, 0, 5000);

    std::ostringstream os;
    fr.dump(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("2 records held"), std::string::npos);
    EXPECT_NE(text.find("xfer"), std::string::npos);
    EXPECT_NE(text.find("op.timeout"), std::string::npos);
    EXPECT_NE(text.find("trace=42"), std::string::npos);

    std::ostringstream chrome;
    fr.writeChromeTrace(chrome);
    EXPECT_NE(chrome.str().find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(chrome.str().find("\"xfer\""), std::string::npos);
}

TEST(FlightRecorder, NoteAbnormalDumpsAtMostThreeTimes)
{
    FlightRecorder fr(16);
    fr.setDumpOnAbnormal(true);
    testing::internal::CaptureStderr();
    for (int i = 0; i < 5; ++i)
        fr.noteAbnormal("op.timeout", static_cast<std::uint64_t>(i), 0,
                        1000 * i);
    const std::string err = testing::internal::GetCapturedStderr();
    std::size_t dumps = 0;
    for (std::size_t pos = err.find("post-mortem"); pos != std::string::npos;
         pos = err.find("post-mortem", pos + 1))
        ++dumps;
    EXPECT_EQ(dumps, 3u);
    EXPECT_EQ(fr.totalRecorded(), 5u); // records always kept
}

TEST(FlightRecorderDeathTest, AbortDumpsPostMortem)
{
    // The crash handlers (installed by the test main) must dump the ring
    // on abort. EXPECT_DEATH matches against the child's stderr.
    EXPECT_DEATH(
        {
            FlightRecorder fr(16);
            fr.note("about.to.abort", 7, 0, 123);
            std::abort();
        },
        "FLIGHT RECORDER post-mortem.*about\\.to\\.abort");
}

// ---------------------------------------------------------------------------
// Determinism: analyzer + always-on recorder vs fully dark
// ---------------------------------------------------------------------------

TEST(CriticalPathDeterminism, AnalyzerAndRecorderDoNotPerturbTicks)
{
    // Identical scenario twice: fully dark (recorder disabled, so even
    // trace-id minting is off) vs instrumented (always-on recorder,
    // export tracing, and an analyzer pass). Completion ticks must match
    // exactly — the whole pipeline is observe-only.
    auto run = [](bool instrumented) {
        DraidRig rig(6, fourPlusOneOptions());
        if (instrumented)
            rig.cluster->tracer().setEnabled(true);
        else
            rig.cluster->telemetry().flightRecorder().setEnabled(false);

        std::vector<sim::Tick> ticks;
        ec::Buffer big(192 * 1024);
        big.fillPattern(6);
        EXPECT_TRUE(writeSync(rig.sim(), rig.host(), 8192, big));
        ticks.push_back(rig.sim().now().raw());

        ec::Buffer small(16 * 1024);
        small.fillPattern(7);
        EXPECT_TRUE(writeSync(rig.sim(), rig.host(), 0, small));
        ticks.push_back(rig.sim().now().raw());

        bool ok = false;
        readSync(rig.sim(), rig.host(), 4096, 64 * 1024, &ok);
        EXPECT_TRUE(ok);
        ticks.push_back(rig.sim().now().raw());

        if (instrumented) {
            // The analyzer is a pure function of recorded spans; running
            // it cannot touch the simulator (it has no reference to it).
            const CriticalPathReport report =
                telemetry::analyzeCriticalPath(
                    rig.cluster->tracer().spans());
            EXPECT_FALSE(report.ops.empty());
            for (const auto &op : report.ops)
                EXPECT_EQ(phaseSum(op), op.latency());
            EXPECT_GT(rig.cluster->telemetry()
                          .flightRecorder()
                          .totalRecorded(),
                      0u);
        }
        return ticks;
    };

    EXPECT_EQ(run(false), run(true));
}

} // namespace
} // namespace draid
