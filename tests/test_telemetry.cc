// Telemetry subsystem: registry scoping, histogram bucketing, span
// recording, Chrome-trace JSON well-formedness, the end-to-end span chain
// of a 4+1 dRAID write, and the guard that tracing never perturbs timing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "draid_test_util.h"
#include "sim/pipe.h"
#include "telemetry/interference.h"
#include "telemetry/lane_tap.h"
#include "telemetry/metrics.h"
#include "telemetry/probe.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

using namespace draid;
using namespace draid::testutil;


// --- registry -----------------------------------------------------------

TEST(MetricsRegistry, ScopedNamesFormDottedHierarchy)
{
    telemetry::MetricsRegistry reg;
    telemetry::MetricScope root(reg, "");
    auto nic = root.scope("node3").scope("nic");
    EXPECT_EQ(nic.prefix(), "node3.nic");

    nic.counter("tx_bytes").inc(128);
    EXPECT_TRUE(reg.hasCounter("node3.nic.tx_bytes"));
    EXPECT_EQ(reg.counterValue("node3.nic.tx_bytes"), 128u);

    // The same qualified name resolves to the same object.
    nic.counter("tx_bytes").inc(1);
    EXPECT_EQ(reg.counterValue("node3.nic.tx_bytes"), 129u);

    // An unscoped root name has no leading dot.
    root.counter("events").inc();
    EXPECT_TRUE(reg.hasCounter("events"));

    const auto names = reg.names();
    EXPECT_NE(std::find(names.begin(), names.end(), "node3.nic.tx_bytes"),
              names.end());
}

TEST(MetricsRegistry, ProbesReadExistingStorageAtSnapshotTime)
{
    telemetry::MetricsRegistry reg;
    double backing = 1.0;
    reg.probe("host0.nic.tx_bytes", [&backing] { return backing; });

    EXPECT_TRUE(reg.hasProbe("host0.nic.tx_bytes"));
    EXPECT_DOUBLE_EQ(reg.probeValue("host0.nic.tx_bytes"), 1.0);

    // Probes are pull-based: the registry sees updates for free.
    backing = 7.5;
    EXPECT_DOUBLE_EQ(reg.probeValue("host0.nic.tx_bytes"), 7.5);

    EXPECT_DOUBLE_EQ(reg.probeValue("no.such.probe"), 0.0);
    EXPECT_EQ(reg.counterValue("no.such.counter"), 0u);
}

TEST(Histogram, BucketsAndSummaryStats)
{
    telemetry::Histogram h({10.0, 100.0, 1000.0});
    for (double s : {5.0, 7.0, 50.0, 500.0, 5000.0})
        h.observe(s);

    EXPECT_EQ(h.count(), 5u);
    const auto &c = h.bucketCounts();
    ASSERT_EQ(c.size(), 4u); // three bounds + overflow
    EXPECT_EQ(c[0], 2u);     // 5, 7
    EXPECT_EQ(c[1], 1u);     // 50
    EXPECT_EQ(c[2], 1u);     // 500
    EXPECT_EQ(c[3], 1u);     // 5000 overflows
    EXPECT_DOUBLE_EQ(h.min(), 5.0);
    EXPECT_DOUBLE_EQ(h.max(), 5000.0);
    EXPECT_DOUBLE_EQ(h.mean(), 5562.0 / 5.0);
}

TEST(Histogram, BoundaryLandsInLowerBucket)
{
    telemetry::Histogram h({10.0, 100.0});
    h.observe(10.0);  // inclusive upper bound
    h.observe(10.01); // just past it
    const auto &c = h.bucketCounts();
    EXPECT_EQ(c[0], 1u);
    EXPECT_EQ(c[1], 1u);
    EXPECT_EQ(c[2], 0u);
}

TEST(Histogram, EmptyReportsZeros)
{
    telemetry::Histogram h(telemetry::latencyBucketsUs());
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(MetricsRegistry, JsonSnapshotIsWellFormed)
{
    telemetry::MetricsRegistry reg;
    telemetry::MetricScope root(reg, "");
    root.scope("host0").counter("ops").inc(3);
    root.scope("host0").gauge("depth").set(1.5);
    root.scope("node1").histogram("lat_us", {10.0, 100.0}).observe(42.0);
    reg.probe("node1.ssd.reads", [] { return 9.0; });

    const std::string json = reg.toJson();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"host0.ops\""), std::string::npos);
    EXPECT_NE(json.find("\"node1.ssd.reads\""), std::string::npos);
    EXPECT_NE(json.find("\"node1.lat_us\""), std::string::npos);
}

TEST(Json, StringWriterEscapesQuotesAndControlCharacters)
{
    // One writer serves metrics, traces and the interference export.
    // Tenant names come from the command line, so control characters
    // must not reach the JSON raw.
    std::ostringstream os;
    telemetry::writeJsonString(os, "a\"b\\c\nd\te\x01");
    EXPECT_EQ(os.str(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
}

// --- tracer -------------------------------------------------------------

TEST(Tracer, DisabledMintsZeroAndRecordsNothing)
{
    telemetry::Tracer t;
    EXPECT_FALSE(t.enabled());
    EXPECT_EQ(t.mint(), 0u);
    EXPECT_EQ(t.mint(), 0u); // stays 0, never advances

    telemetry::TraceSpan s;
    s.traceId = 1;
    s.name = "ssd.read";
    t.recordSpan(std::move(s));
    EXPECT_TRUE(t.spans().empty());
}

TEST(Tracer, EnabledMintsSequentialIdsAndKeepsSpans)
{
    telemetry::Tracer t;
    t.setEnabled(true);
    EXPECT_EQ(t.mint(), 1u);
    EXPECT_EQ(t.mint(), 2u);

    telemetry::TraceSpan outer;
    outer.traceId = 1;
    outer.node = 0;
    outer.lane = "op";
    outer.name = "draid.write";
    outer.start = 100;
    outer.end = 900;

    telemetry::TraceSpan inner;
    inner.traceId = 1;
    inner.node = 2;
    inner.lane = "ssd";
    inner.name = "ssd.write";
    inner.start = 300;
    inner.end = 600;
    inner.args[0] = {"bytes", 4096};

    t.recordSpan(outer);
    t.recordSpan(inner);
    ASSERT_EQ(t.spans().size(), 2u);

    // Nesting is positional: the inner span sits inside the outer one.
    const auto &o = t.spans()[0];
    const auto &i = t.spans()[1];
    EXPECT_EQ(o.traceId, i.traceId);
    EXPECT_GE(i.start, o.start);
    EXPECT_LE(i.end, o.end);
    EXPECT_STREQ(i.args[0].key, "bytes");
}

TEST(Tracer, SpanCapDropsButCounts)
{
    telemetry::Tracer t;
    t.setEnabled(true);
    t.setSpanCap(3);
    for (int i = 0; i < 5; ++i) {
        telemetry::TraceSpan s;
        s.traceId = t.mint();
        s.name = "x";
        t.recordSpan(std::move(s));
    }
    EXPECT_EQ(t.spans().size(), 3u);
    EXPECT_EQ(t.droppedSpans(), 2u);
}

TEST(Tracer, ClearResetsDroppedAndNextId)
{
    telemetry::Tracer t;
    t.setEnabled(true);
    t.setSpanCap(1);
    t.setCounterCap(1);
    for (int i = 0; i < 3; ++i) {
        telemetry::TraceSpan s;
        s.traceId = t.mint();
        s.name = "x";
        t.recordSpan(std::move(s));
        t.recordCounter(0, "u", i, 0.5);
    }
    ASSERT_GT(t.droppedSpans(), 0u);
    ASSERT_GT(t.droppedCounters(), 0u);
    ASSERT_GT(t.counterStride(), 1u);

    t.clear();
    EXPECT_TRUE(t.spans().empty());
    EXPECT_TRUE(t.counterSamples().empty());
    EXPECT_EQ(t.droppedSpans(), 0u);
    EXPECT_EQ(t.droppedCounters(), 0u);
    EXPECT_EQ(t.sampledOutSpans(), 0u);
    EXPECT_EQ(t.counterStride(), 1u);
    EXPECT_EQ(t.mint(), 1u); // id sequence restarts
}

TEST(Tracer, FlightRecorderMirrorsPastSpanCap)
{
    telemetry::Tracer t;
    telemetry::FlightRecorder fr(8);
    t.bindFlightRecorder(&fr);
    t.setEnabled(true);
    t.setSpanCap(2);
    for (int i = 0; i < 6; ++i) {
        telemetry::TraceSpan s;
        s.traceId = t.mint();
        s.name = "op";
        s.lane = "op";
        t.recordSpan(std::move(s));
    }
    // Retention capped, but the ring saw every span regardless.
    EXPECT_EQ(t.spans().size(), 2u);
    EXPECT_EQ(t.droppedSpans(), 4u);
    EXPECT_EQ(fr.totalRecorded(), 6u);
    EXPECT_EQ(fr.size(), 6u);
}

TEST(Tracer, TruncationMetadataInChromeExport)
{
    telemetry::Tracer t;
    t.setEnabled(true);
    // No drops: no truncation marker, so clean traces stay clean.
    telemetry::TraceSpan ok;
    ok.traceId = t.mint();
    ok.name = "x";
    t.recordSpan(std::move(ok));
    EXPECT_EQ(t.toChromeTraceJson().find("trace_truncation"),
              std::string::npos);

    t.setSpanCap(1);
    for (int i = 0; i < 3; ++i) {
        telemetry::TraceSpan s;
        s.traceId = t.mint();
        s.name = "x";
        t.recordSpan(std::move(s));
    }
    const std::string json = t.toChromeTraceJson();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"trace_truncation\""), std::string::npos);
    // The pre-cap span already fills the one retained slot, so all three
    // later spans dropped.
    EXPECT_NE(json.find("\"dropped_spans\":3"), std::string::npos);
    EXPECT_NE(json.find("\"dropped_counters\":0"), std::string::npos);
}

TEST(Tracer, ChromeTraceJsonIsWellFormed)
{
    telemetry::Tracer t;
    t.setEnabled(true);
    t.setNodeName(0, "host0");
    t.setNodeName(1, "node1");

    telemetry::TraceSpan s;
    s.traceId = t.mint();
    s.node = 1;
    s.lane = "nic.tx";
    s.name = "xfer \"quoted\"\\slash"; // must be escaped in the output
    s.start = 1000;
    s.end = 2500;
    s.args[0] = {"bytes", 128};
    t.recordSpan(std::move(s));
    t.recordCounter(1, "nic.tx.util", 2000, 0.75);

    const std::string json = t.toChromeTraceJson();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"host0\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
}

TEST(Tracer, ChromeExportStringifiesTypedArgs)
{
    // Span args are numbers until export; the Chrome trace shows them as
    // strings, after the trace id and only for the slots in use.
    telemetry::Tracer t;
    t.setEnabled(true);

    telemetry::TraceSpan ssd;
    ssd.traceId = 1;
    ssd.node = 2;
    ssd.lane = "ssd";
    ssd.name = "ssd.write";
    ssd.start = 1000;
    ssd.end = 2500;
    ssd.args[0] = {"bytes", 4096};
    t.recordSpan(ssd);

    telemetry::TraceSpan rebuild;
    rebuild.traceId = 2;
    rebuild.lane = "rebuild";
    rebuild.name = "rebuild.stripe";
    rebuild.start = 3000;
    rebuild.end = 7250;
    rebuild.args[0] = {"stripe", 7};
    rebuild.args[1] = {"ok", 1};
    t.recordSpan(rebuild);

    const std::string golden =
        "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
        "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":2,"
        "\"args\":{\"name\":\"rebuild\"}},\n"
        "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":2,\"tid\":1,"
        "\"args\":{\"name\":\"ssd\"}},\n"
        "{\"ph\":\"X\",\"name\":\"ssd.write\",\"cat\":\"draid\",\"pid\":2,"
        "\"tid\":1,\"ts\":1.000,\"dur\":1.500,"
        "\"args\":{\"trace\":1,\"bytes\":\"4096\"}},\n"
        "{\"ph\":\"X\",\"name\":\"rebuild.stripe\",\"cat\":\"draid\","
        "\"pid\":0,\"tid\":2,\"ts\":3.000,\"dur\":4.250,"
        "\"args\":{\"trace\":2,\"stripe\":\"7\",\"ok\":\"1\"}}\n"
        "]}";
    EXPECT_EQ(t.toChromeTraceJson(), golden);
}

// --- probe --------------------------------------------------------------

namespace {

/** Every Probe entry point once, plus two back-to-back transfers through
 *  a pipe whose tap is built from the probe (the second one waits). */
void
exerciseProbe(const telemetry::Probe &probe,
              telemetry::ContentionTracker::ResourceId res,
              telemetry::Histogram &latency)
{
    probe.span(7, "ssd", "ssd.read", 0, 10, {"bytes", 4096});
    probe.untaggedSpan(7, "fabric", "fabric.prop", 10, 20);
    probe.event(telemetry::EventType::kDriveFailed, 20, 1);
    probe.opComplete(7, "draid.read", sim::Ticks{0}, sim::Ticks{2000}, 4096,
                     &latency);

    sim::Simulator sim;
    sim::Pipe pipe(sim, 1e9);
    pipe.setLabel("nic.tx");
    telemetry::LaneTap tap(telemetry::LaneTap::Style::kPipe, probe, res);
    pipe.setObserver(&tap);
    pipe.transfer(4096, 8, [] {});
    pipe.transfer(4096, 9, [] {});
    sim.run();
}

/** A bundle with export tracing and contention attribution both on. */
telemetry::ContentionTracker::ResourceId
armAll(telemetry::Telemetry &tel)
{
    tel.tracer().setEnabled(true);
    tel.contention().setEnabled(true);
    return tel.contention().registerResource(
        0, telemetry::ContentionTracker::ResourceKind::NicTx);
}

} // namespace

TEST(Probe, AttachedProbeReachesEverySink)
{
    telemetry::Telemetry tel;
    const auto res = armAll(tel);
    const telemetry::Probe probe(tel, 0);
    telemetry::Histogram latency(telemetry::latencyBucketsUs());
    EXPECT_EQ(probe.mint(), 1u);
    EXPECT_EQ(probe.contention(), &tel.contention());
    exerciseProbe(probe, res, latency);

    // ssd, fabric, op, and one span per pipe transfer.
    EXPECT_EQ(tel.tracer().spans().size(), 5u);
    EXPECT_EQ(tel.flightRecorder().totalRecorded(), 5u);
    EXPECT_EQ(tel.journal().totalRecorded(), 1u);
    EXPECT_EQ(tel.contention().waitedOps(), 1u); // the queued transfer
    EXPECT_GT(tel.contention().totalWaitTicks(), 0);
    EXPECT_EQ(latency.count(), 1u);
    EXPECT_EQ(tel.tracer().spans()[2].arg("bytes"), 4096u);
}

TEST(Probe, DarkProbeMintsNoIdsAndRecordsNothing)
{
    telemetry::Telemetry tel;
    const auto res = armAll(tel);
    const telemetry::Probe dark;
    telemetry::Histogram latency(telemetry::latencyBucketsUs());
    EXPECT_FALSE(dark.attached());
    EXPECT_EQ(dark.mint(), 0u);
    EXPECT_EQ(dark.contention(), nullptr);
    exerciseProbe(dark, res, latency);

    EXPECT_TRUE(tel.tracer().spans().empty());
    EXPECT_EQ(tel.flightRecorder().totalRecorded(), 0u);
    EXPECT_EQ(tel.journal().totalRecorded(), 0u);
    EXPECT_EQ(tel.contention().waitedOps(), 0u);
    EXPECT_EQ(tel.contention().totalWaitTicks(), 0);
    EXPECT_EQ(tel.tracer().mint(), 1u); // no id was taken
    // The caller's own histogram still sees the op.
    EXPECT_EQ(latency.count(), 1u);
}

// --- end to end ---------------------------------------------------------

namespace {

core::DraidOptions
fourPlusOneOptions()
{
    core::DraidOptions o;
    o.chunkSize = 64 * 1024;
    return o;
}

} // namespace

TEST(TelemetryE2E, WriteSpansExactlyTheExpectedNodes)
{
    // 4+1 RAID-5: a small write touches one data chunk; dRAID offloads
    // the parity update so only the host, the data-chunk node and the
    // parity node should ever see this op.
    DraidRig rig(5, fourPlusOneOptions());
    rig.cluster->tracer().setEnabled(true);

    ec::Buffer data(16 * 1024);
    data.fillPattern(3);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, data));

    const auto &g = rig.host().geometry();
    const sim::NodeId host = rig.cluster->hostId();
    const sim::NodeId data_node =
        rig.cluster->targetNodeId(g.dataDevice(0, 0));
    const sim::NodeId parity_node =
        rig.cluster->targetNodeId(g.parityDevice(0));

    const auto &spans = rig.cluster->tracer().spans();
    ASSERT_FALSE(spans.empty());

    std::set<sim::NodeId> nodes;
    std::set<std::string> host_lanes, data_lanes, parity_lanes;
    for (const auto &s : spans) {
        // One user op -> every span carries its trace id.
        EXPECT_EQ(s.traceId, 1u) << s.name;
        EXPECT_LE(s.start, s.end) << s.name;
        nodes.insert(s.node);
        if (s.node == host)
            host_lanes.insert(s.lane);
        else if (s.node == data_node)
            data_lanes.insert(s.lane);
        else if (s.node == parity_node)
            parity_lanes.insert(s.lane);
    }

    EXPECT_EQ(nodes, (std::set<sim::NodeId>{host, data_node, parity_node}));

    // Host side: the op-level span plus its NIC transmit.
    EXPECT_TRUE(host_lanes.count("op"));
    EXPECT_TRUE(host_lanes.count("nic.tx"));
    // Data node: server CPU, SSD channel, and the forwarded parity delta.
    EXPECT_TRUE(data_lanes.count("cpu"));
    EXPECT_TRUE(data_lanes.count("ssd"));
    // Parity node: absorbs the delta and writes the new parity.
    EXPECT_TRUE(parity_lanes.count("ssd"));
}

TEST(TelemetryE2E, FlightRecorderRingHoldsTheTracerSpans)
{
    // The tracer mirrors each span into the ring as the same POD value,
    // so for one traced write the ring (large enough not to wrap) holds
    // exactly the retained spans, in order, typed args included.
    DraidRig rig(5, fourPlusOneOptions());
    rig.cluster->tracer().setEnabled(true);

    ec::Buffer data(16 * 1024);
    data.fillPattern(3);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, data));

    const auto &spans = rig.cluster->tracer().spans();
    const telemetry::FlightRecorder &ring =
        rig.cluster->telemetry().flightRecorder();
    ASSERT_FALSE(spans.empty());
    ASSERT_LT(spans.size(), ring.capacity());
    EXPECT_EQ(ring.snapshot(), spans);

    const auto root = std::find_if(
        spans.begin(), spans.end(),
        [](const telemetry::TraceSpan &s) {
            return std::strcmp(s.lane, "op") == 0;
        });
    ASSERT_NE(root, spans.end());
    EXPECT_STREQ(root->name, "draid.write");
    EXPECT_EQ(root->arg("bytes"), 16u * 1024);
}

TEST(TelemetryE2E, RegistryExposesPerNodeCountersAfterIo)
{
    DraidRig rig(5, fourPlusOneOptions());
    ec::Buffer data(16 * 1024);
    data.fillPattern(4);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, data));

    auto &reg = rig.cluster->telemetry().metrics();
    const auto &g = rig.host().geometry();
    const std::string data_name =
        rig.cluster->nodeName(rig.cluster->targetNodeId(g.dataDevice(0, 0)));

    // Per-node NIC / CPU / SSD probes reflect the traffic of the write.
    EXPECT_GT(reg.probeValue("host0.nic.tx_bytes"), 0.0);
    EXPECT_GT(reg.probeValue(data_name + ".nic.rx_bytes"), 0.0);
    EXPECT_GT(reg.probeValue(data_name + ".cpu.busy_ticks"), 0.0);
    EXPECT_GT(reg.probeValue(data_name + ".ssd.writes"), 0.0);

    // HostCounters are folded in as probes, not duplicated.
    EXPECT_DOUBLE_EQ(reg.probeValue("host0.draid.rmw_writes") +
                         reg.probeValue("host0.draid.rcw_writes") +
                         reg.probeValue("host0.draid.full_stripe_writes"),
                     1.0);

    // The op latency landed in the host histogram.
    auto &lat = reg.histogram("host0.draid.write_latency_us", {});
    EXPECT_EQ(lat.count(), 1u);
    EXPECT_GT(lat.mean(), 0.0);

    // And the whole snapshot serializes to valid JSON.
    std::ostringstream os;
    rig.cluster->telemetry().writeMetricsJson(os);
    EXPECT_TRUE(JsonChecker(os.str()).valid());
}

TEST(TelemetryE2E, UtilizationSamplerCollectsBusyFractions)
{
    DraidRig rig(5, fourPlusOneOptions());
    rig.cluster->startUtilizationSampling(sim::Ticks::us(10));

    ec::Buffer data(256 * 1024); // a full stripe keeps the NICs busy
    data.fillPattern(5);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, data));

    const auto &samples = rig.cluster->telemetry().sampler().samples();
    ASSERT_FALSE(samples.empty());
    bool saw_busy = false;
    for (const auto &s : samples) {
        EXPECT_GE(s.value, 0.0) << s.name;
        EXPECT_LE(s.value, 1.0 + 1e-9) << s.name;
        saw_busy |= s.value > 0.0;
    }
    EXPECT_TRUE(saw_busy);
}

// --- determinism guard --------------------------------------------------

TEST(TelemetryDeterminism, TracingDoesNotPerturbCompletionTicks)
{
    // Identical scenario twice: once dark, once with tracing + sampling.
    // Telemetry is observe-only, so completion ticks must be identical.
    auto run = [](bool telemetry_on) {
        DraidRig rig(6, fourPlusOneOptions());
        if (telemetry_on) {
            rig.cluster->tracer().setEnabled(true);
            rig.cluster->startUtilizationSampling(sim::Ticks::us(20));
        }

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
        return ticks;
    };

    EXPECT_EQ(run(false), run(true));
}
