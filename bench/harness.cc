#include "harness.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "telemetry/critical_path.h"
#include "telemetry/exemplar.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/interference.h"
#include "telemetry/sim_profiler.h"
#include "telemetry/timeline.h"

namespace draid::bench {

namespace {

/** Process-wide telemetry flags; set once by initTelemetry(). */
TelemetryOptions g_telemetry;

/**
 * Process-wide engine profiler: every SystemUnderTest's simulator feeds
 * the same instance, so the BENCH_simcore.json row covers the whole
 * invocation (all systems, all jobs). Attribution is observe-only; the
 * determinism gate proves figure output is identical with it on or off.
 */
telemetry::SimProfiler g_simProfiler;

/**
 * Telemetry self-accounting, accumulated as each SystemUnderTest is torn
 * down (recording-path host ns, retained heap bytes, drop counters) and
 * written as the telemetry_overhead block of the BENCH_simcore.json row.
 */
telemetry::SimProfiler::TelemetryOverhead g_telemetryOverhead;

/** atexit hook: write/render the engine-profile report once per process. */
void
saveSimcoreProfile()
{
    const telemetry::SimProfiler::Report report = g_simProfiler.report();
    if (!g_telemetry.profilePath.empty()) {
        std::ofstream os(g_telemetry.profilePath, std::ios::trunc);
        if (os)
            telemetry::SimProfiler::writeJson(os, report,
                                              g_telemetry.benchLabel,
                                              g_telemetry.seed,
                                              &g_telemetryOverhead);
        else
            std::fprintf(stderr,
                         "warning: could not write engine profile to %s\n",
                         g_telemetry.profilePath.c_str());
    }
    if (g_telemetry.profileAscii) {
        std::ostringstream ss;
        telemetry::SimProfiler::renderAscii(ss, report,
                                            g_telemetry.benchLabel);
        std::fputs(ss.str().c_str(), stderr);
        std::fflush(stderr);
    }
}

/** Figure label from the last printFigureHeader, for bench-JSON rows. */
std::string g_currentFigure;

/** First bench-JSON row truncates the file; later rows append. */
bool g_benchJsonStarted = false;

/** Same truncate-then-append pattern for the timeline file. */
bool g_timelineStarted = false;

/** And for the exemplar JSONL file (one reservoir dump per system). */
bool g_exemplarsStarted = false;

/** And for the interference JSONL file (one row per tenant mix). */
bool g_interferenceStarted = false;

/** Busy-fraction sampling period when telemetry is requested. */
constexpr sim::Ticks kUtilSampleInterval = sim::Ticks::us(100);

const char *
levelName(raid::RaidLevel level)
{
    return level == raid::RaidLevel::kRaid6 ? "raid6" : "raid5";
}

} // namespace

TelemetryOptions
parseTelemetryOptions(int argc, char **argv, const TelemetryOptions &defaults)
{
    TelemetryOptions opts = defaults;
    // Strict mode must catch typos in flags parsed before it appears on
    // the command line, so scan for it first.
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--strict-flags")
            opts.strictFlags = true;
    }
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--seed=", 0) == 0)
            opts.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
        else if (arg.rfind("--metrics-json=", 0) == 0)
            opts.metricsJsonPath = arg.substr(15);
        else if (arg.rfind("--trace=", 0) == 0)
            opts.tracePath = arg.substr(8);
        else if (arg.rfind("--trace-sample=", 0) == 0)
            opts.traceSamplePeriod =
                std::strtoull(arg.c_str() + 15, nullptr, 10);
        else if (arg.rfind("--exemplars=", 0) == 0)
            opts.exemplarsPath = arg.substr(12);
        else if (arg.rfind("--bench-json=", 0) == 0)
            opts.benchJsonPath = arg.substr(13);
        else if (arg.rfind("--timeline=", 0) == 0)
            opts.timelinePath = arg.substr(11);
        else if (arg == "--timeline-ascii")
            opts.timelineAscii = true;
        else if (arg == "--breakdown")
            opts.breakdown = true;
        else if (arg == "--no-flight-recorder")
            opts.flightRecorder = false;
        else if (arg.rfind("--profile=", 0) == 0)
            opts.profilePath = arg.substr(10);
        else if (arg == "--profile-ascii")
            opts.profileAscii = true;
        else if (arg == "--no-profile") {
            opts.profilePath.clear();
            opts.profileAscii = false;
        } else if (arg.rfind("--tenants=", 0) == 0)
            opts.tenants = static_cast<std::uint32_t>(
                std::strtoul(arg.c_str() + 10, nullptr, 10));
        else if (arg.rfind("--interference=", 0) == 0)
            opts.interferencePath = arg.substr(15);
        else if (arg == "--strict-flags")
            opts.strictFlags = true;
        else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr,
                         "%s: unknown flag %s (known: "
                         "--seed= --metrics-json= --trace= --trace-sample= "
                         "--exemplars= --bench-json= "
                         "--timeline= --timeline-ascii "
                         "--breakdown --no-flight-recorder "
                         "--profile= --profile-ascii --no-profile "
                         "--tenants= --interference= --strict-flags)\n",
                         opts.strictFlags ? "error" : "warning",
                         arg.c_str());
            if (opts.strictFlags)
                std::exit(2);
        }
    }
    return opts;
}

void
initTelemetry(int argc, char **argv)
{
    initTelemetry(argc, argv, TelemetryOptions{});
}

void
initTelemetry(int argc, char **argv, const TelemetryOptions &defaults)
{
    g_telemetry = parseTelemetryOptions(argc, argv, defaults);
    // A bench abort should always leave a readable post-mortem; when a
    // trace path was given, also drop a Chrome trace of the final ring.
    telemetry::FlightRecorder::installCrashHandlers();
    if (!g_telemetry.tracePath.empty())
        telemetry::FlightRecorder::setCrashTracePath(
            g_telemetry.tracePath + ".postmortem.json");
    // The profile row spans the whole invocation, so it is written when
    // the process winds down, after the last system under test retires.
    if (g_telemetry.profiling())
        std::atexit(saveSimcoreProfile);
}

std::uint64_t
benchSeed()
{
    return g_telemetry.seed;
}

const char *
name(SystemKind kind)
{
    switch (kind) {
      case SystemKind::kLinux: return "Linux";
      case SystemKind::kSpdk: return "SPDK";
      case SystemKind::kDraid: return "dRAID";
    }
    return "?";
}

SystemUnderTest::SystemUnderTest(SystemKind kind, const ArrayConfig &array)
    : kind_(kind), array_(array)
{
    // 2 GB per drive keeps memory bounded while giving enough stripes.
    cfg_.ssd.capacity = 2ull << 30;
    cluster_ = std::make_unique<cluster::Cluster>(
        cfg_, array.width + array.spares, array.targetNicGoodputs);

    const std::uint32_t chunk = array.chunkKb * 1024;
    switch (kind) {
      case SystemKind::kDraid: {
        core::DraidOptions o = array.draidOpts;
        o.level = array.level;
        o.chunkSize = chunk;
        draid_ = std::make_unique<core::DraidSystem>(*cluster_, o,
                                                     array.width);
        break;
      }
      case SystemKind::kSpdk:
        spdk_ = std::make_unique<baselines::SpdkRaid>(*cluster_,
                                                      array.level, chunk,
                                                      array.width);
        break;
      case SystemKind::kLinux:
        linux_ = std::make_unique<baselines::LinuxMdRaid>(*cluster_,
                                                          array.level,
                                                          chunk,
                                                          array.width);
        break;
    }

    // The analyzer and the timeline both consume the retained span
    // stream, so tracing must be on whenever either was requested.
    if (!g_telemetry.tracePath.empty() || g_telemetry.analyzer() ||
        g_telemetry.timeline())
        cluster_->tracer().setEnabled(true);
    // Head sampling gates retention only: ids are still minted for every
    // op and the decision is a pure hash of the id, so turning it on
    // cannot change simulated output.
    cluster_->tracer().setSamplePeriod(g_telemetry.traceSamplePeriod);
    // The exemplar reservoir rides the recording stream (it needs
    // active(), not enabled()): with the default-on flight recorder it
    // works even in spans-off runs, and keeps whole chains for tail ops
    // that sampling would drop from retention.
    if (g_telemetry.exemplarCapture())
        cluster_->telemetry().exemplars().setEnabled(true);
    // Self-time the recording paths only when a profile was asked for;
    // the clock reads stay inside src/telemetry/ and never influence
    // what is recorded.
    if (g_telemetry.profiling())
        cluster_->tracer().setSelfTiming(true);
    if (g_telemetry.any())
        cluster_->startUtilizationSampling(kUtilSampleInterval);
    // Observe-only: attaching the engine profiler cannot perturb event
    // order, so simulated output is identical with or without this.
    if (g_telemetry.profiling())
        g_simProfiler.attach(cluster_->sim());

    // Arm per-tenant contention attribution; resources were registered
    // unconditionally at node instrumentation, enabling only turns the
    // recording hooks on.
    if (g_telemetry.interference())
        cluster_->telemetry().contention().setEnabled(true);

    // A bench op timeout is always a bug: dump the ring right away.
    telemetry::FlightRecorder &fr =
        cluster_->telemetry().flightRecorder();
    fr.setDumpOnAbnormal(true);
    if (!g_telemetry.flightRecorder)
        fr.setEnabled(false);
}

SystemUnderTest::~SystemUnderTest()
{
    if (!cluster_)
        return;
    if (!g_telemetry.metricsJsonPath.empty() &&
        !cluster_->telemetry().saveMetricsJson(g_telemetry.metricsJsonPath))
        std::fprintf(stderr, "warning: could not write metrics JSON to %s\n",
                     g_telemetry.metricsJsonPath.c_str());
    if (!g_telemetry.tracePath.empty() &&
        !cluster_->telemetry().saveChromeTrace(g_telemetry.tracePath))
        std::fprintf(stderr, "warning: could not write trace to %s\n",
                     g_telemetry.tracePath.c_str());
    if (!g_telemetry.exemplarsPath.empty()) {
        std::ofstream os(g_telemetry.exemplarsPath,
                         g_exemplarsStarted ? std::ios::app
                                            : std::ios::trunc);
        if (os) {
            g_exemplarsStarted = true;
            telemetry::writeExemplarsJsonl(
                os, cluster_->telemetry().exemplars());
        } else {
            std::fprintf(stderr,
                         "warning: could not write exemplars to %s\n",
                         g_telemetry.exemplarsPath.c_str());
        }
    }

    // A silently truncated trace misleads; one line on stderr when any
    // retention cap dropped data (the Chrome export carries the same
    // numbers as trace_truncation metadata).
    const telemetry::Tracer &tr = cluster_->tracer();
    if (tr.droppedSpans() > 0 || tr.droppedCounters() > 0)
        std::fprintf(stderr,
                     "warning: telemetry dropped %llu span(s), %llu "
                     "counter sample(s) at retention caps\n",
                     static_cast<unsigned long long>(tr.droppedSpans()),
                     static_cast<unsigned long long>(tr.droppedCounters()));

    // Fold this system's telemetry self-accounting into the process-wide
    // overhead block (BENCH_simcore.json) and the profiler's label rows.
    const telemetry::Telemetry &tel = cluster_->telemetry();
    g_telemetryOverhead.hostNs += tr.spanCost().ns + tr.opCost().ns +
                                  tr.counterCost().ns;
    g_telemetryOverhead.retainedBytes += tel.retainedTelemetryBytes();
    g_telemetryOverhead.spansRetained += tr.spans().size();
    g_telemetryOverhead.spansDropped += tr.droppedSpans();
    g_telemetryOverhead.spansSampledOut += tr.sampledOutSpans();
    g_telemetryOverhead.countersRetained += tr.counterSamples().size();
    g_telemetryOverhead.countersDropped += tr.droppedCounters();
    g_telemetryOverhead.exemplars += tel.exemplars().size();
    g_telemetryOverhead.samplePeriod = tr.samplePeriod();
    if (g_telemetry.profiling()) {
        g_simProfiler.addExternalCost("telemetry.trace.span",
                                      tr.spanCost().calls,
                                      tr.spanCost().ns);
        g_simProfiler.addExternalCost("telemetry.trace.op",
                                      tr.opCost().calls, tr.opCost().ns);
        g_simProfiler.addExternalCost("telemetry.trace.counter",
                                      tr.counterCost().calls,
                                      tr.counterCost().ns);
    }
}

blockdev::BlockDevice &
SystemUnderTest::device()
{
    if (draid_)
        return draid_->host();
    if (spdk_)
        return *spdk_;
    return *linux_;
}

core::DraidHost *
SystemUnderTest::draidHost()
{
    return draid_ ? &draid_->host() : nullptr;
}

void
SystemUnderTest::markFailed(std::uint32_t dev)
{
    if (draid_) {
        draid_->host().markFailed(dev);
    } else if (spdk_) {
        spdk_->markFailed(dev);
    } else {
        linux_->markFailed(dev);
    }
}

void
SystemUnderTest::reconstructChunk(std::uint64_t stripe, std::uint32_t spare,
                                  std::function<void(bool)> done)
{
    if (draid_) {
        draid_->host().reconstructChunk(stripe, spare, std::move(done));
    } else if (spdk_) {
        spdk_->reconstructChunk(stripe, spare, std::move(done));
    } else {
        linux_->reconstructChunk(stripe, spare, std::move(done));
    }
}

namespace {

/** Human breakdown table, on stderr (figure stdout stays diffable). */
void
printBreakdownTable(SystemUnderTest &sut, const workload::FioConfig &fio,
                    const workload::FioResult &result,
                    const telemetry::CriticalPathReport &report)
{
    std::fprintf(stderr,
                 "\n## critical path: %s %s (%s c%uk w%u io%u rd%.2f "
                 "qd%d, %zu ops, %.1f MB/s)\n",
                 g_currentFigure.empty() ? "bench" : g_currentFigure.c_str(),
                 name(sut.kind()), levelName(sut.array().level),
                 sut.array().chunkKb, sut.array().width, fio.ioSize,
                 fio.readRatio, fio.ioDepth, report.ops.size(),
                 result.bandwidthMBps);
    std::fprintf(stderr, "## %-8s %10s %10s %10s %8s\n", "phase",
                 "mean(us)", "p50(us)", "p99(us)", "share");
    for (std::size_t p = 0; p < telemetry::kNumPhases; ++p) {
        const telemetry::PhaseSummary &ps = report.phases[p];
        if (ps.totalTicks == 0)
            continue;
        std::fprintf(stderr, "## %-8s %10.2f %10.2f %10.2f %7.1f%%\n",
                     telemetry::phaseName(static_cast<telemetry::Phase>(p)),
                     ps.meanUs, ps.p50Us, ps.p99Us, ps.share * 100.0);
    }
    if (report.hasVerdict()) {
        const telemetry::ResourceBusy &b = report.bottleneck();
        std::fprintf(stderr,
                     "## bottleneck: %s %s, busy %.1f%% of the run window\n",
                     sut.cluster().nodeName(b.node).c_str(),
                     b.lane.c_str(), b.busyFraction * 100.0);
    }
    std::fflush(stderr);
}

/** One JSONL row per measured job. */
void
appendBenchJsonRow(SystemUnderTest &sut, const workload::FioConfig &fio,
                   const workload::FioResult &result,
                   const telemetry::CriticalPathReport &report,
                   sim::Tick job_start, sim::Tick job_end)
{
    std::ofstream os(g_telemetry.benchJsonPath,
                     g_benchJsonStarted ? std::ios::app : std::ios::trunc);
    if (!os) {
        std::fprintf(stderr, "warning: could not write bench JSON to %s\n",
                     g_telemetry.benchJsonPath.c_str());
        return;
    }
    g_benchJsonStarted = true;

    char buf[512];
    os << "{\"figure\":\""
       << (g_currentFigure.empty() ? "bench" : g_currentFigure)
       << "\",\"system\":\"" << name(sut.kind()) << "\",\"seed\":"
       << g_telemetry.seed;
    std::snprintf(buf, sizeof(buf),
                  ",\"config\":{\"level\":\"%s\",\"chunk_kb\":%u,"
                  "\"width\":%u,\"spares\":%u,\"io_size\":%u,"
                  "\"read_ratio\":%.4f,\"io_depth\":%d,\"num_ops\":%llu,"
                  "\"sequential\":%s}",
                  levelName(sut.array().level), sut.array().chunkKb,
                  sut.array().width, sut.array().spares, fio.ioSize,
                  fio.readRatio, fio.ioDepth,
                  static_cast<unsigned long long>(fio.numOps),
                  fio.sequential ? "true" : "false");
    os << buf;
    std::snprintf(buf, sizeof(buf),
                  ",\"bandwidth_MBps\":%.3f,\"kiops\":%.3f,\"errors\":%llu"
                  ",\"lat_us\":{\"mean\":%.3f,\"p50\":%.3f,\"p99\":%.3f,"
                  "\"p999\":%.3f}",
                  result.bandwidthMBps, result.kiops,
                  static_cast<unsigned long long>(result.errors),
                  result.avgLatencyUs, result.p50LatencyUs,
                  result.p99LatencyUs, result.p999LatencyUs);
    os << buf;
    os << ",\"phases\":{";
    bool first = true;
    for (std::size_t p = 0; p < telemetry::kNumPhases; ++p) {
        const telemetry::PhaseSummary &ps = report.phases[p];
        if (!first)
            os << ",";
        first = false;
        std::snprintf(buf, sizeof(buf),
                      "\"%s\":{\"mean_us\":%.3f,\"p50_us\":%.3f,"
                      "\"p99_us\":%.3f,\"share\":%.4f}",
                      telemetry::phaseName(static_cast<telemetry::Phase>(p)),
                      ps.meanUs, ps.p50Us, ps.p99Us, ps.share);
        os << buf;
    }
    os << "}";
    if (report.hasVerdict()) {
        const telemetry::ResourceBusy &b = report.bottleneck();
        std::snprintf(buf, sizeof(buf),
                      ",\"bottleneck\":{\"node\":\"%s\",\"lane\":\"%s\","
                      "\"busy\":%.4f}",
                      sut.cluster().nodeName(b.node).c_str(),
                      b.lane.c_str(), b.busyFraction);
        os << buf;
    }
    // Slowest-op verdicts: the measured job's tail exemplars, each with
    // the dominant phase of its own span chain. Sampling cannot thin this
    // out — the reservoir is fed at op completion, before retention.
    const telemetry::ExemplarReservoir &res =
        sut.cluster().telemetry().exemplars();
    if (res.enabled()) {
        os << ",\"slowest_ops\":[";
        const auto slow = res.collect(job_start, job_end);
        const std::size_t n = std::min<std::size_t>(slow.size(), 5);
        for (std::size_t i = 0; i < n; ++i) {
            const telemetry::ExemplarReservoir::Exemplar &e = *slow[i];
            const telemetry::CriticalPathReport verdict =
                telemetry::analyzeCriticalPath(e.chain);
            const char *dominant =
                telemetry::phaseName(telemetry::Phase::kQueue);
            sim::Tick dominantTicks = -1;
            if (!verdict.ops.empty()) {
                for (std::size_t p = 0; p < telemetry::kNumPhases; ++p) {
                    const sim::Tick t = verdict.ops.front().phaseTicks[p];
                    if (t > dominantTicks) {
                        dominantTicks = t;
                        dominant = telemetry::phaseName(
                            static_cast<telemetry::Phase>(p));
                    }
                }
            }
            if (i)
                os << ",";
            std::snprintf(buf, sizeof(buf),
                          "{\"trace\":%llu,\"name\":\"%s\","
                          "\"latency_us\":%.3f,\"bytes\":%llu,"
                          "\"spans\":%zu,\"dominant\":\"%s\"}",
                          static_cast<unsigned long long>(e.traceId),
                          e.name,
                          static_cast<double>(e.latency()) /
                              sim::kMicrosecond,
                          static_cast<unsigned long long>(e.bytes),
                          e.chain.size(), dominant);
            os << buf;
        }
        os << "]";
    }
    os << "}\n";
}

/** "fig09 dRAID (raid5 c512k w8 io131072 rd1.00 qd32)" */
std::string
jobLabel(SystemUnderTest &sut, const workload::FioConfig &fio)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s %s (%s c%uk w%u io%u rd%.2f qd%d)",
                  g_currentFigure.empty() ? "bench"
                                          : g_currentFigure.c_str(),
                  name(sut.kind()), levelName(sut.array().level),
                  sut.array().chunkKb, sut.array().width, fio.ioSize,
                  fio.readRatio, fio.ioDepth);
    return buf;
}

/** One JSONL timeline row per measured job. */
void
appendTimelineRow(SystemUnderTest &sut, const workload::FioConfig &fio,
                  const telemetry::TimelineReport &report)
{
    std::ofstream os(g_telemetry.timelinePath,
                     g_timelineStarted ? std::ios::app : std::ios::trunc);
    if (!os) {
        std::fprintf(stderr, "warning: could not write timeline to %s\n",
                     g_telemetry.timelinePath.c_str());
        return;
    }
    g_timelineStarted = true;
    os << "{\"figure\":\""
       << (g_currentFigure.empty() ? "bench" : g_currentFigure)
       << "\",\"system\":\"" << name(sut.kind()) << "\",\"io_size\":"
       << fio.ioSize << ",\"read_ratio\":" << fio.readRatio
       << ",\"timeline\":";
    telemetry::writeTimelineJson(os, report);
    os << "}\n";
}

/** One interference JSONL row covering the measured tenant mix. */
void
appendInterferenceRow(SystemUnderTest &sut, const std::string &label)
{
    std::ofstream os(g_telemetry.interferencePath,
                     g_interferenceStarted ? std::ios::app
                                           : std::ios::trunc);
    if (!os) {
        std::fprintf(stderr,
                     "warning: could not write interference row to %s\n",
                     g_telemetry.interferencePath.c_str());
        return;
    }
    g_interferenceStarted = true;
    sut.cluster().telemetry().contention().writeJsonRow(os, label,
                                                        g_telemetry.seed);
    os << "\n";
}

} // namespace

/** Preload helper shared by runFio and runTenantFio. */
static void
preloadSpan(SystemUnderTest &sut, std::uint64_t working_set_bytes)
{
    auto &dev = sut.device();
    auto &sim = sut.sim();
    {
        // Sequential full-span preload with big writes (full stripes where
        // possible) so the measured region holds real data + parity. The
        // drain waits on the completion count, not on queue exhaustion:
        // recurring controller events (e.g. the §6.2 bandwidth-aware
        // refresh timer) keep the queue occupied forever.
        const std::uint64_t span = working_set_bytes == 0
                                       ? dev.sizeBytes()
                                       : std::min(working_set_bytes,
                                                  dev.sizeBytes());
        const std::uint32_t io = 4u << 20;
        std::uint64_t pos = 0;
        int outstanding = 0;
        int resume_below = -1;
        while (pos < span) {
            const std::uint32_t len = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(io, span - pos));
            ec::Buffer data(len);
            data.fill(static_cast<std::uint8_t>(pos >> 22));
            ++outstanding;
            dev.write(pos, std::move(data), [&](blockdev::IoStatus) {
                --outstanding;
                if (resume_below >= 0 && outstanding < resume_below) {
                    resume_below = -1;
                    sim.stop();
                }
            });
            pos += len;
            if (outstanding >= 16) {
                resume_below = 8;
                sim.run();
            }
        }
        while (outstanding > 0) {
            resume_below = 1;
            sim.run();
        }
    }
}

workload::FioResult
runFio(SystemUnderTest &sut, const workload::FioConfig &fio, bool preload)
{
    auto &dev = sut.device();
    auto &sim = sut.sim();

    if (preload)
        preloadSpan(sut, fio.workingSetBytes);

    // Only spans recorded by the measured job feed the analyzer and the
    // timeline; the preload's full-stripe writes would otherwise skew
    // the breakdown.
    const std::size_t span_base =
        sut.cluster().tracer().spans().size();
    const sim::Tick job_start = sim.now().raw();

    // Streaming aggregation: the timeline is fed one op at a time as it
    // completes (adaptive bin width), not rebuilt from retained spans —
    // so its windowed stats stay exact even when --trace-sample= retains
    // almost nothing, and its memory is O(bins), not O(ops).
    telemetry::WindowedAggregator streamed(sim::Ticks::zero());
    if (g_telemetry.timeline())
        sut.cluster().tracer().bindOpSink(&streamed);

    // The harness owns the seed (--seed=): a job must not carry its own,
    // so identical CLI invocations replay identical offset/ratio draws.
    workload::FioConfig seeded = fio;
    seeded.seed = benchSeed();
    workload::FioJob job(sim, dev, seeded);
    workload::FioResult result = job.run();

    if (g_telemetry.timeline())
        sut.cluster().tracer().bindOpSink(nullptr);

    // Preload-only calls (numOps <= 1) measure nothing worth reporting.
    if ((g_telemetry.analyzer() || g_telemetry.timeline()) &&
        fio.numOps > 1) {
        const auto &all = sut.cluster().tracer().spans();
        const std::vector<telemetry::TraceSpan> measured(
            all.begin() + static_cast<std::ptrdiff_t>(
                              std::min(span_base, all.size())),
            all.end());
        if (g_telemetry.analyzer()) {
            const telemetry::CriticalPathReport report =
                telemetry::analyzeCriticalPath(measured);
            if (g_telemetry.breakdown)
                printBreakdownTable(sut, fio, result, report);
            if (!g_telemetry.benchJsonPath.empty())
                appendBenchJsonRow(sut, fio, result, report, job_start,
                                   sim.now().raw() + 1);
        }
        if (g_telemetry.timeline()) {
            const telemetry::Telemetry &tel = sut.cluster().telemetry();
            const telemetry::TimelineReport report =
                telemetry::buildTimeline(
                    streamed,
                    tel.journal().snapshotRange(job_start, sim.now().raw() + 1),
                    tel.sampler().samples(), sut.cluster().hostId());
            if (g_telemetry.timelineAscii) {
                std::ostringstream ss;
                ss << "\n";
                telemetry::renderTimelineAscii(ss, report,
                                               jobLabel(sut, fio));
                std::fputs(ss.str().c_str(), stderr);
                std::fflush(stderr);
            }
            if (!g_telemetry.timelinePath.empty())
                appendTimelineRow(sut, fio, report);
        }
    }
    return result;
}

std::vector<workload::FioResult>
runTenantFio(SystemUnderTest &sut, const std::vector<TenantJob> &jobs,
             bool preload)
{
    auto &dev = sut.device();
    auto &sim = sut.sim();
    telemetry::ContentionTracker &ct =
        sut.cluster().telemetry().contention();
    ct.setEnabled(true);

    if (preload) {
        // One preload covering the union of working sets.
        std::uint64_t span = 0;
        bool whole = false;
        for (const TenantJob &j : jobs) {
            if (j.fio.workingSetBytes == 0)
                whole = true;
            span = std::max(span, j.fio.workingSetBytes);
        }
        preloadSpan(sut, whole ? 0 : span);
    }

    // Resolve tenant ids; reusing an existing registration keeps repeated
    // mixes on one system from exhausting the bounded registry.
    std::vector<telemetry::TenantId> ids;
    ids.reserve(jobs.size());
    for (const TenantJob &j : jobs) {
        telemetry::TenantId id = telemetry::ContentionTracker::kUntracked;
        for (std::size_t t = 1; t < ct.tenantCount(); ++t) {
            if (ct.tenantName(static_cast<telemetry::TenantId>(t)) ==
                j.name) {
                id = static_cast<telemetry::TenantId>(t);
                break;
            }
        }
        if (id == telemetry::ContentionTracker::kUntracked)
            id = ct.registerTenant(j.name);
        if (j.sloTargetP99Us > 0)
            ct.setSloTargetTicks(
                id, static_cast<sim::Tick>(j.sloTargetP99Us *
                                           sim::kMicrosecond));
        ids.push_back(id);
    }

    // The exported row must cover exactly the measured mix, so the
    // preload's occupancy, waits and completions are dropped here.
    ct.resetAccounting();

    std::vector<std::unique_ptr<workload::FioJob>> owned;
    std::vector<workload::FioJob *> raw;
    owned.reserve(jobs.size());
    raw.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        workload::FioConfig seeded = jobs[i].fio;
        // Distinct deterministic stream per tenant, all derived from the
        // invocation's --seed.
        seeded.seed = benchSeed() + i;
        seeded.tenant = ids[i];
        seeded.contention = &ct;
        owned.push_back(
            std::make_unique<workload::FioJob>(sim, dev, seeded));
        raw.push_back(owned.back().get());
    }
    std::vector<workload::FioResult> results =
        workload::runConcurrent(sim, raw);

    if (!g_telemetry.interferencePath.empty()) {
        std::string label =
            g_currentFigure.empty() ? "bench" : g_currentFigure;
        label += " ";
        label += name(sut.kind());
        appendInterferenceRow(sut, label);
    }
    return results;
}

workload::FioConfig
preloadConfig(std::uint64_t working_set_bytes)
{
    workload::FioConfig fio;
    fio.ioSize = 128 * 1024;
    fio.readRatio = 1.0;
    fio.ioDepth = 1;
    fio.numOps = 1;
    fio.workingSetBytes = working_set_bytes;
    return fio;
}

void
printFigureHeader(const std::string &figure, const std::string &title,
                  const std::vector<std::string> &columns)
{
    g_currentFigure = figure;
    std::printf("\n# %s: %s\n", figure.c_str(), title.c_str());
    std::printf("#");
    for (const auto &c : columns)
        std::printf(" %12s", c.c_str());
    std::printf("\n");
}

void
printRow(const std::vector<double> &values)
{
    std::printf(" ");
    for (double v : values)
        std::printf(" %12.1f", v);
    std::printf("\n");
    std::fflush(stdout);
}

void
printNote(const std::string &note)
{
    std::printf("# %s\n", note.c_str());
}

} // namespace draid::bench
