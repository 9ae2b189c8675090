#include "campaign/campaign.h"

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "campaign/fault_injector.h"
#include "cluster/cluster.h"
#include "core/draid_host.h"
#include "core/failure.h"
#include "core/reconstruct.h"
#include "telemetry/timeline.h"
#include "workload/fio.h"

namespace draid::campaign {

namespace {

/** splitmix64-style seed derivation: class x trial -> independent Rng. */
std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t cls, std::uint64_t trial)
{
    std::uint64_t x = seed + 0x9e3779b97f4a7c15ull * (cls + 1) +
                      0xd1b54a32d192ed03ull * (trial + 1);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

/** Per-stripe preload pattern seed (regenerated at integrity check). */
std::uint64_t
patternSeed(std::uint64_t trial_seed, std::uint64_t stripe)
{
    return trial_seed ^ (0xa0761d6478bd642full * (stripe + 1));
}

std::size_t
classIndex(ScenarioClass cls)
{
    return static_cast<std::size_t>(cls);
}

} // namespace

TrialResult
runTrial(const CampaignConfig &cfg, ScenarioClass cls, std::uint32_t trial,
         std::ostream *ascii_os)
{
    const std::uint64_t tseed =
        deriveSeed(cfg.seed, classIndex(cls), trial);
    const std::uint32_t chunkBytes = cfg.chunkKb * 1024;

    // --- testbed: small array, short op deadlines, one spare pool ---
    cluster::TestbedConfig tb;
    tb.ssd.capacity = cfg.stripes * chunkBytes;
    tb.opTimeout = sim::Ticks{cfg.opTimeout};
    cluster::Cluster cluster(tb, cfg.width + cfg.spares);
    sim::Simulator &sim = cluster.sim();

    core::DraidOptions opts;
    opts.level = raid::RaidLevel::kRaid5;
    opts.chunkSize = chunkBytes;
    opts.seed = tseed ^ 0x5eedull;
    core::DraidSystem sys(cluster, opts, cfg.width);
    core::DraidHost &host = sys.host();
    const std::uint64_t stripeBytes = host.geometry().stripeDataSize();

    core::FailureTracker tracker(cfg.width, /*redundancy=*/1);
    tracker.attach(cluster.probe(cluster.hostId()));

    // --- preload the deterministic pattern, one full stripe at a time ---
    auto writeNext =
        std::make_shared<std::function<void(std::uint64_t)>>();
    *writeNext = [&cfg, &host, tseed, stripeBytes,
                  writeNext](std::uint64_t s) {
        if (s == cfg.stripes)
            return;
        ec::Buffer buf(static_cast<std::size_t>(stripeBytes));
        buf.fillPattern(patternSeed(tseed, s));
        host.write(s * stripeBytes, buf,
                   [writeNext, s](blockdev::IoStatus) {
                       (*writeNext)(s + 1);
                   });
    };
    (*writeNext)(0);
    sim.run();
    *writeNext = nullptr; // break the self-capture cycle

    // Windowed SLO series over the measured part of the trial only (the
    // sink is fed at op completion; preload stays out of the windows).
    telemetry::WindowedAggregator agg;
    cluster.tracer().bind(&agg);
    const sim::Tick measuredStart = sim.now().raw();

    // --- generate + arm the fault schedule ---
    sim::Rng schedRng(tseed);
    ScheduleShape shape = cfg.shape;
    shape.width = cfg.width;
    shape.stripes = cfg.stripes;
    const std::vector<FaultAction> schedule =
        generateSchedule(cls, shape, schedRng);

    struct RebuildState
    {
        std::uint32_t sparesLeft = 0;
        std::uint32_t nextSpare = 0;
        std::unique_ptr<core::RebuildJob> job;
        sim::Ticks start = sim::Ticks::zero();
        sim::Ticks end = sim::Ticks::zero();
        bool ran = false;
    };
    RebuildState rb;
    rb.sparesLeft = cfg.spares;
    rb.nextSpare = cfg.width;

    FaultInjector injector(cluster, host);
    injector.onDriveFailure([&](const FaultAction &a) {
        const sim::Ticks now = sim.now();
        if (tracker.activeFailures() > 0) {
            // Concurrent with an unfinished rebuild: beyond the RAID-5
            // redundancy. The tracker journals DriveFailed + DataLoss;
            // taking the target off the fabric makes the remaining
            // rebuild stripes fail for real (op deadlines fire).
            if (!tracker.recordFailure(a.device, now))
                return;
            cluster.failTarget(host.targetOf(a.device));
            return;
        }
        host.markFailed(a.device);
        tracker.recordFailure(a.device, now, /*already_journaled=*/true);
        if (rb.sparesLeft == 0)
            return; // no spare pool left: stay degraded
        const std::uint32_t spare = rb.nextSpare++;
        --rb.sparesLeft;
        rb.ran = true;
        rb.start = now;
        rb.job = std::make_unique<core::RebuildJob>(
            sim,
            [&host, spare](std::uint64_t stripe,
                           std::function<void(bool)> done) {
                host.reconstructChunk(stripe, spare, std::move(done));
            },
            cfg.stripes, chunkBytes, /*window=*/8);
        rb.job->attach(cluster.probe(cluster.hostId()));
        rb.job->onStripeFailed([&tracker, &sim](std::uint64_t stripe) {
            tracker.recordStripeLoss(stripe, sim.now());
        });
        rb.job->start([&, device = a.device, spare](bool) {
            rb.end = sim.now();
            tracker.recordRebuilt(device, rb.end);
            host.replaceDevice(device, spare);
            // A failure that landed mid-rebuild leaves the array
            // degraded on that member once the swap completes.
            const auto still = tracker.failedDevices();
            if (!still.empty() && !host.isDegraded())
                host.markFailed(still.front());
        });
    });
    injector.arm(schedule);

    // --- lse-rebuild: a repair scrub sweeps a prefix of the stripes,
    // discovering (and fixing) some of the planted errors first ---
    auto scrubNext =
        std::make_shared<std::function<void(std::uint64_t)>>();
    if (cls == ScenarioClass::kLseRebuild) {
        const auto limit = static_cast<std::uint64_t>(
            static_cast<double>(cfg.stripes) * cfg.scrubFraction);
        *scrubNext = [&host, limit, scrubNext](std::uint64_t s) {
            if (s >= limit)
                return;
            host.scrubStripe(s, /*repair=*/true,
                             [scrubNext, s](core::DraidHost::ScrubResult) {
                                 (*scrubNext)(s + 1);
                             });
        };
        sim.schedule(sim::Ticks::us(100), "campaign.scrub",
                     [scrubNext]() { (*scrubNext)(0); });
    }

    // --- foreground workload (read-only) while the faults play out ---
    workload::FioConfig fio;
    fio.ioSize = cfg.fioIoKb * 1024;
    fio.readRatio = 1.0;
    fio.ioDepth = cfg.fioDepth;
    fio.numOps = cfg.fioOps;
    fio.workingSetBytes = cfg.stripes * stripeBytes;
    fio.seed = tseed ^ 0xf10ull;
    workload::FioJob job(sim, host, fio);
    const workload::FioResult fioResult = job.run();

    sim.run(); // drain: rebuild tail, flap cycles, pending deadlines
    if (*scrubNext)
        *scrubNext = nullptr;

    // --- bit-for-bit integrity check of the whole device ---
    bool pass = true;
    auto readNext =
        std::make_shared<std::function<void(std::uint64_t)>>();
    *readNext = [&cfg, &host, &pass, tseed, stripeBytes,
                 readNext](std::uint64_t s) {
        if (s == cfg.stripes)
            return;
        host.read(s * stripeBytes, static_cast<std::uint32_t>(stripeBytes),
                  [&pass, tseed, stripeBytes, readNext,
                   s](blockdev::IoStatus st, ec::Buffer data) {
                      ec::Buffer expect(
                          static_cast<std::size_t>(stripeBytes));
                      expect.fillPattern(patternSeed(tseed, s));
                      if (st != blockdev::IoStatus::kOk ||
                          !data.contentEquals(expect))
                          pass = false;
                      (*readNext)(s + 1);
                  });
    };
    (*readNext)(0);
    sim.run();
    *readNext = nullptr;

    // --- verdict + per-trial telemetry ---
    TrialResult r;
    r.dataLoss = tracker.dataLoss();
    r.integrityPass = pass;
    r.unexplainedIntegrityFailure = !pass && !tracker.dataLoss();
    r.lostStripes = tracker.lostStripes();
    r.fioErrors = fioResult.errors;
    r.rebuildTicks = rb.ran ? (rb.end - rb.start).raw() : 0;
    for (sim::Tick w : tracker.exposureWindows())
        r.exposureTicks += w;
    r.exposureTicks += tracker.openExposure(sim.now()).raw();
    r.simEndTicks = sim.now().raw();

    const auto events =
        cluster.telemetry().journal().snapshotRange(measuredStart,
                                                    sim.now().raw() + 1);
    const telemetry::TimelineReport timeline =
        telemetry::buildTimeline(agg, events, {}, cluster.hostId());
    cluster.tracer().unbind(&agg);
    for (const telemetry::TimelineWindow &w : timeline.windows) {
        if (w.ops > 0 && w.p99Us > cfg.sloP99Us)
            r.degradedSloTicks += timeline.windowTicks;
    }
    r.degradedSloTicks +=
        static_cast<sim::Tick>(timeline.health.stalledWindows.size()) *
        timeline.windowTicks;

    if (ascii_os != nullptr) {
        renderTimelineAscii(*ascii_os, timeline,
                            std::string(scenarioName(cls)) + " trial " +
                                std::to_string(trial) +
                                (r.dataLoss ? " [DATA LOSS]" : ""));
    }
    return r;
}

CampaignReport
runCampaign(const CampaignConfig &cfg, std::ostream *ascii_os)
{
    CampaignReport report;
    report.config = cfg;
    for (ScenarioClass cls : cfg.classes) {
        ClassReport cr;
        cr.cls = cls;
        cr.trials = cfg.trials;
        double sloMsSum = 0.0;
        double exposureMsSum = 0.0;
        double rebuildMsSum = 0.0;
        std::uint32_t rebuilds = 0;
        for (std::uint32_t t = 0; t < cfg.trials; ++t) {
            const TrialResult r = runTrial(
                cfg, cls, t, cfg.timelineAscii ? ascii_os : nullptr);
            if (r.dataLoss)
                ++cr.losses;
            if (!r.integrityPass)
                ++cr.integrityFailures;
            if (r.unexplainedIntegrityFailure)
                ++cr.unexplainedIntegrityFailures;
            cr.lostStripes += r.lostStripes;
            cr.fioErrors += r.fioErrors;
            sloMsSum += static_cast<double>(r.degradedSloTicks) /
                        sim::kMillisecond;
            exposureMsSum += static_cast<double>(r.exposureTicks) /
                             sim::kMillisecond;
            if (r.rebuildTicks > 0) {
                rebuildMsSum += static_cast<double>(r.rebuildTicks) /
                                sim::kMillisecond;
                ++rebuilds;
            }
        }
        const double n = static_cast<double>(cfg.trials);
        cr.lossP = cfg.trials > 0
                       ? static_cast<double>(cr.losses) / n
                       : 0.0;
        cr.ci = wilsonInterval(cr.losses, cfg.trials);
        cr.degradedSloMsMean = cfg.trials > 0 ? sloMsSum / n : 0.0;
        cr.exposureMsMean = cfg.trials > 0 ? exposureMsSum / n : 0.0;
        cr.rebuildMsMean =
            rebuilds > 0 ? rebuildMsSum / static_cast<double>(rebuilds)
                         : 0.0;
        report.classes.push_back(cr);
    }

    // --- MTTDL cross-check against the correlated-dual class. MTTR is
    // the *clean* rebuild time (benign class when available): a second
    // failure only counts as inside the exposure window the clean
    // rebuild defines, so the closed form must use the uninterfered
    // duration, not the timeout-prolonged rebuilds of the loss trials.
    double cleanRebuildMs = 0.0;
    for (const ClassReport &cr : report.classes) {
        if (cr.cls == ScenarioClass::kBenign && cr.rebuildMsMean > 0.0)
            cleanRebuildMs = cr.rebuildMsMean;
    }
    for (const ClassReport &cr : report.classes) {
        if (cr.cls != ScenarioClass::kCorrelatedDual ||
            cr.rebuildMsMean <= 0.0)
            continue;
        MttdlCrossCheck &m = report.mttdl;
        const double gapTicks =
            static_cast<double>(cfg.shape.gapMeanTicks);
        const double rebuildTicks =
            (cleanRebuildMs > 0.0 ? cleanRebuildMs : cr.rebuildMsMean) *
            sim::kMillisecond;
        m.valid = true;
        m.mttfHours = cfg.mttfHours;
        m.gapMeanMs = gapTicks / sim::kMillisecond;
        m.rebuildMsMean = rebuildTicks / sim::kMillisecond;
        m.accelHoursPerTick =
            accelHoursPerTick(cfg.mttfHours, cfg.width, gapTicks);
        m.mttrHours = rebuildTicks * m.accelHoursPerTick;
        m.mttdlHours = mttdlHours(cfg.mttfHours, m.mttrHours, cfg.width);
        m.modelLossP = modelLossProbability(rebuildTicks, gapTicks);
        m.measuredLossP = cr.lossP;
    }
    return report;
}

void
writeCampaignJson(std::ostream &os, const CampaignReport &report)
{
    char buf[1024];
    for (const ClassReport &cr : report.classes) {
        std::snprintf(
            buf, sizeof(buf),
            "{\"figure\":\"campaign\",\"seed\":%llu,\"class\":\"%s\","
            "\"trials\":%u,\"losses\":%u,\"loss_p\":%.6g,"
            "\"wilson_lo\":%.6g,\"wilson_hi\":%.6g,"
            "\"lost_stripes\":%llu,\"integrity_failures\":%u,"
            "\"unexplained_integrity_failures\":%u,"
            "\"degraded_slo_ms_mean\":%.6g,"
            "\"degraded_slo_min_mean\":%.6g,"
            "\"exposure_ms_mean\":%.6g,\"rebuild_ms_mean\":%.6g,"
            "\"fio_errors\":%llu}",
            static_cast<unsigned long long>(report.config.seed),
            scenarioName(cr.cls), cr.trials, cr.losses, cr.lossP,
            cr.ci.lo, cr.ci.hi,
            static_cast<unsigned long long>(cr.lostStripes),
            cr.integrityFailures, cr.unexplainedIntegrityFailures,
            cr.degradedSloMsMean, cr.degradedSloMsMean / 60000.0,
            cr.exposureMsMean, cr.rebuildMsMean,
            static_cast<unsigned long long>(cr.fioErrors));
        os << buf << "\n";
    }
    if (report.mttdl.valid) {
        const MttdlCrossCheck &m = report.mttdl;
        std::snprintf(
            buf, sizeof(buf),
            "{\"figure\":\"campaign\",\"seed\":%llu,"
            "\"class\":\"mttdl-model\",\"mttf_hours\":%.6g,"
            "\"gap_mean_ms\":%.6g,\"rebuild_ms_mean\":%.6g,"
            "\"accel_hours_per_tick\":%.6g,\"mttr_hours\":%.6g,"
            "\"mttdl_hours\":%.6g,\"model_loss_p\":%.6g,"
            "\"measured_loss_p\":%.6g}",
            static_cast<unsigned long long>(report.config.seed),
            m.mttfHours, m.gapMeanMs, m.rebuildMsMean,
            m.accelHoursPerTick, m.mttrHours, m.mttdlHours, m.modelLossP,
            m.measuredLossP);
        os << buf << "\n";
    }
}

} // namespace draid::campaign
