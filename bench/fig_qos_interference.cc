// QoS interference scenario: a latency-sensitive victim tenant (small
// random reads) sharing one dRAID array with a bandwidth aggressor
// (large saturating writes). Phase A measures the victim alone for an
// isolated-baseline p99; phase B reruns the victim against the
// aggressor on a fresh system with the victim's SLO set to 1.2x the
// isolated p99, so the exported interference row carries real burn
// flags and the blame matrix names the aggressor.
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "harness.h"
#include "telemetry/interference.h"

namespace {

constexpr std::uint64_t kMb = 1ull << 20;

draid::workload::FioConfig
victimConfig()
{
    draid::workload::FioConfig fio;
    fio.ioSize = 4 * 1024;
    fio.readRatio = 1.0;
    fio.ioDepth = 4;
    fio.numOps = 2000;
    fio.workingSetBytes = 256 * kMb;
    return fio;
}

draid::workload::FioConfig
aggressorConfig()
{
    draid::workload::FioConfig fio;
    fio.ioSize = 1024 * 1024;
    fio.readRatio = 0.0;
    fio.ioDepth = 32;
    fio.numOps = 600;
    fio.workingSetBytes = 256 * kMb;
    return fio;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace draid;
    using draid::bench::TenantJob;

    bench::TelemetryOptions defaults;
    defaults.interferencePath = "BENCH_interference.json";
    defaults.benchLabel = "fig_qos_interference";
    bench::initTelemetry(argc, argv, defaults);

    bench::ArrayConfig array;

    bench::printFigureHeader(
        "fig_qos_interference",
        "victim 4K reads vs aggressor 1M writes (dRAID, RAID-5 8-wide)",
        {"phase", "vic_MBps", "vic_p99us", "agg_MBps", "burn_wins"});

    // Phase A: the victim alone. The single-tenant run still goes through
    // runTenantFio so the baseline row lands in the same JSONL artifact.
    double isolatedP99Us = 0;
    {
        bench::SystemUnderTest sut(bench::SystemKind::kDraid, array);
        const auto results =
            bench::runTenantFio(sut, {TenantJob{"victim", victimConfig()}});
        isolatedP99Us = results[0].p99LatencyUs;
        bench::printRow({0, results[0].bandwidthMBps,
                         results[0].p99LatencyUs, 0, 0});
    }

    // Phase B: fresh system, victim + aggressor, SLO = 1.2x isolated p99.
    {
        bench::SystemUnderTest sut(bench::SystemKind::kDraid, array);
        TenantJob victim{"victim", victimConfig(), 1.2 * isolatedP99Us};
        TenantJob aggressor{"aggressor", aggressorConfig()};
        const auto results =
            bench::runTenantFio(sut, {victim, aggressor});

        const telemetry::ContentionTracker &ct =
            sut.cluster().telemetry().contention();

        // The victim registered first, so it holds the first named id.
        telemetry::TenantId victimId = 0;
        for (std::size_t t = 1; t < ct.tenantCount(); ++t) {
            if (ct.tenantName(static_cast<telemetry::TenantId>(t)) ==
                "victim") {
                victimId = static_cast<telemetry::TenantId>(t);
                break;
            }
        }
        const double burn =
            static_cast<double>(ct.burnWindows(victimId));
        bench::printRow({1, results[0].bandwidthMBps,
                         results[0].p99LatencyUs,
                         results[1].bandwidthMBps, burn});

        bench::printNote("isolated victim p99(us): " +
                         std::to_string(isolatedP99Us));

        // Victim x aggressor heatmap on stdout: deterministic, so the
        // double-run byte-compare still holds.
        std::ostringstream heat;
        ct.renderAsciiHeatmap(heat);
        std::fputs(heat.str().c_str(), stdout);

        // The exactness contract is the whole point of the instrument;
        // fail the binary loudly if it ever drifts.
        if (ct.totalBlameTicks() != ct.totalWaitTicks()) {
            std::fprintf(stderr,
                         "FATAL: blame %lld ns != wait %lld ns\n",
                         static_cast<long long>(ct.totalBlameTicks()),
                         static_cast<long long>(ct.totalWaitTicks()));
            return 1;
        }
        bench::printNote("blame == wait: " +
                         std::to_string(ct.totalBlameTicks()) + " ns over " +
                         std::to_string(ct.waitedOps()) + " waiting ops");
    }
    return 0;
}
