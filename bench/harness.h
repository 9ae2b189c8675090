/**
 * @file
 * Shared bench harness: builds each system under test on a fresh simulated
 * testbed and runs FIO-style jobs against it, printing rows in the shape
 * of the paper's figures (bandwidth MB/s + average latency us).
 */

#ifndef DRAID_BENCH_HARNESS_H
#define DRAID_BENCH_HARNESS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/linux_md.h"
#include "baselines/spdk_raid.h"
#include "cluster/cluster.h"
#include "core/draid_host.h"
#include "workload/fio.h"

namespace draid::telemetry {
class CriticalPathFold;
class WindowedAggregator;
} // namespace draid::telemetry

namespace draid::bench {

/** The three systems the paper compares (§9.1). */
enum class SystemKind
{
    kLinux,
    kSpdk,
    kDraid,
};

const char *name(SystemKind kind);

/** Shape of the array under test. */
struct ArrayConfig
{
    raid::RaidLevel level = raid::RaidLevel::kRaid5;
    std::uint32_t chunkKb = 512;
    std::uint32_t width = 8;       ///< member devices
    std::uint32_t spares = 0;      ///< extra targets beyond the members
    core::DraidOptions draidOpts;  ///< dRAID-only toggles
    std::vector<double> targetNicGoodputs; ///< heterogeneity (Fig. 17b)
};

/**
 * Flags shared by every bench binary:
 *   --seed=<n>             RNG seed for every workload the binary runs
 *                          (FIO offset/ratio draws and the YCSB key
 *                          streams all derive from it). Defaults to 1 so
 *                          the same CLI invocation is reproducible by
 *                          construction; the harness owns the seed and
 *                          workloads never pick their own.
 *   --metrics-json=<path>  save a metrics + utilization snapshot
 *   --trace=<path>         enable per-op tracing, save a Chrome trace
 *   --trace-sample=<n>     deterministic head sampling of 1-in-n trace
 *                          ids, chosen by a seeded hash of the id (never
 *                          the engine RNG), so the sampled set is
 *                          byte-identical across runs and sampling cannot
 *                          perturb the simulation. 0/1 = keep all. The
 *                          Chrome trace and the critical-path breakdown
 *                          (--breakdown, the phases and verdict of
 *                          --bench-json= rows) cover the sampled ids only;
 *                          the windowed timeline and the exemplars see
 *                          every op.
 *   --exemplars=<path>     capture the K slowest ops per 1 ms window —
 *                          with their full span chains — in a bounded
 *                          reservoir and save them as JSONL (one op per
 *                          line with a per-phase breakdown). Also feeds
 *                          the slowest_ops section of --bench-json rows.
 *   --breakdown            print a critical-path latency breakdown table
 *                          (phase | mean | p50 | p99 | share) plus the
 *                          bottleneck verdict after every measured job.
 *                          Goes to stderr so figure stdout stays diffable.
 *   --bench-json=<path>    append one JSON row per measured job (system,
 *                          config, MB/s, mean/p50/p99/p99.9 us latency,
 *                          per-phase breakdown, bottleneck verdict)
 *   --timeline=<path>      append one JSON timeline per measured job:
 *                          windowed goodput/IOPS/p50/p99 series, cluster
 *                          events from the journal, per-node utilization,
 *                          and health flags
 *   --timeline-ascii       render each measured job's timeline as an
 *                          ASCII sparkline with event markers overlaid
 *                          (stderr, so figure stdout stays diffable)
 *   --no-flight-recorder   disable the always-on flight recorder (used by
 *                          the determinism check: enabled vs dark runs
 *                          must produce byte-identical figure output)
 *   --profile=<path>       attach the engine profiler to every simulator
 *                          this process builds and write one JSON row of
 *                          host wall-clock attribution (events/sec,
 *                          heap stats, per-label costs) at process exit.
 *                          fig09/fig17 default to BENCH_simcore.json.
 *   --no-profile           drop the binary's default profile path; used
 *                          by the CI proof that profiling on vs off
 *                          leaves simulated output byte-identical
 *   --interference=<path>  arm per-tenant contention attribution and
 *                          append one JSON row per measured multi-tenant
 *                          job (runTenantFio() names the tenants and arms
 *                          the tracker itself): tenant table, victim x aggressor x
 *                          resource blame matrix (exact ns, sums to the
 *                          measured queue-wait), windowed per-tenant SLO
 *                          series with burn-rate flags
 *   --strict-flags         exit non-zero on any unrecognized --flag
 *                          instead of warning (CI sets this everywhere so
 *                          a typo cannot silently run the wrong config)
 * Unrecognized --flags draw a warning on stderr (fatal under
 * --strict-flags).
 */
struct TelemetryOptions
{
    /** Base RNG seed for every workload this process drives. */
    std::uint64_t seed = 1;
    std::string metricsJsonPath;
    std::string tracePath;
    std::string benchJsonPath;
    std::string timelinePath;
    std::string profilePath;
    std::string exemplarsPath;
    /** --trace-sample=: retain 1-in-N trace ids (0/1 keeps all). */
    std::uint64_t traceSamplePeriod = 1;
    /** Tag written into the BENCH_simcore.json row ("fig09", ...). */
    std::string benchLabel = "bench";
    bool timelineAscii = false;
    bool breakdown = false;
    bool flightRecorder = true;
    /** --interference=: JSONL path for the per-job attribution rows. */
    std::string interferencePath;
    /** --strict-flags: unknown flags are fatal. */
    bool strictFlags = false;

    bool any() const
    {
        return !metricsJsonPath.empty() || !tracePath.empty() ||
               analyzer() || timeline();
    }

    /** Whether a critical-path fold reports each measured job. */
    bool analyzer() const
    {
        return breakdown || !benchJsonPath.empty();
    }

    /** Whether a windowed timeline must be built per measured job. */
    bool timeline() const
    {
        return timelineAscii || !timelinePath.empty();
    }

    /** Whether the engine profiler observes this process's simulators. */
    bool profiling() const
    {
        return !profilePath.empty();
    }

    /** Whether the tail-exemplar reservoir captures slow ops: requested
     *  explicitly, or implied by the bench-JSON slowest_ops section. */
    bool exemplarCapture() const
    {
        return !exemplarsPath.empty() || analyzer();
    }

    /** Whether per-tenant contention attribution is armed. */
    bool interference() const
    {
        return !interferencePath.empty();
    }
};

/** Parse the shared flags; @p defaults seeds the pre-flag values. */
TelemetryOptions parseTelemetryOptions(int argc, char **argv,
                                       const TelemetryOptions &defaults = {});

/**
 * Install the telemetry flags for every SystemUnderTest this process
 * builds. Benches run several systems back to back and each one saves
 * over the same files at teardown, so the artifacts describe the LAST
 * system built (for dRAID-vs-baseline figures that is dRAID).
 */
void initTelemetry(int argc, char **argv);

/**
 * As above, but with per-binary defaults (e.g. fig09 writes
 * BENCH_fig09.json unless --bench-json= overrides it).
 */
void initTelemetry(int argc, char **argv, const TelemetryOptions &defaults);

/**
 * The process-wide workload seed (--seed=, default 1). runFio() and the
 * YCSB drivers pull from here so a bench invocation's randomness is fully
 * determined by its command line.
 */
std::uint64_t benchSeed();

/** One fully assembled system on its own cluster. */
class SystemUnderTest
{
  public:
    SystemUnderTest(SystemKind kind, const ArrayConfig &array);
    ~SystemUnderTest();

    blockdev::BlockDevice &device();
    cluster::Cluster &cluster() { return *cluster_; }
    sim::Simulator &sim() { return cluster_->sim(); }
    SystemKind kind() const { return kind_; }
    const ArrayConfig &array() const { return array_; }

    /** Declare a member device failed on the system's controller. */
    void markFailed(std::uint32_t dev);

    /** Per-stripe rebuild entry point (dRAID p2p / baselines host-pull). */
    void reconstructChunk(std::uint64_t stripe, std::uint32_t spare,
                          std::function<void(bool)> done);

    core::DraidHost *draidHost();

    /**
     * The span sinks behind each measured job's breakdown and timeline,
     * bound to the tracer for the system's whole life while the flags ask
     * for them (nullptr otherwise); runFio() resets them at job start.
     */
    telemetry::CriticalPathFold *fold() { return fold_.get(); }
    telemetry::WindowedAggregator *timeline() { return timeline_.get(); }

  private:
    SystemKind kind_;
    ArrayConfig array_;
    cluster::TestbedConfig cfg_;
    // Declared before cluster_, so the tracer they are bound to goes first.
    std::unique_ptr<telemetry::CriticalPathFold> fold_;
    std::unique_ptr<telemetry::WindowedAggregator> timeline_;
    std::unique_ptr<cluster::Cluster> cluster_;
    std::unique_ptr<core::DraidSystem> draid_;
    std::unique_ptr<baselines::SpdkRaid> spdk_;
    std::unique_ptr<baselines::LinuxMdRaid> linux_;
};

/**
 * Preload the working set (sequential full-stripe writes) so measured
 * reads hit written data and measured partial writes see realistic old
 * data, then run the FIO job.
 */
workload::FioResult runFio(SystemUnderTest &sut,
                           const workload::FioConfig &fio,
                           bool preload = true);

/** One tenant's share of a multi-tenant traffic mix. */
struct TenantJob
{
    std::string name;           ///< tenant label ("victim", "aggr0", ...)
    workload::FioConfig fio;    ///< this tenant's workload
    double sloTargetP99Us = 0;  ///< windowed p99 SLO target; 0 = none
};

/**
 * Run several tenants' jobs concurrently on one system: preload once,
 * register each tenant with the contention tracker (resetting the
 * accounting so the exported matrix covers exactly the measured run),
 * drive all jobs under a single simulator run, and append one
 * interference JSON row (--interference=) covering the mix. Results are
 * returned in @p jobs order.
 */
std::vector<workload::FioResult> runTenantFio(SystemUnderTest &sut,
                                              const std::vector<TenantJob> &jobs,
                                              bool preload = true);

/** A do-nothing measurement job whose runFio() call only preloads. */
workload::FioConfig preloadConfig(std::uint64_t working_set_bytes);

/** Print a figure header: title + column names. */
void printFigureHeader(const std::string &figure, const std::string &title,
                       const std::vector<std::string> &columns);

/** Print one numeric row. */
void printRow(const std::vector<double> &values);

/** Print a commentary line (prefixed with '#'). */
void printNote(const std::string &note);

} // namespace draid::bench

#endif // DRAID_BENCH_HARNESS_H
