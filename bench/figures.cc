#include "figures.h"

#include <algorithm>

#include "core/reconstruct.h"

namespace draid::bench {

namespace {

constexpr std::uint64_t kKb = 1024;
constexpr std::uint64_t kMb = 1024 * 1024;

const std::vector<SystemKind> kAllSystems{SystemKind::kLinux,
                                          SystemKind::kSpdk,
                                          SystemKind::kDraid};

std::string
levelName(raid::RaidLevel level)
{
    return level == raid::RaidLevel::kRaid6 ? "RAID-6" : "RAID-5";
}

/** RAID-level-aware number of ops: keep every point to a similar cost. */
std::uint64_t
opsFor(std::uint32_t io_kb)
{
    if (io_kb >= 2048)
        return 300;
    if (io_kb >= 256)
        return 800;
    return 1500;
}

} // namespace

void
figReadVsIoSize(raid::RaidLevel level, const std::string &figure)
{
    printFigureHeader(figure,
                      levelName(level) +
                          " normal-state read vs I/O size "
                          "(6 targets, 512KB chunk, iodepth 64)",
                      {"io_kb", "linux_MBps", "spdk_MBps", "draid_MBps",
                       "linux_us", "spdk_us", "draid_us"});
    for (std::uint32_t io_kb : {4, 8, 16, 32, 64, 128}) {
        std::vector<double> row{static_cast<double>(io_kb)};
        std::vector<double> lat;
        for (auto kind : kAllSystems) {
            ArrayConfig array;
            array.level = level;
            array.width = 6;
            SystemUnderTest sut(kind, array);
            workload::FioConfig fio;
            fio.ioSize = io_kb * kKb;
            fio.readRatio = 1.0;
            fio.ioDepth = 64;
            fio.numOps = opsFor(io_kb) * 2;
            fio.workingSetBytes = 512 * kMb;
            auto r = runFio(sut, fio);
            row.push_back(r.bandwidthMBps);
            lat.push_back(r.avgLatencyUs);
        }
        row.insert(row.end(), lat.begin(), lat.end());
        printRow(row);
    }
    printNote("paper: all systems reach NIC goodput (~11500 MB/s) beyond "
              "64KB; dRAID leads at small sizes (lock-free reads)");
}

void
figWriteVsIoSize(raid::RaidLevel level, const std::string &figure)
{
    const bool r6 = level == raid::RaidLevel::kRaid6;
    printFigureHeader(figure,
                      levelName(level) +
                          " write vs I/O size (8 targets, 512KB chunk, "
                          "iodepth 32; RMW/RCW/FSW regimes)",
                      {"io_kb", "linux_MBps", "spdk_MBps", "draid_MBps",
                       "linux_us", "spdk_us", "draid_us"});
    std::vector<std::uint32_t> sizes{4,   8,   16,  32,  64,   128,
                                     256, 512, 1024, 2048};
    sizes.push_back(r6 ? 3072 : 3584);
    for (std::uint32_t io_kb : sizes) {
        std::vector<double> row{static_cast<double>(io_kb)};
        std::vector<double> lat;
        for (auto kind : kAllSystems) {
            ArrayConfig array;
            array.level = level;
            array.width = 8;
            SystemUnderTest sut(kind, array);
            workload::FioConfig fio;
            fio.ioSize = io_kb * kKb;
            fio.readRatio = 0.0;
            fio.ioDepth = 32;
            fio.numOps = opsFor(io_kb);
            fio.workingSetBytes = io_kb >= 1024 ? 1536 * kMb : 768 * kMb;
            auto r = runFio(sut, fio);
            row.push_back(r.bandwidthMBps);
            lat.push_back(r.avgLatencyUs);
        }
        row.insert(row.end(), lat.begin(), lat.end());
        printRow(row);
    }
    printNote(r6 ? "paper: dRAID ~2.3x SPDK at 128KB; RAID-6 small writes "
                   "run at ~2/3 of RAID-5"
                 : "paper: dRAID ~1.7x SPDK at 128KB, drive-bound plateau "
                   "256KB-1024KB, ~1.5x on reconstruct writes, parity at "
                   "3584KB (full stripe)");
}

void
figWriteVsChunkSize(raid::RaidLevel level, const std::string &figure)
{
    printFigureHeader(figure,
                      levelName(level) +
                          " write vs chunk size (8 targets, 128KB I/O, "
                          "iodepth 32)",
                      {"chunk_kb", "linux_MBps", "spdk_MBps", "draid_MBps",
                       "linux_us", "spdk_us", "draid_us"});
    for (std::uint32_t chunk_kb : {32, 64, 128, 256, 512, 1024}) {
        std::vector<double> row{static_cast<double>(chunk_kb)};
        std::vector<double> lat;
        for (auto kind : kAllSystems) {
            ArrayConfig array;
            array.level = level;
            array.width = 8;
            array.chunkKb = chunk_kb;
            SystemUnderTest sut(kind, array);
            workload::FioConfig fio;
            fio.ioSize = 128 * kKb;
            fio.readRatio = 0.0;
            fio.ioDepth = 32;
            fio.numOps = 1200;
            fio.workingSetBytes = 768 * kMb;
            auto r = runFio(sut, fio);
            row.push_back(r.bandwidthMBps);
            lat.push_back(r.avgLatencyUs);
        }
        row.insert(row.end(), lat.begin(), lat.end());
        printRow(row);
    }
    printNote("paper: dRAID runs at full drive bandwidth for chunks "
              ">=128KB, up to 1.7x (RAID-5) / 2.6x (RAID-6) over SPDK");
}

void
figWriteVsWidth(raid::RaidLevel level, const std::string &figure)
{
    printFigureHeader(figure,
                      levelName(level) +
                          " write vs stripe width (128KB I/O, 512KB "
                          "chunk, iodepth 32)",
                      {"width", "nic_goodput", "linux_MBps", "spdk_MBps",
                       "draid_MBps", "linux_us", "spdk_us", "draid_us"});
    for (std::uint32_t width : {4, 6, 8, 10, 12, 14, 16, 18}) {
        std::vector<double> row{static_cast<double>(width), 11500.0};
        std::vector<double> lat;
        for (auto kind : kAllSystems) {
            ArrayConfig array;
            array.level = level;
            array.width = width;
            SystemUnderTest sut(kind, array);
            workload::FioConfig fio;
            fio.ioSize = 128 * kKb;
            fio.readRatio = 0.0;
            fio.ioDepth = 48;
            fio.numOps = 1200;
            fio.workingSetBytes = 768 * kMb;
            auto r = runFio(sut, fio);
            row.push_back(r.bandwidthMBps);
            lat.push_back(r.avgLatencyUs);
        }
        row.insert(row.end(), lat.begin(), lat.end());
        printRow(row);
    }
    printNote("paper: SPDK caps at ~half the NIC goodput (RMW sends 2x); "
              "dRAID scales linearly, ~84Gbps (10500 MB/s) at width 18; "
              "Linux MD declines with width");
}

void
figWriteVsReadRatio(raid::RaidLevel level, const std::string &figure)
{
    printFigureHeader(figure,
                      levelName(level) +
                          " mixed workload vs read ratio (8 targets, "
                          "128KB I/O, iodepth 32)",
                      {"read_pct", "linux_MBps", "spdk_MBps", "draid_MBps",
                       "linux_us", "spdk_us", "draid_us"});
    for (int pct : {0, 25, 50, 75, 100}) {
        std::vector<double> row{static_cast<double>(pct)};
        std::vector<double> lat;
        for (auto kind : kAllSystems) {
            ArrayConfig array;
            array.level = level;
            array.width = 8;
            SystemUnderTest sut(kind, array);
            workload::FioConfig fio;
            fio.ioSize = 128 * kKb;
            fio.readRatio = pct / 100.0;
            fio.ioDepth = 32;
            fio.numOps = 1500;
            fio.workingSetBytes = 768 * kMb;
            auto r = runFio(sut, fio);
            row.push_back(r.bandwidthMBps);
            lat.push_back(r.avgLatencyUs);
        }
        row.insert(row.end(), lat.begin(), lat.end());
        printRow(row);
    }
    printNote("paper: dRAID 1.4x-1.7x (RAID-5) / 1.6x-2.3x (RAID-6) for "
              "every mix except read-only");
}

void
figLatencyVsLoad(raid::RaidLevel level, const std::string &figure)
{
    for (double read_ratio : {0.0, 0.5}) {
        printFigureHeader(
            figure,
            levelName(level) +
                (read_ratio == 0.0
                     ? " latency vs bandwidth, write-only (18 targets)"
                     : " latency vs bandwidth, 50% read + 50% write "
                       "(18 targets)"),
            {"iodepth", "linux_MBps", "linux_us", "spdk_MBps", "spdk_us",
             "draid_MBps", "draid_us"});
        for (int depth : {1, 2, 4, 8, 16, 32, 64, 128}) {
            std::vector<double> row{static_cast<double>(depth)};
            for (auto kind : kAllSystems) {
                ArrayConfig array;
                array.level = level;
                array.width = 18;
                SystemUnderTest sut(kind, array);
                workload::FioConfig fio;
                fio.ioSize = 128 * kKb;
                fio.readRatio = read_ratio;
                fio.ioDepth = depth;
                fio.numOps = std::max<std::uint64_t>(300, 40ull * depth);
                fio.workingSetBytes = 768 * kMb;
                auto r = runFio(sut, fio);
                row.push_back(r.bandwidthMBps);
                row.push_back(r.avgLatencyUs);
            }
            printRow(row);
        }
    }
    printNote("paper: dRAID saturates near NIC goodput (~11500 MB/s WO, "
              "~3x SPDK on 50/50); SPDK flat-lines at half goodput");
}

namespace {

void
degradedFigure(raid::RaidLevel level, const std::string &figure,
               bool sweep_width, bool writes)
{
    const std::string what = writes ? "degraded write" : "degraded read";
    if (!sweep_width) {
        printFigureHeader(figure,
                          levelName(level) + " " + what +
                              " vs I/O size (8 targets, one failed "
                              "drive, iodepth 32)",
                          {"io_kb", "linux_MBps", "spdk_MBps",
                           "draid_MBps", "linux_us", "spdk_us",
                           "draid_us"});
        for (std::uint32_t io_kb : {4, 8, 16, 32, 64, 128}) {
            std::vector<double> row{static_cast<double>(io_kb)};
            std::vector<double> lat;
            for (auto kind : kAllSystems) {
                ArrayConfig array;
                array.level = level;
                array.width = 8;
                SystemUnderTest sut(kind, array);
                workload::FioConfig fio;
                fio.ioSize = io_kb * kKb;
                fio.readRatio = writes ? 0.0 : 1.0;
                fio.ioDepth = writes ? 32 : 64;
                fio.numOps = 1200;
                fio.workingSetBytes = 512 * kMb;

                // Preload while healthy, then fail one drive.
                runFio(sut, preloadConfig(fio.workingSetBytes));
                sut.markFailed(0);
                auto r = runFio(sut, fio, /*preload=*/false);
                row.push_back(r.bandwidthMBps);
                lat.push_back(r.avgLatencyUs);
            }
            row.insert(row.end(), lat.begin(), lat.end());
            printRow(row);
        }
        return;
    }

    printFigureHeader(figure,
                      levelName(level) + " " + what +
                          " vs stripe width (128KB I/O, one failed "
                          "drive, iodepth 64)",
                      {"width", "linux_MBps", "spdk_MBps", "draid_MBps",
                       "linux_us", "spdk_us", "draid_us"});
    for (std::uint32_t width : {4, 6, 8, 10, 12, 14, 16, 18}) {
        std::vector<double> row{static_cast<double>(width)};
        std::vector<double> lat;
        for (auto kind : kAllSystems) {
            ArrayConfig array;
            array.level = level;
            array.width = width;
            SystemUnderTest sut(kind, array);
            workload::FioConfig fio;
            fio.ioSize = 128 * kKb;
            fio.readRatio = 1.0;
            fio.ioDepth = 64;
            fio.numOps = 1500;
            fio.workingSetBytes = 512 * kMb;
            runFio(sut, preloadConfig(fio.workingSetBytes));
            sut.markFailed(0);
            auto r = runFio(sut, fio, /*preload=*/false);
            row.push_back(r.bandwidthMBps);
            lat.push_back(r.avgLatencyUs);
        }
        row.insert(row.end(), lat.begin(), lat.end());
        printRow(row);
    }
}

} // namespace

void
figDegradedReadVsIoSize(raid::RaidLevel level, const std::string &figure)
{
    degradedFigure(level, figure, /*sweep_width=*/false, /*writes=*/false);
    printNote("paper: dRAID reaches ~95% of normal-state read throughput; "
              "SPDK ~57-61%; Linux MD ~834 MB/s");
}

void
figDegradedReadVsWidth(raid::RaidLevel level, const std::string &figure)
{
    degradedFigure(level, figure, /*sweep_width=*/true, /*writes=*/false);
    printNote("paper: SPDK peaks at width 6-8 then declines (host pulls "
              "n-1 chunks); dRAID approaches normal-state read as width "
              "grows, up to 2.4x");
}

void
figDegradedWriteVsIoSize(raid::RaidLevel level, const std::string &figure)
{
    degradedFigure(level, figure, /*sweep_width=*/false, /*writes=*/true);
    printNote("paper: ~5% drop vs normal state for all systems (RAID-5); "
              "dRAID still up to 1.7x (RAID-5) / 2.6x (RAID-6) over SPDK");
}

void
figReconstructionScalability(const std::string &figure)
{
    printFigureHeader(figure,
                      "RAID-5 full-rebuild throughput vs stripe width "
                      "(one failed drive, rebuild onto spare)",
                      {"width", "spdk_MBps", "draid_MBps"});
    for (std::uint32_t width : {4, 6, 8, 10, 12, 14, 16, 18}) {
        std::vector<double> row{static_cast<double>(width)};
        for (auto kind : {SystemKind::kSpdk, SystemKind::kDraid}) {
            ArrayConfig array;
            array.width = width;
            array.spares = 1;
            SystemUnderTest sut(kind, array);

            // Preload enough stripes, then rebuild them.
            const std::uint64_t stripes = 96;
            const std::uint64_t chunk = 512 * kKb;
            workload::FioConfig pre;
            pre.workingSetBytes = stripes * (width - 1) * chunk;
            runFio(sut, preloadConfig(pre.workingSetBytes));
            sut.markFailed(0);

            core::RebuildJob job(
                sut.sim(),
                [&](std::uint64_t stripe, std::function<void(bool)> done) {
                    sut.reconstructChunk(stripe, width, std::move(done));
                },
                stripes, static_cast<std::uint32_t>(chunk), /*window=*/16);
            job.attach(sut.cluster().probe(sut.cluster().hostId()));
            job.registerMetrics(
                sut.cluster().nodeScope(sut.cluster().hostId())
                    .scope("rebuild"));
            job.start([&](bool) { sut.sim().stop(); });
            sut.sim().run();
            row.push_back(job.throughputMBps());
        }
        printRow(row);
    }
    printNote("paper: SPDK rebuild flattens (~1500-2000 MB/s, host-NIC "
              "bound at n-1 chunks per chunk); dRAID sustains ~3000+ MB/s "
              "across widths (drive-read bound)");
}

void
figRebuildInterference(const std::string &figure)
{
    printFigureHeader(figure,
                      "foreground random-read goodput during a mid-run "
                      "drive failure + online rebuild onto a hot spare "
                      "(dRAID, width 8 + 1 spare, 512KB chunk)",
                      {"fg_MBps", "fg_p99_us", "rebuild_MBps", "rebuild_ms",
                       "degraded_rd"});

    ArrayConfig array;
    array.width = 8;
    array.spares = 1;
    SystemUnderTest sut(SystemKind::kDraid, array);

    const std::uint64_t stripes = 96;
    const std::uint64_t chunk = 512 * kKb;
    const std::uint64_t ws = stripes * (array.width - 1) * chunk;
    runFio(sut, preloadConfig(ws));

    // The failure lands mid-job, so the rebuild runs under foreground
    // load; completion swaps the spare in and the array recovers.
    core::RebuildJob rebuild(
        sut.sim(),
        [&](std::uint64_t stripe, std::function<void(bool)> done) {
            sut.reconstructChunk(stripe, array.width, std::move(done));
        },
        stripes, static_cast<std::uint32_t>(chunk), /*window=*/16);
    rebuild.attach(sut.cluster().probe(sut.cluster().hostId()));
    rebuild.registerMetrics(
        sut.cluster().nodeScope(sut.cluster().hostId()).scope("rebuild"));

    sim::Ticks rebuild_start = sim::Ticks::zero();
    sim::Ticks rebuild_end = sim::Ticks::zero();
    sut.sim().schedule(sim::Ticks::ms(8), [&] {
        sut.markFailed(0);
        rebuild_start = sut.sim().now();
        rebuild.start([&](bool) {
            rebuild_end = sut.sim().now();
            sut.draidHost()->replaceDevice(0, array.width);
        });
    });

    workload::FioConfig fio;
    fio.ioSize = 128 * kKb;
    fio.readRatio = 1.0;
    fio.ioDepth = 32;
    fio.numOps = 4000;
    fio.workingSetBytes = ws;
    auto r = runFio(sut, fio, /*preload=*/false);
    if (!rebuild.finished())
        sut.sim().run(); // drain a rebuild that outlasted the foreground

    printRow({r.bandwidthMBps, r.p99LatencyUs, rebuild.throughputMBps(),
              static_cast<double>((rebuild_end - rebuild_start).raw()) /
                  sim::kMillisecond,
              static_cast<double>(sut.draidHost()->counters().degradedReads)});
    printNote("rebuild window: foreground goodput dips while the array "
              "serves degraded reads plus rebuild traffic, then recovers "
              "at the hot-spare swap (--timeline-ascii shows the dip "
              "bracketed by the R/C markers)");
}

void
figBwAwareReconstruction(const std::string &figure)
{
    printFigureHeader(figure,
                      "degraded-read latency vs bandwidth with "
                      "heterogeneous NICs (width 8: three 25Gbps targets), "
                      "random vs bandwidth-aware reducer",
                      {"iodepth", "random_MBps", "random_us",
                       "bwaware_MBps", "bwaware_us"});

    for (int depth : {1, 2, 4, 8, 16, 32, 64}) {
        std::vector<double> row{static_cast<double>(depth)};
        for (auto policy : {core::ReducerPolicy::kRandom,
                            core::ReducerPolicy::kBwAware}) {
            ArrayConfig array;
            array.width = 8;
            array.draidOpts.reducerPolicy = policy;
            // Targets 1-3 get 25 Gbps NICs; the failed target 0 and the
            // rest keep 100 Gbps.
            array.targetNicGoodputs = {11.5e9, 2.875e9, 2.875e9, 2.875e9};
            SystemUnderTest sut(SystemKind::kDraid, array);

            const std::uint64_t ws = 512 * kMb;
            runFio(sut, preloadConfig(ws));
            sut.markFailed(0);

            // All reads target the failed device's chunks: every op is a
            // reconstructed read.
            auto *host = sut.draidHost();
            const auto &g = host->geometry();
            const std::uint32_t io = 128 * kKb;
            const std::uint64_t stripes = ws / g.stripeDataSize();
            workload::FioConfig fio;
            fio.ioSize = io;
            fio.readRatio = 1.0;
            fio.ioDepth = depth;
            fio.numOps = 1200;
            fio.workingSetBytes = ws;
            fio.offsetPicker = [&g, stripes, io](sim::Rng &rng) {
                // A random in-chunk-aligned offset on the failed device
                // (device 0) of a random stripe.
                const std::uint64_t stripe = rng.nextBounded(stripes);
                std::uint32_t fidx = 0;
                for (std::uint32_t i = 0; i < g.dataChunks(); ++i) {
                    if (g.dataDevice(stripe, i) == 0)
                        fidx = i;
                }
                if (g.roleOf(stripe, 0) != raid::ChunkRole::kData) {
                    // Parity stripe: any chunk works (read is normal);
                    // keep the stream uniform by using chunk 0.
                    fidx = 0;
                }
                const std::uint64_t base =
                    stripe * g.stripeDataSize() +
                    static_cast<std::uint64_t>(fidx) * g.chunkSize();
                const std::uint64_t slots = g.chunkSize() / io;
                return base + rng.nextBounded(slots) * io;
            };
            auto r = runFio(sut, fio, /*preload=*/false);
            row.push_back(r.bandwidthMBps);
            row.push_back(r.avgLatencyUs);
        }
        printRow(row);
    }
    printNote("paper: bandwidth-aware selection improves degraded read "
              "bandwidth by ~53% over random on the heterogeneous setup");
}

} // namespace draid::bench
