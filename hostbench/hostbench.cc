/**
 * @file
 * Host-cost benchmark for the dRAID simulator.
 *
 * Drives one workload through the public bench harness and reports what
 * the simulator costs on the host: foreground ops per host second, set-up
 * time, peak memory (end to end), and a per-module split of host time
 * taken from a separate traced run (per layer). Every run also proves its
 * own output: the parity of every stripe of the working set is audited
 * from the drives' backing stores, and the simulated fingerprint of the
 * traced run must equal the untraced one at the same seed.
 *
 *   hostbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
 *             [--smoke]
 *
 * The last stdout line is one JSON object:
 *   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
 * with the end-to-end metrics under --trace=0 and the per-layer metrics
 * under --trace=1. The module ledger goes to stderr. --smoke shrinks the
 * working set and op counts so every path runs in seconds.
 *
 * Load is closed-loop from this single thread: each FIO batch keeps
 * ioDepth simulated ops in flight. Batches repeat until --seconds of host
 * time is spent; batch i draws its offsets from the i-th value of a
 * stream seeded by --seed, so any prefix of batches replays exactly.
 *
 * The end-to-end times are scaled to a reference host speed (hostSpeed()),
 * because the other tenants of a shared host move raw times by more than
 * a run of this length can average away.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "blockdev/memory_bdev.h"
#include "core/reconstruct.h"
#include "ec/buffer.h"
#include "ec/gf256.h"
#include "ec/raid5_codec.h"
#include "ec/raid6_codec.h"
#include "ec/xor_kernel.h"
#include "harness.h"
#include "raid/geometry.h"
#include "sim/rng.h"
#include "telemetry/sim_profiler.h"

namespace {

using namespace draid;

constexpr std::uint32_t kKb = 1024;
constexpr std::uint32_t kChunk = 512 * kKb;
constexpr int kSetups = 3;
constexpr int kRebuildWindow = 16;

/** One benchmark workload; the note in README.md gives each rationale. */
struct Workload
{
    const char *name;
    bench::SystemKind kind;
    raid::RaidLevel level;
    std::uint32_t width;
    std::uint32_t spares;
    std::uint32_t ioSize;
    double readRatio;
    int ioDepth;
    std::uint64_t stripes;   ///< working set, in whole stripes
    std::uint64_t batchOps;  ///< foreground ops per batch
    int tracedBatches;       ///< batches in the traced run
    bool rebuild;            ///< device 0 failed; each batch rebuilds
    std::uint32_t probeBytes; ///< size of the direct ec/blockdev probes
};

const Workload kWorkloads[] = {
    {"read4k_r5", bench::SystemKind::kDraid, raid::RaidLevel::kRaid5, 6, 0,
     4 * kKb, 1.0, 64, 205, 16384, 8, false, 4 * kKb},
    {"write128k_r6", bench::SystemKind::kDraid, raid::RaidLevel::kRaid6, 8,
     0, 128 * kKb, 0.0, 32, 171, 512, 6, false, 128 * kKb},
    {"degraded_rebuild_r5", bench::SystemKind::kDraid,
     raid::RaidLevel::kRaid5, 8, 1, 128 * kKb, 1.0, 32, 256, 2048, 4, true,
     512 * kKb},
    {"mixed_r5_spdk", bench::SystemKind::kSpdk, raid::RaidLevel::kRaid5, 8,
     0, 128 * kKb, 0.5, 32, 219, 2048, 8, false, 128 * kKb},
};

struct Options
{
    const Workload *workload = nullptr;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool smoke = false;
};

/**
 * Host nanoseconds spent in @p fn. The repo keeps every host-clock read
 * inside src/telemetry (draid-lint rule wall-clock), so the benchmark
 * reads time through telemetry::SimProfiler: @p fn runs as the only
 * event of a scratch simulator that the profiler observes.
 */
std::uint64_t
hostNs(const std::function<void()> &fn)
{
    sim::Simulator clock;
    telemetry::SimProfiler stopwatch;
    stopwatch.attach(clock);
    clock.schedule(sim::Ticks::zero(), "hostbench.stopwatch", fn);
    clock.run();
    return stopwatch.report().sources.front().totalNs;
}

/**
 * How fast the host runs right now: iterations per host ns of a fixed
 * miniature of the simulator's own work. Each iteration pops the earliest
 * of 4096 pending times, looks a key up in a hash map of a million
 * entries, copies 4 KB out of an 8 MB buffer and pushes a new time. The
 * other tenants of a shared host move the speed of the same code by 10%
 * and more over seconds. This loop slows with the core and with cache
 * and memory contention much as the simulator does, so each end-to-end
 * time is scaled by the loop's speed around it (README.md). It is the
 * benchmark's own code: a change to the simulator does not move it.
 */
double
hostSpeed()
{
    constexpr std::uint64_t kKeys = 1u << 20;
    constexpr std::uint64_t kBytes = 8u << 20;
    constexpr std::uint32_t kCopy = 4096;
    struct Miniature
    {
        std::unordered_map<std::uint64_t, std::uint64_t> keys;
        std::vector<std::uint8_t> bytes = std::vector<std::uint8_t>(kBytes, 1);
        std::vector<std::uint8_t> copy = std::vector<std::uint8_t>(kCopy);
        std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                            std::greater<>>
            pending;
        std::uint64_t x = 0x9e3779b97f4a7c15ull;

        Miniature()
        {
            for (std::uint64_t k = 0; k < kKeys; ++k)
                keys.emplace(k, 1);
            for (int i = 0; i < 4096; ++i)
                pending.push(next());
        }
        std::uint64_t next()
        {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            return x >> 48;
        }
    };
    static Miniature m;
    constexpr std::uint64_t kIters = 1u << 14;
    std::uint64_t sum = 0;
    const std::uint64_t ns = hostNs([&] {
        for (std::uint64_t i = 0; i < kIters; ++i) {
            const std::uint64_t t = m.pending.top();
            m.pending.pop();
            sum += m.keys.find(t % kKeys)->second;
            std::memcpy(m.copy.data(),
                        m.bytes.data() + t % (kBytes - kCopy), kCopy);
            sum += m.copy[t % kCopy];
            m.pending.push(t + m.next());
        }
    });
    if (sum != 2 * kIters) // every key and byte holds 1; keeps the work
        std::abort();
    return static_cast<double>(kIters) / static_cast<double>(ns);
}

/** hostSpeed() on the reference host, a 4-core x86-64 VM, between
 *  read4k_r5 batches. */
constexpr double kReferenceSpeed = 0.0027;

/** @p ns measured while hostSpeed() went from @p before to @p after, as
 *  ns at kReferenceSpeed. */
double
referenceNs(std::uint64_t ns, double before, double after)
{
    return static_cast<double>(ns) * (before + after) / 2 / kReferenceSpeed;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::uint64_t
workingSet(const Workload &wl)
{
    const raid::Geometry geom(wl.level, kChunk, wl.width);
    return wl.stripes * geom.stripeDataSize();
}

/** Fresh testbed with the working set preloaded (full-stripe writes);
 *  @p seconds gets the set-up time at reference host speed. */
std::unique_ptr<bench::SystemUnderTest>
setUp(const Workload &wl, double &seconds)
{
    std::unique_ptr<bench::SystemUnderTest> sut;
    const double speed = hostSpeed();
    const std::uint64_t ns = hostNs([&] {
        bench::ArrayConfig array;
        array.level = wl.level;
        array.chunkKb = kChunk / kKb;
        array.width = wl.width;
        array.spares = wl.spares;
        sut = std::make_unique<bench::SystemUnderTest>(wl.kind, array);
        bench::runFio(*sut, bench::preloadConfig(workingSet(wl)));
        if (wl.rebuild)
            sut->markFailed(0);
    });
    seconds = referenceNs(ns, speed, hostSpeed()) / 1e9;
    return sut;
}

/** Everything a batch simulated; equal at a seed in every run. */
struct Fingerprint
{
    double mbps = 0, kiops = 0, avgUs = 0, p50Us = 0, p99Us = 0, p999Us = 0;
    std::uint64_t errors = 0;
    std::uint64_t unfinished = 0; ///< ops (and stripes) left undone
    std::int64_t simEndNs = 0;
    std::uint64_t events = 0;
    std::int64_t rebuildNs = 0;
    std::uint64_t rebuildFailures = 0;

    bool operator==(const Fingerprint &) const = default;
};

struct Batch
{
    Fingerprint fp;
    std::uint64_t hostNs = 0;
};

Batch
runBatch(bench::SystemUnderTest &sut, const Workload &wl,
         std::uint64_t batch_seed, std::uint64_t ops)
{
    sim::Simulator &sim = sut.sim();
    workload::FioConfig cfg;
    cfg.ioSize = wl.ioSize;
    cfg.readRatio = wl.readRatio;
    cfg.ioDepth = wl.ioDepth;
    cfg.numOps = ops;
    cfg.workingSetBytes = workingSet(wl);
    cfg.seed = batch_seed;
    workload::FioJob job(sim, sut.device(), cfg);

    Batch b;
    const std::uint64_t events0 = sim.eventsExecuted();
    workload::FioResult res;
    if (!wl.rebuild) {
        b.hostNs = hostNs([&] { res = job.run(); });
    } else {
        // Device 0 stays failed, so every batch is the same episode: a
        // full rebuild onto the spare under foreground degraded reads.
        core::RebuildJob rebuild(
            sim,
            [&](std::uint64_t stripe, std::function<void(bool)> done) {
                sut.reconstructChunk(stripe, wl.width, std::move(done));
            },
            wl.stripes, kChunk, kRebuildWindow);
        const sim::Ticks start = sim.now();
        sim::Ticks end = start;
        int running = 2;
        const auto finished = [&] {
            if (--running == 0)
                sim.stop();
        };
        b.hostNs = hostNs([&] {
            rebuild.start([&](bool) {
                end = sim.now();
                finished();
            });
            job.start(finished);
            sim.run();
        });
        res = job.result();
        b.fp.rebuildNs = (end - start).raw();
        b.fp.rebuildFailures = rebuild.failures();
        b.fp.unfinished += wl.stripes - rebuild.stripesDone();
    }
    b.fp.mbps = res.bandwidthMBps;
    b.fp.kiops = res.kiops;
    b.fp.avgUs = res.avgLatencyUs;
    b.fp.p50Us = res.p50LatencyUs;
    b.fp.p99Us = res.p99LatencyUs;
    b.fp.p999Us = res.p999LatencyUs;
    b.fp.errors = res.errors;
    if (!job.done())
        b.fp.unfinished += ops;
    b.fp.simEndNs = sim.now().raw();
    b.fp.events = sim.eventsExecuted() - events0;
    return b;
}

/** Parity audit of every working-set stripe, read from the drives. */
struct Audit
{
    std::uint64_t stripes = 0;
    std::uint64_t inconsistent = 0;
};

Audit
auditParity(bench::SystemUnderTest &sut, const Workload &wl)
{
    const raid::Geometry geom(wl.level, kChunk, wl.width);
    core::DraidHost *draid = sut.draidHost();
    Audit out;
    for (std::uint64_t s = 0; s < wl.stripes; ++s) {
        const auto chunk = [&](std::uint32_t dev) {
            // The spare stands in for the failed device 0 it rebuilt.
            std::uint32_t target = draid ? draid->targetOf(dev) : dev;
            if (wl.rebuild && dev == 0)
                target = wl.width;
            return sut.cluster().target(target).ssd().store().readSync(
                geom.deviceAddress(s, 0), kChunk);
        };
        std::vector<ec::Buffer> data;
        for (std::uint32_t i = 0; i < geom.dataChunks(); ++i)
            data.push_back(chunk(geom.dataDevice(s, i)));
        bool ok;
        if (wl.level == raid::RaidLevel::kRaid5) {
            ok = ec::Raid5Codec::computeParity(data).contentEquals(
                chunk(geom.parityDevice(s)));
        } else {
            ec::Buffer p;
            ec::Buffer q;
            ec::Raid6Codec::computePQ(data, p, q);
            ok = p.contentEquals(chunk(geom.parityDevice(s))) &&
                 q.contentEquals(chunk(geom.qDevice(s)));
        }
        ++out.stripes;
        if (!ok)
            ++out.inconsistent;
    }
    return out;
}

/** Simulated counters sampled around the traced run. */
struct Counters
{
    std::int64_t nowNs = 0;
    std::uint64_t hostTx = 0, hostRx = 0, fabricTx = 0;
    std::int64_t hostTxBusyNs = 0, hostCpuBusyNs = 0;
    std::uint64_t ssdRead = 0, ssdWrite = 0;
    std::vector<std::int64_t> channelBusyNs;
    std::uint64_t rmw = 0, rcw = 0, fsw = 0, degradedReads = 0, retries = 0;
    std::uint64_t storePages = 0;
};

Counters
sample(bench::SystemUnderTest &sut)
{
    cluster::Cluster &c = sut.cluster();
    Counters k;
    k.nowNs = c.sim().now().raw();
    k.hostTx = c.host().nic().tx().bytesTransferred();
    k.hostRx = c.host().nic().rx().bytesTransferred();
    k.fabricTx = k.hostTx;
    k.hostTxBusyNs = c.host().nic().tx().busyTime().raw();
    k.hostCpuBusyNs = c.host().cpu().busyTime().raw();
    for (std::uint32_t t = 0; t < c.numTargets(); ++t) {
        cluster::Node &n = c.target(t);
        k.fabricTx += n.nic().tx().bytesTransferred();
        k.ssdRead += n.ssd().bytesRead();
        k.ssdWrite += n.ssd().bytesWritten();
        k.channelBusyNs.push_back(n.ssd().channel().busyTime().raw());
        k.storePages += n.ssd().store().pagesAllocated();
    }
    if (core::DraidHost *h = sut.draidHost()) {
        const core::HostCounters &hc = h->counters();
        k.rmw = hc.rmwWrites;
        k.rcw = hc.rcwWrites;
        k.fsw = hc.fullStripeWrites;
        k.degradedReads = hc.degradedReads;
        k.retries = hc.retries;
    } else if (auto *r =
                   dynamic_cast<baselines::HostCentricRaid *>(&sut.device())) {
        const baselines::HostRaidCounters &hc = r->counters();
        k.rmw = hc.rmwWrites;
        k.rcw = hc.rcwWrites;
        k.fsw = hc.fullStripeWrites;
    }
    return k;
}

/**
 * Module owning an event label. Labels are matched by prefix; host.* and
 * srv.* name the array controller and the target-side handler, which are
 * src/core on dRAID and src/baselines / the src/blockdev NVMe-oF target
 * on the host-centric baseline.
 */
const char *
moduleOf(const std::string &label, bench::SystemKind kind)
{
    const bool draid = kind == bench::SystemKind::kDraid;
    struct Rule
    {
        const char *prefix;
        const char *module;
    };
    const Rule rules[] = {
        {"fabric.", "net"},
        {"nic.", "net"},
        {"ssd.", "nvme"},
        {"nvmf.", "blockdev"},
        {"parity.", "ec"},
        {"reduce.", "ec"},
        {"host.", draid ? "core" : "baselines"},
        {"srv.", draid ? "core" : "blockdev"},
        {"failure.", "core"},
        {"draid.", "core"},
        {"hostraid.", "baselines"},
    };
    for (const Rule &r : rules) {
        if (label.rfind(r.prefix, 0) == 0)
            return r.module;
    }
    return "other";
}

/**
 * Direct throughput of one byte kernel, in GB/s of input: @p body handles
 * @p bytes per call and is repeated until a timed sample covers at least
 * 64 MB; the median of five samples is reported.
 */
double
probeGBps(std::uint64_t bytes, const std::function<void()> &body)
{
    const std::uint64_t calls =
        std::max<std::uint64_t>(16, (64ull << 20) / bytes);
    body(); // warm caches and lazily built tables
    std::vector<double> samples;
    for (int rep = 0; rep < 5; ++rep) {
        const std::uint64_t ns = hostNs([&] {
            for (std::uint64_t i = 0; i < calls; ++i)
                body();
        });
        samples.push_back(static_cast<double>(bytes * calls) /
                          static_cast<double>(std::max<std::uint64_t>(ns, 1)));
    }
    return median(samples);
}

using Metrics = std::vector<std::pair<std::string, std::pair<double, const char *>>>;

void
probeKernels(const Workload &wl, Metrics &m)
{
    const std::uint32_t len = wl.probeBytes;
    const std::uint32_t k = raid::Geometry(wl.level, kChunk, wl.width)
                                .dataChunks();
    ec::Buffer dst(len);
    ec::Buffer src(len);
    src.fillPattern(1);
    const ec::Gf256 &gf = ec::Gf256::instance();
    std::vector<ec::Buffer> data;
    for (std::uint32_t i = 0; i < k; ++i) {
        data.emplace_back(len);
        data.back().fillPattern(i + 2);
    }
    ec::Buffer p;
    ec::Buffer q;
    m.push_back({"ec.xor_GBps",
                 {probeGBps(len,
                            [&] { ec::xorInto(dst.data(), src.data(), len); }),
                  "GB/s"}});
    m.push_back({"ec.gf_mulaccum_GBps",
                 {probeGBps(len,
                            [&] {
                                gf.mulAccum(0x53, src.data(), dst.data(),
                                            len);
                            }),
                  "GB/s"}});
    m.push_back(
        {"ec.pq_GBps",
         {probeGBps(std::uint64_t{k} * len,
                    [&] { ec::Raid6Codec::computePQ(data, p, q); }),
          "GB/s"}});

    // A 64 MB region, written once before timing so writes overwrite
    // materialized pages and reads copy real ones.
    const std::uint64_t region = 64ull << 20;
    blockdev::MemoryBdev store(region);
    for (std::uint64_t off = 0; off < region; off += len)
        store.writeSync(off, src);
    std::uint64_t wpos = 0;
    std::uint64_t rpos = 0;
    ec::Buffer sink;
    m.push_back({"blockdev.write_GBps",
                 {probeGBps(len,
                            [&] {
                                store.writeSync(wpos, src);
                                wpos = (wpos + len) % region;
                            }),
                  "GB/s"}});
    m.push_back({"blockdev.read_GBps",
                 {probeGBps(len,
                            [&] {
                                sink = store.readSync(rpos, len);
                                rpos = (rpos + len) % region;
                            }),
                  "GB/s"}});
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: hostbench --workload=<name> --seed=<n> "
                 "--seconds=<s> --trace=<0|1> [--smoke]\nworkloads:");
    for (const Workload &w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
}

bool
parse(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&a](const char *key) -> const char * {
            const std::string k = key;
            return a.rfind(k, 0) == 0 ? a.c_str() + k.size() : nullptr;
        };
        if (const char *v = value("--workload=")) {
            for (const Workload &w : kWorkloads) {
                if (w.name == std::string(v))
                    o.workload = &w;
            }
            if (o.workload == nullptr)
                return false;
        } else if (const char *seed = value("--seed=")) {
            char *end = nullptr;
            o.seed = std::strtoull(seed, &end, 10);
            if (*seed == '\0' || *end != '\0')
                return false;
        } else if (const char *secs = value("--seconds=")) {
            char *end = nullptr;
            o.seconds = std::strtod(secs, &end);
            if (*secs == '\0' || *end != '\0' || !(o.seconds > 0))
                return false;
        } else if (a == "--trace=0" || a == "--trace=1") {
            o.trace = a.back() == '1';
        } else if (a == "--smoke") {
            o.smoke = true;
        } else {
            return false;
        }
    }
    return o.workload != nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parse(argc, argv, opt)) {
        usage();
        return 2;
    }
    Workload wl = *opt.workload;
    if (opt.smoke) {
        wl.stripes = 8;
        wl.batchOps = std::max<std::uint64_t>(wl.batchOps / 64, 64);
        wl.tracedBatches = 2;
        opt.seconds = 0;
    }

    // The harness threads --seed into the preload job it runs.
    std::string seed_flag = "--seed=" + std::to_string(opt.seed);
    char prog[] = "hostbench";
    char *harness_argv[] = {prog, seed_flag.data()};
    bench::initTelemetry(2, harness_argv);

    std::vector<std::uint64_t> batch_seeds;
    sim::Rng seed_stream(opt.seed);
    const auto batchSeed = [&](std::size_t i) {
        while (batch_seeds.size() <= i)
            batch_seeds.push_back(seed_stream.next());
        return batch_seeds[i];
    };

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<double> setup_s(kSetups);

    // Set-up 1 only times the set-up; 2 hosts the untraced run; 3 the
    // traced run. One testbed lives at a time, so peak RSS is one array.
    setUp(wl, setup_s[0]).reset();

    // --- untraced run: harness defaults (flight recorder on, no span
    // retention, no profiler) ---
    std::vector<Batch> plain;
    std::vector<double> rates;     ///< foreground ops per reference second
    std::vector<double> raw_rates; ///< foreground ops per host second
    {
        auto sut = setUp(wl, setup_s[1]);
        double spent_s = 0;
        double speed = hostSpeed();
        while (static_cast<int>(plain.size()) < wl.tracedBatches ||
               spent_s < opt.seconds) {
            plain.push_back(runBatch(*sut, wl, batchSeed(plain.size()),
                                     wl.batchOps));
            const std::uint64_t ns = plain.back().hostNs;
            const double after = hostSpeed();
            const double ops = static_cast<double>(wl.batchOps);
            rates.push_back(ops * 1e9 / referenceNs(ns, speed, after));
            raw_rates.push_back(ops * 1e9 / static_cast<double>(ns));
            speed = after;
            spent_s += static_cast<double>(ns) / 1e9;
        }
        const Audit audit = auditParity(*sut, wl);
        attempted += audit.stripes;
        failed += audit.inconsistent;
        if (audit.inconsistent > 0)
            std::fprintf(stderr, "hostbench: %llu of %llu stripes fail the "
                                 "parity audit\n",
                         static_cast<unsigned long long>(audit.inconsistent),
                         static_cast<unsigned long long>(audit.stripes));
    }
    const double rss_mb = peakRssMb();
    std::fprintf(stderr, "hostbench: %s, %zu batches: median %.0f ops/s "
                         "raw, %.0f ops/s at reference host speed\n",
                 wl.name, plain.size(), median(raw_rates), median(rates));

    // --- traced run: same batches, profiler + tracer self-timing on ---
    telemetry::SimProfiler profiler;
    std::vector<Batch> traced;
    Counters before;
    Counters after;
    std::uint64_t telemetry_ns = 0;
    std::uint64_t retained_bytes = 0;
    {
        auto sut = setUp(wl, setup_s[2]);
        profiler.attach(sut->sim());
        sut->cluster().tracer().setSelfTiming(true);
        before = sample(*sut);
        for (int i = 0; i < wl.tracedBatches; ++i)
            traced.push_back(runBatch(*sut, wl, batchSeed(i), wl.batchOps));
        after = sample(*sut);
        sut->sim().setEngineObserver(nullptr);
        const telemetry::Tracer &tr = sut->cluster().tracer();
        telemetry_ns =
            tr.spanCost().ns + tr.opCost().ns + tr.counterCost().ns;
        retained_bytes = sut->cluster().telemetry().retainedTelemetryBytes();
    }

    // Foreground ops, rebuild stripes, and FIO errors of both runs.
    for (const Batch &b : plain) {
        attempted += wl.batchOps + (wl.rebuild ? wl.stripes : 0);
        failed += b.fp.errors + b.fp.rebuildFailures + b.fp.unfinished;
    }
    std::uint64_t plain_ns = 0;
    std::uint64_t traced_ns = 0;
    for (std::size_t i = 0; i < traced.size(); ++i) {
        const Batch &b = traced[i];
        attempted += wl.batchOps + (wl.rebuild ? wl.stripes : 0) + 1;
        failed += b.fp.errors + b.fp.rebuildFailures + b.fp.unfinished;
        // The traced run must simulate exactly what the untraced one did.
        if (!(b.fp == plain[i].fp)) {
            ++failed;
            std::fprintf(stderr, "hostbench: batch %zu fingerprint differs "
                                 "between traced and untraced runs\n", i);
        }
        plain_ns += plain[i].hostNs;
        traced_ns += b.hostNs;
    }

    Metrics m;
    if (!opt.trace) {
        m.push_back({"host_ops_per_s", {median(rates), "1/s"}});
        m.push_back({"setup_s", {median(setup_s), "s"}});
        m.push_back({"peak_rss_mb", {rss_mb, "MB"}});
    } else {
        const telemetry::SimProfiler::Report rep = profiler.report();
        const double ops =
            static_cast<double>(wl.batchOps) * static_cast<double>(traced.size());
        const double user_bytes = ops * wl.ioSize;
        const double elapsed_ns =
            static_cast<double>(after.nowNs - before.nowNs);
        const auto per_op = [ops](double v) { return v / ops; };
        const auto frac = [elapsed_ns](std::int64_t busy) {
            return static_cast<double>(busy) / elapsed_ns;
        };

        // Ledger: every label's callback ns to its module, and the rest of
        // the run wall (heap, dispatch, observer hooks) to sim.
        std::map<std::string, double> module_ns = {
            {"net", 0},  {"nvme", 0},      {"blockdev", 0}, {"ec", 0},
            {"core", 0}, {"baselines", 0}, {"other", 0},
        };
        double callbacks_ns = 0;
        for (const auto &src : rep.sources) {
            const char *mod = moduleOf(src.label, wl.kind);
            if (std::string(mod) == "other")
                std::fprintf(stderr,
                             "hostbench: unmapped label '%s' (%llu events) "
                             "charged to other\n",
                             src.label.c_str(),
                             static_cast<unsigned long long>(src.count));
            module_ns[mod] += static_cast<double>(src.totalNs);
            callbacks_ns += static_cast<double>(src.totalNs);
        }
        const double wall_ns = static_cast<double>(rep.wallNs);
        module_ns["sim"] = wall_ns - callbacks_ns;
        double share_sum = 0;
        std::fprintf(stderr, "# host-time ledger: %s (%.0f ops, %.3f s "
                             "traced)\n# %-10s %12s %8s\n",
                     wl.name, ops, wall_ns / 1e9, "module", "ns/op",
                     "share");
        for (const auto &[mod, ns] : module_ns) {
            share_sum += ns / wall_ns;
            std::fprintf(stderr, "# %-10s %12.1f %7.2f%%\n", mod.c_str(),
                         per_op(ns), 100.0 * ns / wall_ns);
        }
        std::fprintf(stderr, "# %-10s %12.1f %7.2f%% (nested in the rows "
                             "above)\n",
                     "telemetry", per_op(static_cast<double>(telemetry_ns)),
                     100.0 * static_cast<double>(telemetry_ns) / wall_ns);
        if (module_ns["sim"] < 0 || share_sum < 1 - 1e-9 ||
            share_sum > 1 + 1e-9) {
            ++failed;
            std::fprintf(stderr, "hostbench: module shares sum to %.12f\n",
                         share_sum);
        }
        ++attempted;

        double rebuild_ns = 0;
        std::vector<double> p50;
        std::vector<double> p99;
        for (const Batch &b : traced) {
            rebuild_ns += static_cast<double>(b.fp.rebuildNs);
            p50.push_back(b.fp.p50Us);
            p99.push_back(b.fp.p99Us);
        }
        double max_channel = 0;
        for (std::size_t t = 0; t < after.channelBusyNs.size(); ++t)
            max_channel = std::max(max_channel,
                                   frac(after.channelBusyNs[t] -
                                        before.channelBusyNs[t]));
        const double rebuilt_bytes =
            wl.rebuild ? static_cast<double>(wl.stripes) * kChunk *
                             static_cast<double>(traced.size())
                       : 0;
        const double cpu_util = frac(after.hostCpuBusyNs - before.hostCpuBusyNs);
        const bool draid = wl.kind == bench::SystemKind::kDraid;

        m = {
            {"sim.dispatch_ns_per_event",
             {module_ns["sim"] / static_cast<double>(rep.events), "ns/event"}},
            {"sim.events_per_s", {rep.eventsPerSec, "1/s"}},
            {"sim.events_per_op",
             {per_op(static_cast<double>(rep.events)), "events/op"}},
            {"sim.max_queue_depth",
             {static_cast<double>(rep.maxQueueDepth), "count"}},
            {"net.host_ns_per_op", {per_op(module_ns["net"]), "ns/op"}},
            {"net.host_tx_bytes_per_user_byte",
             {static_cast<double>(after.hostTx - before.hostTx) / user_bytes,
              "B/B"}},
            {"net.host_rx_bytes_per_user_byte",
             {static_cast<double>(after.hostRx - before.hostRx) / user_bytes,
              "B/B"}},
            {"net.fabric_bytes_per_user_byte",
             {static_cast<double>(after.fabricTx - before.fabricTx) /
                  user_bytes,
              "B/B"}},
            {"net.host_tx_util",
             {frac(after.hostTxBusyNs - before.hostTxBusyNs), "fraction"}},
            {"nvme.host_ns_per_op", {per_op(module_ns["nvme"]), "ns/op"}},
            {"nvme.read_bytes_per_user_byte",
             {static_cast<double>(after.ssdRead - before.ssdRead) /
                  user_bytes,
              "B/B"}},
            {"nvme.write_bytes_per_user_byte",
             {static_cast<double>(after.ssdWrite - before.ssdWrite) /
                  user_bytes,
              "B/B"}},
            {"nvme.max_channel_util", {max_channel, "fraction"}},
            {"blockdev.host_ns_per_op",
             {per_op(module_ns["blockdev"]), "ns/op"}},
            {"blockdev.store_mb",
             {static_cast<double>(after.storePages) * 256.0 / 1024.0, "MB"}},
        };
        probeKernels(wl, m);
        std::vector<std::pair<std::string, std::pair<double, const char *>>>
            rest = {
                {"ec.host_ns_per_op", {per_op(module_ns["ec"]), "ns/op"}},
                {"raid.rmw_writes",
                 {static_cast<double>(after.rmw - before.rmw), "count"}},
                {"raid.rcw_writes",
                 {static_cast<double>(after.rcw - before.rcw), "count"}},
                {"raid.fsw_writes",
                 {static_cast<double>(after.fsw - before.fsw), "count"}},
                {"core.host_ns_per_op", {per_op(module_ns["core"]), "ns/op"}},
                {"core.degraded_reads",
                 {static_cast<double>(after.degradedReads -
                                      before.degradedReads),
                  "count"}},
                {"core.retries",
                 {static_cast<double>(after.retries - before.retries),
                  "count"}},
                {"core.rebuild_MBps",
                 {rebuild_ns > 0 ? rebuilt_bytes / (rebuild_ns / 1e9) / 1e6
                                 : 0,
                  "MB/s"}},
                {"core.host_cpu_util", {draid ? cpu_util : 0, "fraction"}},
                {"baselines.host_ns_per_op",
                 {per_op(module_ns["baselines"]), "ns/op"}},
                {"baselines.host_cpu_util",
                 {draid ? 0 : cpu_util, "fraction"}},
                {"telemetry.host_ns_per_op",
                 {per_op(static_cast<double>(telemetry_ns)), "ns/op"}},
                {"telemetry.retained_bytes",
                 {static_cast<double>(retained_bytes), "B"}},
                {"telemetry.traced_slowdown",
                 {static_cast<double>(traced_ns) /
                      static_cast<double>(plain_ns),
                  "x"}},
                {"workload.sim_MBps",
                 {user_bytes / (elapsed_ns / 1e9) / 1e6, "MB/s"}},
                {"workload.sim_p50_us", {median(p50), "us"}},
                {"workload.sim_p99_us", {median(p99), "us"}},
                {"other.host_ns_per_op",
                 {per_op(module_ns["other"]), "ns/op"}},
            };
        m.insert(m.end(), rest.begin(), rest.end());
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < m.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m[i].first.c_str(), m[i].second.first,
                    m[i].second.second);
    std::printf("}}\n");
    return 0;
}
