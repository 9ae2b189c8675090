// Allocation budgets of the steady-state dRAID data path: one operation
// of a mode's workload may call global operator new at most the mode's
// budget times. Every hop keeps its per-command state in a slot pool
// owned by the component that completes it (DESIGN.md §4.1).
//
//  - small-read: a 4 KB RAID-5 read. The extent completion and the load
//    generator's callback fit std::function's inline buffer, so what is
//    left is the read's join and its payload.
//  - partial-write: a 128 KB RAID-6 partial-stripe write, which also runs
//    the server-side PartialWrite, Parity and Peer commands of DraidBdev.
//
// The test replaces global operator new with a counting one, so it is a
// program of its own rather than a gtest case, and sanitized builds,
// whose runtime owns operator new, do not build it. Run it as
// `alloc_budget <mode>`.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "cluster/cluster.h"
#include "core/draid_host.h"
#include "workload/fio.h"

namespace {

std::uint64_t g_news = 0;

/** One measured workload: a FioJob on a fresh dRAID array. */
struct Mode
{
    const char *name; ///< the command-line argument
    const char *op;   ///< one operation, for the report
    double budget;    ///< operator new calls per operation, at most
    std::uint32_t targets;
    draid::raid::RaidLevel level;
    std::uint32_t ioSize;
    double readRatio;
    int ioDepth;
    std::uint64_t warmOps;
    std::uint64_t ops;
};

const Mode kModes[] = {
    {"small-read", "4 KB RAID-5 read", 3.0, 6,
     draid::raid::RaidLevel::kRaid5, 4096, 1.0, 64, 4000, 20000},
    {"partial-write", "128 KB RAID-6 partial write", 30.0, 8,
     draid::raid::RaidLevel::kRaid6, 128 * 1024, 0.0, 32, 1000, 4000},
};

} // namespace

void *
operator new(std::size_t size)
{
    ++g_news;
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

int
main(int argc, char **argv)
{
    using namespace draid;
    const Mode *mode = nullptr;
    for (const Mode &m : kModes) {
        if (argc == 2 && std::strcmp(argv[1], m.name) == 0)
            mode = &m;
    }
    if (mode == nullptr) {
        std::fprintf(stderr, "usage: alloc_budget small-read|partial-write\n");
        return 2;
    }

    cluster::TestbedConfig cfg;
    cluster::Cluster cluster(cfg, mode->targets);
    core::DraidOptions opts; // 512 KB chunks
    opts.level = mode->level;
    core::DraidSystem draid(cluster, opts);

    workload::FioConfig fio;
    fio.ioSize = mode->ioSize;
    fio.readRatio = mode->readRatio;
    fio.ioDepth = mode->ioDepth;
    fio.workingSetBytes = 64 * draid.host().geometry().stripeDataSize();

    // The warm-up grows every pool, map and queue to its peak depth.
    fio.numOps = mode->warmOps;
    workload::FioJob(cluster.sim(), draid.host(), fio).run();

    fio.numOps = mode->ops;
    fio.seed = 2;
    workload::FioJob job(cluster.sim(), draid.host(), fio);
    const std::uint64_t before = g_news;
    const workload::FioResult res = job.run();
    const double per_op =
        static_cast<double>(g_news - before) / static_cast<double>(mode->ops);

    std::printf("operator new per %s: %.2f (budget %.0f), errors %llu\n",
                mode->op, per_op, mode->budget,
                static_cast<unsigned long long>(res.errors));
    return per_op <= mode->budget && res.errors == 0 ? 0 : 1;
}
