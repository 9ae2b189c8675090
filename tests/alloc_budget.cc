// Allocation budget of the small-read path: in steady state, one 4 KB
// dRAID RAID-5 read may call global operator new at most kBudget times.
// Every hop keeps its per-command state in a slot pool owned by the
// component that completes it (DESIGN.md §4.1), and the extent
// completion and the load generator's callback fit std::function's
// inline buffer, so what is left is the read's join and its payload.
//
// The test replaces global operator new with a counting one, so it is a
// program of its own rather than a gtest case, and sanitized builds,
// whose runtime owns operator new, do not build it.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "cluster/cluster.h"
#include "core/draid_host.h"
#include "workload/fio.h"

namespace {

std::uint64_t g_news = 0;

constexpr double kBudget = 3.0;
constexpr std::uint64_t kWarmOps = 4000;
constexpr std::uint64_t kOps = 20000;

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
main()
{
    using namespace draid;
    cluster::TestbedConfig cfg;
    cluster::Cluster cluster(cfg, 6);
    core::DraidOptions opts; // RAID-5, 512 KB chunks
    core::DraidSystem draid(cluster, opts);

    workload::FioConfig fio;
    fio.ioSize = 4096;
    fio.readRatio = 1.0;
    fio.ioDepth = 64;
    fio.workingSetBytes = 64ull * 5 * opts.chunkSize; // 64 stripes

    // The warm-up grows every pool, map and queue to its peak depth.
    fio.numOps = kWarmOps;
    workload::FioJob(cluster.sim(), draid.host(), fio).run();

    fio.numOps = kOps;
    fio.seed = 2;
    workload::FioJob job(cluster.sim(), draid.host(), fio);
    const std::uint64_t before = g_news;
    const workload::FioResult res = job.run();
    const double per_read =
        static_cast<double>(g_news - before) / static_cast<double>(kOps);

    std::printf("operator new per 4 KB read: %.2f (budget %.0f), "
                "errors %llu\n",
                per_read, kBudget,
                static_cast<unsigned long long>(res.errors));
    return per_read <= kBudget && res.errors == 0 ? 0 : 1;
}
