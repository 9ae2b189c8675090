#include "ycsb_driver.h"

#include <memory>

namespace draid::bench {

namespace {

/** Generic closed-loop runner: keeps `depth` app ops in flight. */
template <typename IssueFn>
YcsbResult
runClosedLoop(sim::Simulator &sim, std::uint64_t num_ops, int depth,
              IssueFn issue)
{
    struct State
    {
        std::uint64_t issued = 0;
        std::uint64_t completed = 0;
        sim::LatencyRecorder latency;
        sim::Ticks begin = sim::Ticks::zero();
    };
    auto st = std::make_shared<State>();
    st->begin = sim.now();

    // issue(onDone) starts one op; onDone() is called at completion.
    std::function<void()> pump = [&sim, st, num_ops, &issue, &pump]() {};
    auto pump_ptr = std::make_shared<std::function<void()>>();
    *pump_ptr = [&sim, st, num_ops, issue, pump_ptr]() {
        if (st->issued >= num_ops)
            return;
        ++st->issued;
        const sim::Ticks t0 = sim.now();
        issue([&sim, st, num_ops, t0, pump_ptr]() {
            st->latency.record(sim.now() - t0);
            if (++st->completed == num_ops) {
                sim.stop();
                return;
            }
            (*pump_ptr)();
        });
    };
    for (int i = 0; i < depth; ++i)
        (*pump_ptr)();
    sim.run();

    YcsbResult r;
    const double secs = sim::toSeconds(sim.now() - st->begin);
    if (secs > 0)
        r.kiops = static_cast<double>(st->completed) / secs / 1e3;
    r.avgLatencyUs = st->latency.mean() / sim::kMicrosecond;
    return r;
}

} // namespace

YcsbResult
runObjectStoreYcsb(SystemUnderTest &sut, workload::YcsbWorkload workload,
                   std::uint64_t num_objects, std::uint64_t num_ops,
                   int depth, std::uint32_t object_size)
{
    auto &sim = sut.sim();
    auto store = std::make_shared<app::ObjectStore>(sut.device(),
                                                    object_size);

    // Load phase: insert every object (uniform distribution per §9.6).
    {
        std::uint64_t loaded = 0;
        std::uint64_t next = 0;
        auto pump = std::make_shared<std::function<void()>>();
        *pump = [&, pump]() {
            if (next >= num_objects)
                return;
            const std::uint64_t id = next++;
            ec::Buffer obj = ec::Buffer::forOverwrite(object_size);
            obj.fill(static_cast<std::uint8_t>(id));
            store->put(id, std::move(obj), [&, pump](bool) {
                if (++loaded == num_objects)
                    sim.stop();
                else
                    (*pump)();
            });
        };
        for (int i = 0; i < 16 && i < static_cast<int>(num_objects); ++i)
            (*pump)();
        sim.run();
    }

    // Key stream seed derives from the harness --seed (offset keeps the
    // object-store and MiniKv streams distinct, and the default seed of 1
    // reproduces the historical artifacts).
    auto gen = std::make_shared<workload::YcsbGenerator>(
        workload, workload::YcsbDistribution::kUniform, num_objects,
        benchSeed() + 6);

    return runClosedLoop(
        sim, num_ops, depth,
        [store, gen, object_size](std::function<void()> done) {
            const auto op = gen->next();
            switch (op.type) {
              case workload::YcsbOp::Type::kRead:
                store->get(op.key,
                           [done](bool, ec::Buffer) { done(); });
                break;
              case workload::YcsbOp::Type::kUpdate:
              case workload::YcsbOp::Type::kInsert: {
                ec::Buffer obj = ec::Buffer::forOverwrite(object_size);
                obj.fill(static_cast<std::uint8_t>(op.key));
                store->put(op.key, std::move(obj),
                           [done](bool) { done(); });
                break;
              }
              case workload::YcsbOp::Type::kReadModifyWrite:
                store->get(op.key, [store, op, object_size,
                                    done](bool, ec::Buffer data) {
                    ec::Buffer updated =
                        data.empty() ? ec::Buffer(object_size)
                                     : data.clone();
                    updated[0] ^= 1;
                    store->put(op.key, std::move(updated),
                               [done](bool) { done(); });
                });
                break;
            }
        });
}

YcsbResult
runMiniKvYcsb(SystemUnderTest &sut, workload::YcsbWorkload workload,
              std::uint64_t num_records, std::uint64_t num_ops, int depth)
{
    auto &sim = sut.sim();
    app::MiniKvConfig cfg;
    auto kv = std::make_shared<app::MiniKv>(
        sim, sut.cluster().host().cpu(), sut.device(), cfg);

    // Load phase.
    {
        std::uint64_t loaded = 0;
        std::uint64_t next = 0;
        auto pump = std::make_shared<std::function<void()>>();
        *pump = [&, pump]() {
            if (next >= num_records)
                return;
            kv->put(next++, [&, pump](bool) {
                if (++loaded == num_records)
                    sim.stop();
                else
                    (*pump)();
            });
        };
        for (int i = 0; i < 32; ++i)
            (*pump)();
        sim.run();
    }

    // Uniform keys (like the paper's object-store runs): MiniKv's compact
    // keyspace would otherwise concentrate zipfian-hot keys into a single
    // stripe and overstate the POC's read-lock penalty.
    auto gen = std::make_shared<workload::YcsbGenerator>(
        workload,
        workload == workload::YcsbWorkload::kD
            ? workload::YcsbDistribution::kLatest
            : workload::YcsbDistribution::kUniform,
        num_records, benchSeed() + 10);

    return runClosedLoop(sim, num_ops, depth,
                         [kv, gen](std::function<void()> done) {
        const auto op = gen->next();
        switch (op.type) {
          case workload::YcsbOp::Type::kRead:
            kv->get(op.key, [done](bool) { done(); });
            break;
          case workload::YcsbOp::Type::kUpdate:
          case workload::YcsbOp::Type::kInsert:
            kv->put(op.key, [done](bool) { done(); });
            break;
          case workload::YcsbOp::Type::kReadModifyWrite:
            kv->get(op.key, [kv, op, done](bool) {
                kv->put(op.key, [done](bool) { done(); });
            });
            break;
        }
    });
}

} // namespace draid::bench
