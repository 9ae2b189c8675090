#include "cluster/cluster.h"

#include <string>

namespace draid::cluster {

Cluster::Cluster(const TestbedConfig &config, std::uint32_t num_targets,
                 std::vector<double> target_goodputs)
    : config_(config), sim_(), fabric_(sim_, config.propagation)
{
    fabric_.attach(probe(hostId()));
    host_ = std::make_unique<Node>(sim_, hostId(), config.nicGoodput100g,
                                   config.nicPerMessage, std::nullopt);
    fabric_.attach(hostId(), host_->nic(), nullptr);
    instrumentNode(*host_);

    targets_.reserve(num_targets);
    for (std::uint32_t i = 0; i < num_targets; ++i) {
        const double goodput = i < target_goodputs.size()
                                   ? target_goodputs[i]
                                   : config.nicGoodput100g;
        auto node = std::make_unique<Node>(sim_, targetNodeId(i), goodput,
                                           config.nicPerMessage, config.ssd);
        fabric_.attach(targetNodeId(i), node->nic(), nullptr);
        instrumentNode(*node);
        targets_.push_back(std::move(node));
    }

    auto fab = telemetry_.root().scope("fabric");
    fab.probe("messages_delivered", [this] {
        return static_cast<double>(fabric_.messagesDelivered());
    });
    fab.probe("messages_dropped", [this] {
        return static_cast<double>(fabric_.messagesDropped());
    });
}

std::string
Cluster::nodeName(sim::NodeId node) const
{
    return node == hostId() ? "host0" : "node" + std::to_string(node);
}

void
Cluster::instrumentNode(Node &node)
{
    const sim::NodeId id = node.id();
    telemetry_.tracer().setNodeName(id, nodeName(id));
    // The sim-layer resources are telemetry-blind (layering DAG, DESIGN.md
    // §6): each gets a lane label plus an observe-only LaneTap the node
    // owns, built from the node's probe. Every FIFO resource registers
    // with the contention tracker up front; the hooks stay one
    // predictable branch until the harness enables the tracker
    // (--interference=, or runTenantFio()).
    const telemetry::Probe p = probe(id);
    telemetry::ContentionTracker &ct = telemetry_.contention();
    using RK = telemetry::ContentionTracker::ResourceKind;
    using Style = telemetry::LaneTap::Style;
    node.nic().tx().setLabel("nic.tx");
    node.nic().rx().setLabel("nic.rx");
    node.txTap() = telemetry::LaneTap(Style::kPipe, p,
                                      ct.registerResource(id, RK::NicTx));
    node.rxTap() = telemetry::LaneTap(Style::kPipe, p,
                                      ct.registerResource(id, RK::NicRx));
    node.cpuTap() = telemetry::LaneTap(Style::kCpu, p,
                                       ct.registerResource(id, RK::Cpu));
    node.nic().tx().setObserver(&node.txTap());
    node.nic().rx().setObserver(&node.rxTap());
    node.cpu().setObserver(&node.cpuTap());
    if (node.hasSsd())
        node.ssd().attach(p);

    // Pull probes over the counters the components already keep; sampling
    // them at snapshot time costs the hot path nothing.
    auto scope = nodeScope(id);
    auto nic = scope.scope("nic");
    const net::Nic &n = node.nic();
    nic.probe("tx_bytes", [&n] {
        return static_cast<double>(n.tx().bytesTransferred());
    });
    nic.probe("tx_ops", [&n] {
        return static_cast<double>(n.tx().opsTransferred());
    });
    nic.probe("tx_busy_ticks", [&n] {
        return static_cast<double>(n.tx().busyTime().raw());
    });
    nic.probe("rx_bytes", [&n] {
        return static_cast<double>(n.rx().bytesTransferred());
    });
    nic.probe("rx_ops", [&n] {
        return static_cast<double>(n.rx().opsTransferred());
    });
    nic.probe("rx_busy_ticks", [&n] {
        return static_cast<double>(n.rx().busyTime().raw());
    });

    auto cpu = scope.scope("cpu");
    const sim::CpuCore &core = node.cpu();
    cpu.probe("busy_ticks",
              [&core] { return static_cast<double>(core.busyTime().raw()); });

    if (node.hasSsd()) {
        auto ssd = scope.scope("ssd");
        const nvme::Ssd &drive = node.ssd();
        ssd.probe("reads", [&drive] {
            return static_cast<double>(drive.readsCompleted());
        });
        ssd.probe("writes", [&drive] {
            return static_cast<double>(drive.writesCompleted());
        });
        ssd.probe("bytes_read", [&drive] {
            return static_cast<double>(drive.bytesRead());
        });
        ssd.probe("bytes_written", [&drive] {
            return static_cast<double>(drive.bytesWritten());
        });
        ssd.probe("channel_busy_ticks", [&drive] {
            return static_cast<double>(drive.channel().busyTime().raw());
        });
    }
}

void
Cluster::startUtilizationSampling(sim::Ticks interval)
{
    telemetry::UtilizationSampler &sampler = telemetry_.sampler();
    auto addNode = [&sampler](Node &node) {
        const sim::NodeId id = node.id();
        const net::Nic &n = node.nic();
        sampler.addSource(id, "nic.tx.util",
                          [&n] { return n.tx().busyTime(); });
        sampler.addSource(id, "nic.rx.util",
                          [&n] { return n.rx().busyTime(); });
        const sim::CpuCore &core = node.cpu();
        sampler.addSource(id, "cpu.util",
                          [&core] { return core.busyTime(); });
        if (node.hasSsd()) {
            const nvme::Ssd &drive = node.ssd();
            sampler.addSource(id, "ssd.util", [&drive] {
                return drive.channel().busyTime();
            });
        }
    };
    addNode(*host_);
    for (auto &t : targets_)
        addNode(*t);
    sampler.start(sim_, interval, &telemetry_.tracer());
}

void
Cluster::failTarget(std::uint32_t i)
{
    fabric_.setNodeDown(targetNodeId(i), true);
    telemetry_.journal().record(telemetry::EventType::kTargetDown,
                                targetNodeId(i), sim_.now().raw(), i);
}

void
Cluster::recoverTarget(std::uint32_t i)
{
    fabric_.setNodeDown(targetNodeId(i), false);
    telemetry_.journal().record(telemetry::EventType::kTargetRecovered,
                                targetNodeId(i), sim_.now().raw(), i);
}

bool
Cluster::isTargetFailed(std::uint32_t i) const
{
    return fabric_.isDown(targetNodeId(i));
}

} // namespace draid::cluster
