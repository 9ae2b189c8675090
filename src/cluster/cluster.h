/**
 * @file
 * Cluster: assembles the simulated testbed — one host plus N storage
 * servers on a common fabric — and provides failure-injection hooks used
 * by the degraded-state experiments and the failure-handling tests.
 */

#ifndef DRAID_CLUSTER_CLUSTER_H
#define DRAID_CLUSTER_CLUSTER_H

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/node.h"
#include "cluster/testbed.h"
#include "net/fabric.h"
#include "sim/simulator.h"
#include "telemetry/probe.h"
#include "telemetry/telemetry.h"

namespace draid::cluster {

/** The simulated testbed. */
class Cluster
{
  public:
    /**
     * @param config        calibration constants
     * @param num_targets   storage servers (one SSD each)
     * @param target_goodputs  optional per-target NIC bandwidth override;
     *        entries beyond the vector fall back to the 100 Gbps default.
     *        Used by the heterogeneous-network experiment (Fig. 17b).
     */
    Cluster(const TestbedConfig &config, std::uint32_t num_targets,
            std::vector<double> target_goodputs = {});

    sim::Simulator &sim() { return sim_; }
    net::Fabric &fabric() { return fabric_; }
    const TestbedConfig &config() const { return config_; }

    Node &host() { return *host_; }
    Node &target(std::uint32_t i) { return *targets_.at(i); }
    std::uint32_t numTargets() const
    {
        return static_cast<std::uint32_t>(targets_.size());
    }

    sim::NodeId hostId() const { return 0; }
    sim::NodeId targetNodeId(std::uint32_t i) const { return i + 1; }

    /** Target index of a fabric node id. @pre node > 0 */
    std::uint32_t
    targetIndexOf(sim::NodeId node) const
    {
        return node - 1;
    }

    /** The testbed's telemetry bundle (metrics + tracer + sampler). */
    telemetry::Telemetry &telemetry() { return telemetry_; }
    const telemetry::Telemetry &telemetry() const { return telemetry_; }
    telemetry::Tracer &tracer() { return telemetry_.tracer(); }

    /** The telemetry handle a component on @p node reports through. */
    telemetry::Probe probe(sim::NodeId node)
    {
        return telemetry::Probe(telemetry_, node);
    }

    /** Human name for a fabric node id: "host0" or "node<i>". */
    std::string nodeName(sim::NodeId node) const;

    /** Metric scope rooted at a node's name ("node3.nic.tx_bytes"...). */
    telemetry::MetricScope nodeScope(sim::NodeId node)
    {
        return telemetry_.root().scope(nodeName(node));
    }

    /**
     * Begin periodic busy-fraction sampling of every NIC direction, CPU
     * core, and SSD channel. Observe-only; safe to leave off (the default).
     */
    void startUtilizationSampling(sim::Ticks interval);

    /** Take a storage server off the network (prolonged failure, §5.4). */
    void failTarget(std::uint32_t i);

    /** Bring a previously failed server back (transient failure). */
    void recoverTarget(std::uint32_t i);

    bool isTargetFailed(std::uint32_t i) const;

  private:
    /** Register per-node metric probes and attach @p node's resources
     *  to telemetry. */
    void instrumentNode(Node &node);

    TestbedConfig config_;
    sim::Simulator sim_;
    net::Fabric fabric_;
    telemetry::Telemetry telemetry_;
    std::unique_ptr<Node> host_;
    // draid-lint: cap(num_targets; fixed at construction)
    std::vector<std::unique_ptr<Node>> targets_;
};

} // namespace draid::cluster

#endif // DRAID_CLUSTER_CLUSTER_H
