#include "net/fabric.h"

#include <cassert>
#include <utility>

namespace draid::net {

Fabric::Fabric(sim::Simulator &sim, sim::Ticks propagation)
    : sim_(sim), propagation_(propagation)
{
}

void
Fabric::attach(sim::NodeId node, Nic &nic, Endpoint *endpoint)
{
    assert(!ports_.contains(node));
    ports_[node] = Port{&nic, endpoint, sim::Ticks::zero()};
}

void
Fabric::setEndpoint(sim::NodeId node, Endpoint *endpoint)
{
    ports_.at(node).endpoint = endpoint;
}

sim::Ticks
Fabric::delayFor(sim::NodeId a, sim::NodeId b) const
{
    sim::Ticks d = propagation_;
    auto ia = ports_.find(a);
    if (ia != ports_.end())
        d += ia->second.extraDelay;
    auto ib = ports_.find(b);
    if (ib != ports_.end())
        d += ib->second.extraDelay;
    return d;
}

void
Fabric::transferPair(sim::NodeId src, sim::NodeId dst, std::uint64_t bytes,
                     std::uint64_t trace, sim::EventFn done)
{
    auto &sp = ports_.at(src);
    auto &dp = ports_.at(dst);
    const sim::Ticks delay = delayFor(src, dst);

    const std::uint32_t slot =
        hops_.acquire(Hop{2, delay, src, trace, std::move(done)});
    // Both port directions are charged the full transfer; completion waits
    // for the later of the two (cut-through forwarding).
    const auto leg = [this, slot]() { legDone(slot); };
    sp.nic->tx().transfer(bytes, trace, leg);
    dp.nic->rx().transfer(bytes, trace, leg);
}

void
Fabric::legDone(std::uint32_t slot)
{
    Hop &hop = hops_[slot];
    if (--hop.remaining != 0)
        return;
    probe_.at(hop.src).untaggedSpan(hop.trace, "fabric", "fabric.prop",
                                    sim_.now().raw(),
                                    (sim_.now() + hop.delay).raw());
    sim_.schedule(hop.delay, "fabric.prop", [this, slot]() { hopDone(slot); });
}

void
Fabric::hopDone(std::uint32_t slot)
{
    const sim::EventFn done = std::exchange(hops_[slot].done, nullptr);
    hops_.release(slot);
    done();
}

void
Fabric::send(Message msg)
{
    assert(ports_.contains(msg.from) && ports_.contains(msg.to));
    if (down_.contains(msg.from) || down_.contains(msg.to)) {
        ++dropped_;
        return;
    }
    const std::uint32_t wire = msg.capsule.wireSize();
    const sim::NodeId from = msg.from;
    const sim::NodeId to = msg.to;
    const std::uint64_t trace = msg.capsule.traceId;
    const std::uint32_t slot = messages_.acquire(std::move(msg));
    transferPair(from, to, wire, trace, [this, slot]() { deliver(slot); });
}

void
Fabric::deliver(std::uint32_t slot)
{
    // Moving out leaves the slot holding no payload or SGE storage.
    const Message msg = std::move(messages_[slot]);
    messages_.release(slot);
    // The destination may have gone down in flight.
    if (down_.contains(msg.to)) {
        ++dropped_;
        return;
    }
    ++delivered_;
    auto *ep = ports_.at(msg.to).endpoint;
    if (ep)
        ep->onMessage(msg);
}

bool
Fabric::rdmaRead(sim::NodeId initiator, sim::NodeId target,
                 std::uint64_t bytes, sim::EventFn done, std::uint64_t trace)
{
    if (down_.contains(initiator) || down_.contains(target)) {
        ++dropped_;
        return false;
    }
    // Data flows target -> initiator.
    transferPair(target, initiator, bytes, trace, std::move(done));
    return true;
}

bool
Fabric::rdmaWrite(sim::NodeId initiator, sim::NodeId target,
                  std::uint64_t bytes, sim::EventFn done, std::uint64_t trace)
{
    if (down_.contains(initiator) || down_.contains(target)) {
        ++dropped_;
        return false;
    }
    transferPair(initiator, target, bytes, trace, std::move(done));
    return true;
}

void
Fabric::setNodeDown(sim::NodeId node, bool down)
{
    if (down)
        down_.insert(node);
    else
        down_.erase(node);
}

bool
Fabric::isDown(sim::NodeId node) const
{
    return down_.contains(node);
}

void
Fabric::setExtraDelay(sim::NodeId node, sim::Ticks delay)
{
    ports_.at(node).extraDelay = delay;
}

Nic &
Fabric::nicOf(sim::NodeId node)
{
    return *ports_.at(node).nic;
}

} // namespace draid::net
