#include "telemetry/event_journal.h"

namespace draid::telemetry {

const char *
eventTypeName(EventType t)
{
    switch (t) {
      case EventType::kDriveFailed: return "DriveFailed";
      case EventType::kDriveRecovered: return "DriveRecovered";
      case EventType::kTargetDown: return "TargetDown";
      case EventType::kTargetRecovered: return "TargetRecovered";
      case EventType::kRebuildStarted: return "RebuildStarted";
      case EventType::kRebuildProgress: return "RebuildProgress";
      case EventType::kRebuildCompleted: return "RebuildCompleted";
      case EventType::kScrubPass: return "ScrubPass";
      case EventType::kDegradedReadServed: return "DegradedReadServed";
      case EventType::kStripeLockConvoy: return "StripeLockConvoy";
      case EventType::kHotSpareSwap: return "HotSpareSwap";
      case EventType::kOpTimeout: return "OpTimeout";
      case EventType::kSlowDriveDetected: return "SlowDriveDetected";
      case EventType::kLatentSectorError: return "LatentSectorError";
      case EventType::kTargetFlap: return "TargetFlap";
      case EventType::kSwitchPortDegraded: return "SwitchPortDegraded";
      case EventType::kDataLoss: return "DataLoss";
    }
    return "?";
}

void
EventJournal::record(EventType type, sim::NodeId node, sim::Tick tick,
                     std::uint64_t a, std::uint64_t b)
{
    if (enabled_)
        ring_.push(Event{type, node, tick, a, b});
}

std::vector<EventJournal::Event>
EventJournal::snapshotRange(sim::Tick from, sim::Tick to) const
{
    std::vector<Event> out;
    for (const Event &e : snapshot()) {
        if (e.tick >= from && e.tick < to)
            out.push_back(e);
    }
    return out;
}

void
EventJournal::writeJsonl(std::ostream &os) const
{
    for (const Event &e : snapshot()) {
        os << "{\"tick\":" << e.tick << ",\"type\":\""
           << eventTypeName(e.type) << "\",\"node\":" << e.node
           << ",\"a\":" << e.a << ",\"b\":" << e.b << "}\n";
    }
}

} // namespace draid::telemetry
