#include "nvme/ssd.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "telemetry/interference.h"
#include "telemetry/telemetry.h"

namespace draid::nvme {

namespace {

/** Channel "bytes" (= ns) for moving @p bytes at @p rate bytes/sec. */
std::uint64_t
scaled(std::uint64_t bytes, double rate)
{
    return static_cast<std::uint64_t>(
        std::ceil(static_cast<double>(bytes) / rate * 1e9));
}

} // namespace

Ssd::Ssd(sim::Simulator &sim, const SsdConfig &config)
    : sim_(sim),
      config_(config),
      store_(config.capacity),
      channel_(sim, 1e9, sim::Ticks::zero(), config.perCommand)
{
    // Label-only: channel completions attribute as "ssd.channel" in the
    // engine profile (span recording stays off; see channelTap_).
    channel_.setLabel("ssd.channel");
}

void
Ssd::read(std::uint64_t offset, std::uint32_t length,
          blockdev::ReadCallback cb)
{
    read(offset, length, 0, std::move(cb));
}

void
Ssd::read(std::uint64_t offset, std::uint32_t length, std::uint64_t trace,
          blockdev::ReadCallback cb)
{
    bytesRead_ += length;
    const sim::Ticks start = std::max(sim_.now(), channel_.busyUntil());
    // The trace rides into the channel pipe for contention attribution
    // (the channel tap is silent, so no duplicate span appears).
    channel_.transfer(scaled(length, config_.readBw / degrade_), trace,
                      [this, offset, length, cb = std::move(cb)]() {
        const auto latency = sim::Ticks{static_cast<sim::Tick>(
            static_cast<double>(config_.readLatency.raw()) * degrade_)};
        sim_.schedule(latency, "ssd.read.done",
                      [this, offset, length, cb = std::move(cb)]() {
            ++reads_;
            // A planted latent sector error surfaces only when the media
            // is actually accessed: the drive burns the full service time
            // and then reports the unreadable range (checked at media
            // time, so an intervening rewrite rescues the read).
            if (const auto *hit = findLse(offset, length)) {
                ++lseHits_;
                probe_.event(telemetry::EventType::kLatentSectorError,
                             sim_.now().raw(), hit->first,
                             hit->second - hit->first);
                cb(blockdev::IoStatus::kError, ec::Buffer());
                return;
            }
            cb(blockdev::IoStatus::kOk, store_.readSync(offset, length));
        });
    });
    probe_.span(trace, "ssd", "ssd.read", start.raw(),
                channel_.busyUntil().raw(), {"bytes", length});
}

void
Ssd::write(std::uint64_t offset, ec::Buffer data, blockdev::WriteCallback cb)
{
    write(offset, std::move(data), 0, std::move(cb));
}

void
Ssd::write(std::uint64_t offset, ec::Buffer data, std::uint64_t trace,
           blockdev::WriteCallback cb)
{
    const std::uint64_t length = data.size();
    bytesWritten_ += length;
    const sim::Ticks start = std::max(sim_.now(), channel_.busyUntil());
    channel_.transfer(scaled(length, config_.writeBw / degrade_), trace,
                      [this, offset, data = std::move(data),
                       cb = std::move(cb)]() {
        const auto latency = sim::Ticks{static_cast<sim::Tick>(
            static_cast<double>(config_.writeLatency.raw()) * degrade_)};
        sim_.schedule(latency, "ssd.write.done",
                      [this, offset, data = std::move(data),
                       cb = std::move(cb)]() {
            ++writes_;
            store_.writeSync(offset, data);
            // Rewriting remaps bad sectors: drop every planted range the
            // write touches (checked at media time, like the read path).
            if (!lse_.empty()) {
                const std::uint64_t end = offset + data.size();
                for (auto it = lse_.begin(); it != lse_.end();) {
                    if (it->first < end && it->second > offset)
                        it = lse_.erase(it);
                    else
                        ++it;
                }
            }
            cb(blockdev::IoStatus::kOk);
        });
    });
    probe_.span(trace, "ssd", "ssd.write", start.raw(),
                channel_.busyUntil().raw(), {"bytes", length});
}

void
Ssd::attach(telemetry::Probe probe)
{
    probe_ = probe;
    std::uint32_t res = 0;
    if (telemetry::Telemetry *tel = probe.telemetry()) {
        res = tel->contention().registerResource(
            probe.node(),
            telemetry::ContentionTracker::ResourceKind::SsdChannel);
    }
    channelTap_ = telemetry::LaneTap(telemetry::LaneTap::Style::kSilent,
                                     probe, res);
    channel_.setObserver(&channelTap_);
}

void
Ssd::setDegradeFactor(double factor)
{
    assert(factor >= 1.0);
    degrade_ = factor;
}

void
Ssd::plantLatentSectorError(std::uint64_t offset, std::uint32_t length)
{
    assert(length > 0);
    assert(offset + length <= config_.capacity);
    // Keep ranges disjoint: extend an existing overlapping range instead
    // of stacking duplicates (plant order must not matter).
    const std::uint64_t lo = offset;
    const std::uint64_t hi = offset + length;
    auto it = lse_.lower_bound(lo);
    if (it != lse_.begin()) {
        auto prev = std::prev(it);
        if (prev->second >= lo)
            it = prev;
    }
    std::uint64_t mergedLo = lo, mergedHi = hi;
    while (it != lse_.end() && it->first <= mergedHi) {
        mergedLo = std::min(mergedLo, it->first);
        mergedHi = std::max(mergedHi, it->second);
        it = lse_.erase(it);
    }
    lse_.emplace(mergedLo, mergedHi);
}

const std::pair<const std::uint64_t, std::uint64_t> *
Ssd::findLse(std::uint64_t offset, std::uint64_t length) const
{
    if (lse_.empty())
        return nullptr;
    const std::uint64_t end = offset + length;
    auto it = lse_.upper_bound(offset);
    if (it != lse_.begin()) {
        auto prev = std::prev(it);
        if (prev->second > offset)
            return &*prev;
    }
    if (it != lse_.end() && it->first < end)
        return &*it;
    return nullptr;
}

} // namespace draid::nvme
