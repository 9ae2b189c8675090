/**
 * @file
 * Shared fixtures for the integration tests: a small simulated cluster
 * with a dRAID (or baseline) array on top, synchronous-looking I/O
 * helpers, and an on-disk parity scrubber.
 */

#ifndef DRAID_TESTS_DRAID_TEST_UTIL_H
#define DRAID_TESTS_DRAID_TEST_UTIL_H

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "core/draid_bdev.h"
#include "core/draid_host.h"
#include "ec/raid5_codec.h"
#include "ec/raid6_codec.h"

namespace draid::testutil {

/** Build a default testbed with a small SSD so tests stay fast. */
inline cluster::TestbedConfig
smallConfig()
{
    cluster::TestbedConfig cfg;
    cfg.ssd.capacity = 64ull << 20; // 64 MB per drive
    return cfg;
}

/** Synchronously write through a BlockDevice (runs the simulator). */
inline bool
writeSync(sim::Simulator &sim, blockdev::BlockDevice &dev,
          std::uint64_t offset, const ec::Buffer &data)
{
    bool ok = false;
    bool done = false;
    dev.write(offset, data.clone(), [&](blockdev::IoStatus st) {
        ok = st == blockdev::IoStatus::kOk;
        done = true;
        sim.stop();
    });
    while (!done && sim.pendingEvents() > 0)
        sim.run();
    return done && ok;
}

/** Synchronously read through a BlockDevice: (status, data). */
inline std::pair<blockdev::IoStatus, ec::Buffer>
readStatusSync(sim::Simulator &sim, blockdev::BlockDevice &dev,
               std::uint64_t offset, std::uint32_t length)
{
    std::pair<blockdev::IoStatus, ec::Buffer> result{
        blockdev::IoStatus::kError, ec::Buffer()};
    bool done = false;
    dev.read(offset, length, [&](blockdev::IoStatus st, ec::Buffer data) {
        result = {st, std::move(data)};
        done = true;
        sim.stop();
    });
    while (!done && sim.pendingEvents() > 0)
        sim.run();
    return result;
}

/** Synchronously read through a BlockDevice. */
inline ec::Buffer
readSync(sim::Simulator &sim, blockdev::BlockDevice &dev,
         std::uint64_t offset, std::uint32_t length, bool *ok_out = nullptr)
{
    auto [st, data] = readStatusSync(sim, dev, offset, length);
    if (ok_out)
        *ok_out = st == blockdev::IoStatus::kOk;
    return data;
}

/**
 * Verify the on-disk parity of one stripe directly against the member
 * drives' backing stores (bypassing all controllers).
 */
inline ::testing::AssertionResult
scrubStripe(cluster::Cluster &cluster, const raid::Geometry &geom,
            std::uint64_t stripe)
{
    const std::uint32_t chunk = geom.chunkSize();
    const std::uint64_t addr = geom.deviceAddress(stripe, 0);

    std::vector<ec::Buffer> data;
    for (std::uint32_t i = 0; i < geom.dataChunks(); ++i) {
        data.push_back(cluster.target(geom.dataDevice(stripe, i))
                           .ssd()
                           .store()
                           .readSync(addr, chunk));
    }
    ec::Buffer p = cluster.target(geom.parityDevice(stripe))
                       .ssd()
                       .store()
                       .readSync(addr, chunk);

    if (geom.level() == raid::RaidLevel::kRaid6) {
        ec::Buffer q = cluster.target(geom.qDevice(stripe))
                           .ssd()
                           .store()
                           .readSync(addr, chunk);
        ec::Buffer ep, eq;
        ec::Raid6Codec::computePQ(data, ep, eq);
        if (!p.contentEquals(ep))
            return ::testing::AssertionFailure()
                   << "P mismatch on stripe " << stripe;
        if (!q.contentEquals(eq))
            return ::testing::AssertionFailure()
                   << "Q mismatch on stripe " << stripe;
        return ::testing::AssertionSuccess();
    }

    ec::Buffer expect = ec::Raid5Codec::computeParity(data);
    if (!p.contentEquals(expect))
        return ::testing::AssertionFailure()
               << "parity mismatch on stripe " << stripe;
    return ::testing::AssertionSuccess();
}

/**
 * Minimal recursive-descent JSON well-formedness checker (RFC 8259
 * grammar, no semantic interpretation). Good enough to catch the classic
 * emitter bugs: trailing commas, unescaped quotes, bare NaN/Infinity.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(std::string s) : s_(std::move(s)) {}

    bool valid()
    {
        ws();
        const bool ok = value();
        ws();
        return ok && pos_ == s_.size();
    }

  private:
    static bool digit(char c)
    {
        return std::isdigit(static_cast<unsigned char>(c)) != 0;
    }

    void ws()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    bool eat(char c)
    {
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool literal(const char *lit)
    {
        const std::size_t n = std::strlen(lit);
        if (s_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool string()
    {
        if (!eat('"'))
            return false;
        while (pos_ < s_.size()) {
            const char c = s_[pos_++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos_ >= s_.size())
                    return false;
                const char e = s_[pos_++];
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        if (pos_ >= s_.size() ||
                            !std::isxdigit(
                                static_cast<unsigned char>(s_[pos_++])))
                            return false;
                    }
                } else if (std::strchr("\"\\/bfnrt", e) == nullptr) {
                    return false;
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                return false; // raw control character inside a string
            }
        }
        return false; // unterminated
    }

    bool number()
    {
        eat('-');
        bool digits = false;
        while (pos_ < s_.size() && digit(s_[pos_])) {
            ++pos_;
            digits = true;
        }
        if (!digits)
            return false;
        if (eat('.')) {
            bool frac = false;
            while (pos_ < s_.size() && digit(s_[pos_])) {
                ++pos_;
                frac = true;
            }
            if (!frac)
                return false;
        }
        if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
            ++pos_;
            if (!eat('+'))
                eat('-');
            bool exp = false;
            while (pos_ < s_.size() && digit(s_[pos_])) {
                ++pos_;
                exp = true;
            }
            if (!exp)
                return false;
        }
        return true;
    }

    bool array()
    {
        if (!eat('['))
            return false;
        ws();
        if (eat(']'))
            return true;
        while (true) {
            if (!value())
                return false;
            ws();
            if (eat(']'))
                return true;
            if (!eat(','))
                return false;
            ws();
        }
    }

    bool object()
    {
        if (!eat('{'))
            return false;
        ws();
        if (eat('}'))
            return true;
        while (true) {
            ws();
            if (!string())
                return false;
            ws();
            if (!eat(':'))
                return false;
            ws();
            if (!value())
                return false;
            ws();
            if (eat('}'))
                return true;
            if (!eat(','))
                return false;
        }
    }

    bool value()
    {
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    std::string s_;
    std::size_t pos_ = 0;
};

/** A ready-to-use dRAID rig. */
struct DraidRig
{
    cluster::TestbedConfig cfg;
    std::unique_ptr<cluster::Cluster> cluster;
    std::unique_ptr<core::DraidSystem> system;

    explicit DraidRig(std::uint32_t targets = 6,
                      core::DraidOptions options = {},
                      std::uint32_t width = 0)
        : cfg(smallConfig())
    {
        cluster = std::make_unique<cluster::Cluster>(cfg, targets);
        system = std::make_unique<core::DraidSystem>(*cluster, options,
                                                     width);
    }

    core::DraidHost &host() { return system->host(); }
    sim::Simulator &sim() { return cluster->sim(); }
};

} // namespace draid::testutil

#endif // DRAID_TESTS_DRAID_TEST_UTIL_H
