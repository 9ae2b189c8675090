#include "telemetry/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace draid::telemetry {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds))
{
    assert(std::is_sorted(bounds_.begin(), bounds_.end()));
    counts_.assign(bounds_.size() + 1, 0);
}

void
Histogram::observe(double sample)
{
    std::size_t i = 0;
    while (i < bounds_.size() && sample > bounds_[i])
        ++i;
    ++counts_[i];
    ++count_;
    sum_ += sample;
    if (count_ == 1) {
        min_ = max_ = sample;
    } else {
        min_ = std::min(min_, sample);
        max_ = std::max(max_, sample);
    }
}

std::vector<double>
latencyBucketsUs()
{
    // 1us .. ~1s in half-decade steps; covers queueing collapse tails.
    return {1,    2,    5,     10,    20,    50,     100,    200,    500,
            1000, 2000, 5000,  10000, 20000, 50000,  100000, 200000, 500000,
            1000000};
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    return counters_[name];
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    return gauges_[name];
}

Histogram &
MetricsRegistry::histogram(const std::string &name,
                           std::vector<double> bounds)
{
    auto it = histograms_.find(name);
    if (it == histograms_.end())
        it = histograms_.emplace(name, Histogram(std::move(bounds))).first;
    return it->second;
}

void
MetricsRegistry::probe(const std::string &name, std::function<double()> fn)
{
    probes_[name] = std::move(fn);
}

bool
MetricsRegistry::hasCounter(const std::string &name) const
{
    return counters_.contains(name);
}

bool
MetricsRegistry::hasProbe(const std::string &name) const
{
    return probes_.contains(name);
}

std::uint64_t
MetricsRegistry::counterValue(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value();
}

double
MetricsRegistry::probeValue(const std::string &name) const
{
    auto it = probes_.find(name);
    return it == probes_.end() ? 0.0 : it->second();
}

std::vector<std::string>
MetricsRegistry::names() const
{
    std::vector<std::string> out;
    for (const auto &[n, c] : counters_)
        out.push_back(n);
    for (const auto &[n, g] : gauges_)
        out.push_back(n);
    for (const auto &[n, h] : histograms_)
        out.push_back(n);
    for (const auto &[n, p] : probes_)
        out.push_back(n);
    std::sort(out.begin(), out.end());
    return out;
}

void
writeJsonString(std::ostream &os, std::string_view s)
{
    os << '"';
    for (const char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

namespace {

void
writeJsonNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        os << "0";
        return;
    }
    if (v == static_cast<double>(static_cast<std::int64_t>(v))) {
        os << static_cast<std::int64_t>(v);
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    os << buf;
}

} // namespace

void
MetricsRegistry::writeJson(std::ostream &os) const
{
    os << "{";

    os << "\"counters\":{";
    bool first = true;
    for (const auto &[name, c] : counters_) {
        if (!first)
            os << ",";
        first = false;
        writeJsonString(os, name);
        os << ":" << c.value();
    }
    os << "},";

    os << "\"gauges\":{";
    first = true;
    for (const auto &[name, g] : gauges_) {
        if (!first)
            os << ",";
        first = false;
        writeJsonString(os, name);
        os << ":";
        writeJsonNumber(os, g.value());
    }
    os << "},";

    os << "\"probes\":{";
    first = true;
    for (const auto &[name, fn] : probes_) {
        if (!first)
            os << ",";
        first = false;
        writeJsonString(os, name);
        os << ":";
        writeJsonNumber(os, fn());
    }
    os << "},";

    os << "\"histograms\":{";
    first = true;
    for (const auto &[name, h] : histograms_) {
        if (!first)
            os << ",";
        first = false;
        writeJsonString(os, name);
        os << ":{\"count\":" << h.count() << ",\"sum\":";
        writeJsonNumber(os, h.sum());
        os << ",\"min\":";
        writeJsonNumber(os, h.min());
        os << ",\"max\":";
        writeJsonNumber(os, h.max());
        os << ",\"bounds\":[";
        for (std::size_t i = 0; i < h.bounds().size(); ++i) {
            if (i)
                os << ",";
            writeJsonNumber(os, h.bounds()[i]);
        }
        os << "],\"buckets\":[";
        for (std::size_t i = 0; i < h.bucketCounts().size(); ++i) {
            if (i)
                os << ",";
            os << h.bucketCounts()[i];
        }
        os << "]}";
    }
    os << "}";

    os << "}";
}

std::string
MetricsRegistry::toJson() const
{
    std::ostringstream oss;
    writeJson(oss);
    return oss.str();
}

} // namespace draid::telemetry
