#include "obs/metrics.h"

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

namespace crw {
namespace obs {

void
RunManifest::noteValue(const std::string &key, const std::string &value)
{
    // Keep the field a sorted, deduplicated comma-joined set so the
    // stamp is independent of publication order.
    std::set<std::string> parts;
    const auto it = fields.find(key);
    if (it != fields.end() && !it->second.empty()) {
        std::istringstream in(it->second);
        std::string part;
        while (std::getline(in, part, ','))
            parts.insert(part);
    }
    parts.insert(value);
    std::string joined;
    for (const std::string &p : parts) {
        if (!joined.empty())
            joined += ',';
        joined += p;
    }
    fields[key] = joined;
}

std::atomic<std::uint64_t> &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    return counters_[name];
}

void
MetricsRegistry::add(const std::string &name, std::uint64_t v)
{
    counter(name).fetch_add(v, std::memory_order_relaxed);
}

std::uint64_t
MetricsRegistry::counterValue(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = counters_.find(name);
    return it == counters_.end()
               ? 0
               : it->second.load(std::memory_order_relaxed);
}

void
MetricsRegistry::sample(const std::string &name, double v)
{
    std::lock_guard<std::mutex> lock(mu_);
    samples_[name].sample(v);
}

SampleSummary
MetricsRegistry::sampleSummary(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = samples_.find(name);
    return it == samples_.end() ? SampleSummary{} : it->second;
}

void
MetricsRegistry::mergePoint(const std::string &label,
                            const PointRecord &rec)
{
    std::lock_guard<std::mutex> lock(mu_);
    PointRecord &dst = points_[label];
    dst.cycles += rec.cycles;
    for (const auto &kv : rec.counters)
        dst.counters[kv.first] += kv.second;
    for (const auto &kv : rec.values)
        dst.values[kv.first] = kv.second;
}

PointRecord
MetricsRegistry::point(const std::string &label) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = points_.find(label);
    return it == points_.end() ? PointRecord{} : it->second;
}

std::size_t
MetricsRegistry::pointCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return points_.size();
}

std::string
formatJsonDouble(double v)
{
    // Shortest representation that round-trips: try increasing
    // precision, settle on the first that parses back exactly. The
    // result depends only on the value, never on locale or platform
    // printf quirks for these ranges.
    char buf[40];
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof buf, "%.*g", prec, v);
        double back = 0.0;
        std::sscanf(buf, "%lf", &back);
        if (back == v)
            break;
    }
    // JSON has no inf/nan; clamp to null-ish sentinels.
    std::string s(buf);
    if (s.find("inf") != std::string::npos ||
        s.find("nan") != std::string::npos)
        return "0";
    return s;
}

std::string
escapeJson(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace {

bool
isHostName(const std::string &name)
{
    return name.rfind("host.", 0) == 0;
}

void
writeCycleAccount(std::ostream &os, const CycleAccount &c,
                  const char *indent)
{
    os << indent << "\"cycles\": {\"compute\": " << c.compute
       << ", \"callret\": " << c.callret << ", \"trap\": " << c.trap
       << ", \"switch\": " << c.switches
       << ", \"total\": " << c.total << "}";
}

void
writeSummary(std::ostream &os, const SampleSummary &s)
{
    os << "{\"count\": " << s.count
       << ", \"sum\": " << formatJsonDouble(s.sum)
       << ", \"min\": " << formatJsonDouble(s.min)
       << ", \"max\": " << formatJsonDouble(s.max)
       << ", \"mean\": " << formatJsonDouble(s.mean()) << "}";
}

} // namespace

void
MetricsRegistry::writeJson(std::ostream &os,
                           const RunManifest &manifest) const
{
    std::lock_guard<std::mutex> lock(mu_);

    os << "{\n  \"manifest\": {";
    bool first = true;
    for (const auto &kv : manifest.fields) {
        os << (first ? "\n" : ",\n") << "    \""
           << escapeJson(kv.first) << "\": \""
           << escapeJson(kv.second) << "\"";
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n";

    os << "  \"points\": {";
    first = true;
    for (const auto &kv : points_) {
        os << (first ? "\n" : ",\n") << "    \""
           << escapeJson(kv.first) << "\": {\n";
        writeCycleAccount(os, kv.second.cycles, "      ");
        for (const auto &c : kv.second.counters)
            os << ",\n      \"" << escapeJson(c.first)
               << "\": " << c.second;
        for (const auto &v : kv.second.values)
            os << ",\n      \"" << escapeJson(v.first)
               << "\": " << formatJsonDouble(v.second);
        os << "\n    }";
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n";

    os << "  \"counters\": {";
    first = true;
    for (const auto &kv : counters_) {
        if (isHostName(kv.first))
            continue;
        os << (first ? "\n" : ",\n") << "    \""
           << escapeJson(kv.first)
           << "\": " << kv.second.load(std::memory_order_relaxed);
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n";

    os << "  \"samples\": {";
    first = true;
    for (const auto &kv : samples_) {
        if (isHostName(kv.first))
            continue;
        os << (first ? "\n" : ",\n") << "    \""
           << escapeJson(kv.first) << "\": ";
        writeSummary(os, kv.second);
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n";

    // Host section last: wall-clock derived, excluded from the
    // determinism gates by design (check_determinism.sh part 3).
    os << "  \"host\": {";
    first = true;
    for (const auto &kv : counters_) {
        if (!isHostName(kv.first))
            continue;
        os << (first ? "\n" : ",\n") << "    \""
           << escapeJson(kv.first)
           << "\": " << kv.second.load(std::memory_order_relaxed);
        first = false;
    }
    for (const auto &kv : samples_) {
        if (!isHostName(kv.first))
            continue;
        os << (first ? "\n" : ",\n") << "    \""
           << escapeJson(kv.first) << "\": ";
        writeSummary(os, kv.second);
        first = false;
    }
    os << (first ? "" : "\n  ") << "}\n}\n";
}

bool
MetricsRegistry::writeJsonFile(const std::string &path,
                               const RunManifest &manifest,
                               std::string *error) const
{
    std::ofstream os(path);
    if (!os) {
        if (error)
            *error = "cannot open " + path;
        return false;
    }
    writeJson(os, manifest);
    os.flush();
    if (!os) {
        if (error)
            *error = "short write to " + path;
        return false;
    }
    return true;
}

} // namespace obs
} // namespace crw
