#include "spans.h"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "obs/metrics.h"

namespace crw {
namespace perf {

namespace {

const std::chrono::steady_clock::time_point g_start =
    std::chrono::steady_clock::now();

double
tvSeconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
}

} // namespace

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - g_start)
        .count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return tvSeconds(ru.ru_utime) + tvSeconds(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

int
SpanLog::begin(const std::string &name)
{
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, nowSeconds(), 0,
                      open_.empty() ? -1 : open_.back()});
    open_.push_back(id);
    return id;
}

void
SpanLog::end(int id)
{
    spans_[static_cast<std::size_t>(id)].end = nowSeconds();
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

bool
SpanLog::writeChromeJson(const std::string &path,
                         const std::string &run_id, int pid) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        char ts[64], dur[64];
        std::snprintf(ts, sizeof ts, "%.3f", s.start * 1e6);
        std::snprintf(dur, sizeof dur, "%.3f", (s.end - s.start) * 1e6);
        os << (i ? ",\n" : "") << "{\"name\": \""
           << obs::escapeJson(s.name)
           << "\", \"cat\": \"crw\", \"ph\": \"X\", \"pid\": " << pid
           << ", \"tid\": 0, \"ts\": " << ts << ", \"dur\": " << dur
           << ", \"args\": {\"run_id\": \"" << obs::escapeJson(run_id)
           << "\", \"span\": " << i << ", \"parent\": " << s.parent
           << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

std::string
Result::json() const
{
    std::ostringstream os;
    os << '{';
    bool first = true;
    for (const auto &[k, v] : nums_) {
        os << (first ? "" : ", ") << '"' << obs::escapeJson(k)
           << "\": " << obs::formatJsonDouble(v);
        first = false;
    }
    for (const auto &[k, v] : strs_) {
        os << (first ? "" : ", ") << '"' << obs::escapeJson(k)
           << "\": \"" << obs::escapeJson(v) << '"';
        first = false;
    }
    os << '}';
    return os.str();
}

void
Checks::expect(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        std::cerr << "crw-perf: check failed: " << what << '\n';
    }
}

} // namespace perf
} // namespace crw
