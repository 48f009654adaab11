/**
 * @file
 * `crw-perf` command line.
 *
 *   crw-perf info
 *   crw-perf sweep --mode cold|serial|warm --seed N [--jobs N]
 *                  [--prepare] [--oracle] [--traced] [--metrics-out F]
 *                  --result F [--spans F --run-id ID --pid N]
 *   crw-perf isa --seed N [--traced] --result F [--spans F ...]
 *
 * A sweep or ISA pass writes one JSON record to --result; the exhibit
 * reports' stdout is captured into perf_stdout.txt in the working
 * directory, whose bench_out/ the pass reads and writes.
 */

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "driver.h"
#include "spans.h"
#include "win/simd.h"

namespace crw {
namespace perf {

std::string
fingerprintJson()
{
    Result r;
    r.set("simd_tier", simdTierName(effectiveSimdTier()));
    r.set("compiler", CRW_PERF_COMPILER);
    r.set("build_type", CRW_PERF_BUILD_TYPE);
    r.set("sanitizer", sanitizedBuild() ? "yes" : "no");
    return r.json();
}

bool
sanitizedBuild()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(CRW_PERF_SANITIZED)
    return true;
#else
    return false;
#endif
}

} // namespace perf
} // namespace crw

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::cerr << "crw-perf: " << why
              << "\nusage: crw-perf info | sweep --mode "
                 "cold|serial|warm --seed N [--jobs N] [--prepare] "
                 "[--oracle] "
                 "[--traced] [--metrics-out F] --result F [--spans F "
                 "--run-id ID --pid N] | isa --seed N [--traced] "
                 "--result F [--spans F --run-id ID --pid N]\n";
    std::exit(2);
}

std::uint64_t
parseUnsigned(const char *text)
{
    char *rest = nullptr;
    const unsigned long long v = std::strtoull(text, &rest, 10);
    if (rest == text || *rest != '\0')
        usage("expected a non-negative integer");
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace crw::perf;
    if (argc < 2)
        usage("missing command");
    const std::string cmd = argv[1];
    if (cmd == "info") {
        std::cout << fingerprintJson() << '\n';
        return 0;
    }
    if (cmd != "sweep" && cmd != "isa")
        usage("unknown command");
    if (sanitizedBuild()) {
        std::cerr << "crw-perf: this is a sanitizer build; its timings "
                     "are meaningless, refusing to run\n";
        return 3;
    }

    SweepOptions o;
    bool have_mode = false;
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage("flag needs a value");
            return argv[++i];
        };
        if (a == "--traced") {
            o.traced = true;
        } else if (a == "--oracle") {
            o.oracle = true;
        } else if (a == "--prepare") {
            o.prepareOnly = true;
        } else if (a == "--seed") {
            o.seed = parseUnsigned(value());
        } else if (a == "--jobs") {
            o.jobs = static_cast<int>(parseUnsigned(value()));
        } else if (a == "--pid") {
            o.pid = static_cast<int>(parseUnsigned(value()));
        } else if (a == "--result") {
            o.resultPath = value();
        } else if (a == "--spans") {
            o.spansPath = value();
        } else if (a == "--run-id") {
            o.runId = value();
        } else if (a == "--metrics-out") {
            o.metricsOut = value();
        } else if (a == "--mode") {
            const std::string m = value();
            have_mode = true;
            if (m == "cold")
                o.mode = SweepMode::Cold;
            else if (m == "serial")
                o.mode = SweepMode::Serial;
            else if (m == "warm")
                o.mode = SweepMode::Warm;
            else
                usage("unknown --mode");
        } else {
            usage(("unknown flag " + a).c_str());
        }
    }
    if (o.resultPath.empty())
        usage("--result is required");
    if (cmd == "isa")
        return runIsaPass(o);
    if (!have_mode)
        usage("--mode is required");
    if (o.jobs < 1 || o.jobs > 4)
        usage("--jobs must be 1..4");
    return runSweepPass(o);
}
