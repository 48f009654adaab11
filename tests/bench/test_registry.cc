/**
 * @file
 * The exhibit registry behind `crw-bench`, the only bench entry
 * point: every exhibit that once had a binary of its own resolves by
 * name, and the driver's name handling — `list` and an unknown
 * exhibit — exits with the documented status without executing a
 * plan or printing a report.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/harness.h"
#include "bench/registry.h"
#include "obs/metrics.h"

namespace crw {
namespace bench {
namespace {

/** Run crwBenchMain on @p args (argv[0] supplied); capture stdout. */
int
runDriver(std::vector<std::string> args, std::string &out)
{
    args.insert(args.begin(), "crw-bench");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    testing::internal::CaptureStdout();
    const int rc =
        crwBenchMain(static_cast<int>(args.size()), argv.data());
    out = testing::internal::GetCapturedStdout();
    return rc;
}

/** Counters any executed plan bumps for each of its points. */
std::uint64_t
planActivity()
{
    return metrics().counterValue("cache.hit") +
           metrics().counterValue("cache.miss") +
           metrics().counterValue("replay.points");
}

TEST(Registry, ResolvesEveryFormerWrapperName)
{
    for (const char *name :
         {"table1", "table2", "fig11", "fig12", "fig13", "fig14",
          "fig15", "ablation", "microtrace", "sparc_interp"}) {
        const Exhibit *ex = findExhibit(name);
        ASSERT_NE(ex, nullptr) << name;
        EXPECT_EQ(std::string(ex->name), name);
        EXPECT_NE(ex->report, nullptr) << name;
    }
    EXPECT_EQ(findExhibit("bench_fig11"), nullptr);
    EXPECT_EQ(findExhibit("nosuch"), nullptr);
}

TEST(Registry, ListExitsZeroWithoutRunningAPlan)
{
    const std::uint64_t before = planActivity();
    std::string out;
    EXPECT_EQ(runDriver({"list"}, out), 0);
    EXPECT_EQ(out.rfind("exhibits:\n", 0), 0u) << out;
    for (const Exhibit &ex : exhibitRegistry())
        EXPECT_NE(out.find(std::string("  ") + ex.name + ' '),
                  std::string::npos)
            << ex.name;

    // A listing request wins over an exhibit selection.
    std::string with_exhibit;
    EXPECT_EQ(runDriver({"fig11", "list"}, with_exhibit), 0);
    EXPECT_EQ(with_exhibit, out);
    EXPECT_EQ(planActivity(), before);
}

TEST(Registry, UnknownExhibitExitsTwoWithoutRunningAPlan)
{
    const std::uint64_t before = planActivity();
    std::string out;
    EXPECT_EQ(runDriver({"nosuch"}, out), 2);
    EXPECT_EQ(out, "");

    // The whole selection is validated before anything executes: a
    // valid exhibit ahead of the unknown one runs no plan either.
    EXPECT_EQ(runDriver({"fig11", "nosuch"}, out), 2);
    EXPECT_EQ(out, "");
    EXPECT_EQ(planActivity(), before);
}

} // namespace
} // namespace bench
} // namespace crw
