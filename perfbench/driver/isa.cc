/**
 * @file
 * The ISA pass: the `sparc`/`kernel`/`asm` layers on their own. Every
 * Table 2 case staged through kernel::Table2Harness and judged against
 * the paper's published band, plus kernel::Machine runs of a recursive
 * sum and of Towers of Hanoi under the conventional and the sharing
 * kernel, block cache on, one thread.
 *
 * The seed picks the window count, the rsum recursion depth and its
 * repeat count; the repeat count is solved for so the simulated work
 * (and the number of machines booted) stays the same across seeds.
 */

#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "asm/assembler.h"
#include "common/rng.h"
#include "kernel/kernel.h"
#include "kernel/machine.h"
#include "sparc/cpu.h"

#include "driver.h"
#include "spans.h"

namespace crw {
namespace perf {

namespace {

using kernel::KernelFlavor;

/** sum(n) = n + sum(n-1), one window per activation, repeated;
 *  halts with sum(depth) in %o0. */
std::string
rsumSource(int depth, int repeats)
{
    return "start:\n"
           "    set " + std::to_string(repeats) + ", %g4\n"
           "again:\n"
           "    set " + std::to_string(depth) + ", %o0\n"
           "    call rsum\n"
           "    nop\n"
           "    subcc %g4, 1, %g4\n"
           "    bne again\n"
           "    nop\n"
           "    ta 0\n"
           "rsum:\n"
           "    save %sp, -96, %sp\n"
           "    cmp %i0, 1\n"
           "    ble rbase\n"
           "    nop\n"
           "    call rsum\n"
           "    sub %i0, 1, %o0\n"
           "    add %o0, %i0, %i0\n"
           "    ret\n"
           "    restore %i0, 0, %o0\n"
           "rbase:\n"
           "    mov 1, %i0\n"
           "    ret\n"
           "    restore %i0, 0, %o0\n";
}

/** Towers of Hanoi; halts with the move count 2^discs - 1 in %o0. */
std::string
hanoiSource(int discs)
{
    return "start:\n"
           "    set " + std::to_string(discs) + ", %o0\n"
           "    call hanoi\n"
           "    nop\n"
           "    mov %g1, %o0\n"
           "    ta 0\n"
           "hanoi:\n"
           "    save %sp, -96, %sp\n"
           "    cmp %i0, 1\n"
           "    ble hbase\n"
           "    nop\n"
           "    call hanoi\n"
           "    sub %i0, 1, %o0\n"
           "    add %g1, 1, %g1\n"
           "    call hanoi\n"
           "    sub %i0, 1, %o0\n"
           "    ret\n"
           "    restore\n"
           "hbase:\n"
           "    add %g1, 1, %g1\n"
           "    ret\n"
           "    restore\n";
}

struct MachineRun
{
    std::string name;
    KernelFlavor flavor;
    std::string source;
    Word expectedExit;
};

/** One Table 2 case and the paper's band for it (cycles). */
struct Table2Case
{
    const char *name;
    Cycles lo, hi;
    Cycles (*measure)(kernel::Table2Harness &);
};

const std::vector<Table2Case> &
table2Cases()
{
    using H = kernel::Table2Harness;
    static const std::vector<Table2Case> kCases = {
        {"NS 1/1", 145, 149, [](H &h) { return h.measureNs(1); }},
        {"NS 2/1", 181, 185, [](H &h) { return h.measureNs(2); }},
        {"NS 3/1", 217, 221, [](H &h) { return h.measureNs(3); }},
        {"NS 4/1", 253, 257, [](H &h) { return h.measureNs(4); }},
        {"NS 5/1", 289, 293, [](H &h) { return h.measureNs(5); }},
        {"NS 6/1", 325, 329, [](H &h) { return h.measureNs(6); }},
        {"SNP 0/0", 113, 118,
         [](H &h) { return h.measureSnp(false, false); }},
        {"SNP 0/1", 142, 147,
         [](H &h) { return h.measureSnp(false, true); }},
        {"SNP 1/0", 162, 171,
         [](H &h) { return h.measureSnp(true, false); }},
        {"SNP 1/1", 187, 196,
         [](H &h) { return h.measureSnp(true, true); }},
        {"SP 0/0", 93, 98, [](H &h) { return h.measureSp(0, false); }},
        {"SP 0/1", 136, 141, [](H &h) { return h.measureSp(0, true); }},
        {"SP 1/1", 180, 197, [](H &h) { return h.measureSp(1, true); }},
        {"SP 2/1", 220, 237, [](H &h) { return h.measureSp(2, true); }},
    };
    return kCases;
}

/** The full image Machine assembles: kernel, switch routines, user. */
std::string
machineSource(KernelFlavor flavor, int windows, const std::string &user)
{
    return (flavor == KernelFlavor::Conventional
                ? kernel::conventionalKernelSource(windows)
                : kernel::sharingKernelSource(windows)) +
           kernel::switchRoutinesSource(windows) + "\n    .org " +
           std::to_string(kernel::kUserBase) + "\n" + user;
}

} // namespace

int
runIsaPass(const PassOptions &o)
{
    SpanLog log(o.traced);
    Result out;
    Checks checks;

    // Inputs from the seed: about 240k rsum activations and 2^18
    // Hanoi moves per kernel flavor whatever the draw.
    Rng rng(o.seed ^ 0x697361ull); // "isa"
    const int windows = static_cast<int>(rng.nextInRange(5, 8));
    const int depth = static_cast<int>(rng.nextInRange(200, 800));
    const int repeats = (240000 + depth / 2) / depth;
    constexpr int kDiscs = 18;
    std::vector<MachineRun> runs;
    for (const KernelFlavor f :
         {KernelFlavor::Conventional, KernelFlavor::Sharing}) {
        const std::string tag =
            f == KernelFlavor::Conventional ? "conventional" : "sharing";
        runs.push_back({"rsum/" + tag, f, rsumSource(depth, repeats),
                        static_cast<Word>(depth * (depth + 1) / 2)});
        runs.push_back({"hanoi/" + tag, f, hanoiSource(kDiscs),
                        static_cast<Word>((1u << kDiscs) - 1)});
    }

    // ---- timed region ----
    double setup = 0, run_s = 0, instructions = 0, lane_simple = 0,
           lane_mem = 0, lane_complex = 0, lane_stepped = 0,
           invalidations = 0;
    std::size_t band_misses = 0;
    const double cpu0 = cpuSeconds();
    const double t0 = nowSeconds();
    {
        ScopedSpan isa(log, "isa");
        for (const MachineRun &r : runs) {
            double t = nowSeconds();
            std::unique_ptr<kernel::Machine> m;
            {
                ScopedSpan span(log, "kernel.boot");
                m = std::make_unique<kernel::Machine>(r.flavor, windows,
                                                      r.source);
            }
            setup += nowSeconds() - t;
            m->cpu.setBlockCacheEnabled(true);
            t = nowSeconds();
            sparc::StopReason stop;
            {
                ScopedSpan span(log, "sparc.run");
                stop = m->cpu.run(2'000'000'000ull);
            }
            run_s += nowSeconds() - t;
            checks.expect(stop == sparc::StopReason::Halted &&
                       m->cpu.exitCode() == r.expectedExit,
                   r.name + " did not halt with its expected result");
            instructions += static_cast<double>(m->cpu.instructions());
            const sparc::Cpu::LaneMix mix = m->cpu.laneMix();
            lane_simple += static_cast<double>(mix.simple);
            lane_mem += static_cast<double>(mix.mem);
            lane_complex += static_cast<double>(mix.complex);
            lane_stepped += static_cast<double>(mix.stepped);
            invalidations +=
                static_cast<double>(m->cpu.blockCacheInvalidations());
        }
        ScopedSpan span(log, "table2");
        kernel::Table2Harness h(7);
        for (const Table2Case &c : table2Cases()) {
            const Cycles v = c.measure(h);
            if (v < c.lo || v > c.hi)
                ++band_misses;
        }
    }
    const double wall = nowSeconds() - t0;
    const double cpu = cpuSeconds() - cpu0;
    // ---- end of timed region ----
    checks.expect(band_misses == 0, std::to_string(band_misses) +
                                 " Table 2 cases outside the paper band");

    double assemble = 0;
    if (o.traced) {
        ScopedSpan layers(log, "layers");
        for (const MachineRun &r : runs) {
            const std::string src = machineSource(r.flavor, windows, r.source);
            const double t = nowSeconds();
            {
                ScopedSpan span(log, "asm.assemble");
                sparcasm::assemble(src, 0);
            }
            assemble += nowSeconds() - t;
        }
    }
    if (o.traced && !o.spansPath.empty() &&
        !log.writeChromeJson(o.spansPath, o.runId, o.pid))
        std::cerr << "crw-perf: could not write " << o.spansPath << '\n';

    out.set("mode", "isa");
    out.set("wall_s", wall);
    out.set("setup_s", setup);
    out.set("cpu_s", cpu);
    out.set("peak_rss_mb", peakRssMb());
    out.set("points", static_cast<double>(runs.size() +
                                          table2Cases().size()));
    out.set("table2_band_misses", static_cast<double>(band_misses));
    out.set("asm.assemble_s", assemble);
    out.set("kernel.boot_s", setup);
    out.set("sparc.run_s", run_s);
    out.set("sparc.instructions", instructions);
    out.set("sparc.mips", run_s > 0 ? instructions / run_s / 1e6 : 0);
    // The Machine runs' instructions over their boot plus run time;
    // Table 2 is left out of both, as its instructions are not counted.
    out.set("isa_mips", instructions / (setup + run_s) / 1e6);
    out.set("sparc.lane_simple", lane_simple);
    out.set("sparc.lane_mem", lane_mem);
    out.set("sparc.lane_complex", lane_complex);
    out.set("sparc.lane_stepped", lane_stepped);
    out.set("sparc.block_invalidations", invalidations);
    out.set("isa.windows", windows);
    out.set("isa.rsum_depth", depth);
    out.set("checks_attempted", static_cast<double>(checks.attempted));
    out.set("checks_failed", static_cast<double>(checks.failed));
    std::ofstream os(o.resultPath);
    os << out.json() << '\n';
    return os ? 0 : 1;
}

} // namespace perf
} // namespace crw
