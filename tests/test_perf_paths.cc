/**
 * @file
 * The hot-path optimizations must not change a single simulated cycle
 * (`ctest -L perf`; also run under -DSIMALPHA_SANITIZE=address and
 * =thread).
 *
 * Two equivalences are pinned:
 *  - SIMALPHA_SLOWPATH=1 (the dual-run debug mode: original per-cycle
 *    scans executed alongside the event-driven bookkeeping, with
 *    asserts that they agree) produces byte-identical stats dumps to
 *    the default fast path over a mixed micro/macro cell set that
 *    includes 30K-instruction gcc, mesa, art and equake on every
 *    core and on the configurations whose squashes take other routes
 *    through the window (sim-initial's late branch recovery, no
 *    load-use speculation, no mbox replay traps);
 *  - core reuse via reset() is invisible: N runs on one reused core
 *    produce byte-identical dumps to N runs on N fresh cores.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "isa/machine.hh"
#include "runner/campaign.hh"
#include "validate/machines.hh"

using namespace simalpha;

namespace {

struct CellSpec
{
    const char *machine;
    const char *workload;
    std::uint64_t maxInsts;
};

/** The machines of the grid: detailed golden, sim-alpha, the stripped
 *  ablation and the abstract comparator, plus the detailed variants
 *  that squash differently (late recovery, no load-use speculation,
 *  no mbox traps). */
const std::vector<const char *> kMachines = {
    "ds10l",        "sim-alpha",         "sim-stripped",
    "sim-outorder", "sim-initial",       "sim-alpha-no-luse",
    "sim-alpha-no-trap",
};

/** A mixed micro/macro grid over every machine. The SPEC-like
 *  programs Table 3 spends its time on (deep windows, cache misses,
 *  store forwarding, replays) run on all of them. */
const std::vector<CellSpec> &
mixedCells()
{
    static const std::vector<CellSpec> cells = [] {
        std::vector<CellSpec> c = {
            {"ds10l", "C-Ca", 4000},        {"ds10l", "E-D3", 4000},
            {"sim-alpha", "C-S1", 4000},    {"sim-alpha", "E-I", 4000},
            {"sim-stripped", "C-R", 4000},  {"sim-outorder", "C-O", 4000},
            {"sim-outorder", "E-D1", 4000},
        };
        for (const char *machine : kMachines)
            for (const char *workload : {"gcc", "mesa", "art", "equake"})
                c.push_back({machine, workload, 30000});
        return c;
    }();
    return cells;
}

/** Run one cell on @p machine and render every observable: timing
 *  plus the full stats dump. */
std::string
runAndDump(Machine &machine, const CellSpec &cell)
{
    Program program;
    std::string error;
    EXPECT_TRUE(runner::buildWorkload(cell.workload, &program, &error))
        << error;
    RunResult r = machine.run(program, cell.maxInsts);
    std::ostringstream os;
    os << cell.machine << '/' << cell.workload << ": cycles="
       << r.cycles << " insts=" << r.instsCommitted
       << " finished=" << r.finished << '\n';
    machine.statGroup().dump(os);
    return os.str();
}

/** Run the whole mixed set on fresh machines, one per cell. */
std::string
runMixedSetFresh()
{
    std::string all;
    for (const CellSpec &cell : mixedCells()) {
        std::string error;
        std::unique_ptr<Machine> machine = validate::tryMakeMachine(
            cell.machine, validate::Optimization::None, &error);
        EXPECT_TRUE(machine) << error;
        all += runAndDump(*machine, cell);
    }
    return all;
}

/** Scoped SIMALPHA_SLOWPATH=1 (machines read it at run() start). */
class ScopedSlowpath
{
  public:
    ScopedSlowpath() { ::setenv("SIMALPHA_SLOWPATH", "1", 1); }
    ~ScopedSlowpath() { ::unsetenv("SIMALPHA_SLOWPATH"); }
};

} // namespace

TEST(PerfPaths, SlowpathDualRunMatchesFastPathByteForByte)
{
    std::string fast = runMixedSetFresh();
    std::string slow;
    {
        ScopedSlowpath guard;
        slow = runMixedSetFresh();
    }
    ASSERT_FALSE(fast.empty());
    EXPECT_EQ(fast, slow);
}

TEST(PerfPaths, ReusedCoreMatchesFreshCoresByteForByte)
{
    // Every machine type runs its cells twice: once on a core reused
    // across all of its cells (reset() path), once on a fresh core
    // per cell (construction path). The dumps must match bytewise —
    // including a repeat of the first cell after the core has run a
    // different workload, the hardest case for stale state.
    for (const char *name : kMachines) {
        std::vector<CellSpec> cells;
        for (const CellSpec &cell : mixedCells())
            if (std::string(cell.machine) == name)
                cells.push_back(cell);
        cells.push_back({name, "E-D2", 4000});
        cells.push_back(cells.front());     // revisit after reuse

        std::string error;
        std::unique_ptr<Machine> reused = validate::tryMakeMachine(
            name, validate::Optimization::None, &error);
        ASSERT_TRUE(reused) << error;

        for (const CellSpec &cell : cells) {
            std::unique_ptr<Machine> fresh = validate::tryMakeMachine(
                name, validate::Optimization::None, &error);
            ASSERT_TRUE(fresh) << error;
            EXPECT_EQ(runAndDump(*reused, cell),
                      runAndDump(*fresh, cell))
                << name << " diverged on " << cell.workload;
        }
    }
}
