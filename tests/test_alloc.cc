/**
 * @file
 * Heap allocations per run must not grow with the instruction count
 * (`ctest -L perf`).
 *
 * The instruction windows (fetch queue, ROB/RUU, the oracle's record
 * buffer) are fixed rings sized on a core's first run, so a run on a
 * reused core allocates only per-run state: the oracle's emulator
 * image and the pages its program touches. A container that allocates
 * per instruction again (a std::deque node every second push, a
 * per-packet vector) shows up here as thousands of extra allocations
 * in the longer run.
 *
 * This binary replaces the global operator new with a counting one;
 * the count covers every allocation in the process, so the runs are
 * measured with nothing else running.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "isa/machine.hh"
#include "runner/campaign.hh"
#include "validate/machines.hh"

using namespace simalpha;

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void *
countedAlloc(std::size_t bytes)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(bytes ? bytes : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t bytes) { return countedAlloc(bytes); }
void *operator new[](std::size_t bytes) { return countedAlloc(bytes); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace {

/** Allocations made by one run of @p cap instructions. */
std::uint64_t
allocationsOfRun(Machine &machine, const Program &program,
                 std::uint64_t cap)
{
    std::uint64_t before = g_allocations.load();
    RunResult r = machine.run(program, cap);
    std::uint64_t made = g_allocations.load() - before;
    EXPECT_GE(r.instsCommitted, cap) << program.name;
    return made;
}

/** Runs inside the scope take the fast path (machines read
 *  SIMALPHA_SLOWPATH at run() start). */
class ScopedFastPath
{
  public:
    ScopedFastPath()
    {
        if (const char *v = std::getenv("SIMALPHA_SLOWPATH"))
            _saved = v;
        ::unsetenv("SIMALPHA_SLOWPATH");
    }
    ~ScopedFastPath()
    {
        if (!_saved.empty())
            ::setenv("SIMALPHA_SLOWPATH", _saved.c_str(), 1);
    }

  private:
    std::string _saved;
};

} // namespace

TEST(Alloc, CountingAllocatorSeesAllocations)
{
    std::uint64_t before = g_allocations.load();
    auto p = std::make_unique<std::string>(64, 'x');
    EXPECT_GT(g_allocations.load(), before);
}

TEST(Alloc, RunAllocationsDoNotGrowWithInstructionCount)
{
    // A 90K-instruction run may allocate a few more times than a 10K
    // one (the emulator touching a new data page), never once per
    // instruction.
    constexpr std::uint64_t kSlack = 4;
    // The contract is the fast path's: SIMALPHA_SLOWPATH=1 cross-checks
    // build scratch copies as they go.
    ScopedFastPath fast_path;
    for (const char *name : {"sim-alpha", "ds10l", "sim-outorder"}) {
        for (const char *workload : {"C-Ca", "gcc"}) {
            Program program;
            std::string error;
            ASSERT_TRUE(runner::buildWorkload(workload, &program, &error))
                << error;
            std::unique_ptr<Machine> machine = validate::tryMakeMachine(
                name, validate::Optimization::None, &error);
            ASSERT_TRUE(machine) << error;

            // The first run sizes every structure; later runs reuse.
            machine->run(program, 10000);
            std::uint64_t short_run =
                allocationsOfRun(*machine, program, 10000);
            std::uint64_t long_run =
                allocationsOfRun(*machine, program, 90000);
            EXPECT_LE(long_run, short_run + kSlack)
                << name << '/' << workload << ": " << short_run
                << " allocations for 10K instructions, " << long_run
                << " for 90K";
            std::printf("%s/%s: %llu allocations for 10K, %llu for "
                        "90K\n",
                        name, workload, (unsigned long long)short_run,
                        (unsigned long long)long_run);
        }
    }
}
