/**
 * @file
 * Property-based tests: randomized programs and traffic streams drive
 * whole-system invariants — the timing models must commit exactly the
 * architectural stream, timing must be monotonic and deterministic,
 * and structural resources must never leak.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/logging.hh"
#include "common/random.hh"
#include "core/core.hh"
#include "isa/assembler.hh"
#include "isa/emulator.hh"
#include "memory/cache.hh"
#include "outorder/ruu_core.hh"

using namespace simalpha;

namespace {

/**
 * Generate a random but always-terminating program: a counted outer
 * loop whose body mixes ALU ops, loads/stores to a small arena, short
 * forward branches, and calls to a tiny leaf function. With
 * @p more_stores the body also stores zeros over the arena's data
 * image, stores arena words back unchanged, and stores to a page the
 * image never touched — the cases a checkpoint's memory delta must
 * tell apart.
 */
Program
randomProgram(std::uint64_t seed, int body_blocks, bool more_stores = false)
{
    Random rng(seed);
    ProgramBuilder b("rand-" + std::to_string(seed));
    const Addr arena = Program::kDataBase;
    for (int i = 0; i < 64; i++)
        b.dataWord(arena + Addr(8 * i), rng.next());

    b.lda(R(10), 1);
    b.lda(R(9), 200);
    if (more_stores) {
        // r20 = arena: loads and stores meet the data image.
        b.lda(R(20), std::int64_t(arena >> 16));
        b.lda(R(11), 16);
        b.sll(R(20), R(11), R(20));
    } else {
        // r20 = 0x4000 << 32, far from the arena: these loads and
        // stores never meet the data image.
        b.lda(R(20), 0x4000);
        b.lda(R(11), 16);
        b.sll(R(20), R(11), R(20));
        b.sll(R(20), R(11), R(20));
    }
    b.label("top");
    for (int blk = 0; blk < body_blocks; blk++) {
        switch (rng.below(more_stores ? 9 : 6)) {
          case 0:
            b.addq(R(1 + int(rng.below(4))), R(10),
                   R(1 + int(rng.below(4))));
            break;
          case 1:
            b.mulq(R(1 + int(rng.below(4))), R(10),
                   R(1 + int(rng.below(4))));
            break;
          case 2:
            b.ldq(R(1 + int(rng.below(4))),
                  8 * std::int64_t(rng.below(64)), R(20));
            break;
          case 3:
            b.stq(R(1 + int(rng.below(4))),
                  8 * std::int64_t(rng.below(64)), R(20));
            break;
          case 4: {
            // Short forward branch over a couple of adds.
            std::string lbl =
                "skip" + std::to_string(blk) + "_" +
                std::to_string(seed & 0xFF);
            b.bne(R(1 + int(rng.below(4))), lbl);
            b.addq(R(5), R(10), R(5));
            b.addq(R(6), R(10), R(6));
            b.label(lbl);
            break;
          }
          case 5:
            b.bsr(R(26), "leaf");
            break;
          case 6:
            b.stq(R(kIntZeroReg), 8 * std::int64_t(rng.below(64)),
                  R(20));
            break;
          case 7: {
            std::int64_t off = 8 * std::int64_t(rng.below(64));
            b.ldq(R(8), off, R(20));
            b.stq(R(8), off, R(20));
            break;
          }
          case 8:
            b.stq(R(1 + int(rng.below(4))),
                  0x2000 + 8 * std::int64_t(rng.below(64)), R(20));
            break;
        }
    }
    b.subq(R(9), R(10), R(9));
    b.bne(R(9), "top");
    b.halt();
    b.label("leaf");
    b.addq(R(7), R(10), R(7));
    b.ret(R(26));
    return b.finish();
}

std::uint64_t
architecturalCount(const Program &p)
{
    Emulator emu(p);
    std::uint64_t n = 0;
    while (!emu.halted()) {
        emu.step();
        n++;
        if (n > 50000000)
            ADD_FAILURE() << "functional run diverged";
    }
    return n;
}

class RandomProgramSweep : public ::testing::TestWithParam<int>
{
  protected:
    void SetUp() override { setQuiet(true); }
};

} // namespace

TEST_P(RandomProgramSweep, AllMachinesCommitTheArchitecturalStream)
{
    Program p = randomProgram(std::uint64_t(GetParam()) * 7919 + 13, 24);
    std::uint64_t expect = architecturalCount(p);

    for (const char *kind : {"golden", "alpha", "initial", "stripped"}) {
        AlphaCoreParams params =
            std::string(kind) == "golden"  ? AlphaCoreParams::golden()
            : std::string(kind) == "alpha" ? AlphaCoreParams::simAlpha()
            : std::string(kind) == "initial"
                ? AlphaCoreParams::simInitial()
                : AlphaCoreParams::simStripped();
        AlphaCore core(params);
        RunResult r = core.run(p);
        EXPECT_TRUE(r.finished) << kind;
        EXPECT_EQ(r.instsCommitted, expect) << kind;
        // IPC is physically bounded by the retire width.
        EXPECT_LE(r.ipc(), 11.0) << kind;
    }

    RuuCore ruu(RuuCoreParams::simOutorder());
    RunResult r = ruu.run(p);
    EXPECT_TRUE(r.finished);
    EXPECT_EQ(r.instsCommitted, expect);
}

TEST_P(RandomProgramSweep, TimingIsDeterministic)
{
    Program p = randomProgram(std::uint64_t(GetParam()) * 104729, 16);
    AlphaCore core(AlphaCoreParams::simAlpha());
    Cycle first = core.run(p).cycles;
    Cycle second = core.run(p).cycles;
    EXPECT_EQ(first, second);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramSweep,
                         ::testing::Range(0, 10));

TEST(CacheProperty, RandomTrafficInvariants)
{
    // Under arbitrary traffic: access completion never precedes the
    // request; a block just accessed must hit immediately afterwards;
    // stats counters account for every access.
    setQuiet(true);
    CacheParams params;
    params.name = "prop";
    params.sizeBytes = 4096;
    params.assoc = 2;
    params.blockBytes = 64;
    params.hitLatency = 2;
    params.victimEntries = 4;
    Cache cache(params, nullptr);

    Random rng(77);
    Cycle now = 0;
    std::uint64_t accesses = 0;
    for (int i = 0; i < 20000; i++) {
        Addr addr = rng.below(64 * 1024);
        bool is_write = rng.chance(0.3);
        AccessResult r = cache.access(addr, is_write, now);
        accesses++;
        ASSERT_GE(r.done, now);
        // Re-access after completion is a hit.
        AccessResult again = cache.access(addr, false, r.done);
        accesses++;
        ASSERT_TRUE(again.hit);
        now = r.done + rng.below(4);
    }
    EXPECT_EQ(cache.hits() + cache.misses(), accesses);
    EXPECT_GT(cache.statGroup().get("victim_hits"), 0u);
}

TEST(MshrProperty, PoolNeverExceedsCapacity)
{
    MshrPool pool(8, 4);
    Random rng(5);
    Cycle now = 0;
    for (int i = 0; i < 5000; i++) {
        Addr block = rng.below(1000);
        Cycle avail;
        pool.allocate(block, now + 20 + rng.below(100), now, avail);
        ASSERT_LE(pool.entriesInUse(now), 8);
        ASSERT_GE(avail, now);
        now += rng.below(30);
    }
}

TEST(EmulatorProperty, StepSequenceIsStable)
{
    // Two emulators of the same program produce identical traces.
    Program p = randomProgram(4242, 20);
    Emulator a(p), b(p);
    while (!a.halted() && !b.halted()) {
        ExecutedInst ia = a.step();
        ExecutedInst ib = b.step();
        ASSERT_EQ(ia.pc, ib.pc);
        ASSERT_EQ(ia.nextPc, ib.nextPc);
        ASSERT_EQ(ia.effAddr, ib.effAddr);
        ASSERT_EQ(ia.taken, ib.taken);
    }
    EXPECT_EQ(a.halted(), b.halted());
}

namespace {

/** Registers, PC, count, halt flag and every memory word agree. */
void
expectSameState(const Emulator &a, const Emulator &b)
{
    for (int i = 0; i < 32; i++) {
        ASSERT_EQ(a.readIntReg(i), b.readIntReg(i)) << "r" << i;
        ASSERT_EQ(a.readFpRaw(i), b.readFpRaw(i)) << "f" << i;
    }
    ASSERT_EQ(a.pc(), b.pc());
    ASSERT_EQ(a.instsExecuted(), b.instsExecuted());
    ASSERT_EQ(a.halted(), b.halted());
    ASSERT_EQ(a.memory().exportWords(), b.memory().exportWords());
}

/** Scoped SIMALPHA_SLOWPATH=1 (the emulator reads it at
 *  construction), restoring whatever was set before. */
class ScopedSlowpath
{
  public:
    ScopedSlowpath()
    {
        if (const char *v = std::getenv("SIMALPHA_SLOWPATH"))
            _saved = v;
        ::setenv("SIMALPHA_SLOWPATH", "1", 1);
    }
    ~ScopedSlowpath()
    {
        if (_saved.empty())
            ::unsetenv("SIMALPHA_SLOWPATH");
        else
            ::setenv("SIMALPHA_SLOWPATH", _saved.c_str(), 1);
    }

  private:
    std::string _saved;
};

} // namespace

TEST(CheckpointProperty, DeltaRestoreMatchesTheLiveEmulator)
{
    for (std::uint64_t seed : {3u, 17u, 101u, 4242u, 90001u}) {
        Program p = randomProgram(seed, 24, true);
        const std::uint64_t total = architecturalCount(p);
        Emulator image(p);
        Random rng(seed ^ 0x5eed);
        for (int k = 0; k < 6; k++) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " pick " +
                         std::to_string(k));
            Emulator live(p);
            live.run(rng.below(total + 1));
            Checkpoint c = live.checkpoint();

            // Every pair is a word the program changed, ascending.
            for (std::size_t i = 0; i < c.memory.size(); i++) {
                const auto &[addr, word] = c.memory[i];
                EXPECT_NE(word, image.memory().read64(addr));
                if (i)
                    EXPECT_LT(c.memory[i - 1].first, addr);
            }

            Emulator resumed(p, c);
            Emulator restored(p);
            restored.run(rng.below(total + 1));
            restored.restore(c);
            expectSameState(live, resumed);
            expectSameState(live, restored);

            // And they stay together.
            const std::uint64_t more = 1 + rng.below(2000);
            live.run(more);
            resumed.run(more);
            restored.run(more);
            expectSameState(live, resumed);
            expectSameState(live, restored);
        }
    }
}

TEST(CheckpointProperty, SlowpathChecksEveryDeltaAgainstLiveMemory)
{
    // Under SIMALPHA_SLOWPATH=1, checkpoint() rebuilds image + delta
    // and asserts it equals the live memory; a mismatch panics.
    ScopedSlowpath slow;
    for (std::uint64_t seed : {5u, 77u}) {
        Program p = randomProgram(seed, 24, true);
        Emulator emu(p);
        std::size_t taken = 0;
        while (!emu.halted()) {
            emu.run(997);
            Checkpoint c = emu.checkpoint();
            taken++;
            Emulator resumed(p, c);
            expectSameState(emu, resumed);
        }
        EXPECT_GT(taken, 1u);
    }
}

TEST(CoreProperty, CyclesScaleRoughlyWithWork)
{
    // Doubling the dynamic instruction count should roughly double the
    // cycle count on a steady-state loop (no super-linear artifacts).
    setQuiet(true);
    auto loop = [](std::int64_t iters) {
        ProgramBuilder b("scale");
        b.lda(R(10), 1);
        b.lda(R(9), iters);
        b.label("top");
        for (int i = 0; i < 12; i++)
            b.addq(R(1 + i % 3), R(10), R(1 + i % 3));
        b.subq(R(9), R(10), R(9));
        b.bne(R(9), "top");
        b.halt();
        return b.finish();
    };
    AlphaCore core(AlphaCoreParams::simAlpha());
    Cycle small = core.run(loop(2000)).cycles;
    Cycle big = core.run(loop(4000)).cycles;
    EXPECT_NEAR(double(big) / double(small), 2.0, 0.2);
}

TEST(CoreProperty, WrongPathNeverCommits)
{
    // Heavy mispredict pressure: the commit count still matches the
    // architectural count exactly (no wrong-path leakage).
    setQuiet(true);
    Program p = randomProgram(909, 32);
    std::uint64_t expect = architecturalCount(p);
    AlphaCoreParams params = AlphaCoreParams::simInitial();
    AlphaCore core(params);
    RunResult r = core.run(p);
    EXPECT_EQ(r.instsCommitted, expect);
    EXPECT_GT(core.statGroup().get("insts_squashed"), 0u);
}
