/**
 * @file
 * Tests for the emulator checkpoint/restore facility.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "isa/assembler.hh"
#include "isa/emulator.hh"

using namespace simalpha;

namespace {

Program
counterProgram()
{
    ProgramBuilder b("ckpt");
    b.lda(R(10), 1);
    b.lda(R(9), 1000);
    b.lda(R(20), 0x14000);
    b.lda(R(11), 16);
    b.sll(R(20), R(11), R(20));
    b.label("top");
    b.addq(R(1), R(10), R(1));
    b.stq(R(1), 0, R(20));
    b.subq(R(9), R(10), R(9));
    b.bne(R(9), "top");
    b.halt();
    return b.finish();
}

} // namespace

TEST(Checkpoint, RoundTripPreservesEverything)
{
    Program p = counterProgram();
    Emulator emu(p);
    for (int i = 0; i < 500; i++)
        emu.step();

    Checkpoint ckpt = emu.checkpoint();
    EXPECT_EQ(ckpt.pc, emu.pc());
    EXPECT_EQ(ckpt.seq, emu.instsExecuted());

    // Run ahead, then rewind.
    std::vector<ExecutedInst> ahead;
    for (int i = 0; i < 200; i++)
        ahead.push_back(emu.step());

    Emulator fresh(p);
    fresh.restore(ckpt);
    EXPECT_EQ(fresh.pc(), ckpt.pc);
    for (const ExecutedInst &expect : ahead) {
        ExecutedInst got = fresh.step();
        ASSERT_EQ(got.pc, expect.pc);
        ASSERT_EQ(got.nextPc, expect.nextPc);
        ASSERT_EQ(got.effAddr, expect.effAddr);
    }
}

TEST(Checkpoint, RestoreOntoSameEmulatorRewinds)
{
    Program p = counterProgram();
    Emulator emu(p);
    for (int i = 0; i < 100; i++)
        emu.step();
    Checkpoint ckpt = emu.checkpoint();
    RegVal r1_at_ckpt = emu.readIntReg(1);

    for (int i = 0; i < 300; i++)
        emu.step();
    EXPECT_NE(emu.readIntReg(1), r1_at_ckpt);

    emu.restore(ckpt);
    EXPECT_EQ(emu.readIntReg(1), r1_at_ckpt);
    EXPECT_EQ(emu.instsExecuted(), ckpt.seq);
}

TEST(Checkpoint, CapturesDirtyMemory)
{
    Program p = counterProgram();
    Emulator emu(p);
    while (!emu.halted())
        emu.step();
    Checkpoint ckpt = emu.checkpoint();

    Emulator fresh(p);
    fresh.restore(ckpt);
    EXPECT_EQ(fresh.memory().read64(0x140000000ULL), 1000u);
    EXPECT_TRUE(fresh.halted());
}

TEST(Checkpoint, InitialCheckpointIsProgramStart)
{
    Program p = counterProgram();
    Emulator emu(p);
    Checkpoint ckpt = emu.checkpoint();
    EXPECT_EQ(ckpt.pc, p.entryPc);
    EXPECT_EQ(ckpt.seq, 0u);
    EXPECT_FALSE(ckpt.halted);
    // The data segment's initial contents are present.
    Emulator fresh(p);
    fresh.restore(ckpt);
    ExecutedInst first = fresh.step();
    EXPECT_EQ(first.pc, p.entryPc);
}

TEST(Checkpoint, ExportWordsIsAscending)
{
    // Pages touched in descending order, words within a page out of
    // order, and a zero word that must not be exported.
    SparseMemory mem;
    std::vector<std::pair<Addr, RegVal>> expect;
    for (Addr page = 40; page-- > 0;) {
        Addr base = 0x140000000ULL + page * 0x1000 * 7;
        mem.write64(base + 0xff8, page + 1);
        mem.write64(base + 0x10, 0);
        mem.write64(base + 0x8, ~page);
        expect.emplace_back(base + 0x8, ~page);
        expect.emplace_back(base + 0xff8, page + 1);
    }
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(mem.exportWords(), expect);

    // And so is every checkpoint an emulator takes.
    Program p = counterProgram();
    Emulator emu(p);
    emu.run(777);
    Checkpoint ckpt = emu.checkpoint();
    ASSERT_FALSE(ckpt.memory.empty());
    for (std::size_t i = 1; i < ckpt.memory.size(); i++)
        ASSERT_LT(ckpt.memory[i - 1].first, ckpt.memory[i].first);
}

TEST(Checkpoint, ConstructingAtCheckpointEqualsRestore)
{
    // Initial data, one word of it zero: both paths load the image,
    // so both touch the page the zero word is on.
    Program p = counterProgram();
    p.data.emplace_back(0x150000000ULL, 0);
    p.data.emplace_back(0x150002000ULL, 5);
    Emulator emu(p);
    emu.run(1234);
    Checkpoint ckpt = emu.checkpoint();

    Emulator restored(p);
    restored.restore(ckpt);
    Emulator direct(p, ckpt);
    EXPECT_EQ(direct.pc(), restored.pc());
    EXPECT_EQ(direct.instsExecuted(), restored.instsExecuted());
    EXPECT_EQ(direct.halted(), restored.halted());
    EXPECT_EQ(direct.memory().pagesTouched(),
              restored.memory().pagesTouched());
    Checkpoint a = direct.checkpoint(), b = restored.checkpoint();
    EXPECT_EQ(a.regs, b.regs);
    EXPECT_EQ(a.memory, b.memory);

    while (!restored.halted()) {
        ASSERT_FALSE(direct.halted());
        ExecutedInst x = restored.step();
        ExecutedInst y = direct.step();
        ASSERT_EQ(x.pc, y.pc);
        ASSERT_EQ(x.nextPc, y.nextPc);
        ASSERT_EQ(x.effAddr, y.effAddr);
    }
    EXPECT_TRUE(direct.halted());
    EXPECT_EQ(direct.memory().read64(0x140000000ULL), 1000u);
    EXPECT_EQ(direct.memory().read64(0x150002000ULL), 5u);
}

TEST(Checkpoint, MemoryIsTheDeltaAgainstTheDataImage)
{
    const Addr a = Program::kDataBase;
    ProgramBuilder b("delta");
    b.dataWord(a, 5).dataWord(a + 8, 6).dataWord(a + 0x2000, 9);
    b.lda(R(20), 0x14000);
    b.lda(R(11), 16);
    b.sll(R(20), R(11), R(20));     // r20 = a
    b.lda(R(1), 7);
    b.stq(R(1), 0, R(20));          // 5 -> 7: a pair
    b.stq(R(kIntZeroReg), 8, R(20)); // 6 -> 0: a zero pair
    b.lda(R(1), 5);
    b.stq(R(1), 0, R(20));          // back to 5: the pair goes
    b.halt();
    Program p = b.finish();

    using Words = std::vector<std::pair<Addr, RegVal>>;
    Emulator emu(p);
    EXPECT_EQ(emu.checkpoint().memory, Words{});
    emu.run(5);
    EXPECT_EQ(emu.checkpoint().memory, (Words{{a, 7}}));
    emu.run(1);
    EXPECT_EQ(emu.checkpoint().memory, (Words{{a, 7}, {a + 8, 0}}));
    emu.run(100);
    ASSERT_TRUE(emu.halted());
    Checkpoint end = emu.checkpoint();
    EXPECT_EQ(end.memory, (Words{{a + 8, 0}}));

    // Image plus delta is the live memory, on both restore paths.
    Emulator direct(p, end);
    Emulator restored(p);
    restored.run(4);
    restored.restore(end);
    for (const Emulator *e : {&direct, &restored}) {
        EXPECT_EQ(e->memory().exportWords(), emu.memory().exportWords());
        EXPECT_EQ(e->memory().read64(a), 5u);
        EXPECT_EQ(e->memory().read64(a + 8), 0u);
        EXPECT_EQ(e->memory().read64(a + 0x2000), 9u);
        EXPECT_TRUE(e->halted());
    }
}
