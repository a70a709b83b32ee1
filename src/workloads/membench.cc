#include "membench.hh"

#include "common/logging.hh"
#include "common/random.hh"
#include "isa/assembler.hh"

namespace simalpha {
namespace workloads {

namespace {

constexpr int kOne = 10;
constexpr int kCount = 9;

void
loadImm64(ProgramBuilder &b, RegIndex reg, std::int64_t value)
{
    if (value >= -32768 && value <= 32767) {
        b.lda(reg, value);
        return;
    }
    std::int64_t hi = value >> 16;
    std::int64_t lo = value & 0xFFFF;
    b.lda(reg, hi);
    b.lda(R(28), 16);
    b.sll(reg, R(28), reg);
    if (lo)
        b.lda(reg, lo, reg);
}

} // namespace

const char *
streamKernelName(StreamKernel k)
{
    switch (k) {
      case StreamKernel::Copy: return "stream-copy";
      case StreamKernel::Scale: return "stream-scale";
      case StreamKernel::Add: return "stream-add";
      case StreamKernel::Triad: return "stream-triad";
    }
    return "stream";
}

Program
streamBenchmark(StreamKernel kernel, int elems, int repeats)
{
    ProgramBuilder b(streamKernelName(kernel));

    // Three disjoint arrays, each elems * 8 bytes.
    const std::int64_t bytes = std::int64_t(elems) * 8;
    const Addr a_base = Program::kDataBase;
    const Addr b_base = a_base + Addr(bytes);
    const Addr c_base = b_base + Addr(bytes);

    // Seed a few words so the arrays exist; untouched words read 0.
    for (int i = 0; i < 64; i++) {
        b.dataWord(a_base + Addr(8 * i), RegVal(i));
        b.dataWord(c_base + Addr(8 * i), RegVal(2 * i));
    }

    b.lda(R(kOne), 1);
    loadImm64(b, R(kCount), repeats);
    b.ldt(F(9), 0, R(31));              // scale factor (zero page: 0.0)

    b.label("repeat");
    loadImm64(b, R(20), std::int64_t(a_base));
    loadImm64(b, R(21), std::int64_t(b_base));
    loadImm64(b, R(22), std::int64_t(c_base));
    loadImm64(b, R(23), elems / 4);     // unrolled 4x
    b.label("loop");
    for (int u = 0; u < 4; u++) {
        std::int64_t off = 8 * u;
        switch (kernel) {
          case StreamKernel::Copy:
            b.ldt(F(1), off, R(20));
            b.stt(F(1), off, R(22));
            break;
          case StreamKernel::Scale:
            b.ldt(F(1), off, R(22));
            b.mult(F(1), F(9), F(2));
            b.stt(F(2), off, R(21));
            break;
          case StreamKernel::Add:
            b.ldt(F(1), off, R(20));
            b.ldt(F(2), off, R(21));
            b.addt(F(1), F(2), F(3));
            b.stt(F(3), off, R(22));
            break;
          case StreamKernel::Triad:
            b.ldt(F(1), off, R(21));
            b.ldt(F(2), off, R(22));
            b.mult(F(2), F(9), F(3));
            b.addt(F(1), F(3), F(4));
            b.stt(F(4), off, R(20));
            break;
        }
    }
    b.lda(R(20), 32, R(20));
    b.lda(R(21), 32, R(21));
    b.lda(R(22), 32, R(22));
    b.subq(R(23), R(kOne), R(23));
    b.bne(R(23), "loop");
    b.subq(R(kCount), R(kOne), R(kCount));
    b.bne(R(kCount), "repeat");
    b.halt();
    return b.finish();
}

std::vector<Program>
streamSuite(int elems, int repeats)
{
    std::vector<Program> suite;
    for (StreamKernel k : kStreamKernels)
        suite.push_back(streamBenchmark(k, elems, repeats));
    return suite;
}

Program
lmbenchLatency(int kb, int stride, std::int64_t accesses)
{
    ProgramBuilder b("lmbench-" + std::to_string(kb) + "k");
    const Addr base = Program::kDataBase;
    const int nodes = kb * 1024 / stride;
    sim_assert(nodes > 1);

    Random rng(0x1AB5 + std::uint64_t(kb));
    std::vector<int> order{};
    order.resize(std::size_t(nodes));
    for (int i = 0; i < nodes; i++)
        order[std::size_t(i)] = i;
    for (int i = nodes - 1; i > 0; i--) {
        int j = int(rng.below(std::uint64_t(i + 1)));
        std::swap(order[std::size_t(i)], order[std::size_t(j)]);
    }
    for (int i = 0; i < nodes; i++) {
        Addr node = base + Addr(order[std::size_t(i)]) * Addr(stride);
        Addr next =
            base + Addr(order[std::size_t((i + 1) % nodes)]) *
                       Addr(stride);
        b.dataWord(node, next);
    }

    b.lda(R(kOne), 1);
    loadImm64(b, R(kCount), accesses / 8);
    loadImm64(b, R(20), std::int64_t(base));
    b.label("loop");
    for (int u = 0; u < 8; u++)
        b.ldq(R(20), 0, R(20));
    b.subq(R(kCount), R(kOne), R(kCount));
    b.bne(R(kCount), "loop");
    b.halt();
    return b.finish();
}

} // namespace workloads
} // namespace simalpha
