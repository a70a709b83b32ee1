#include "fu_pool.hh"

#include "common/logging.hh"

namespace simalpha {

FuPool::FuPool(bool wrong_mix)
    : _wrongMix(wrong_mix)
{
    // Integer pipes: cluster 0 {upper, lower}, cluster 1 {upper, lower}.
    // Correct mix: all four execute ALU ops; only cluster 1's upper pipe
    // multiplies; lower pipes perform memory address generation.
    // Buggy mix: the two upper pipes are multipliers that cannot execute
    // plain ALU ops, halving add throughput (the E-I symptom).
    auto int_pipe = [&](int cluster, bool upper) {
        Pipe p{};
        p.cluster = cluster;
        p.upper = upper;
        if (wrong_mix) {
            p.canAlu = !upper;
            p.canMul = upper;
        } else {
            p.canAlu = true;
            p.canMul = upper && cluster == 1;
        }
        p.canMem = !upper;
        return p;
    };
    _pipes.push_back(int_pipe(0, true));
    _pipes.push_back(int_pipe(0, false));
    _pipes.push_back(int_pipe(1, true));
    _pipes.push_back(int_pipe(1, false));

    // Floating-point pipes: one add pipe (also divide/sqrt, unpipelined
    // for those) and one multiply pipe.
    Pipe fadd{};
    fadd.cluster = -1;
    fadd.canFpAdd = true;
    _pipes.push_back(fadd);
    Pipe fmul{};
    fmul.cluster = -1;
    fmul.canFpMul = true;
    _pipes.push_back(fmul);

    for (Pipe &p : _pipes) {
        for (int c = 0; c < kNumOpClasses; c++) {
            for (int bit = 0; bit < 4; bit++) {
                if (capable(p, OpClass(c), p.cluster, bit & 1, bit >> 1))
                    p.fits[c] |= std::uint8_t(1u << bit);
            }
        }
    }
}

bool
FuPool::unpipelined(OpClass cls)
{
    switch (cls) {
      case OpClass::FpDivS: case OpClass::FpDivD:
      case OpClass::FpSqrtS: case OpClass::FpSqrtD:
        return true;
      default:
        return false;
    }
}

int
FuPool::occupancy(OpClass cls)
{
    switch (cls) {
      case OpClass::FpDivS: return 12;
      case OpClass::FpDivD: return 15;
      case OpClass::FpSqrtS: return 18;
      case OpClass::FpSqrtD: return 33;
      default: return 1;
    }
}

bool
FuPool::capable(const Pipe &p, OpClass cls, int cluster,
                bool slotted_upper, bool slot_restrict) const
{
    switch (cls) {
      case OpClass::FpAdd: case OpClass::FpDivS: case OpClass::FpDivD:
      case OpClass::FpSqrtS: case OpClass::FpSqrtD:
        return p.canFpAdd;
      case OpClass::FpMul:
        return p.canFpMul;
      case OpClass::FpLoad: case OpClass::FpStore:
      case OpClass::IntLoad: case OpClass::IntStore:
        // Memory ops use the lower pipes of the requested cluster.
        return p.canMem && p.cluster == cluster;
      case OpClass::IntMul:
        return p.canMul && p.cluster == cluster;
      case OpClass::CondBranch: case OpClass::UncondBranch:
      case OpClass::Call: case OpClass::IndirectJump:
      case OpClass::Return:
        // Branches resolve in the upper pipes.
        if (!p.canAlu && !p.canMul)
            return false;
        return p.upper && p.cluster == cluster;
      default:
        // Plain ALU (and nop/halt placeholders).
        if (!p.canAlu)
            return false;
        if (p.cluster != cluster)
            return false;
        // The buggy mix treats units as generic resources, so the
        // subcluster assignment does not constrain them.
        if (slot_restrict && !_wrongMix && p.upper != slotted_upper)
            return false;
        return true;
    }
}

int
FuPool::findPipe(OpClass cls, int cluster, bool slotted_upper,
                 bool slot_restrict, Cycle now) const
{
    for (std::size_t i = 0; i < _pipes.size(); i++) {
        const Pipe &p = _pipes[i];
        if (!capable(p, cls, cluster, slotted_upper, slot_restrict))
            continue;
        if (p.lastIssue == now)
            continue;
        if (p.busyUntil > now)
            continue;
        return int(i);
    }
    return -1;
}

bool
FuPool::available(OpClass cls, int cluster, bool slotted_upper,
                  bool slot_restrict, Cycle now) const
{
    return findPipe(cls, cluster, slotted_upper, slot_restrict, now) >= 0;
}

void
FuPool::reservePipe(int pipe, OpClass cls, Cycle now)
{
    Pipe &p = _pipes[std::size_t(pipe)];
    p.lastIssue = now;
    if (unpipelined(cls))
        p.busyUntil = now + Cycle(occupancy(cls));
}

bool
FuPool::acquire(OpClass cls, int cluster, bool slotted_upper,
                bool slot_restrict, Cycle now)
{
    int idx = findPipe(cls, cluster, slotted_upper, slot_restrict, now);
    if (idx < 0)
        return false;
    Pipe &p = _pipes[std::size_t(idx)];
    p.lastIssue = now;
    if (unpipelined(cls))
        p.busyUntil = now + Cycle(occupancy(cls));
    return true;
}

} // namespace simalpha
