/**
 * @file
 * The 21264 execution pipes: four integer pipes arranged as two clusters
 * (each with an upper and a lower subcluster) and two floating-point
 * pipes. The integer mix is one adder/multiplier plus three adders;
 * memory operations issue through the lower subclusters; branches and
 * multiplies through the upper ones.
 *
 * The sim-initial FU-mix bug (two adders + two multipliers) is modeled
 * as an alternate pipe capability table.
 */

#ifndef SIMALPHA_CORE_FU_POOL_HH
#define SIMALPHA_CORE_FU_POOL_HH

#include <vector>

#include "common/types.hh"
#include "isa/isa.hh"

namespace simalpha {

class FuPool
{
  public:
    /**
     * @param wrong_mix install the buggy two-adder/two-multiplier mix
     */
    explicit FuPool(bool wrong_mix);

    /**
     * Try to reserve a pipe for one instruction this cycle.
     * @param cls operation class
     * @param cluster required cluster (0/1) for integer ops; ignored for
     *        fp classes
     * @param slotted_upper the slot-stage subcluster assignment
     * @param slot_restrict honour the subcluster assignment
     * @param now current cycle
     * @return true if a pipe was reserved
     */
    bool acquire(OpClass cls, int cluster, bool slotted_upper,
                 bool slot_restrict, Cycle now);

    /** Probe without reserving. */
    bool available(OpClass cls, int cluster, bool slotted_upper,
                   bool slot_restrict, Cycle now) const;

    // ---- Per-pipe arbitration interface (the issue stage walks the
    // ---- pipes and gives each to its oldest ready requester) --------
    int numPipes() const { return int(_pipes.size()); }
    int pipeCluster(int pipe) const { return _pipes[pipe].cluster; }
    bool pipeIsFp(int pipe) const { return _pipes[pipe].cluster < 0; }

    /** Is this pipe free this cycle (not yet issued to, not held by
     *  an unpipelined op)? */
    bool
    pipeFree(int pipe, Cycle now) const
    {
        const Pipe &p = _pipes[std::size_t(pipe)];
        return p.lastIssue != now && p.busyUntil <= now;
    }

    /** Can this pipe execute `cls` for an op slotted to the given
     *  subcluster (capability only; one table lookup)? */
    bool
    pipeFits(int pipe, OpClass cls, bool slotted_upper,
             bool slot_restrict) const
    {
        unsigned mask = _pipes[std::size_t(pipe)].fits[int(cls)];
        return (mask >> (2 * int(slot_restrict) + int(slotted_upper))) & 1;
    }

    /** Can this pipe execute `cls` this cycle (capability + busy)? */
    bool
    pipeCanIssue(int pipe, OpClass cls, bool slotted_upper,
                 bool slot_restrict, Cycle now) const
    {
        return pipeFits(pipe, cls, slotted_upper, slot_restrict) &&
               pipeFree(pipe, now);
    }

    /** Reserve a specific pipe for one op this cycle. */
    void reservePipe(int pipe, OpClass cls, Cycle now);

    /** Restore freshly-constructed state (campaign core reuse); the
     *  capability table is fixed by the mix, only timing resets. */
    void
    reset()
    {
        for (Pipe &p : _pipes) {
            p.lastIssue = kNoCycle;
            p.busyUntil = 0;
        }
    }

  private:
    static constexpr int kNumOpClasses = int(OpClass::Halt) + 1;

    struct Pipe
    {
        int cluster;        ///< 0/1 integer clusters, -1 fp
        bool upper;
        bool canAlu;
        bool canMul;
        bool canMem;
        bool canFpAdd;      ///< fp add/div/sqrt pipe
        bool canFpMul;
        Cycle lastIssue = kNoCycle;  ///< pipelined: one issue per cycle
        Cycle busyUntil = 0;         ///< unpipelined occupancy
        /** Capability per OpClass on the pipe's own cluster: bit
         *  (2 * slot_restrict + slotted_upper) says whether it fits. */
        std::uint8_t fits[kNumOpClasses] = {};
    };

    bool capable(const Pipe &p, OpClass cls, int cluster,
                 bool slotted_upper, bool slot_restrict) const;
    int findPipe(OpClass cls, int cluster, bool slotted_upper,
                 bool slot_restrict, Cycle now) const;
    static bool unpipelined(OpClass cls);
    static int occupancy(OpClass cls);

    std::vector<Pipe> _pipes;
    bool _wrongMix;
};

} // namespace simalpha

#endif // SIMALPHA_CORE_FU_POOL_HH
