/**
 * @file
 * State-level soft-error injection: targets, plans, and outcome
 * classification.
 *
 * A vulnerability campaign flips exactly one bit of simulated machine
 * state per cell — in the architectural register file, the rename
 * map, the ROB/RUU, the LSQ, an issue-queue slot, the branch
 * predictor, or a cache/TLB tag or data array — at a planned cycle,
 * then compares the injected run against the uninjected golden run
 * and labels the cell masked / SDC / crash / deadlock / timeout.
 *
 * Determinism contract: a StateInjection is four integers
 * (`target:index:bit:cycle`). `index` and `bit` are drawn from the
 * full 64-bit space by the plan generator with zero knowledge of any
 * machine; each core folds them into its own structure geometry
 * (modulo array sizes, XOR within field widths) at apply time. The
 * whole plan is a pure function of (cell count, seed, target list,
 * cycle bound), so process shards re-derive it from the campaign name
 * alone, exactly like sampled campaigns re-derive their SampleSpec.
 */

#ifndef SIMALPHA_INJECT_INJECT_HH
#define SIMALPHA_INJECT_INJECT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/emulator.hh"
#include "isa/isa.hh"

namespace simalpha {
namespace inject {

/** The machine structure a flip lands in. */
enum class Target
{
    None,      ///< no injection (the disabled/default state)
    RegFile,   ///< architectural integer/fp register file
    RenameMap, ///< register rename map (arch → phys)
    Rob,       ///< reorder buffer / register update unit entry
    Lsq,       ///< load/store queue entry
    Iq,        ///< issue-queue slot
    Bpred,     ///< branch-predictor tables (counters + histories)
    CacheTag,  ///< cache tag array (L1 I/D or L2)
    CacheData, ///< cached data value (resident dirty word)
    TlbTag,    ///< TLB tag (virtual page number)
};

/** Canonical spec name of a target ("regfile", "rob", ...). */
const char *targetName(Target target);

/** Reverse lookup over the same table. */
bool targetByName(const std::string &name, Target *out);

/** "regfile, renamemap, ..." — for error messages. */
std::string targetNameList();

/** Every injectable target, in canonical (enum) order. */
const std::vector<Target> &allTargets();

/**
 * One planned bit flip. `index` selects the cell within the target
 * structure and `bit` the bit within the cell; both are folded into
 * the concrete geometry by the machine applying the flip. `cycle` is
 * the simulated cycle the flip strikes at (a strike past the end of
 * the run is naturally masked).
 */
struct StateInjection
{
    Target target = Target::None;
    std::uint64_t index = 0;
    std::uint32_t bit = 0;
    Cycle cycle = 0;

    bool enabled() const { return target != Target::None; }

    bool operator==(const StateInjection &o) const
    {
        return target == o.target && index == o.index &&
               bit == o.bit && cycle == o.cycle;
    }
    bool operator!=(const StateInjection &o) const
    {
        return !(*this == o);
    }
};

/** `target:index:bit:cycle`, e.g. "rob:12345:17:1000". */
std::string formatInjectSpec(const StateInjection &injection);

/**
 * Parse formatInjectSpec output. Returns false with *error filled
 * (listing the valid target names) on malformed text.
 */
bool parseInjectSpec(const std::string &text, StateInjection *out,
                     std::string *error);

/**
 * The deterministic per-cell plan: `cells` injections with targets
 * assigned round-robin from @p targets (so every structure gets even
 * coverage), index drawn from the full 64-bit space, bit from [0,64),
 * and cycle from [1, maxCycle]. Pure function of its arguments.
 */
std::vector<StateInjection>
makeInjectionPlan(std::size_t cells, std::uint64_t seed,
                  const std::vector<Target> &targets,
                  std::uint64_t maxCycle);

// ---------------------------------------------------------------------
// Outcome classification
// ---------------------------------------------------------------------

/** What one injected run did, relative to its golden reference. */
enum class Outcome
{
    Masked,   ///< finished with identical architectural state
    Sdc,      ///< finished, but final state/outputs diverged silently
    Crash,    ///< raised a simulation error (invariant, internal, ...)
    Deadlock, ///< the forward-progress watchdog fired
    Timeout,  ///< exceeded its instruction or cycle budget
};

/** Canonical label ("masked", "sdc", "crash", "deadlock", "timeout"). */
const char *outcomeName(Outcome outcome);

/** Reverse lookup over the same table. */
bool outcomeByName(const std::string &name, Outcome *out);

/**
 * Order-independent digest of final architectural state: FNV-1a over
 * the registers, PC, halt flag, and the address-sorted memory delta
 * against the program's data image (Checkpoint::memory), which for a
 * given program is one-to-one with its full memory state. The
 * retired-instruction count (`seq`) is deliberately excluded — two
 * runs that converge to identical final state along different-length
 * paths are architecturally indistinguishable.
 */
std::uint64_t archDigest(const Checkpoint &state);

/** The uninjected reference a cell's injected run is judged against. */
struct GoldenRef
{
    std::uint64_t digest = 0; ///< archDigest at halt
    Cycle cycles = 0;         ///< baseline run length in cycles
    std::uint64_t insts = 0;  ///< baseline committed instructions
    bool finished = false;    ///< must be true to classify SDC

    bool operator==(const GoldenRef &o) const
    {
        return digest == o.digest && cycles == o.cycles &&
               insts == o.insts && finished == o.finished;
    }
};

/** Store key for a golden record: machine config + workload + cap. */
std::string goldenKey(const std::string &manifestHash,
                      const std::string &workload,
                      std::uint64_t maxInsts);

/** Single-line store blob: "vgold1 digest=<hex> cycles=... ...". */
std::string serializeGolden(const GoldenRef &golden);

/** Strict parse of serializeGolden output. */
bool parseGolden(const std::string &text, GoldenRef *out);

// ---------------------------------------------------------------------
// Per-structure vulnerability table
// ---------------------------------------------------------------------

/** One classified cell, reduced to what the table needs. */
struct OutcomeSample
{
    std::string target;  ///< targetName() of the struck structure
    std::string outcome; ///< outcomeName() of the classification
};

/** Aggregated outcomes for one target structure. */
struct VulnRow
{
    std::string target;
    std::uint64_t cells = 0;
    std::uint64_t masked = 0;
    std::uint64_t sdc = 0;
    std::uint64_t crash = 0;
    std::uint64_t deadlock = 0;
    std::uint64_t timeout = 0;
    /** Fraction of cells with any non-masked outcome. */
    double nonMaskedRate = 0.0;
    /** 95% Student-t half-interval over the 0/1 indicators. */
    double nonMaskedCi = 0.0;
};

/**
 * Aggregate per-cell outcomes into per-structure rows (canonical
 * target order, then any unrecognized labels, then an "all" total).
 */
std::vector<VulnRow>
buildVulnTable(const std::vector<OutcomeSample> &samples);

/** Render rows as deterministic JSON / CSV / aligned text. */
std::string vulnTableJson(const std::vector<VulnRow> &rows);
std::string vulnTableCsv(const std::vector<VulnRow> &rows);
std::string vulnTableText(const std::vector<VulnRow> &rows);

} // namespace inject
} // namespace simalpha

#endif // SIMALPHA_INJECT_INJECT_HH
