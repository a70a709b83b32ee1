/**
 * @file
 * Perf-trajectory harness: measure simulated-instructions-per-second
 * on a fixed capped Table-3 campaign and track the numbers across PRs
 * in BENCH_perf.json at the repo root.
 *
 * Three paths are timed separately so the trajectory distinguishes
 * detailed-core work from functional-emulation work:
 *   - detailed:  the sim-alpha cells of Table 3 (cycle-accurate
 *                AlphaCore, the hot loop this file exists to watch)
 *   - abstract:  the sim-outorder cells (SimpleScalar-style RuuCore)
 *   - emulator:  the raw functional Emulator over the same workloads
 *
 * The JSON file keeps two entries: `baseline` (recorded once, before
 * an optimization lands, and preserved by later runs) and `current`
 * (replaced on every `simalpha bench` run), plus the derived
 * detailed-path speedup. `simalpha bench --check FILE` validates the
 * schema without measuring, so CI can fail on drift cheaply.
 */

#ifndef SIMALPHA_RUNNER_PERFBENCH_HH
#define SIMALPHA_RUNNER_PERFBENCH_HH

#include <cstdint>
#include <string>

namespace simalpha {
namespace runner {

/** Wall-clock measurement of one simulation path. */
struct PerfPath
{
    std::uint64_t insts = 0; ///< total simulated instructions
    double seconds = 0.0;    ///< wall-clock seconds (steady clock)
    double ips = 0.0;        ///< insts / seconds
};

/** One measured snapshot of all measured paths. */
struct PerfEntry
{
    std::string buildType; ///< CMAKE_BUILD_TYPE the binary was built as
    std::uint64_t maxInsts = 0; ///< per-cell committed-instruction cap
    PerfPath detailed;
    PerfPath abstracted;
    PerfPath emulator;
    /**
     * The functional emulator driven through its predecoded batch
     * loop (Emulator::run()) instead of one step() call per
     * instruction — the raw-dispatch ceiling. The delta against
     * `emulator` is the per-call overhead step() pays to keep its
     * precise single-instruction contract. Absent in trajectory files
     * written before predecode existed; parse treats it as optional.
     */
    PerfPath emuPre;
    /**
     * Checkpoint-sampled sim-alpha over the same workloads at 10x the
     * detailed cap: `insts` counts the instructions the sampled run
     * *represents* (the functional fast-forward length), so `ips` is
     * the effective simulation rate including fast-forward and
     * checkpoint generation. Absent in trajectory files written
     * before sampling existed; parse treats it as optional.
     */
    PerfPath sampled;
    /**
     * The detailed path measured a second time with the soft-error
     * injection hooks explicitly disarmed — the injection-overhead
     * row. The hooks cost one predicted-not-taken branch per cycle
     * when no plan is armed, so this should match `detailed` within
     * run-to-run noise; a drift here means the disarmed hook grew a
     * real cost. Absent in trajectory files written before injection
     * existed; parse treats it as optional.
     */
    PerfPath injectIdle;
    /**
     * The plain detailed passes timed alternately with `injectIdle`,
     * on the same machine without the armInjection() calls: the
     * denominator of the inject-idle ratio `simalpha bench` prints.
     * Not written to the trajectory file.
     */
    PerfPath injectPlain;
    /**
     * The campaign service measured end-to-end: a private daemon on a
     * temp store, the same capped Table-3 campaign submitted through
     * the socket, wall clock from submit to done line. `serveCold`
     * computes every cell; `serveWarm` reruns against the populated
     * store (job journal cleared), so the delta is the store's win
     * through the whole service path. Absent before the service
     * existed and in builds that don't wire the hook; optional.
     */
    PerfPath serveCold;
    PerfPath serveWarm;
    /**
     * The two-worker loopback fleet measured end-to-end: two worker
     * daemons plus a dispatcher front-end on private temp stores, the
     * same capped Table-3 campaign submitted to the front-end, wall
     * clock from submit to done line. `fleetCold` computes every cell
     * on a worker; `fleetWarm` reruns against the workers' populated
     * stores (job journals cleared), so the delta is the store's win
     * through two socket hops. Absent before the fleet tier existed
     * and in builds that don't wire the hook; optional.
     */
    PerfPath fleetCold;
    PerfPath fleetWarm;
    /**
     * A warm rerun of the same campaign against a result store whose
     * shards carry a freshly built binary index: the cold fill and
     * the index build happen outside the timed region, so this row is
     * the pure replay rate of index-served lookups (pread by offset +
     * FNV check, zero per-entry JSON parsing). Absent in trajectory
     * files written before the store index existed; optional.
     */
    PerfPath warmStore;
    bool valid = false;
};

/** The whole trajectory file: pinned baseline + latest measurement. */
struct PerfReport
{
    int schemaVersion = 1;
    std::string campaign = "table3";
    PerfEntry baseline;
    PerfEntry current;
    /** current.detailed.ips / baseline.detailed.ips */
    double speedupDetailed = 1.0;
};

/** Default committed-instruction cap for a full `simalpha bench`. */
constexpr std::uint64_t kPerfBenchDefaultMaxInsts = 100000;
/** Cap used by `simalpha bench --quick` (CI smoke). */
constexpr std::uint64_t kPerfBenchQuickMaxInsts = 5000;

/**
 * Run the capped Table-3 campaign serially (jobs=1, cache off) and
 * time the three paths. Prints nothing; throws nothing — a failed
 * cell makes the entry invalid with *error filled.
 */
bool measurePerf(std::uint64_t max_insts, PerfEntry *out,
                 std::string *error);

/**
 * The serve-row measurement is provided by the sim_serve library (the
 * runner cannot link it — serve sits above the runner), injected by
 * the driver before runBenchCommand. When unset, the serve rows stay
 * zero and the trajectory file simply omits measured values for them.
 */
using ServeBenchFn = bool (*)(std::uint64_t maxInsts, PerfPath *cold,
                              PerfPath *warm, std::string *error);
void setServeBenchHook(ServeBenchFn fn);

/** Same injection pattern for the fleet rows (sim_fleet sits above
 *  serve): when unset, the fleet rows stay zero and the trajectory
 *  file omits measured values for them. */
using FleetBenchFn = bool (*)(std::uint64_t maxInsts, PerfPath *cold,
                              PerfPath *warm, std::string *error);
void setFleetBenchHook(FleetBenchFn fn);

/** Render a report as the canonical BENCH_perf.json text. */
std::string perfReportToJson(const PerfReport &report);

/**
 * Parse a BENCH_perf.json text. Returns false with *error filled on
 * malformed JSON or schema drift (missing/ill-typed fields).
 */
bool parsePerfReport(const std::string &text, PerfReport *out,
                     std::string *error);

/**
 * Validate that the file at @p path parses as a PerfReport.
 * Returns false with *error filled on I/O failure or schema drift.
 */
bool checkPerfFile(const std::string &path, std::string *error);

/**
 * The `simalpha bench` verb. argv[0] is "bench". Flags:
 *   --quick         measure at the small CI cap
 *   --max-insts N   explicit per-cell cap
 *   --out FILE      trajectory file (default BENCH_perf.json)
 *   --check FILE    validate FILE's schema only; no measurement
 *   --set-baseline  pin this measurement as the new baseline too
 *   --smoke         regression gate: re-measure only the detailed,
 *                   abstract and emulator rows at the pinned
 *                   baseline's cap and fail (exit 1) if any drops
 *                   below 80% of the baseline ips. Never writes the
 *                   trajectory file; when the running build type
 *                   differs from the baseline's the thresholds are
 *                   reported but not enforced (cross-build ips are
 *                   incomparable).
 * Exit codes: 0 ok, 1 measurement/validation failure, 2 usage.
 */
int runBenchCommand(int argc, char **argv);

} // namespace runner
} // namespace simalpha

#endif // SIMALPHA_RUNNER_PERFBENCH_HH
