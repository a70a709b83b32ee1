/**
 * @file
 * Shared pieces of the simulator benchmark: the four workloads, the
 * run options, the metric record printed at the end of a run, and the
 * small statistics and hashing helpers every measurement uses.
 *
 * The benchmark measures the simulator's own host time. An untraced
 * run (measure.cc) drives the entry points users hit —
 * runner::ExperimentRunner::run and serve::submitCampaign — and
 * reports end-to-end metrics; a traced run (trace.cc) replays the same
 * cells one at a time, calls each layer's public function itself, and
 * reports per-layer metrics from the spans it records.
 */

#ifndef SIMBENCH_BENCH_HH
#define SIMBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.hh"
#include "runner/campaign.hh"
#include "runner/runner.hh"

namespace simbench {

using namespace simalpha;

/** One benchmark workload: a named campaign at a cap and sampling. */
struct WorkloadDef
{
    std::string name;
    /** runner::campaignByName name of the underlying grid. */
    std::string campaign;
    std::uint64_t maxInsts = 0;
    checkpoint::SampleSpec sample;
    /** Served through an in-process daemon instead of computed. */
    bool serve = false;
};

/** The workloads, in the order BENCHMARK.json lists them. */
const std::vector<WorkloadDef> &workloads();
/** Null on unknown names. */
const WorkloadDef *findWorkload(const std::string &name);

/** Shard count of the serve-warm jobs — the partition a dispatcher
 *  with four workers sends — so every job carries 130 of the 520
 *  Table-5 cells. One count keeps every job the same size, so the
 *  latency distribution does not depend on the seed; jobs this large
 *  keep a host stall of a few ms from dominating the p95. */
constexpr std::size_t kServeShards = 4;

/** Runner threads of every measured phase and set-up fill. */
constexpr int kThreads = 2;
/** Closed-loop clients that submit serve jobs. */
constexpr int kClients = 2;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Reference digests (JSON, see reference.json). */
    std::string referencePath;
    /** Where the traced run writes its spans (JSONL). */
    std::string spansPath;
    /** Rewrite the reference entry of this workload instead of
     *  checking against it (after an intended model change). */
    bool updateReference = false;
};

/** One reported metric. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What a run produced: the metrics plus the correctness tally. */
struct RunOutcome
{
    std::map<std::string, Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Every correctness check passed. */
    bool correct = true;
    /** Human-readable lines printed before the result line. */
    std::vector<std::string> notes;
    /** Settled-result digest of the run (hex), for the fingerprint. */
    std::string digest;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }
    /** Record a failed check: counts @p cells as failed. */
    void fail(const std::string &why, std::uint64_t cells);
};

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Linear-interpolated quantile of @p v (sorted copy), q in [0,1]. */
double quantile(std::vector<double> v, double q);
inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** SplitMix64 step, for seed-derived permutations. */
std::uint64_t splitmix64(std::uint64_t *state);

/** Deterministic Fisher–Yates permutation of @p v driven by @p seed. */
template <typename T>
void
permute(std::vector<T> *v, std::uint64_t seed)
{
    std::uint64_t state = seed;
    for (std::size_t i = v->size(); i > 1; i--) {
        std::size_t j = std::size_t(splitmix64(&state) % i);
        std::swap((*v)[i - 1], (*v)[j]);
    }
}

/** The workload's campaign with cap and sampling applied, cells in
 *  seed-permuted order. */
runner::CampaignSpec workloadSpec(const WorkloadDef &wl,
                                  std::uint64_t seed);

/**
 * Order-independent digest of settled results: the journal line of
 * every cell under a fixed campaign tag, sorted by cell identity.
 */
std::string resultDigest(const std::vector<runner::CellResult> &cells);

/** Same digest from verbatim journal lines of campaign @p campaign
 *  (served lines); false if a line does not parse. */
bool lineDigest(const std::vector<std::string> &lines,
                const std::string &campaign, std::string *digest);

/** Compare @p digest / @p cells against the reference entry of
 *  @p workload (or rewrite it when opts.updateReference). */
void checkReference(const Options &opts, const std::string &workload,
                    const std::string &digest, std::uint64_t cells,
                    RunOutcome *out);

/** Mean |IPC(m) − IPC(ds10l)| / IPC(ds10l) in percent over the
 *  workloads both machines ran (sampled cells: mean window IPC); 0
 *  when there is no ds10l cell. */
double ipcErrorPct(const std::vector<runner::CellResult> &cells,
                   const std::string &machine);

/** Peak resident set of this process, MB. */
double peakRssMb();

/** Remove a directory tree (best effort). */
void removeTree(const std::string &path);

/** Directory for one fresh store/journal: <name>, emptied first. */
std::string freshDir(const std::string &name);

/** Untraced run (measure.cc). */
RunOutcome runUntraced(const Options &opts, const WorkloadDef &wl);
/** Traced run (trace.cc). */
RunOutcome runTraced(const Options &opts, const WorkloadDef &wl);

} // namespace simbench

#endif // SIMBENCH_BENCH_HH
