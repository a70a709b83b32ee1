/**
 * @file
 * Fault-containment suite (`ctest -L fault`): the error taxonomy, the
 * cores' forward-progress watchdog, deterministic fault injection, the
 * bounded-retry policy, and the campaign journal behind --resume.
 *
 * The headline properties, mirroring the PR acceptance criteria:
 *  - an injected panic in one cell of a --jobs 8 campaign leaves every
 *    other cell byte-identical to a fault-free run, and
 *  - a campaign interrupted mid-run and restarted with resume emits
 *    artifacts byte-identical to an uninterrupted run.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_map>

#include "common/error.hh"
#include "common/logging.hh"
#include "core/core.hh"
#include "inject/inject.hh"
#include "outorder/ruu_core.hh"
#include "runner/artifacts.hh"
#include "runner/campaign.hh"
#include "runner/journal.hh"
#include "runner/runner.hh"
#include "runner/shard.hh"
#include "validate/machines.hh"

using namespace simalpha;
using namespace simalpha::runner;
using validate::Optimization;

namespace {

/** A cheap cell: capped microbenchmark on the abstract core. */
Cell
cheapCell(const std::string &workload,
          const std::string &machine = "sim-outorder")
{
    return {machine, Optimization::None, workload, 2000, 0};
}

/** n distinct cheap cells (distinct workloads, so the result cache
 *  never aliases two cells of one campaign). */
CampaignSpec
cheapSpec(std::size_t n)
{
    static const char *workloads[] = {"C-Ca", "C-Cb", "C-R",  "C-S1",
                                      "C-S2", "C-S3", "C-O",  "E-I",
                                      "E-D1", "E-D2", "E-D3", "E-D4"};
    CampaignSpec spec;
    spec.name = "fault-suite";
    for (std::size_t i = 0; i < n; i++)
        spec.cells.push_back(
            cheapCell(workloads[i % (sizeof(workloads) /
                                     sizeof(workloads[0]))]));
    return spec;
}

Program
program(const std::string &name)
{
    Program p;
    std::string error;
    EXPECT_TRUE(buildWorkload(name, &p, &error)) << error;
    return p;
}

/** The campaign minus one cell, for surviving-cell byte comparisons. */
CampaignResult
without(const CampaignResult &result, std::size_t index)
{
    CampaignResult out = result;
    out.cells.erase(out.cells.begin() + long(index));
    return out;
}

std::string
uniquePath(const std::string &stem)
{
    return testing::TempDir() + "simalpha-" + stem + "-" +
           std::to_string(::getpid()) + ".jsonl";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
}

} // namespace

// ---------------------------------------------------------------------
// Error taxonomy
// ---------------------------------------------------------------------

TEST(ErrorTaxonomy, PanicThrowsInvariantErrorWithLocation)
{
    try {
        panic("boom %d", 7);
        FAIL() << "panic returned";
    } catch (const InvariantError &e) {
        EXPECT_EQ(e.kind(), "invariant");
        EXPECT_FALSE(e.retryable());
        std::string what = e.what();
        EXPECT_EQ(what, "boom 7");
        // The location is kept out of the message, which result
        // artifacts carry: it must not depend on the checkout.
        EXPECT_NE(e.location().find("test_fault.cc:"), std::string::npos)
            << e.location();
    }
}

TEST(ErrorTaxonomy, FatalThrowsConfigError)
{
    try {
        fatal("bad flag '%s'", "--frob");
        FAIL() << "fatal returned";
    } catch (const ConfigError &e) {
        EXPECT_EQ(e.kind(), "config");
        EXPECT_FALSE(e.retryable());
        EXPECT_STREQ(e.what(), "bad flag '--frob'");
    }
}

TEST(ErrorTaxonomy, SimAssertThrowsInvariantError)
{
    EXPECT_THROW({ sim_assert(2 + 2 == 5); }, InvariantError);
    EXPECT_NO_THROW({ sim_assert(2 + 2 == 4); });
}

TEST(ErrorTaxonomy, CrashAndTimeoutAreSupervisorOnlyClasses)
{
    // The process-isolation supervisor's classes: deaths it observed
    // from outside (wait status, wall-clock), never raised inside a
    // simulation — and never retryable, since the same cell would
    // take down the next worker too.
    CrashError crash("worker killed by signal 11");
    EXPECT_EQ(crash.kind(), "crash");
    EXPECT_FALSE(crash.retryable());

    TimeoutError timeout("exceeded its 60s wall-clock timeout");
    EXPECT_EQ(timeout.kind(), "timeout");
    EXPECT_FALSE(timeout.retryable());

    try {
        throw CrashError("boom");
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), "crash");
    }
}

TEST(ErrorTaxonomy, ClassesAreCatchableAsSimError)
{
    try {
        throw WorkloadError("no such workload");
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), "workload");
    }
    try {
        throw TransientError("disk hiccup");
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), "transient");
        EXPECT_TRUE(e.retryable());
    }
}

// ---------------------------------------------------------------------
// Forward-progress watchdog
// ---------------------------------------------------------------------

TEST(Watchdog, AlphaCoreThrowsDeadlockErrorWithSnapshot)
{
    // A watchdog shorter than the pipeline depth fires before the
    // first commit can happen — a deterministic "stopped committing"
    // scenario on the real detailed core.
    AlphaCoreParams params = AlphaCoreParams::simAlpha();
    params.watchdogCycles = 2;
    AlphaCore core(params);

    try {
        core.run(program("C-Ca"), 1000);
        FAIL() << "watchdog did not fire";
    } catch (const DeadlockError &e) {
        EXPECT_EQ(e.kind(), "deadlock");
        EXPECT_FALSE(e.retryable());
        const DeadlockInfo &info = e.info();
        EXPECT_EQ(info.machine, "sim-alpha");
        EXPECT_EQ(info.program, "C-Ca");
        EXPECT_GT(info.cycle, 2u);
        EXPECT_EQ(info.committed, 0u);
        // Nothing committed, so the last-commit marker is still at the
        // start of time and the stall span equals the firing cycle —
        // which must exceed the configured watchdog interval.
        EXPECT_EQ(info.lastCommitCycle, 0u);
        EXPECT_GE(info.cycle - info.lastCommitCycle,
                  params.watchdogCycles);
        // The snapshot carries a real fetch PC; the window is
        // genuinely empty here — a 2-cycle watchdog fires during the
        // cold I-cache fill, before anything reaches the ROB — and
        // the oldest-instruction rendering agrees with the occupancy.
        // (MidRunDeadlockSnapshotCarriesTheWindow covers the
        // populated-window case.)
        EXPECT_NE(info.fetchPc, 0u);
        EXPECT_EQ(info.windowOccupancy, 0u);
        EXPECT_TRUE(info.oldestInst.empty()) << info.oldestInst;
        EXPECT_FALSE(info.detail.empty());
        std::string what = e.what();
        EXPECT_NE(what.find("deadlocked"), std::string::npos) << what;
        EXPECT_NE(what.find("C-Ca"), std::string::npos) << what;
        // summary() renders the snapshot fields, not just the headline.
        EXPECT_NE(what.find("fetchPc=0x"), std::string::npos) << what;
        EXPECT_NE(what.find("window="), std::string::npos) << what;
    }
}

TEST(Watchdog, RuuCoreThrowsDeadlockErrorWithSnapshot)
{
    RuuCoreParams params = RuuCoreParams::simOutorder();
    params.watchdogCycles = 2;
    RuuCore core(params);

    try {
        core.run(program("C-Ca"), 1000);
        FAIL() << "watchdog did not fire";
    } catch (const DeadlockError &e) {
        const DeadlockInfo &info = e.info();
        EXPECT_EQ(info.machine, "sim-outorder");
        EXPECT_EQ(info.program, "C-Ca");
        EXPECT_GT(info.cycle, 2u);
        EXPECT_EQ(info.committed, 0u);
        EXPECT_EQ(info.lastCommitCycle, 0u);
        EXPECT_GE(info.cycle - info.lastCommitCycle,
                  params.watchdogCycles);
        EXPECT_NE(info.fetchPc, 0u);
        EXPECT_EQ(info.windowOccupancy, 0u);
        EXPECT_TRUE(info.oldestInst.empty()) << info.oldestInst;
        EXPECT_FALSE(info.detail.empty());
    }
}

TEST(Watchdog, MidRunDeadlockSnapshotCarriesTheWindow)
{
    // A genuine mid-run deadlock — the head ROB entry's completed
    // flag flipped off, so commit wedges behind it with a full window
    // — must snapshot the in-flight state: occupancy, the oldest
    // instruction's disassembly, the stalled commit point.
    for (const char *machine : {"sim-alpha", "sim-outorder"}) {
        auto m = validate::makeMachine(machine);
        inject::StateInjection flip;
        flip.target = inject::Target::Rob;
        flip.index = 0;
        flip.bit = 1;       // folds to the completed flag
        flip.cycle = 60000; // mid-run: commit is in steady state
        ASSERT_TRUE(m->armInjection(&flip, 0)) << machine;
        try {
            m->run(program("C-Ca"), 800000);
            FAIL() << machine << ": flip did not wedge commit";
        } catch (const DeadlockError &e) {
            const DeadlockInfo &info = e.info();
            EXPECT_EQ(info.machine, machine);
            EXPECT_GT(info.committed, 0u);
            // Commit stalled right at the strike...
            EXPECT_LT(info.lastCommitCycle, flip.cycle);
            EXPECT_GE(info.lastCommitCycle, flip.cycle - 10);
            // ...and the watchdog fired one full (default) interval
            // later.
            EXPECT_GE(info.cycle - info.lastCommitCycle, 100000u)
                << machine;
            EXPECT_NE(info.fetchPc, 0u);
            EXPECT_GT(info.windowOccupancy, 0u) << machine;
            EXPECT_FALSE(info.oldestInst.empty()) << machine;
            EXPECT_NE(info.oldestInst.find("pc=0x"),
                      std::string::npos)
                << info.oldestInst;
            EXPECT_FALSE(info.detail.empty());
            std::string what = e.what();
            EXPECT_NE(what.find("window="), std::string::npos) << what;
            EXPECT_NE(what.find("oldest=["), std::string::npos)
                << what;
        }
    }
}

// ---------------------------------------------------------------------
// Fault-spec grammar: <cell>:<kind>[:<times>]
// ---------------------------------------------------------------------

TEST(FaultSpec, RoundTripsEveryKind)
{
    // Exhaustive over the Kind enum: if a kind is added without a
    // table entry, the default-name fallback breaks the round-trip
    // here. Both the every-execution (times = -1, no :times suffix)
    // and explicit-times renderings are exercised.
    struct
    {
        FaultInjection::Kind kind;
        const char *name;
    } kinds[] = {
        {FaultInjection::Kind::Panic, "panic"},
        {FaultInjection::Kind::Stall, "stall"},
        {FaultInjection::Kind::Throw, "throw"},
        {FaultInjection::Kind::Abort, "abort"},
        {FaultInjection::Kind::Segfault, "segfault"},
        {FaultInjection::Kind::Hang, "hang"},
    };
    std::size_t index = 0;
    for (const auto &k : kinds) {
        for (int times : {-1, 0, 3}) {
            FaultInjection fault;
            fault.cellIndex = index++;
            fault.kind = k.kind;
            fault.times = times;

            std::string text = formatFaultSpec(fault);
            std::string expect =
                std::to_string(fault.cellIndex) + ":" + k.name;
            if (times >= 0)
                expect += ":" + std::to_string(times);
            EXPECT_EQ(text, expect);

            FaultInjection parsed;
            std::string error;
            ASSERT_TRUE(parseFaultSpec(text, &parsed, &error))
                << text << ": " << error;
            EXPECT_EQ(parsed.cellIndex, fault.cellIndex);
            EXPECT_EQ(parsed.kind, fault.kind);
            EXPECT_EQ(parsed.times, fault.times);
        }
    }
}

TEST(FaultSpec, ErrorsListTheValidKinds)
{
    // Both rejection paths — malformed spec and unknown kind — must
    // name every kind so the CLI error is self-documenting.
    const char *all[] = {"panic",    "stall",    "throw",
                         "abort",    "segfault", "hang"};
    FaultInjection fault;
    std::string error;

    EXPECT_FALSE(parseFaultSpec("bogus", &fault, &error));
    for (const char *name : all)
        EXPECT_NE(error.find(name), std::string::npos) << error;

    error.clear();
    EXPECT_FALSE(parseFaultSpec("3:meltdown", &fault, &error));
    EXPECT_NE(error.find("meltdown"), std::string::npos) << error;
    for (const char *name : all)
        EXPECT_NE(error.find(name), std::string::npos) << error;
}

TEST(FaultSpec, RejectsMalformedIndexAndTimes)
{
    FaultInjection fault;
    std::string error;
    EXPECT_FALSE(parseFaultSpec(":panic", &fault, &error));
    EXPECT_FALSE(parseFaultSpec("x:panic", &fault, &error));
    EXPECT_NE(error.find("cell index"), std::string::npos) << error;
    EXPECT_FALSE(parseFaultSpec("1:panic:", &fault, &error));
    EXPECT_FALSE(parseFaultSpec("1:panic:twice", &fault, &error));
    EXPECT_NE(error.find("times"), std::string::npos) << error;
}

TEST(Watchdog, DisabledWatchdogStillCompletesNormally)
{
    AlphaCoreParams params = AlphaCoreParams::simAlpha();
    params.watchdogCycles = 0;   // disabled: normal programs finish
    AlphaCore core(params);
    RunResult r = core.run(program("C-Ca"), 2000);
    EXPECT_GT(r.instsCommitted, 0u);
}

TEST(Watchdog, DefaultThresholdDoesNotFireOnRealWorkloads)
{
    // The shipped default must never misfire on a legitimate cell.
    AlphaCore core(AlphaCoreParams::simAlpha());
    EXPECT_EQ(core.params().watchdogCycles, 100000u);
    RunResult r = core.run(program("M-M"), 5000);
    EXPECT_GT(r.instsCommitted, 0u);
}

// ---------------------------------------------------------------------
// Fault injection + containment
// ---------------------------------------------------------------------

TEST(FaultInjectionTest, InjectedPanicIsContainedAtJobs8)
{
    CampaignSpec spec = cheapSpec(12);
    constexpr std::size_t kFaulted = 5;

    RunnerOptions faulty;
    faulty.jobs = 8;
    faulty.faults.push_back(
        {kFaulted, FaultInjection::Kind::Panic, -1});
    CampaignResult withFault = ExperimentRunner(faulty).run(spec);

    RunnerOptions clean;
    clean.jobs = 8;
    CampaignResult noFault = ExperimentRunner(clean).run(spec);

    ASSERT_EQ(withFault.cells.size(), spec.cells.size());
    EXPECT_EQ(withFault.errorCount(), 1u);
    const CellResult &failed = withFault.cells[kFaulted];
    EXPECT_FALSE(failed.ok);
    EXPECT_EQ(failed.errorClass, "invariant");
    EXPECT_NE(failed.error.find("injected panic"), std::string::npos)
        << failed.error;

    // Every surviving cell is byte-identical to the fault-free run.
    EXPECT_EQ(toJson(without(withFault, kFaulted)),
              toJson(without(noFault, kFaulted)));
}

TEST(FaultInjectionTest, InjectedStallBecomesDeadlockClass)
{
    CampaignSpec spec = cheapSpec(3);
    RunnerOptions opts;
    opts.jobs = 2;
    opts.faults.push_back({1, FaultInjection::Kind::Stall, -1});
    CampaignResult result = ExperimentRunner(opts).run(spec);

    EXPECT_TRUE(result.cells[0].ok);
    EXPECT_TRUE(result.cells[2].ok);
    const CellResult &failed = result.cells[1];
    EXPECT_FALSE(failed.ok);
    EXPECT_EQ(failed.errorClass, "deadlock");
    EXPECT_NE(failed.error.find("deadlocked"), std::string::npos)
        << failed.error;
}

TEST(FaultInjectionTest, ThrowFaultIsRetryableAndBounded)
{
    CampaignSpec spec = cheapSpec(1);

    // Fails twice, succeeds on the third execution: two retries
    // recover the cell.
    RunnerOptions recovering;
    recovering.jobs = 1;
    recovering.maxRetries = 2;
    recovering.faults.push_back({0, FaultInjection::Kind::Throw, 2});
    CampaignResult recovered = ExperimentRunner(recovering).run(spec);
    EXPECT_TRUE(recovered.cells[0].ok) << recovered.cells[0].error;
    EXPECT_EQ(recovered.cells[0].attempts, 3);

    // The same fault with a smaller budget stays failed.
    RunnerOptions exhausted;
    exhausted.jobs = 1;
    exhausted.maxRetries = 1;
    exhausted.faults.push_back({0, FaultInjection::Kind::Throw, 2});
    CampaignResult still = ExperimentRunner(exhausted).run(spec);
    EXPECT_FALSE(still.cells[0].ok);
    EXPECT_EQ(still.cells[0].errorClass, "transient");
    EXPECT_TRUE(still.cells[0].retryable);
    EXPECT_EQ(still.cells[0].attempts, 2);
}

TEST(FaultInjectionTest, DeterministicFailuresAreNeverRetried)
{
    CampaignSpec spec = cheapSpec(1);
    RunnerOptions opts;
    opts.jobs = 1;
    opts.maxRetries = 5;
    opts.faults.push_back({0, FaultInjection::Kind::Stall, -1});
    CampaignResult result = ExperimentRunner(opts).run(spec);
    EXPECT_FALSE(result.cells[0].ok);
    EXPECT_EQ(result.cells[0].errorClass, "deadlock");
    EXPECT_EQ(result.cells[0].attempts, 1);
}

TEST(FaultInjectionTest, RecoveredCellMatchesFaultFreeRunByteForByte)
{
    CampaignSpec spec = cheapSpec(4);
    RunnerOptions recovering;
    recovering.jobs = 4;
    recovering.maxRetries = 1;
    recovering.faults.push_back({2, FaultInjection::Kind::Throw, 1});
    CampaignResult recovered = ExperimentRunner(recovering).run(spec);
    RunnerOptions cleanOpts;
    cleanOpts.jobs = 4;
    CampaignResult clean = ExperimentRunner(cleanOpts).run(spec);
    EXPECT_EQ(recovered.cells[2].attempts, 2);
    EXPECT_EQ(toJson(recovered), toJson(clean));
}

// ---------------------------------------------------------------------
// Campaign journal + resume
// ---------------------------------------------------------------------

TEST(Journal, LineRoundTripsEveryField)
{
    CellResult r;
    r.cell = {"sim-alpha", Optimization::FastL1, "E-D3", 5000, 0};
    r.seed = cellSeed(r.cell);
    r.ok = false;
    r.error = "panic: \"quoted\"\twith\ncontrol\x01stuff";
    r.errorClass = "invariant";
    r.cycles = 123456;
    r.instsCommitted = 5000;
    r.finished = true;
    r.manifestHash = "0123456789abcdef";
    r.counters = {{"cycles", 123456}, {"replay_traps", 17}};

    std::string line = journalLine("camp", r);
    EXPECT_EQ(line.find('\n'), std::string::npos);

    CellResult parsed;
    std::string key;
    ASSERT_TRUE(parseJournalLine(line, "camp", &parsed, &key));
    EXPECT_EQ(key, journalKey(r.cell));
    EXPECT_EQ(parsed.cell.machine, r.cell.machine);
    EXPECT_EQ(parsed.cell.opt, r.cell.opt);
    EXPECT_EQ(parsed.cell.workload, r.cell.workload);
    EXPECT_EQ(parsed.cell.maxInsts, r.cell.maxInsts);
    EXPECT_EQ(parsed.seed, r.seed);
    EXPECT_EQ(parsed.ok, r.ok);
    EXPECT_EQ(parsed.error, r.error);
    EXPECT_EQ(parsed.errorClass, r.errorClass);
    EXPECT_EQ(parsed.cycles, r.cycles);
    EXPECT_EQ(parsed.instsCommitted, r.instsCommitted);
    EXPECT_EQ(parsed.finished, r.finished);
    EXPECT_EQ(parsed.manifestHash, r.manifestHash);
    EXPECT_EQ(parsed.counters, r.counters);
    EXPECT_TRUE(parsed.fromJournal);

    // Wrong campaign or torn line: rejected, not misparsed.
    EXPECT_FALSE(parseJournalLine(line, "other", &parsed, &key));
    EXPECT_FALSE(parseJournalLine(line.substr(0, line.size() / 2),
                                  "camp", &parsed, &key));
}

TEST(Journal, InterruptedCampaignResumesByteIdentical)
{
    std::string path = uniquePath("resume");
    std::remove(path.c_str());
    CampaignSpec spec = cheapSpec(8);

    RunnerOptions journaling;
    journaling.jobs = 4;
    journaling.cache = false;
    journaling.journalPath = path;
    std::string uninterrupted =
        toJson(ExperimentRunner(journaling).run(spec));

    // Simulate a kill after 3 completed cells: truncate the journal.
    std::istringstream lines(readFile(path));
    std::string kept, line;
    for (int i = 0; i < 3 && std::getline(lines, line); i++)
        kept += line + "\n";
    writeFile(path, kept);

    RunnerOptions resuming = journaling;
    resuming.resume = true;
    CampaignResult restarted = ExperimentRunner(resuming).run(spec);

    std::size_t replayed = 0;
    for (const CellResult &r : restarted.cells)
        replayed += r.fromJournal;
    EXPECT_EQ(replayed, 3u);
    EXPECT_EQ(toJson(restarted), uninterrupted);

    // After the restart the journal covers the whole campaign again:
    // a second resume replays everything and still matches.
    RunnerOptions full = resuming;
    CampaignResult all = ExperimentRunner(full).run(spec);
    replayed = 0;
    for (const CellResult &r : all.cells)
        replayed += r.fromJournal;
    EXPECT_EQ(replayed, spec.cells.size());
    EXPECT_EQ(toJson(all), uninterrupted);
    std::remove(path.c_str());
}

TEST(Journal, ResumeReplaysFailedCellsFaithfully)
{
    std::string path = uniquePath("replay-failed");
    std::remove(path.c_str());
    CampaignSpec spec = cheapSpec(5);

    RunnerOptions faulty;
    faulty.jobs = 8;
    faulty.journalPath = path;
    faulty.faults.push_back({3, FaultInjection::Kind::Panic, -1});
    std::string faulted = toJson(ExperimentRunner(faulty).run(spec));

    // Resuming without the fault plan must reproduce the recorded
    // failure, not silently heal it: byte-identical artifacts.
    RunnerOptions resuming;
    resuming.jobs = 8;
    resuming.journalPath = path;
    resuming.resume = true;
    CampaignResult replayed = ExperimentRunner(resuming).run(spec);
    EXPECT_EQ(toJson(replayed), faulted);
    EXPECT_FALSE(replayed.cells[3].ok);
    EXPECT_EQ(replayed.cells[3].errorClass, "invariant");
    EXPECT_TRUE(replayed.cells[3].fromJournal);
    std::remove(path.c_str());
}

TEST(Journal, StaleManifestHashEntriesAreReExecuted)
{
    std::string path = uniquePath("stale");
    std::remove(path.c_str());
    CampaignSpec spec = cheapSpec(2);

    RunnerOptions journaling;
    journaling.jobs = 1;
    journaling.cache = false;
    journaling.journalPath = path;
    std::string clean =
        toJson(ExperimentRunner(journaling).run(spec));

    // Corrupt the first entry's manifest hash, as if the machine
    // definition changed after the journal was written.
    std::istringstream lines(readFile(path));
    std::string rewritten, line;
    bool first = true;
    while (std::getline(lines, line)) {
        if (first) {
            std::size_t at = line.find("\"manifest_hash\":\"");
            ASSERT_NE(at, std::string::npos);
            line.replace(at + 17, 4, "zzzz");   // not hex: never matches
            first = false;
        }
        rewritten += line + "\n";
    }
    writeFile(path, rewritten);

    RunnerOptions resuming = journaling;
    resuming.resume = true;
    CampaignResult result = ExperimentRunner(resuming).run(spec);
    EXPECT_FALSE(result.cells[0].fromJournal);   // re-executed
    EXPECT_TRUE(result.cells[1].fromJournal);
    EXPECT_EQ(toJson(result), clean);
    std::remove(path.c_str());
}

TEST(Journal, CancelFlagSkipsCellsWithoutJournalingThem)
{
    // The Ctrl-C path: a pre-set cancel flag means no cell starts,
    // nothing is journaled, and a later resume re-runs everything —
    // skipped cells must never masquerade as settled results.
    std::string path = uniquePath("cancel");
    std::remove(path.c_str());
    CampaignSpec spec = cheapSpec(4);

    volatile std::sig_atomic_t flag = 1;
    RunnerOptions opts;
    opts.jobs = 2;
    opts.cache = false;
    opts.journalPath = path;
    opts.cancel = &flag;
    CampaignResult cancelled = ExperimentRunner(opts).run(spec);
    for (const CellResult &r : cancelled.cells) {
        EXPECT_FALSE(r.ok);
        EXPECT_TRUE(r.error.empty());   // skipped, not failed
    }
    EXPECT_TRUE(readFile(path).empty());

    // Resuming with the flag clear runs the whole campaign normally.
    flag = 0;
    RunnerOptions resuming = opts;
    resuming.resume = true;
    CampaignResult result = ExperimentRunner(resuming).run(spec);
    EXPECT_EQ(result.okCount(), spec.cells.size());
    for (const CellResult &r : result.cells)
        EXPECT_FALSE(r.fromJournal);
    std::remove(path.c_str());
}

TEST(Journal, MissingJournalFileResumesNothing)
{
    std::string path = uniquePath("missing");
    std::remove(path.c_str());
    CampaignSpec spec = cheapSpec(2);
    RunnerOptions opts;
    opts.jobs = 1;
    opts.journalPath = path;
    opts.resume = true;
    CampaignResult result = ExperimentRunner(opts).run(spec);
    for (const CellResult &r : result.cells) {
        EXPECT_TRUE(r.ok);
        EXPECT_FALSE(r.fromJournal);
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Journal durability: torn tails and fsync-per-append
// ---------------------------------------------------------------------

TEST(Journal, TornTailIsDiscardedAndThatCellReExecutes)
{
    // The tail a SIGKILLed (or power-cut) process leaves: the final
    // line cut mid-byte, no terminating newline. Resume must discard
    // exactly that entry, replay everything before it, and re-execute
    // the torn cell — never parse garbage into a "settled" result.
    std::string path = uniquePath("torn");
    std::remove(path.c_str());
    CampaignSpec spec = cheapSpec(4);

    RunnerOptions journaling;
    journaling.jobs = 1;
    journaling.cache = false;
    journaling.journalPath = path;
    std::string clean =
        toJson(ExperimentRunner(journaling).run(spec));

    std::istringstream lines(readFile(path));
    std::string kept, line;
    std::size_t n = 0;
    while (std::getline(lines, line)) {
        if (n < 3)
            kept += line + "\n";
        else
            kept += line.substr(0, line.size() / 2);    // torn
        n++;
    }
    ASSERT_EQ(n, 4u);
    writeFile(path, kept);

    std::unordered_map<std::string, CellResult> replay;
    std::string error;
    ASSERT_TRUE(loadJournal(path, spec.name, &replay, &error))
        << error;
    EXPECT_EQ(replay.size(), 3u);   // the torn entry is gone

    RunnerOptions resuming = journaling;
    resuming.resume = true;
    CampaignResult result = ExperimentRunner(resuming).run(spec);
    std::size_t fromJournal = 0;
    for (const CellResult &r : result.cells)
        fromJournal += r.fromJournal;
    EXPECT_EQ(fromJournal, 3u);
    EXPECT_FALSE(result.cells[3].fromJournal);  // re-executed
    EXPECT_EQ(toJson(result), clean);
    std::remove(path.c_str());
}

TEST(Journal, SyncFlagAndEnvironmentEnableFsyncPerAppend)
{
    std::string path = uniquePath("sync");
    std::remove(path.c_str());
    CellResult r;
    r.cell = {"sim-alpha", Optimization::None, "C-R", 1000, 0};
    r.seed = cellSeed(r.cell);
    r.ok = true;
    r.manifestHash = "0123456789abcdef";

    {
        CampaignJournal j;
        std::string error;
        ASSERT_TRUE(j.open(path, &error, true)) << error;
        EXPECT_TRUE(j.syncing());
        j.append("camp", r);
        j.appendRaw(journalLine("camp", r));
    }
    std::unordered_map<std::string, CellResult> replay;
    std::string error;
    ASSERT_TRUE(loadJournal(path, "camp", &replay, &error)) << error;
    EXPECT_EQ(replay.size(), 1u);   // same cell, newest wins
    std::remove(path.c_str());

    // SIMALPHA_JOURNAL_SYNC=1 forces syncing on without any flag.
    EXPECT_FALSE(journalSyncFromEnv());
    ::setenv("SIMALPHA_JOURNAL_SYNC", "1", 1);
    EXPECT_TRUE(journalSyncFromEnv());
    {
        CampaignJournal j;
        ASSERT_TRUE(j.open(path, &error, false)) << error;
        EXPECT_TRUE(j.syncing());
    }
    ::unsetenv("SIMALPHA_JOURNAL_SYNC");
    EXPECT_FALSE(journalSyncFromEnv());
    std::remove(path.c_str());
}
