/**
 * @file
 * The untraced run: end-to-end metrics through the entry points users
 * hit. The three cold workloads run their campaign through
 * runner::ExperimentRunner::run into a fresh store and journal, pass
 * after pass, until the measured phase has lasted --seconds; serve-warm
 * fills and indexes a store once per set-up, then drives a closed loop
 * of clients against an in-process serve::Server over that store.
 */

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>

#include "bench.hh"
#include "runner/journal.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "store/store.hh"

namespace simbench {

namespace {

/** Set-ups per run whose median is setup_s. A cold set-up takes well
 *  under a millisecond and its cost swings with the host from one
 *  second to the next, so set-ups repeat for a second before the
 *  measured phase and for another after it; a serve-warm set-up
 *  computes 520 cells, so three. */
constexpr double kColdSetupSeconds = 1.0;
constexpr int kServeSetupReps = 3;

/** Seed of measured pass @p pass: every pass permutes the cells
 *  afresh, so one run averages over several orders. */
std::uint64_t
passSeed(std::uint64_t seed, std::size_t pass)
{
    std::uint64_t state = seed * 0x100000001b3ULL + pass;
    return splitmix64(&state);
}

/** Whether the measured phase has room for another pass: at least
 *  one, then only while one more median-length pass still ends within
 *  --seconds. */
bool
morePasses(Clock::time_point phase, const std::vector<double> &walls,
           const Options &opts)
{
    if (!walls.empty() &&
        secondsSince(phase) + median(walls) > opts.seconds)
        return false;
    // Start every pass from clean page-cache writeback: dirty data left
    // by set-up or by the previous pass (sampled-cold writes ~154 MB)
    // would otherwise throttle this pass's writes at random.
    ::sync();
    return true;
}

/** Runner options of a cold pass whose store and journal live in
 *  the fresh directory @p dir. */
runner::RunnerOptions
coldOptions(const std::string &dir)
{
    runner::RunnerOptions ro;
    ro.jobs = kThreads;
    ro.storePath = dir + "/store";
    ro.journalPath = dir + "/journal.jsonl";
    return ro;
}

/** Cold set-up: what the campaign path does before its first cell —
 *  derive the spec, construct the runner (which opens the store) and
 *  open the journal, all on a fresh directory. Sets @p why if a step
 *  failed. */
double
coldSetup(const WorkloadDef &wl, std::uint64_t seed, std::string *why)
{
    Clock::time_point t0 = Clock::now();
    runner::CampaignSpec spec = workloadSpec(wl, seed);
    runner::RunnerOptions ro = coldOptions(freshDir("setup"));
    runner::ExperimentRunner runner(ro);
    runner::CampaignJournal journal;
    std::string error;
    bool opened = journal.open(ro.journalPath, &error);
    double s = secondsSince(t0);
    journal.close();
    if (spec.cells.empty() || !opened ||
        !std::filesystem::is_directory(ro.storePath))
        *why = "empty spec, or no store or journal " + error;
    removeTree("setup");
    return s;
}

/** Cold set-ups for kColdSetupSeconds, appended to @p setups. */
void
coldSetups(const WorkloadDef &wl, std::uint64_t seed,
           std::vector<double> *setups, RunOutcome *out)
{
    ::sync();
    std::string why;
    for (Clock::time_point t0 = Clock::now();
         secondsSince(t0) < kColdSetupSeconds;)
        setups->push_back(coldSetup(wl, seed, &why));
    if (!why.empty())
        out->fail("set-up: " + why, 1);
}

/** Simulated instructions a cell stands for: a sampled cell counts
 *  the instructions its windows represent. */
std::uint64_t
simulatedInsts(const runner::CellResult &r)
{
    return r.cell.sample.enabled() ? r.sampleTotalInsts
                                   : r.instsCommitted;
}

/** Latency samples per block; p95 of a block has ten beyond it. */
constexpr std::size_t kLatencyBlock = 200;

/**
 * job_p50_ms and job_p95_ms from @p lat_ms, samples in the order they
 * were taken: each quantile is taken per block of kLatencyBlock
 * consecutive samples (a short run's remainder joins the last block)
 * and the median over blocks is reported. A host stall that covers
 * one block of a run then moves one block's p95, not the run's.
 */
void
setLatencyMetrics(const std::vector<double> &lat_ms, RunOutcome *out)
{
    std::size_t blocks = std::max<std::size_t>(1, lat_ms.size() /
                                                      kLatencyBlock);
    std::vector<double> p50, p95;
    std::size_t beyond = lat_ms.size();
    for (std::size_t b = 0; b < blocks; b++) {
        auto first = lat_ms.begin() + std::ptrdiff_t(b * kLatencyBlock);
        auto last = b + 1 == blocks
                        ? lat_ms.end()
                        : first + std::ptrdiff_t(kLatencyBlock);
        std::vector<double> block(first, last);
        p50.push_back(quantile(block, 0.50));
        p95.push_back(quantile(block, 0.95));
        std::size_t n = 0;
        for (double v : block)
            n += v > p95.back();
        beyond = std::min(beyond, n);
    }
    out->set("job_p50_ms", median(p50), "ms");
    out->set("job_p95_ms", median(p95), "ms");
    out->notes.push_back("job latency (submit to done): " +
                         std::to_string(lat_ms.size()) + " samples in " +
                         std::to_string(blocks) + " blocks, at least " +
                         std::to_string(beyond) +
                         " beyond p95 in each");
}

RunOutcome
runCold(const Options &opts, const WorkloadDef &wl)
{
    RunOutcome out;
    std::vector<double> setups;
    coldSetups(wl, opts.seed, &setups, &out);

    std::vector<double> walls, cell_rates, inst_rates;
    std::vector<runner::CellResult> last;
    Clock::time_point phase = Clock::now();
    for (std::size_t pass = 0; morePasses(phase, walls, opts); pass++) {
        runner::CampaignSpec spec =
            workloadSpec(wl, passSeed(opts.seed, pass));
        std::string dir = freshDir("pass");
        runner::RunnerOptions ro = coldOptions(dir);

        runner::ExperimentRunner runner(ro);
        Clock::time_point t0 = Clock::now();
        runner::CampaignResult cr = runner.run(spec);
        double wall = secondsSince(t0);

        std::uint64_t insts = 0;
        out.attempted += cr.cells.size();
        for (const runner::CellResult &r : cr.cells) {
            if (!r.ok)
                out.fail("cell " + r.cell.machine + "/" +
                             r.cell.workload + ": " + r.error,
                         1);
            insts += simulatedInsts(r);
        }
        walls.push_back(wall);
        cell_rates.push_back(double(cr.cells.size()) / wall);
        inst_rates.push_back(double(insts) / (wall * 1e6));
        std::string digest = resultDigest(cr.cells);
        if (pass == 0) {
            checkReference(opts, wl.name, digest, cr.cells.size(),
                           &out);
            out.digest = digest;
        } else if (digest != out.digest) {
            out.fail("pass " + std::to_string(pass) + " digest " +
                         digest + " differs from pass 0",
                     cr.cells.size());
        }
        last = std::move(cr.cells);
        removeTree(dir);
    }

    out.set("wall_s", median(walls), "s");
    out.set("sim_mips", median(inst_rates), "1/us");
    out.set("cells_per_s", median(cell_rates), "1/s");
    // No job_p50_ms/job_p95_ms: a cold campaign has no jobs, and the
    // time of one cell depends on which cells ran before it (the first
    // sampled cell of a program collects its checkpoints).
    coldSetups(wl, opts.seed, &setups, &out);
    out.set("setup_s", median(setups), "s");
    out.notes.push_back("passes: " + std::to_string(walls.size()));
    double ea = ipcErrorPct(last, "sim-alpha");
    double eo = ipcErrorPct(last, "sim-outorder");
    if (ea > 0.0) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "err_alpha_pct %.2f %%  err_outorder_pct %.2f %%",
                      ea, eo);
        out.notes.push_back(buf);
    }
    return out;
}

/** The serve-warm set-up: compute the workload's cells into a fresh
 *  store (journaling every line), then build the store's index. */
double
serveSetup(const Options &opts, const WorkloadDef &wl,
           const std::string &dir, std::vector<std::string> *lines,
           std::string *digest, RunOutcome *out)
{
    Clock::time_point t0 = Clock::now();
    runner::CampaignSpec spec = workloadSpec(wl, opts.seed);
    runner::RunnerOptions ro;
    ro.jobs = kThreads;
    ro.storePath = dir + "/store";
    ro.journalPath = dir + "/fill.jsonl";
    runner::CampaignResult cr;
    {
        runner::ExperimentRunner runner(ro);
        cr = runner.run(spec);
    }
    store::ResultStore st;
    std::string error;
    store::IndexOutcome io;
    if (!st.open(ro.storePath, &error) || !st.buildIndexes(&io, &error))
        out->fail("set-up index: " + error, 1);
    double s = secondsSince(t0);

    for (const runner::CellResult &r : cr.cells)
        if (!r.ok)
            out->fail("set-up cell " + r.cell.machine + "/" +
                          r.cell.workload + ": " + r.error,
                      1);
    *digest = resultDigest(cr.cells);
    lines->clear();
    std::ifstream in(ro.journalPath);
    for (std::string line; std::getline(in, line);)
        lines->push_back(line);
    return s;
}

RunOutcome
runServeWarm(const Options &opts, const WorkloadDef &wl)
{
    RunOutcome out;
    std::vector<double> setups;
    std::vector<std::string> fill_lines;
    std::string fill_digest, dir;
    for (int rep = 0; rep < kServeSetupReps; rep++) {
        if (!dir.empty())
            removeTree(dir);
        dir = freshDir("fill" + std::to_string(rep));
        setups.push_back(serveSetup(opts, wl, dir, &fill_lines,
                                    &fill_digest, &out));
    }
    checkReference(opts, wl.name, fill_digest, fill_lines.size(), &out);
    out.digest = fill_digest;

    // Identity → the exact bytes the fill journaled.
    std::map<std::string, std::string> expected;
    for (const std::string &line : fill_lines) {
        runner::CellResult r;
        std::string key;
        if (runner::parseJournalLine(line, wl.campaign, &r, &key))
            expected[key] = line;
    }
    if (expected.size() != fill_lines.size())
        out.fail("fill journal has unparsable or duplicate lines", 1);

    serve::ServeOptions sopts;
    sopts.storePath = dir + "/store";
    sopts.listen = "srv.sock";
    sopts.jobs = kThreads;

    std::vector<double> walls, cell_rates, inst_rates, lat_ms;
    std::uint64_t busy = 0;
    Clock::time_point phase = Clock::now();
    for (std::size_t pass = 0; morePasses(phase, walls, opts); pass++) {
        // A restarted daemon without job journals: every job key is
        // new, so every cell is served from the store.
        removeTree(sopts.storePath + "/serve.d");
        std::vector<std::string> jobs;
        for (std::size_t i = 0; i < kServeShards; i++)
            jobs.push_back(
                runner::shardCampaignName(wl.campaign, i, kServeShards));
        permute(&jobs, passSeed(opts.seed, pass));

        serve::Server server(sopts);
        std::string error;
        if (!server.start(&error)) {
            out.fail("serve start: " + error, jobs.size());
            break;
        }
        std::thread daemon([&server] { server.run(); });

        std::atomic<std::size_t> next{0};
        std::mutex mu;
        std::vector<std::string> pass_lines;
        std::vector<double> pass_lat;
        auto client = [&](int id) {
            serve::ClientOptions copts;
            copts.connect = server.boundAddress();
            copts.timeoutSeconds = 60.0;
            copts.seed = std::uint64_t(id) + 1;
            for (;;) {
                std::size_t j = next.fetch_add(1);
                if (j >= jobs.size())
                    return;
                Clock::time_point ts = Clock::now();
                serve::SubmitOutcome o = serve::submitCampaign(
                    copts, jobs[j], wl.maxInsts);
                double ms = std::chrono::duration<double, std::milli>(
                                Clock::now() - ts)
                                .count();
                std::lock_guard<std::mutex> lock(mu);
                if (!o.ok) {
                    out.fail("job " + jobs[j] + ": " + o.error, 1);
                    continue;
                }
                pass_lat.push_back(ms);
                pass_lines.insert(pass_lines.end(), o.lines.begin(),
                                  o.lines.end());
            }
        };
        Clock::time_point t0 = Clock::now();
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; c++)
            clients.emplace_back(client, c);
        for (std::thread &t : clients)
            t.join();
        double wall = secondsSince(t0);

        server.requestShutdown();
        daemon.join();
        serve::ServeStats ss = server.stats();
        busy += ss.busyRejections;
        out.attempted += jobs.size();
        if (ss.cellsComputed != 0)
            out.fail("daemon computed " +
                         std::to_string(ss.cellsComputed) +
                         " cells instead of serving them",
                     1);

        lat_ms.insert(lat_ms.end(), pass_lat.begin(), pass_lat.end());
        std::uint64_t insts = 0;
        std::size_t mismatched = 0;
        for (const std::string &line : pass_lines) {
            runner::CellResult r;
            std::string key;
            auto it = runner::parseJournalLine(line, wl.campaign, &r,
                                               &key)
                          ? expected.find(key)
                          : expected.end();
            if (it == expected.end() || it->second != line)
                mismatched++;
            insts += r.instsCommitted;
        }
        walls.push_back(wall);
        cell_rates.push_back(double(pass_lines.size()) / wall);
        inst_rates.push_back(double(insts) / (wall * 1e6));
        std::string digest;
        if (mismatched)
            out.fail(std::to_string(mismatched) +
                         " served lines differ from the fill",
                     1);
        if (!lineDigest(pass_lines, wl.campaign, &digest) ||
            digest != fill_digest)
            out.fail("pass " + std::to_string(pass) +
                         " served digest differs from the fill",
                     1);
    }
    removeTree(dir);

    out.set("wall_s", median(walls), "s");
    out.set("sim_mips", median(inst_rates), "1/us");
    out.set("cells_per_s", median(cell_rates), "1/s");
    setLatencyMetrics(lat_ms, &out);
    out.set("setup_s", median(setups), "s");
    out.notes.push_back("passes: " + std::to_string(walls.size()) +
                        " of " + std::to_string(kServeShards) +
                        " jobs; busy rejections: " +
                        std::to_string(busy));
    return out;
}

} // namespace

RunOutcome
runUntraced(const Options &opts, const WorkloadDef &wl)
{
    RunOutcome out = wl.serve ? runServeWarm(opts, wl) : runCold(opts, wl);
    out.set("peak_rss_mb", peakRssMb(), "MB");
    return out;
}

} // namespace simbench
