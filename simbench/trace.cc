/**
 * @file
 * The traced run: per-layer metrics.
 *
 * It runs the workload's cells untraced through a one-thread
 * ExperimentRunner (the reference for cycles/insts and for the tracing
 * overhead) and replays the same cells one at a time, calling each
 * layer's public function itself — runner::buildWorkload,
 * validate::tryMakeMachine, Machine::run / runWindow,
 * checkpoint::collectCheckpoints, store::ResultStore::publish /
 * lookup, runner::CampaignJournal::append, runner::parseJournalLine —
 * with a span around every call. Layer probes then drive the layers a
 * cell only reaches through the cores (memory hierarchy, branch
 * predictor, emulator, checkpoint blobs) over the workload's own
 * programs, and an in-process daemon serves the replayed cells back.
 *
 * The untraced run and the replay are timed in the order untraced,
 * traced, traced, untraced, so that a host whose speed drifts during
 * the run shifts both medians alike. Spans (name, start, end, parent,
 * cell id) of the first replay are kept in memory and written out as
 * JSONL when the run ends. A layer's self time is its span minus its
 * child spans.
 */

#include <unistd.h>

#include <atomic>
#include <fstream>
#include <limits>
#include <mutex>
#include <set>
#include <thread>

#include "bench.hh"
#include "core/core.hh"
#include "outorder/ruu_core.hh"
#include "predictors/branch.hh"
#include "runner/journal.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "store/store.hh"
#include "validate/manifest.hh"

namespace simbench {

namespace {

struct Span
{
    std::string name;
    Clock::time_point start, end;
    int parent = -1;
    long cell = -1;
};

/** In-memory span recorder. Nested spans come from the replaying
 *  thread's stack; spans timed on other threads are added whole. */
class Tracer
{
  public:
    int
    begin(const std::string &name, long cell)
    {
        std::lock_guard<std::mutex> lock(_mu);
        int parent = _stack.empty() ? -1 : _stack.back();
        _spans.push_back(Span{name, Clock::now(), {}, parent, cell});
        _stack.push_back(int(_spans.size()) - 1);
        return _stack.back();
    }

    void
    end(int id)
    {
        std::lock_guard<std::mutex> lock(_mu);
        _spans[std::size_t(id)].end = Clock::now();
        _stack.pop_back();
    }

    int
    add(const std::string &name, Clock::time_point start,
        Clock::time_point end, int parent, long cell)
    {
        std::lock_guard<std::mutex> lock(_mu);
        _spans.push_back(Span{name, start, end, parent, cell});
        return int(_spans.size()) - 1;
    }

    const std::vector<Span> &spans() const { return _spans; }

    /** Per span: duration minus its children's durations, seconds. */
    std::vector<double>
    selfTimes() const
    {
        std::vector<double> self(_spans.size());
        for (std::size_t i = 0; i < _spans.size(); i++)
            self[i] = dur(_spans[i]);
        for (const Span &s : _spans)
            if (s.parent >= 0)
                self[std::size_t(s.parent)] -= dur(s);
        return self;
    }

    static double
    dur(const Span &s)
    {
        return std::chrono::duration<double>(s.end - s.start).count();
    }

    void
    write(const std::string &path) const
    {
        std::ofstream os(path, std::ios::trunc);
        if (_spans.empty())
            return;
        Clock::time_point epoch = _spans.front().start;
        auto us = [&](Clock::time_point t) {
            return std::chrono::duration<double, std::micro>(t - epoch)
                .count();
        };
        std::vector<double> self = selfTimes();
        for (std::size_t i = 0; i < _spans.size(); i++) {
            const Span &s = _spans[i];
            char buf[256];
            std::snprintf(buf, sizeof(buf),
                          "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                          "\"end_us\":%.3f,\"self_us\":%.3f,"
                          "\"parent\":%d,\"cell\":%ld}\n",
                          i, s.name.c_str(), us(s.start), us(s.end),
                          self[i] * 1e6, s.parent, s.cell);
            os << buf;
        }
    }

  private:
    std::mutex _mu;
    std::vector<Span> _spans;
    std::vector<int> _stack;
};

/** RAII span on the replaying thread. */
class Scoped
{
  public:
    Scoped(Tracer &t, const std::string &name, long cell)
        : _t(t), _id(t.begin(name, cell))
    {}
    ~Scoped() { _t.end(_id); }

  private:
    Tracer &_t;
    int _id;
};

/** Durations of every span named @p name (seconds). */
std::vector<double>
durations(const Tracer &t, const std::set<std::string> &names)
{
    std::vector<double> out;
    for (const Span &s : t.spans())
        if (names.count(s.name))
            out.push_back(Tracer::dur(s));
    return out;
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

double
mean(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : sum(v) / double(v.size());
}

/** The runner's result-store key for @p cell (manifest | workload |
 *  cap | seed [| sample]), so replayed results land where the runner
 *  and the daemon look for them. */
std::string
storeKey(const runner::Cell &cell, const std::string &manifest)
{
    std::string key = manifest + "|" + cell.workload + "|" +
                      std::to_string(cell.maxInsts) + "|" +
                      std::to_string(runner::cellSeed(cell));
    if (cell.sample.enabled())
        key += "|sample=" + checkpoint::formatSampleSpec(cell.sample);
    return key;
}

/** The runner's per-worker machine pool, mirrored: LRU over four
 *  configurations, a machine built only on a miss. */
class MachinePool
{
  public:
    Machine *
    acquire(const runner::Cell &cell, Tracer &t, long id,
            std::string *error)
    {
        std::string key =
            cell.machine + "|" + validate::optimizationName(cell.opt);
        for (auto it = _entries.begin(); it != _entries.end(); ++it)
            if (it->first == key) {
                auto hit = std::move(*it);
                _entries.erase(it);
                _entries.push_back(std::move(hit));
                return _entries.back().second.get();
            }
        std::unique_ptr<Machine> built;
        {
            Scoped s(t, "validate.make_machine", id);
            built = validate::tryMakeMachine(cell.machine, cell.opt, error);
        }
        if (!built)
            return nullptr;
        if (_entries.size() >= 4)
            _entries.erase(_entries.begin());
        _entries.emplace_back(key, std::move(built));
        return _entries.back().second.get();
    }

  private:
    std::vector<std::pair<std::string, std::unique_ptr<Machine>>>
        _entries;
};

/** Simulated counts gathered from the cores' own statistics. */
struct CoreCounts
{
    std::uint64_t cycles = 0, insts = 0, issued = 0, squashed = 0;
};

struct MemCounts
{
    std::uint64_t l1dHits = 0, l1dMisses = 0, l2Hits = 0, l2Misses = 0;
    std::uint64_t rowHits = 0, rowMisses = 0, dtlbMisses = 0;

    void
    add(MemorySystem &m)
    {
        l1dHits += m.dcache().hits();
        l1dMisses += m.dcache().misses();
        l2Hits += m.l2cache().hits();
        l2Misses += m.l2cache().misses();
        rowHits += m.dram().rowHits();
        rowMisses += m.dram().rowMisses();
        dtlbMisses += m.dtlb().misses();
    }
};

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? double(num) / double(den) : 0.0;
}

std::uint64_t
counter(const std::map<std::string, std::uint64_t> &c, const char *name)
{
    auto it = c.find(name);
    return it == c.end() ? 0 : it->second;
}

/** Emulated reference streams of one program, for the layer probes. */
struct ProgramTrace
{
    std::vector<std::pair<Addr, bool>> data;    ///< (vaddr, is_write)
    std::vector<Addr> fetch;                    ///< octaword changes
    std::vector<std::pair<Addr, bool>> branch;  ///< (pc, taken)
};

/** Instructions each probe trace covers per program. */
constexpr std::uint64_t kProbeInsts = 200000;

ProgramTrace
captureTrace(const Program &program, std::uint64_t cap)
{
    ProgramTrace t;
    Emulator emu(program);
    std::uint64_t limit = cap ? std::min(cap, kProbeInsts) : kProbeInsts;
    Addr last_block = ~Addr(0);
    for (std::uint64_t i = 0; i < limit && !emu.halted(); i++) {
        ExecutedInst e = emu.step();
        if ((e.pc >> 4) != last_block) {
            last_block = e.pc >> 4;
            t.fetch.push_back(e.pc);
        }
        if (e.inst.isMem() && e.effAddr != kNoAddr)
            t.data.emplace_back(e.effAddr, e.inst.isStore());
        if (e.inst.isCondBranch())
            t.branch.emplace_back(e.pc, e.taken);
    }
    return t;
}

/** Empty spans timed per batch when measuring the tracer itself. */
constexpr int kSpanProbe = 10000;

/** Host seconds one Scoped span costs: the median over five batches
 *  of empty spans, each a child of one parent as replay spans are. */
double
spanCost()
{
    std::vector<double> per_span;
    for (int batch = 0; batch < 5; batch++) {
        Tracer t;
        Scoped parent(t, "cell", 0);
        Clock::time_point t0 = Clock::now();
        for (int i = 0; i < kSpanProbe; i++)
            Scoped s(t, "workloads.build", 0);
        per_span.push_back(secondsSince(t0) / kSpanProbe);
    }
    return median(per_span);
}

/** One untraced one-thread ExperimentRunner::run of @p spec with a
 *  fresh store and journal in directory @p name; its wall seconds. The
 *  journal lines, by cell identity, go to @p lines when non-null. */
double
untracedRun(const runner::CampaignSpec &spec, const std::string &name,
            runner::CampaignResult *result,
            std::map<std::string, std::string> *lines)
{
    // Every timed phase starts from clean page-cache writeback.
    ::sync();
    std::string dir = freshDir(name);
    runner::RunnerOptions ro;
    ro.jobs = 1;
    ro.storePath = dir + "/store";
    ro.journalPath = dir + "/journal.jsonl";
    Clock::time_point t0 = Clock::now();
    {
        runner::ExperimentRunner runner(ro);
        *result = runner.run(spec);
    }
    double s = secondsSince(t0);
    if (lines) {
        std::ifstream in(ro.journalPath);
        for (std::string line; std::getline(in, line);) {
            runner::CellResult r;
            std::string key;
            if (runner::parseJournalLine(line, spec.name, &r, &key))
                (*lines)[key] = line;
        }
    }
    removeTree(dir);
    return s;
}

/** What one traced replay leaves behind. */
struct Replay
{
    Tracer tracer;
    CoreCounts core, ooo;
    MemCounts mem;
    /** Store key and published journal line of every cell. */
    std::vector<std::string> keys, lines;
    /** The checkpoints the first cell of each sampled program
     *  collected. */
    std::map<std::string, std::vector<Checkpoint>> sampledCkpts;
    /** Wall seconds of the replay, and of the spans directly under
     *  its cell spans. */
    double wallS = 0.0, cellChildrenS = 0.0;
};

/**
 * Replay @p spec one cell at a time into @p st and a journal at
 * @p journal_path, with a span around every layer call; every cell's
 * cycles/insts must equal the untraced run @p ref.
 */
void
replay(const runner::CampaignSpec &spec, const runner::CampaignResult &ref,
       store::ResultStore &st, const std::string &journal_path,
       Replay *rp, RunOutcome *out)
{
    const std::size_t ncells = spec.cells.size();
    Tracer &tracer = rp->tracer;
    runner::CampaignJournal journal;
    std::string error;
    if (!journal.open(journal_path, &error))
        out->fail("traced journal: " + error, ncells);

    MachinePool pool;
    rp->keys.assign(ncells, "");
    rp->lines.assign(ncells, "");
    ::sync();
    Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < ncells; i++) {
        const runner::Cell &cell = spec.cells[i];
        const long id = long(i);
        Scoped cell_span(tracer, "cell", id);
        runner::CellResult r;
        r.cell = cell;
        r.seed = runner::cellSeed(cell);
        Config config;
        {
            Scoped s(tracer, "validate.describe", id);
            if (validate::tryDescribeMachine(cell.machine, cell.opt,
                                             &config, &error))
                r.manifestHash = validate::manifestHashHex(config);
        }
        rp->keys[i] = storeKey(cell, r.manifestHash);
        {
            std::string payload;
            Scoped s(tracer, "store.miss_lookup", id);
            if (st.lookup(rp->keys[i], &payload))
                out->fail("fresh store already holds a cell", 1);
        }
        Program program;
        {
            Scoped s(tracer, "workloads.build", id);
            if (!runner::buildWorkload(cell.workload, &program, &error))
                out->fail("build " + cell.workload + ": " + error, 1);
        }
        Machine *m = pool.acquire(cell, tracer, id, &error);
        if (!m) {
            out->fail("machine " + cell.machine + ": " + error, 1);
            continue;
        }
        auto *alpha = dynamic_cast<AlphaCore *>(m);
        const std::string layer = alpha ? "core" : "outorder";
        CoreCounts &cc = alpha ? rp->core : rp->ooo;
        std::uint64_t issued = 0, squashed = 0;

        if (cell.sample.enabled()) {
            namespace ck = checkpoint;
            ck::FastForwardInfo info;
            std::string mkey = ck::metaKey(program, cell.maxInsts);
            bool have_meta = false;
            {
                std::string payload;
                Scoped s(tracer, "checkpoint.meta_lookup", id);
                have_meta = st.lookup(mkey, &payload) &&
                            ck::parseMeta(payload, &info);
            }
            if (!have_meta) {
                {
                    Scoped s(tracer, "checkpoint.fastforward", id);
                    info = ck::fastForward(program, cell.maxInsts);
                }
                Scoped s(tracer, "store.publish", id);
                st.publish(mkey, ck::serializeMeta(info), &error);
            }
            std::vector<ck::WindowPlan> plan =
                ck::planWindows(info.totalInsts, cell.sample);
            std::vector<std::uint64_t> offsets;
            for (const ck::WindowPlan &w : plan)
                offsets.push_back(w.checkpointAt);
            std::vector<Checkpoint> ckpts;
            {
                Scoped s(tracer, "checkpoint.collect", id);
                if (!ck::collectCheckpoints(program, offsets, &st, &ckpts,
                                            &error))
                    out->fail("collect: " + error, 1);
            }
            std::vector<double> ipcs;
            for (std::size_t w = 0; w < plan.size() && w < ckpts.size();
                 w++) {
                std::map<std::string, std::uint64_t> wc;
                RunResult wr;
                {
                    Scoped s(tracer, layer + ".window", id);
                    wr = m->runWindow(program, ckpts[w], plan[w].warmup,
                                      plan[w].measure, &wc);
                }
                if (alpha)
                    rp->mem.add(*alpha->memorySystem());
                r.cycles += wr.cycles;
                r.instsCommitted += wr.instsCommitted;
                if (wr.cycles)
                    ipcs.push_back(double(wr.instsCommitted) /
                                   double(wr.cycles));
                for (const auto &kv : wc)
                    r.counters[kv.first] += kv.second;
            }
            ck::SampleStats stats = ck::sampleStats(ipcs);
            r.ok = true;
            r.finished = info.finished;
            r.sampleWindows = stats.n;
            r.sampleTotalInsts = info.totalInsts;
            r.sampleIpcMean = stats.mean;
            r.sampleIpcStddev = stats.stddev;
            r.sampleIpcCi = stats.ciHalf;
            if (!rp->sampledCkpts.count(cell.workload))
                rp->sampledCkpts[cell.workload] = std::move(ckpts);
        } else {
            RunResult rr;
            {
                Scoped s(tracer, layer + ".run", id);
                rr = m->run(program, cell.maxInsts);
            }
            if (alpha)
                rp->mem.add(*alpha->memorySystem());
            r.ok = true;
            r.cycles = rr.cycles;
            r.instsCommitted = rr.instsCommitted;
            r.finished = rr.finished;
            r.counters = m->statGroup().snapshot();
        }
        issued = counter(r.counters, "insts_issued");
        squashed = counter(r.counters, "insts_squashed");
        cc.cycles += r.cycles;
        cc.insts += r.instsCommitted;
        cc.issued += issued;
        cc.squashed += squashed;

        rp->lines[i] = runner::journalLine("store", r);
        {
            Scoped s(tracer, "store.publish", id);
            if (!st.publish(rp->keys[i], rp->lines[i], &error))
                out->fail("publish: " + error, 1);
        }
        {
            Scoped s(tracer, "runner.journal_append", id);
            journal.append(spec.name, r);
        }
        const runner::CellResult &u = ref.cells[i];
        if (u.cycles != r.cycles || u.instsCommitted != r.instsCommitted)
            out->fail("replayed " + cell.machine + "/" + cell.workload +
                          " cycles/insts " + std::to_string(r.cycles) +
                          "/" + std::to_string(r.instsCommitted) +
                          " != untraced " + std::to_string(u.cycles) +
                          "/" + std::to_string(u.instsCommitted),
                      1);
    }
    rp->wallS = secondsSince(t0);
    journal.close();
    for (const Span &s : tracer.spans())
        if (s.parent >= 0 &&
            tracer.spans()[std::size_t(s.parent)].name == "cell")
            rp->cellChildrenS += Tracer::dur(s);
}

} // namespace

RunOutcome
runTraced(const Options &opts, const WorkloadDef &wl)
{
    RunOutcome out;
    runner::CampaignSpec spec = workloadSpec(wl, opts.seed);
    const std::size_t ncells = spec.cells.size();
    out.attempted = ncells;
    std::string error;

    // ---- A, B, B, A: untraced and traced, in balanced order. --------
    // A: the untraced one-thread reference run.
    runner::CampaignResult ref, ref2;
    std::map<std::string, std::string> ref_lines;
    std::vector<double> untraced = {
        untracedRun(spec, "untraced", &ref, &ref_lines)};
    for (const runner::CellResult &r : ref.cells)
        if (!r.ok)
            out.fail("untraced cell " + r.cell.machine + "/" +
                         r.cell.workload + ": " + r.error,
                     1);
    out.digest = resultDigest(ref.cells);
    checkReference(opts, wl.name, out.digest, ncells, &out);

    // B: the traced replay whose spans and counts the metrics come
    // from; its store stays for the read path and the daemon.
    std::string tdir = freshDir("traced");
    store::ResultStore st;
    if (!st.open(tdir + "/store", &error))
        out.fail("traced store: " + error, ncells);
    Replay rp;
    replay(spec, ref, st, tdir + "/journal.jsonl", &rp, &out);
    Tracer &tracer = rp.tracer;
    const std::size_t replay_spans = tracer.spans().size();

    // B again, timed only, then A again.
    double traced2_s, children2_s;
    {
        std::string dir = freshDir("traced2");
        store::ResultStore st2;
        if (!st2.open(dir + "/store", &error))
            out.fail("second traced store: " + error, ncells);
        Replay rp2;
        replay(spec, ref, st2, dir + "/journal.jsonl", &rp2, &out);
        traced2_s = rp2.wallS;
        children2_s = rp2.cellChildrenS;
        removeTree(dir);
    }
    untraced.push_back(untracedRun(spec, "untraced2", &ref2, nullptr));
    if (resultDigest(ref2.cells) != out.digest)
        out.fail("second untraced run differs from the first", ncells);
    const double untraced_s = median(untraced);
    const double traced_s = median({rp.wallS, traced2_s});
    const double cell_children = median({rp.cellChildrenS, children2_s});
    const double span_s = spanCost();

    // ---- C: the store read path over every replayed cell. -----------
    std::uint64_t lookups = 0, hits = 0;
    for (std::size_t i = 0; i < ncells; i++) {
        std::string payload;
        bool hit;
        {
            Scoped s(tracer, "store.lookup", long(i));
            hit = st.lookup(rp.keys[i], &payload);
        }
        lookups++;
        hits += hit;
        runner::CellResult r;
        std::string key;
        bool parsed;
        {
            Scoped s(tracer, "runner.journal_parse", long(i));
            parsed = runner::parseJournalLine(payload, "store", &r, &key);
        }
        if (!hit || !parsed || payload != rp.lines[i])
            out.fail("store read-back of cell " + std::to_string(i), 1);
    }
    store::StoreCounters sc = st.counters();

    // ---- D: layer probes over the workload's own programs. ----------
    std::set<std::string> names;
    for (const runner::Cell &c : spec.cells)
        names.insert(c.workload);
    std::unique_ptr<Machine> probe_machine = validate::tryMakeMachine(
        "sim-alpha", validate::Optimization::None, &error);
    auto *probe_alpha = dynamic_cast<AlphaCore *>(probe_machine.get());
    if (!probe_alpha) {
        out.fail("probe machine: " + error, 1);
        return out;
    }
    const MemorySystemParams mem_params = probe_alpha->params().mem;
    std::string pdir = freshDir("probe");
    store::ResultStore pst;
    pst.open(pdir + "/store", &error);
    checkpoint::SampleSpec probe_spec;
    probe_spec.windows = 4;
    probe_spec.len = 1000;
    probe_spec.warmup = 500;
    std::uint64_t emu_insts = 0, data_calls = 0, fetch_calls = 0;
    std::uint64_t branches = 0, mispredicts = 0, blob_bytes = 0,
                  blobs = 0;
    const long probe = -1;
    for (const std::string &name : names) {
        Program program;
        runner::buildWorkload(name, &program, &error);
        {
            Emulator emu(program);
            Scoped s(tracer, "isa.emulate", probe);
            emu_insts += emu.run(
                wl.maxInsts ? wl.maxInsts
                            : std::numeric_limits<std::uint64_t>::max());
        }
        ProgramTrace pt = captureTrace(program, wl.maxInsts);
        {
            MemorySystem ms(mem_params);
            Cycle now = 0;
            Scoped s(tracer, "memory.data", probe);
            for (const auto &d : pt.data)
                ms.dataAccess(d.first, d.second, now++);
            data_calls += pt.data.size();
        }
        {
            MemorySystem ms(mem_params);
            Cycle now = 0;
            Scoped s(tracer, "memory.fetch", probe);
            for (Addr pc : pt.fetch)
                ms.fetchAccess(pc, now++);
            fetch_calls += pt.fetch.size();
        }
        {
            TournamentPredictor tp;
            Scoped s(tracer, "predictors.lookup", probe);
            for (const auto &b : pt.branch) {
                BranchSnapshot snap;
                bool pred = tp.predict(b.first, snap);
                tp.update(b.first, b.second, snap);
                mispredicts += pred != b.second;
            }
            branches += pt.branch.size();
        }

        // Checkpoints: the sampled workload reuses the ones its cells
        // collected; the others collect a small plan into a probe
        // store and run its windows on sim-alpha.
        std::vector<Checkpoint> ckpts;
        auto it = rp.sampledCkpts.find(name);
        if (it != rp.sampledCkpts.end()) {
            ckpts = std::move(it->second);
        } else {
            checkpoint::FastForwardInfo info;
            {
                Scoped s(tracer, "checkpoint.fastforward", probe);
                info = checkpoint::fastForward(program, wl.maxInsts);
            }
            std::vector<checkpoint::WindowPlan> plan =
                checkpoint::planWindows(info.totalInsts, probe_spec);
            std::vector<std::uint64_t> offsets;
            for (const checkpoint::WindowPlan &w : plan)
                offsets.push_back(w.checkpointAt);
            {
                Scoped s(tracer, "checkpoint.collect", probe);
                if (!checkpoint::collectCheckpoints(program, offsets, &pst,
                                                    &ckpts, &error))
                    out.fail("probe collect: " + error, 1);
            }
            for (std::size_t w = 0; w < plan.size() && w < ckpts.size();
                 w++) {
                Scoped s(tracer, "checkpoint.window", probe);
                probe_machine->runWindow(program, ckpts[w], plan[w].warmup,
                                         plan[w].measure);
            }
        }
        for (const Checkpoint &c : ckpts) {
            std::string blob;
            {
                Scoped s(tracer, "checkpoint.serialize", probe);
                blob = checkpoint::serializeCheckpoint(c);
            }
            Checkpoint back;
            bool ok;
            {
                Scoped s(tracer, "checkpoint.parse", probe);
                ok = checkpoint::parseCheckpoint(blob, &back, &error);
            }
            if (!ok || checkpoint::serializeCheckpoint(back) != blob)
                out.fail("checkpoint round trip of " + name, 1);
            blob_bytes += blob.size();
            blobs++;
        }
        if (!ckpts.empty()) {
            Scoped s(tracer, "checkpoint.window_fixed", probe);
            probe_machine->runWindow(program, ckpts.front(), 0, 1);
        }
    }
    removeTree(pdir);

    // ---- E: the daemon serves the replayed cells back. --------------
    serve::ServeOptions sopts;
    sopts.storePath = tdir + "/store";
    sopts.listen = "trace.sock";
    sopts.jobs = kThreads;
    serve::Server server(sopts);
    std::vector<double> first_ms, stream_ms, line_counts;
    serve::ServeStats ss;
    if (!server.start(&error)) {
        out.fail("serve start: " + error, 1);
    } else {
        std::thread loop([&server] { server.run(); });
        serve::ClientOptions copts;
        copts.connect = server.boundAddress();
        copts.timeoutSeconds = 60.0;
        for (int k = 0; k < 20; k++) {
            std::string reply;
            Scoped s(tracer, "serve.health", probe);
            if (!serve::requestOnce(copts, "{\"op\":\"health\"}", &reply,
                                    &error))
                out.fail("health: " + error, 1);
        }
        const std::size_t shards = wl.serve ? kServeShards : 2;
        std::vector<std::string> jobs;
        for (std::size_t i = 0; i < shards; i++)
            jobs.push_back(
                runner::shardCampaignName(wl.campaign, i, shards));
        permute(&jobs, opts.seed);
        const std::string sample =
            wl.sample.enabled() ? checkpoint::formatSampleSpec(wl.sample)
                                : std::string();
        std::atomic<std::size_t> next{0};
        std::mutex mu;
        std::vector<std::string> served;
        auto client = [&](int c) {
            serve::ClientOptions co = copts;
            co.seed = std::uint64_t(c) + 1;
            for (;;) {
                std::size_t j = next.fetch_add(1);
                if (j >= jobs.size())
                    return;
                Clock::time_point ts = Clock::now(), tf{};
                bool first = true;
                serve::SubmitOutcome o = serve::submitCampaign(
                    co, jobs[j], wl.maxInsts, sample, false,
                    [&](const std::string &) {
                        if (first)
                            tf = Clock::now();
                        first = false;
                    });
                Clock::time_point te = Clock::now();
                std::lock_guard<std::mutex> lock(mu);
                if (!o.ok || first) {
                    out.fail("traced job " + jobs[j] + ": " + o.error, 1);
                    continue;
                }
                int job = tracer.add("serve.job", ts, te, -1, probe);
                tracer.add("serve.first_line", ts, tf, job, probe);
                tracer.add("serve.stream", tf, te, job, probe);
                first_ms.push_back(
                    std::chrono::duration<double, std::milli>(tf - ts)
                        .count());
                stream_ms.push_back(
                    std::chrono::duration<double, std::milli>(te - tf)
                        .count());
                line_counts.push_back(double(o.lines.size()));
                served.insert(served.end(), o.lines.begin(),
                              o.lines.end());
            }
        };
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; c++)
            clients.emplace_back(client, c);
        for (std::thread &t : clients)
            t.join();
        server.requestShutdown();
        loop.join();
        ss = server.stats();
        if (ss.cellsComputed != 0)
            out.fail("daemon recomputed " +
                         std::to_string(ss.cellsComputed) +
                         " replayed cells",
                     1);
        std::size_t mismatched = served.size() == ncells ? 0 : 1;
        for (const std::string &line : served) {
            runner::CellResult r;
            std::string key;
            auto it = runner::parseJournalLine(line, spec.name, &r, &key)
                          ? ref_lines.find(key)
                          : ref_lines.end();
            mismatched += it == ref_lines.end() || it->second != line;
        }
        if (mismatched)
            out.fail("served lines differ from the untraced journal", 1);
    }
    removeTree(tdir);

    // ---- F: per-layer metrics from the spans. -----------------------
    const CoreCounts &core = rp.core, &ooo = rp.ooo;
    const MemCounts &mem = rp.mem;
    auto ms = [](double s) { return s * 1e3; };
    auto us = [](double s) { return s * 1e6; };
    std::vector<double> build = durations(tracer, {"workloads.build"});
    std::vector<double> make =
        durations(tracer, {"validate.make_machine"});
    double core_s = sum(durations(tracer, {"core.run", "core.window"}));
    double ooo_s =
        sum(durations(tracer, {"outorder.run", "outorder.window"}));

    out.set("workloads.build_ms", ms(mean(build)), "ms");
    out.set("workloads.build_share", sum(build) / rp.wallS, "ratio");
    out.set("validate.make_machine_ms", ms(mean(make)), "ms");
    out.set("validate.machines", double(make.size()), "count");
    out.set("core.run_s", core_s, "s");
    out.set("core.mips", double(core.insts) / (core_s * 1e6), "1/us");
    out.set("core.ns_per_cycle", core_s * 1e9 / double(core.cycles),
            "ns");
    out.set("core.cycles", double(core.cycles), "count");
    out.set("core.ipc", ratio(core.insts, core.cycles), "ratio");
    out.set("core.issued_per_committed", ratio(core.issued, core.insts),
            "ratio");
    out.set("core.squashed_frac",
            ratio(core.squashed, core.insts + core.squashed), "ratio");
    out.set("outorder.run_s", ooo_s, "s");
    out.set("outorder.mips", double(ooo.insts) / (ooo_s * 1e6), "1/us");
    out.set("outorder.ns_per_cycle", ooo_s * 1e9 / double(ooo.cycles),
            "ns");
    out.set("outorder.cycles", double(ooo.cycles), "count");
    out.set("memory.data_access_ns",
            sum(durations(tracer, {"memory.data"})) * 1e9 /
                double(data_calls),
            "ns");
    out.set("memory.fetch_access_ns",
            sum(durations(tracer, {"memory.fetch"})) * 1e9 /
                double(fetch_calls),
            "ns");
    out.set("memory.l1d_miss_rate",
            ratio(mem.l1dMisses, mem.l1dHits + mem.l1dMisses), "ratio");
    out.set("memory.l2_miss_rate",
            ratio(mem.l2Misses, mem.l2Hits + mem.l2Misses), "ratio");
    out.set("memory.dram_row_hit_rate",
            ratio(mem.rowHits, mem.rowHits + mem.rowMisses), "ratio");
    out.set("memory.dtlb_misses", double(mem.dtlbMisses), "count");
    out.set("predictors.lookup_ns",
            sum(durations(tracer, {"predictors.lookup"})) * 1e9 /
                double(branches),
            "ns");
    out.set("predictors.mispredict_rate", ratio(mispredicts, branches),
            "ratio");
    out.set("isa.emu_mips",
            double(emu_insts) /
                (sum(durations(tracer, {"isa.emulate"})) * 1e6),
            "1/us");
    out.set("checkpoint.fastforward_ms",
            ms(mean(durations(tracer, {"checkpoint.fastforward"}))), "ms");
    out.set("checkpoint.collect_ms",
            ms(mean(durations(tracer, {"checkpoint.collect"}))), "ms");
    out.set("checkpoint.serialize_ms",
            ms(mean(durations(tracer, {"checkpoint.serialize"}))), "ms");
    out.set("checkpoint.parse_ms",
            ms(mean(durations(tracer, {"checkpoint.parse"}))), "ms");
    out.set("checkpoint.blob_kb", double(blob_bytes) / 1024.0 /
                                      double(std::max<std::uint64_t>(
                                          blobs, 1)),
            "KiB");
    out.set("checkpoint.window_ms",
            ms(mean(durations(tracer, {"core.window", "outorder.window",
                                       "checkpoint.window"}))),
            "ms");
    out.set("checkpoint.window_fixed_ms",
            ms(mean(durations(tracer, {"checkpoint.window_fixed"}))),
            "ms");
    out.set("store.publish_us",
            us(mean(durations(tracer, {"store.publish"}))), "us");
    out.set("store.bytes_written", double(sc.bytesWritten), "bytes");
    out.set("store.lookup_us",
            us(mean(durations(tracer, {"store.lookup"}))), "us");
    out.set("store.bytes_read", double(sc.bytesRead), "bytes");
    out.set("store.hit_ratio", ratio(hits, lookups), "ratio");
    out.set("runner.journal_append_us",
            us(mean(durations(tracer, {"runner.journal_append"}))), "us");
    out.set("runner.journal_parse_us",
            us(mean(durations(tracer, {"runner.journal_parse"}))), "us");
    out.set("runner.cell_overhead_ms",
            ms((untraced_s - cell_children) / double(ncells)), "ms");
    out.set("serve.health_rtt_us",
            us(median(durations(tracer, {"serve.health"}))), "us");
    out.set("serve.first_line_ms", mean(first_ms), "ms");
    out.set("serve.stream_ms", mean(stream_ms), "ms");
    out.set("serve.lines_per_job", mean(line_counts), "count");
    out.set("serve.busy_rejections", double(ss.busyRejections), "count");
    out.set("trace.untraced_wall_s", untraced_s, "s");
    out.set("trace.traced_wall_s", traced_s, "s");
    out.set("trace.overhead_s", traced_s - untraced_s, "s");
    out.set("trace.spans", double(tracer.spans().size()), "count");
    out.set("trace.span_cost_s", span_s * double(replay_spans), "s");

    if (hits != lookups)
        out.fail("store hit ratio below 1", 1);
    if (!opts.spansPath.empty()) {
        tracer.write(opts.spansPath);
        out.notes.push_back("spans: " + opts.spansPath);
    }
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "tracing overhead: traced replay %.3f s vs untraced "
                  "one-thread run %.3f s (%+.3f s, medians of 2 in "
                  "ABBA order); %zu replay spans at %.0f ns each = "
                  "%.6f s",
                  traced_s, untraced_s, traced_s - untraced_s,
                  replay_spans, span_s * 1e9, span_s * replay_spans);
    out.notes.push_back(buf);
    return out;
}

} // namespace simbench
