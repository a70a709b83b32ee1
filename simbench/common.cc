#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>

#include "bench.hh"
#include "runner/journal.hh"

namespace simbench {

const std::vector<WorkloadDef> &
workloads()
{
    static const std::vector<WorkloadDef> defs = [] {
        checkpoint::SampleSpec sampled;
        sampled.windows = 10;
        sampled.len = 2000;
        sampled.warmup = 1000;
        return std::vector<WorkloadDef>{
            {"table3-full", "table3", 0, {}, false},
            {"sweep-capped", "table5", 5000, {}, false},
            {"sampled-cold", "table3", 0, sampled, false},
            {"serve-warm", "table5", 1000, {}, true},
        };
    }();
    return defs;
}

const WorkloadDef *
findWorkload(const std::string &name)
{
    for (const WorkloadDef &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

void
RunOutcome::fail(const std::string &why, std::uint64_t cells)
{
    correct = false;
    failed += cells;
    notes.push_back("CHECK FAILED: " + why);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * double(v.size() - 1);
    std::size_t lo = std::size_t(std::floor(pos));
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - double(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

std::uint64_t
splitmix64(std::uint64_t *state)
{
    std::uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

runner::CampaignSpec
workloadSpec(const WorkloadDef &wl, std::uint64_t seed)
{
    runner::CampaignSpec spec;
    runner::campaignByName(wl.campaign, &spec);
    spec = spec.withMaxInsts(wl.maxInsts);
    if (wl.sample.enabled())
        spec = spec.withSampling(wl.sample);
    permute(&spec.cells, seed);
    return spec;
}

namespace {

/** FNV-1a 64 over @p text, continuing from @p h. */
std::uint64_t
fnv1a(const std::string &text, std::uint64_t h = 1469598103934665603ULL)
{
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)v);
    return buf;
}

/** Digest over (identity, line) pairs sorted by identity. */
std::string
digestOf(std::vector<std::pair<std::string, std::string>> keyed)
{
    std::sort(keyed.begin(), keyed.end());
    std::uint64_t h = fnv1a("");
    for (const auto &kv : keyed) {
        h = fnv1a(kv.second, h);
        h = fnv1a("\n", h);
    }
    return hex64(h);
}

/** Fixed campaign tag of digested lines: the same cell digests the
 *  same whichever campaign name carried it. */
constexpr const char *kDigestTag = "simbench";

} // namespace

std::string
resultDigest(const std::vector<runner::CellResult> &cells)
{
    std::vector<std::pair<std::string, std::string>> keyed;
    keyed.reserve(cells.size());
    for (const runner::CellResult &r : cells)
        keyed.emplace_back(runner::journalKey(r.cell),
                           runner::journalLine(kDigestTag, r));
    return digestOf(std::move(keyed));
}

bool
lineDigest(const std::vector<std::string> &lines,
           const std::string &campaign, std::string *digest)
{
    std::vector<runner::CellResult> cells;
    cells.reserve(lines.size());
    for (const std::string &line : lines) {
        runner::CellResult r;
        std::string key;
        if (!runner::parseJournalLine(line, campaign, &r, &key))
            return false;
        cells.push_back(std::move(r));
    }
    *digest = resultDigest(cells);
    return true;
}

namespace {

struct RefEntry
{
    std::uint64_t cells = 0;
    std::string digest;
};

std::map<std::string, RefEntry>
readReference(const std::string &path)
{
    std::map<std::string, RefEntry> out;
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();
    static const std::regex entry(
        "\"([A-Za-z0-9_.-]+)\"\\s*:\\s*\\{\\s*\"cells\"\\s*:\\s*([0-9]+)"
        "\\s*,\\s*\"digest\"\\s*:\\s*\"([0-9a-f]{16})\"\\s*\\}");
    for (std::sregex_iterator it(text.begin(), text.end(), entry), end;
         it != end; ++it)
        out[(*it)[1]] = RefEntry{std::stoull((*it)[2]), (*it)[3]};
    return out;
}

} // namespace

void
checkReference(const Options &opts, const std::string &workload,
               const std::string &digest, std::uint64_t cells,
               RunOutcome *out)
{
    if (opts.updateReference) {
        std::map<std::string, RefEntry> ref =
            readReference(opts.referencePath);
        ref[workload] = RefEntry{cells, digest};
        std::ofstream os(opts.referencePath, std::ios::trunc);
        os << "{\n";
        std::size_t i = 0;
        for (const auto &kv : ref)
            os << "  \"" << kv.first << "\": {\"cells\": "
               << kv.second.cells << ", \"digest\": \""
               << kv.second.digest << "\"}"
               << (++i < ref.size() ? ",\n" : "\n");
        os << "}\n";
        out->notes.push_back("reference updated: " + workload + " " +
                             digest);
        return;
    }
    std::map<std::string, RefEntry> ref =
        readReference(opts.referencePath);
    auto it = ref.find(workload);
    if (it == ref.end()) {
        out->fail("no reference digest for " + workload + " in " +
                      opts.referencePath,
                  cells);
        return;
    }
    if (it->second.cells != cells || it->second.digest != digest)
        out->fail("result digest " + digest + " over " +
                      std::to_string(cells) + " cells != reference " +
                      it->second.digest + " over " +
                      std::to_string(it->second.cells),
                  cells);
}

double
ipcErrorPct(const std::vector<runner::CellResult> &cells,
            const std::string &machine)
{
    std::map<std::string, double> ref, sim;
    for (const runner::CellResult &r : cells) {
        if (r.cell.opt != validate::Optimization::None)
            continue;
        // A sampled cell's IPC is its mean per-window IPC, as the
        // sampled Table 3 reports it.
        double ipc = r.cell.sample.enabled() ? r.sampleIpcMean : r.ipc();
        if (r.cell.machine == "ds10l")
            ref[r.cell.workload] = ipc;
        else if (r.cell.machine == machine)
            sim[r.cell.workload] = ipc;
    }
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto &kv : ref) {
        auto it = sim.find(kv.first);
        if (it == sim.end() || kv.second <= 0.0)
            continue;
        sum += std::fabs(it->second - kv.second) / kv.second;
        n++;
    }
    return n ? 100.0 * sum / double(n) : 0.0;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void
removeTree(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

std::string
freshDir(const std::string &name)
{
    removeTree(name);
    std::error_code ec;
    std::filesystem::create_directories(name, ec);
    return name;
}

} // namespace simbench
