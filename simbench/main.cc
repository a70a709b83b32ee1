/**
 * @file
 * simbench: the simulator's benchmark program.
 *
 *   simbench --workload NAME --seed N --seconds S --trace 0|1
 *            --tmp DIR --reference FILE [--spans FILE]
 *            [--update-reference]
 *
 * Prints a report, a fingerprint line, and as its last line one JSON
 * object {"correct","attempted","failed","metrics"}: end-to-end
 * metrics with --trace 0, per-layer metrics with --trace 1. Refuses
 * (exit 3) to report from an unoptimized or sanitizer build. Exit 1
 * when a correctness check fails, 2 on usage errors.
 */

#include <sys/statvfs.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hh"
#include "common/logging.hh"

using namespace simbench;

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "simbench: %s\nusage: simbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --tmp DIR --reference FILE "
                 "[--spans FILE] [--update-reference]\nworkloads:",
                 why);
    for (const WorkloadDef &w : workloads())
        std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

/** Why this binary must not report numbers, or empty. */
std::string
buildRefusal()
{
    if (std::strcmp(SIMBENCH_BUILD_TYPE, "Release") != 0)
        return std::string("build type is '") + SIMBENCH_BUILD_TYPE +
               "', not Release";
#ifndef __OPTIMIZE__
    return "compiled without optimization";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "compiled with a sanitizer";
#endif
    if (SIMBENCH_SANITIZED)
        return "compiled with -fsanitize";
    return "";
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);)
        if (line.rfind("model name", 0) == 0) {
            std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(" \t",
                                                          colon + 1));
        }
    return "unknown";
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out;
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Free bytes where the run's stores go must cover its largest
 *  footprint (sampled-cold writes ~154 MB of checkpoints per store,
 *  and its traced run keeps two stores). */
std::uint64_t
bytesNeeded(const WorkloadDef &wl)
{
    return (wl.sample.enabled() ? 700ULL : 200ULL) << 20;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    std::string tmp;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "simbench: %s needs a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--workload")
            opts.workload = value("--workload");
        else if (a == "--seed")
            opts.seed = std::strtoull(value("--seed"), nullptr, 10),
            have_seed = true;
        else if (a == "--seconds")
            opts.seconds = std::atof(value("--seconds")),
            have_seconds = true;
        else if (a == "--trace")
            opts.trace = std::atoi(value("--trace")) != 0,
            have_trace = true;
        else if (a == "--tmp")
            tmp = value("--tmp");
        else if (a == "--reference")
            opts.referencePath = value("--reference");
        else if (a == "--spans")
            opts.spansPath = value("--spans");
        else if (a == "--update-reference")
            opts.updateReference = true;
        else
            return usage(("unknown argument " + a).c_str());
    }
    const WorkloadDef *wl = findWorkload(opts.workload);
    if (!wl)
        return usage("unknown or missing --workload");
    if (!have_seed || !have_seconds || !have_trace || tmp.empty() ||
        opts.referencePath.empty())
        return usage("--seed, --seconds, --trace, --tmp and --reference "
                     "are required");
    if (opts.seconds <= 0)
        return usage("--seconds must be positive");
    unsigned nproc = std::max(1u, std::thread::hardware_concurrency());

    std::string refusal = buildRefusal();
    if (!refusal.empty()) {
        std::fprintf(stderr, "simbench: refusing to report: %s\n",
                     refusal.c_str());
        return 3;
    }

    namespace fs = std::filesystem;
    std::error_code ec;
    opts.referencePath = fs::absolute(opts.referencePath, ec).string();
    if (!opts.spansPath.empty())
        opts.spansPath = fs::absolute(opts.spansPath, ec).string();

    // Every store, journal and socket lives in the caller's private
    // directory; the caller owns its removal (so it goes even if this
    // process dies). Relative paths below keep socket paths short.
    std::string tmp_abs = fs::absolute(tmp, ec).string();
    struct statvfs vfs;
    if (::statvfs(tmp_abs.c_str(), &vfs) != 0 ||
        std::uint64_t(vfs.f_bavail) * vfs.f_frsize < bytesNeeded(*wl)) {
        std::fprintf(stderr,
                     "simbench: fewer than %llu MB free under %s\n",
                     (unsigned long long)(bytesNeeded(*wl) >> 20),
                     tmp_abs.c_str());
        return 1;
    }
    fs::path home = fs::current_path(ec);
    if (::chdir(tmp_abs.c_str()) != 0) {
        std::fprintf(stderr, "simbench: cannot enter %s\n",
                     tmp_abs.c_str());
        return 1;
    }
    setQuiet(true);

    RunOutcome out = opts.trace ? runTraced(opts, *wl)
                                : runUntraced(opts, *wl);

    if (::chdir(home.c_str()) != 0)
        std::fprintf(stderr, "simbench: cannot return to %s\n",
                     home.c_str());

    for (const auto &kv : out.metrics)
        if (!std::isfinite(kv.second.value))
            out.fail("metric " + kv.first + " is not finite", 0);
    if (out.attempted == 0)
        out.fail("nothing was attempted", 0);

    std::printf("simbench %s seed=%llu seconds=%g trace=%d\n",
                wl->name.c_str(), (unsigned long long)opts.seed,
                opts.seconds, int(opts.trace));
    for (const std::string &n : out.notes)
        std::printf("  %s\n", n.c_str());
    for (const auto &kv : out.metrics)
        std::printf("  %-32s %14.6g %s\n", kv.first.c_str(),
                    kv.second.value, kv.second.unit.c_str());
    std::printf("  %-32s %14.6g %s\n", "failed_frac",
                out.attempted ? double(out.failed) / double(out.attempted)
                              : 1.0,
                "ratio");
    std::printf("{\"fingerprint\": {\"cpu\": \"%s\", \"nproc\": %u, "
                "\"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
                "\"trace\": %d, \"threads\": %d, \"clients\": %d, "
                "\"digest\": \"%s\"}}\n",
                jsonEscape(cpuModel()).c_str(), nproc,
                jsonEscape(SIMBENCH_COMPILER).c_str(), SIMBENCH_BUILD_TYPE,
                wl->name.c_str(), (unsigned long long)opts.seed,
                number(opts.seconds).c_str(), int(opts.trace),
                kThreads, kClients, out.digest.c_str());

    std::string json = "{\"correct\": ";
    json += out.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.attempted);
    json += ", \"failed\": " + std::to_string(out.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto &kv : out.metrics) {
        json += first ? "" : ", ";
        first = false;
        json += "\"" + kv.first + "\": {\"value\": " +
                number(kv.second.value) + ", \"unit\": \"" +
                kv.second.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return out.correct ? 0 : 1;
}
