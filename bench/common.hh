/**
 * @file
 * The capped-campaign setup shared by the table benches: quiet
 * logging, the common flag set (--store DIR, --jobs N, --max-insts N),
 * one parallel ExperimentRunner, a hard stop on failed cells, and the
 * optional store-traffic summary after the campaign.
 */

#ifndef SIMALPHA_BENCH_COMMON_HH
#define SIMALPHA_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "common/logging.hh"
#include "runner/campaign.hh"
#include "runner/runner.hh"
#include "validate/machines.hh"

namespace simalpha {
namespace bench {

class CampaignHarness
{
  public:
    CampaignHarness(int argc, char **argv, const char *prog)
        : _prog(prog)
    {
        setQuiet(true);
        _opts.jobs = 0;     // all cores
        _opts.cache = true;
        for (int i = 1; i < argc; i++) {
            auto next = [&]() -> const char * {
                if (i + 1 >= argc) {
                    std::fprintf(stderr, "missing value after %s\n",
                                 argv[i]);
                    std::exit(2);
                }
                return argv[++i];
            };
            if (std::strcmp(argv[i], "--store") == 0)
                _opts.storePath = next();
            else if (std::strcmp(argv[i], "--jobs") == 0)
                _opts.jobs = int(std::strtol(next(), nullptr, 10));
            else if (std::strcmp(argv[i], "--max-insts") == 0)
                _maxInsts = std::strtoull(next(), nullptr, 10);
            else {
                std::fprintf(stderr,
                             "usage: %s [--store DIR] [--jobs N] "
                             "[--max-insts N]\n",
                             prog);
                std::exit(2);
            }
        }
        _runner = std::make_unique<runner::ExperimentRunner>(_opts);
    }

    /** Run @p spec, capped when --max-insts was given. If any cell
     *  failed, list every failed cell on stderr and exit 1: a table
     *  rendered over missing cells would be wrong or abort. */
    runner::CampaignResult
    run(runner::CampaignSpec spec)
    {
        if (_maxInsts)
            spec = spec.withMaxInsts(_maxInsts);
        runner::CampaignResult result = _runner->run(spec);
        if (result.errorCount() == 0)
            return result;
        std::fprintf(stderr, "%s: %zu of %zu cells failed:\n", _prog,
                     result.errorCount(), result.cells.size());
        for (const runner::CellResult &r : result.cells)
            if (!r.ok)
                std::fprintf(
                    stderr, "  %s opt=%s %s: [%s] %s\n",
                    r.cell.machine.c_str(),
                    validate::optimizationName(r.cell.opt).c_str(),
                    r.cell.workload.c_str(), r.errorClass.c_str(),
                    r.error.c_str());
        std::exit(1);
    }

    /** Store-traffic summary (no output without --store). */
    void
    reportStore() const
    {
        if (!_runner->storeOpen())
            return;
        store::StoreCounters c = _runner->storeCounters();
        std::printf("\nstore: %llu hits, %llu misses, "
                    "%llu published\n",
                    (unsigned long long)c.hits,
                    (unsigned long long)c.misses,
                    (unsigned long long)c.publishes);
    }

  private:
    const char *_prog;
    runner::RunnerOptions _opts;
    std::uint64_t _maxInsts = 0;
    std::unique_ptr<runner::ExperimentRunner> _runner;
};

} // namespace bench
} // namespace simalpha

#endif // SIMALPHA_BENCH_COMMON_HH
