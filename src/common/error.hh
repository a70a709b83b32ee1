/**
 * @file
 * The structured simulator error taxonomy.
 *
 * Library code never calls std::abort()/std::exit() directly: a defect
 * surfaces as a typed exception so the campaign layer can contain it to
 * one cell while the rest of a (machine × workload) grid completes.
 * Only the top-level driver (tools/simalpha.cc) installs a handler and
 * turns the class into a process exit code.
 *
 *   InvariantError  a modeling bug (sim_assert / panic)
 *   ConfigError     a user error: bad configuration or argument (fatal)
 *   WorkloadError   a workload that cannot be built or is malformed
 *   DeadlockError   a core stopped committing (forward-progress watchdog),
 *                   carrying a diagnostic machine-state snapshot
 *   TransientError  an environmental failure (I/O, resources) that a
 *                   bounded per-cell retry may clear
 *   CrashError      a worker process died (signal, OOM kill, nonzero
 *                   exit) — only ever raised by the process-isolation
 *                   supervisor, never from inside a simulation
 *   TimeoutError    a cell exceeded its wall-clock budget and its
 *                   worker was killed by the supervisor
 *
 * For interactive debugging, SIMALPHA_ABORT_ON_PANIC=1 restores the
 * historical hard abort at the panic site so a debugger stops with the
 * full stack intact.
 */

#ifndef SIMALPHA_COMMON_ERROR_HH
#define SIMALPHA_COMMON_ERROR_HH

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/types.hh"

namespace simalpha {

/** Base of the taxonomy: a classified, optionally retryable failure. */
class SimError : public std::runtime_error
{
  public:
    SimError(std::string kind, const std::string &message,
             bool retryable = false)
        : std::runtime_error(message), _kind(std::move(kind)),
          _retryable(retryable)
    {
    }

    /** Stable class mnemonic ("invariant", "config", ...) used in
     *  artifacts, journals, and CLI summaries. */
    const std::string &kind() const { return _kind; }

    /** True if re-executing the failed work may succeed (environmental
     *  causes); deterministic modeling failures are never retryable. */
    bool retryable() const { return _retryable; }

  private:
    std::string _kind;
    bool _retryable;
};

/**
 * A violated simulator invariant — sim_assert()/panic(). The source
 * location is kept apart from the message: what() is the diagnosis
 * that result artifacts may carry, so it must not depend on where the
 * tree was checked out or on line numbers. Only stderr reports (the
 * top-level driver, SIMALPHA_ABORT_ON_PANIC) print location().
 */
class InvariantError : public SimError
{
  public:
    explicit InvariantError(const std::string &message,
                            std::string location = "")
        : SimError("invariant", message), _location(std::move(location))
    {
    }

    /** "file:line" of the panic site; empty if raised elsewhere. */
    const std::string &location() const { return _location; }

  private:
    std::string _location;
};

/** A user error: bad configuration or argument — fatal(). */
class ConfigError : public SimError
{
  public:
    explicit ConfigError(const std::string &message)
        : SimError("config", message)
    {
    }
};

/** A workload that cannot be built or is malformed. */
class WorkloadError : public SimError
{
  public:
    explicit WorkloadError(const std::string &message)
        : SimError("workload", message)
    {
    }
};

/** An environmental failure that a bounded retry may clear. */
class TransientError : public SimError
{
  public:
    explicit TransientError(const std::string &message)
        : SimError("transient", message, /*retryable=*/true)
    {
    }
};

/**
 * A worker process died under the process-isolation supervisor: the
 * wait status said signal death or an unexpected exit. The failure is
 * attributed to the cell that was in flight when the worker died; it
 * is deterministic from the cell's point of view (the same cell would
 * kill the next worker too), so it is never retryable.
 */
class CrashError : public SimError
{
  public:
    explicit CrashError(const std::string &message)
        : SimError("crash", message)
    {
    }
};

/** A cell exceeded its wall-clock budget; the supervisor killed its
 *  worker. Not retryable: re-running would hang again. */
class TimeoutError : public SimError
{
  public:
    explicit TimeoutError(const std::string &message)
        : SimError("timeout", message)
    {
    }
};

/**
 * Machine-state snapshot captured by the forward-progress watchdog at
 * the moment a core is declared deadlocked.
 */
struct DeadlockInfo
{
    std::string machine;
    std::string program;
    Cycle cycle = 0;                ///< cycle the watchdog fired
    Cycle lastCommitCycle = 0;      ///< last cycle that committed
    std::uint64_t committed = 0;    ///< instructions committed so far
    Addr fetchPc = 0;
    /** In-flight instructions in the window (ROB / RUU occupancy). */
    std::size_t windowOccupancy = 0;
    /** Disassembly + status of the oldest in-flight instruction, empty
     *  if the window is empty. */
    std::string oldestInst;
    /** Free-form core-specific state (queues, pending recovery, ...). */
    std::string detail;

    /** One-line human-readable rendering (the exception message). */
    std::string summary() const;
};

/** A core stopped committing: no forward progress for the configured
 *  watchdog interval. */
class DeadlockError : public SimError
{
  public:
    explicit DeadlockError(DeadlockInfo info)
        : SimError("deadlock", info.summary()), _info(std::move(info))
    {
    }

    const DeadlockInfo &info() const { return _info; }

  private:
    DeadlockInfo _info;
};

} // namespace simalpha

#endif // SIMALPHA_COMMON_ERROR_HH
