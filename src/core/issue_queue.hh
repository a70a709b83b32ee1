/**
 * @file
 * The collapsible issue queues of the 21264: instructions issue strictly
 * oldest-first (by inum), and issued entries vacate the queue either
 * immediately or — under the sim-alpha approximation — two cycles after
 * issue, which shrinks the queue's effective capacity under pressure but
 * makes load-use replay cheaper.
 */

#ifndef SIMALPHA_CORE_ISSUE_QUEUE_HH
#define SIMALPHA_CORE_ISSUE_QUEUE_HH

#include <algorithm>
#include <vector>

#include "core/dyninst.hh"

namespace simalpha {

class IssueQueue
{
  public:
    /**
     * @param capacity queue entries
     * @param removal_delay cycles after issue before the entry frees
     */
    IssueQueue(int capacity, int removal_delay)
        : _capacity(capacity), _removalDelay(removal_delay)
    {
    }

    bool
    full() const
    {
        return int(_entries.size()) >= _capacity;
    }

    int size() const { return int(_entries.size()); }
    int capacity() const { return _capacity; }

    /** Insert at map time (entries arrive in program order). */
    void
    insert(DynInst *inst)
    {
        _entries.push_back(inst);
    }

    /** Re-insert a replayed instruction, preserving age order. */
    void
    reinsert(DynInst *inst)
    {
        auto it = std::lower_bound(
            _entries.begin(), _entries.end(), inst,
            [](const DynInst *a, const DynInst *b) {
                return a->seq < b->seq;
            });
        if (it != _entries.end() && *it == inst)
            return;     // still resident (within the removal window)
        _entries.insert(it, inst);
    }

    /**
     * Free entries whose post-issue removal delay has elapsed. Gated
     * on the earliest scheduled removal (noteIssued), so cycles with
     * nothing due skip the scan; the erase condition itself is
     * unchanged, so removals happen at exactly the same cycle as an
     * ungated every-cycle compact.
     * @return true if any entry was removed
     */
    bool
    compact(Cycle now)
    {
        if (_nextRemoval > now)
            return false;
        // One pass: erase what is due, re-arm on the earliest of the
        // issued entries that stay.
        _nextRemoval = kNoCycle;
        std::size_t removed = std::erase_if(
            _entries, [&](const DynInst *inst) {
                if (!inst->issued)
                    return false;
                Cycle at = inst->issueCycle + Cycle(_removalDelay);
                if (now >= at)
                    return true;
                _nextRemoval = std::min(_nextRemoval, at);
                return false;
            });
        return removed != 0;
    }

    /** An entry of this queue issued at @p at: schedule its removal.
     *  (Entries removed by other means leave _nextRemoval pointing
     *  too early, which only costs a no-op compact — never a late
     *  removal.) */
    void
    noteIssued(Cycle at)
    {
        _nextRemoval = std::min(_nextRemoval, at + Cycle(_removalDelay));
    }

    /** Earliest cycle a compact could remove an entry (kNoCycle if
     *  none scheduled). */
    Cycle nextRemoval() const { return _nextRemoval; }

    /** Remove squashed instructions with seq >= `from`. */
    void
    squashFrom(InstSeq from)
    {
        std::erase_if(_entries, [from](const DynInst *inst) {
            return inst->seq >= from;
        });
    }

    /** Remove the oldest in-flight instruction at retire. Entries are
     *  age-ordered and all still in flight, so if @p inst is resident
     *  it is the front entry. */
    void
    removeOldest(const DynInst *inst)
    {
        if (!_entries.empty() && _entries.front() == inst)
            _entries.erase(_entries.begin());
    }

    /** Age-ordered scan access. */
    const std::vector<DynInst *> &entries() const { return _entries; }

    void
    clear()
    {
        _entries.clear();
        _nextRemoval = kNoCycle;
    }

  private:
    int _capacity;
    int _removalDelay;
    Cycle _nextRemoval = kNoCycle;
    std::vector<DynInst *> _entries;
};

} // namespace simalpha

#endif // SIMALPHA_CORE_ISSUE_QUEUE_HH
