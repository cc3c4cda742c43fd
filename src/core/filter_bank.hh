/**
 * @file
 * FilterBank: passive, parallel evaluation of many JETTY configurations on
 * one processor's snoop and fill/evict streams.
 *
 * Filtering is observation-only -- a JETTY never changes a coherence
 * outcome, only whether the L2 tag array is probed -- so a single
 * simulation run can score every candidate configuration at once. The bank
 * subscribes to the L2's fill/evict events, receives every snoop with its
 * ground-truth outcome, checks the safety invariant (a filtered snoop must
 * be a true miss), and accumulates per-filter coverage statistics that the
 * energy accountant later combines with per-event filter energies.
 */

#ifndef JETTY_CORE_FILTER_BANK_HH
#define JETTY_CORE_FILTER_BANK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/exclude_jetty.hh"
#include "core/snoop_filter.hh"
#include "energy/accountant.hh"
#include "mem/cache_events.hh"
#include "util/arena.hh"

namespace jetty::filter
{

class VectorExcludeJetty;

/**
 * One filter's verdict on one snoop, with the ground truth it was judged
 * against. The verification subsystem's no-false-negative checker hangs
 * off this: `filtered && unitInL2` is the broken-coherence case.
 */
struct FilterProbeEvent
{
    ProcId owner = 0;          //!< node whose bank observed the snoop
    std::size_t filterIdx = 0; //!< index into the bank
    Addr unitAddr = 0;
    bool unitInL2 = false;     //!< ground truth: unit valid in local L2
    bool blockInL2 = false;    //!< ground truth: enclosing tag matched
    bool filtered = false;     //!< the filter claimed "definitely absent"
};

/** Passive observer of every (filter, snoop) verdict. */
class FilterProbeObserver
{
  public:
    virtual ~FilterProbeObserver() = default;
    virtual void onFilterProbe(const FilterProbeEvent &) = 0;
};

/** The bank of simultaneously evaluated filters for one processor. */
class FilterBank : public mem::CacheEventListener
{
  public:
    /**
     * @param specs       configuration names (see filter_spec.hh).
     * @param amap        address-space facts of the simulated system.
     * @param checkSafety verify the "never filter a cached unit" guarantee
     *                    against ground truth (panics on violation when
     *                    true; counts violations either way).
     */
    FilterBank(const std::vector<std::string> &specs, const AddressMap &amap,
               bool checkSafety = true);

    /**
     * Present one snoop to every filter: queued in capture order while
     * the bank is deferred, walked through every filter now otherwise.
     * @param unitAddr   coherence-unit aligned snooped address.
     * @param unitInL2   ground truth: the unit is valid in the local L2.
     * @param blockInL2  ground truth: the enclosing block's tag matched
     *                   (the tag probe reports this for free).
     */
    void
    observeSnoop(Addr unitAddr, bool unitInL2, bool blockInL2)
    {
        if (deferred_) {
            queue_.push(
                {unitAddr, BankEvent::Kind::Snoop, unitInL2, blockInL2});
            return;
        }
        walkSnoop(unitAddr, unitInL2, blockInL2);
    }

    // ---- The deferred (batched) observation path --------------------
    //
    // The simulation hot loop defers filter work: snoops and the L2's
    // fill/evict notifications are queued in capture order — the order
    // immediate observation would have applied them — and a chunk-end
    // flush replays the queue. The bank groups its filters at
    // construction. The EJs are grouped by set count: each group is one
    // ExcludeJettyStack, an LRU stack as deep as its largest member that
    // holds every member's contents at once, so a snoop costs the group
    // one scan, one update and one histogram count however many members
    // it has; the flush's end folds the histogram into each member's
    // stats and copies each member's prefix of the stack back into it
    // (DESIGN.md "Stack-distance EJ replay"). The EJ groups and the VEJ
    // family replay *event-major* in one walk of the queue (per event,
    // one kind branch, then each group's or family's direct-call
    // kernel), and every other family replays filter-major through its
    // own applyBatch. Filters share no state, so any interleaving of
    // their replays is result-identical; each filter ends in exactly the
    // state, with exactly the counters, immediate observation would have
    // left, so the deferred path is bit-identical to it at any snoop-bus
    // count, and the no-false-negative guarantee carries over unchanged.

    /** Enter deferred mode: observeSnoop and the L2 listener hooks queue
     *  instead of applying. Requires no probe observer (the instrumented
     *  paths stay immediate). */
    void beginDeferred();

    /** Replay all queued events and leave deferred mode. */
    void endDeferred();

    /** Replay all queued events, staying deferred. Panics on a safety
     *  violation when the bank checks safety, naming the first
     *  violating filter in bank order. */
    void flushDeferred();

    /** Whether the bank is currently queueing. */
    bool deferred() const { return deferred_; }

    // CacheEventListener
    void unitFilled(Addr unitAddr) override;
    void unitEvicted(Addr unitAddr) override;

    /** Number of filters in the bank. */
    std::size_t size() const { return filters_.size(); }

    /** Filter @p i. */
    SnoopFilter &filterAt(std::size_t i) { return *filters_[i]; }
    const SnoopFilter &filterAt(std::size_t i) const { return *filters_[i]; }

    /** Stats of filter @p i. */
    const FilterStats &statsAt(std::size_t i) const { return stats_[i]; }

    /** Index of the filter whose name() equals @p name, or -1. */
    int indexOf(const std::string &name) const;

    /**
     * Attach (or detach with nullptr) a per-probe observer. @p owner tags
     * the emitted events with the node this bank belongs to. Zero cost
     * when unset: observeSnoop hoists one null check out of its loops.
     */
    void setProbeObserver(FilterProbeObserver *obs, ProcId owner);

  private:
    /** observeSnoop's immediate walk: every filter judges the snoop now
     *  (kept out of line, off the deferred hot path). */
    void walkSnoop(Addr unitAddr, bool unitInL2, bool blockInL2);

    std::vector<SnoopFilterPtr> filters_;
    std::vector<FilterStats> stats_;
    /** One stack-distance group per EJ set count. */
    std::vector<ExcludeJettyStack> ejStacks_;
    /** The VEJ family, in bank order: direct pointers to the filters and
     *  to their stats_ slots. */
    std::vector<VectorExcludeJetty *> vejs_;
    std::vector<FilterStats *> vejStats_;
    /** Indices of the filters replayed filter-major (applyBatch). */
    std::vector<std::size_t> batchReplayed_;
    bool checkSafety_;
    FilterProbeObserver *probeObserver_ = nullptr;
    ProcId owner_ = 0;

    bool deferred_ = false;
    /** Captured events in capture order, in chunked arena storage: the
     *  flush / refill cycle reuses the chunks, so steady-state deferral
     *  does no allocator work, and each chunk is a contiguous
     *  cache-line-aligned run the batched applyBatch streams over. */
    util::ArenaQueue<BankEvent> queue_;
    /** flushDeferred()'s per-filter safetyViolations snapshot. */
    std::vector<std::uint64_t> violationsBefore_;
};

} // namespace jetty::filter

#endif // JETTY_CORE_FILTER_BANK_HH
