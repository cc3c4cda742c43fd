/**
 * @file
 * The SnoopFilter interface implemented by every JETTY variant.
 *
 * A filter sits between the bus and the L2 backside of one processor. On
 * an incoming snoop the filter is probed; a @c true answer is a *guarantee*
 * that the snooped coherence unit is not valid in the local L2, so the L2
 * tag probe can be skipped. Filters are speculative but must be safe: a
 * false "not cached" would break coherence, and the simulator verifies the
 * guarantee against ground truth on every filtered snoop.
 *
 * Filters keep no coherence state beyond presence, exactly as the paper
 * requires (no protocol changes). They learn through three event streams:
 *  - probe(addr): a snoop arrived;
 *  - onSnoopMiss(addr): the snoop was not filtered and missed in the L2
 *    (this is when an Exclude-JETTY allocates);
 *  - onFill/onEvict(addr): the L2 gained/lost a valid coherence unit
 *    (this is how Include-JETTY counters and EJ present bits stay
 *    coherent; the information is free at the L2, Section 3.2).
 */

#ifndef JETTY_CORE_SNOOP_FILTER_HH
#define JETTY_CORE_SNOOP_FILTER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "energy/accountant.hh"
#include "energy/technology.hh"
#include "util/types.hh"

namespace jetty::filter
{

/**
 * Address-space facts a filter needs to slice addresses and size its
 * storage. Produced by the simulator from the L2 configuration.
 */
struct AddressMap
{
    /** log2 of the coherence-unit size (32 B -> 5). */
    unsigned unitOffsetBits = 5;

    /** log2 of the L2 block size (64 B -> 6); IJ indexing starts above
     *  this per Section 4.3.3. */
    unsigned blockOffsetBits = 6;

    /** Physical address bits (paper: 36--40). */
    unsigned physAddrBits = 40;

    /** Total coherence units the L2 can hold (pessimistic IJ counter
     *  sizing). */
    std::uint64_t l2CapacityUnits = 32768;
};

/** Storage cost of a filter, for Table 4 style reporting. */
struct StorageBreakdown
{
    std::uint64_t presenceBits = 0;  //!< bits probed on a snoop
    std::uint64_t counterBits = 0;   //!< IJ cnt arrays (not probed by snoops)

    std::uint64_t totalBits() const { return presenceBits + counterBits; }
    double totalBytes() const { return totalBits() / 8.0; }
};

/** Coverage statistics of one filter on one processor. */
struct FilterStats
{
    std::uint64_t probes = 0;          //!< snoops presented to the filter
    std::uint64_t filtered = 0;        //!< snoops eliminated
    std::uint64_t wouldMiss = 0;       //!< snoops that miss in the L2
    std::uint64_t filteredWouldMiss = 0;  //!< filtered AND a true miss
    std::uint64_t snoopAllocs = 0;     //!< onSnoopMiss deliveries
    std::uint64_t fillUpdates = 0;     //!< L2 fill events observed
    std::uint64_t evictUpdates = 0;    //!< L2 evict events observed
    std::uint64_t safetyViolations = 0;  //!< must stay zero

    /** Snoop-miss coverage (Section 4.3's key metric). */
    double
    coverage() const
    {
        return wouldMiss == 0
                   ? 0.0
                   : static_cast<double>(filteredWouldMiss) /
                         static_cast<double>(wouldMiss);
    }

    /** Convert to the accountant's traffic view. */
    energy::FilterTraffic
    traffic() const
    {
        energy::FilterTraffic t;
        t.probes = probes;
        t.filtered = filtered;
        t.snoopAllocs = snoopAllocs;
        t.fillUpdates = fillUpdates;
        t.evictUpdates = evictUpdates;
        return t;
    }

    /** Merge another processor's stats for the same configuration. */
    void merge(const FilterStats &o);
};

/**
 * One deferred filter-bank event (core/filter_bank.hh). The batched
 * simulation hot path queues these in capture order instead of walking
 * every filter on every snoop; FilterBank::flushDeferred later replays
 * the queue to every filter. Snoop events carry their ground truth *as
 * captured at snoop time*, so the deferred safety check judges every
 * verdict against the true cache state.
 */
struct BankEvent
{
    /** What happened, in the order the filter must learn it. */
    enum class Kind : std::uint8_t
    {
        Snoop,  //!< a snoop arrived (probe + possible allocation)
        Fill,   //!< the local L2 gained a valid unit
        Evict,  //!< the local L2 lost a valid unit
    };

    Addr unitAddr = 0;
    Kind kind = Kind::Snoop;
    bool unitInL2 = false;   //!< snoop ground truth: unit valid locally
    bool blockInL2 = false;  //!< snoop ground truth: enclosing tag match
};

/**
 * The single copy of the snoop-arm bookkeeping: which counters @p n
 * snoops bump when the filter did (@p filtered) or did not filter them,
 * given the ground truth @p unitInL2, and when a safety violation is
 * counted. applySnoopVerdict folds one verdict through it; the EJ
 * stack kernel (ExcludeJettyStack) folds its histogram buckets through
 * it with their multiplicities.
 */
inline void
countSnoopVerdicts(FilterStats &st, bool unitInL2, bool filtered,
                   std::uint64_t n)
{
    st.probes += n;
    if (unitInL2) {
        if (filtered) {
            st.filtered += n;
            st.safetyViolations += n;
        }
    } else {
        st.wouldMiss += n;
        if (filtered) {
            st.filtered += n;
            st.filteredWouldMiss += n;
        } else {
            st.snoopAllocs += n;
        }
    }
}

/**
 * One snoop verdict: its counters through countSnoopVerdicts, and the
 * miss hook (exclude-side allocation) for an unfiltered true miss. The
 * generic applyBatch, the segmented walk below (and through it the IJ
 * and hybrid overrides) and the VEJ event-major family kernel all fold
 * each snoop verdict through this one function, so the protocol cannot
 * drift between the scalar, the batch-probed and the event-major paths.
 */
template <typename MissFn>
inline void
applySnoopVerdict(FilterStats &st, const BankEvent &ev, bool filtered,
                  MissFn &&missFn)
{
    countSnoopVerdicts(st, ev.unitInL2, filtered, 1);
    if (!ev.unitInL2 && !filtered)
        missFn(ev.unitAddr, ev.blockInL2);
}

/**
 * The segmented batch-replay walk for filters whose probe is pure (no
 * state change): runs of consecutive Snoop events are pre-probed as one
 * data-parallel batch (the SIMD path in util/simd.hh), then the
 * verdicts are folded through applySnoopVerdict in event order.
 *
 * @p preFn (const Addr*, n, std::uint8_t* out) fills out[k] with the
 * pure part of the verdict for each address of the segment; @p probeFn
 * (Addr, std::uint8_t pre) combines it with any stateful per-event part
 * (the hybrid's exclude probe) and returns the final verdict. Because
 * the pure part reads state that only Fill/Evict events mutate — and
 * those delimit the segments — hoisting it over the segment is
 * result-identical to the one-at-a-time walk for every event order.
 *
 * @p addrScratch / @p preScratch are caller-owned reusable buffers.
 */
template <typename PreFn, typename ProbeFn, typename MissFn,
          typename FillFn, typename EvictFn>
inline void
replayBankEventsSegmented(const BankEvent *evs, std::size_t n,
                          FilterStats &st, std::vector<Addr> &addrScratch,
                          std::vector<std::uint8_t> &preScratch,
                          PreFn &&preFn, ProbeFn &&probeFn, MissFn &&missFn,
                          FillFn &&fillFn, EvictFn &&evictFn)
{
    std::size_t i = 0;
    while (i < n) {
        const BankEvent &ev = evs[i];
        if (ev.kind == BankEvent::Kind::Fill) {
            fillFn(ev.unitAddr);
            ++st.fillUpdates;
            ++i;
            continue;
        }
        if (ev.kind == BankEvent::Kind::Evict) {
            evictFn(ev.unitAddr);
            ++st.evictUpdates;
            ++i;
            continue;
        }
        std::size_t j = i + 1;
        while (j < n && evs[j].kind == BankEvent::Kind::Snoop)
            ++j;
        const std::size_t m = j - i;
        addrScratch.resize(m);
        preScratch.assign(m, 0);
        for (std::size_t k = 0; k < m; ++k)
            addrScratch[k] = evs[i + k].unitAddr;
        preFn(addrScratch.data(), m, preScratch.data());
        for (std::size_t k = 0; k < m; ++k) {
            applySnoopVerdict(
                st, evs[i + k],
                probeFn(evs[i + k].unitAddr, preScratch[k]), missFn);
        }
        i = j;
    }
}

/** Abstract JETTY. */
class SnoopFilter
{
  public:
    virtual ~SnoopFilter() = default;

    /**
     * Probe for a snoop to @p unitAddr (coherence-unit aligned).
     * @return true when the unit is guaranteed absent from the local L2
     *         (the snoop is filtered).
     */
    virtual bool probe(Addr unitAddr) = 0;

    /**
     * The snoop to @p unitAddr was not filtered and the L2 tag probe
     * missed. Exclude components allocate here.
     *
     * @param blockPresent the enclosing block's tag matched (some other
     *        subblock is valid locally), so only the snooped unit is known
     *        absent. When false the whole block is guaranteed absent --
     *        the information an exclude-JETTY records. The tag probe that
     *        discovered the miss supplies this for free.
     */
    virtual void onSnoopMiss(Addr unitAddr, bool blockPresent) = 0;

    /** The local L2 gained a valid unit at @p unitAddr. */
    virtual void onFill(Addr unitAddr) = 0;

    /** The local L2 lost the valid unit at @p unitAddr. */
    virtual void onEvict(Addr unitAddr) = 0;

    /** Reset all filter contents (e.g., between workload phases). */
    virtual void clear() = 0;

    /** Storage cost breakdown. */
    virtual StorageBreakdown storage() const = 0;

    /** Per-event energies under @p tech, from the SramArray model. */
    virtual energy::FilterEnergyCosts
    energyCosts(const energy::Technology &tech) const = 0;

    /** Canonical configuration name, e.g. "EJ-32x4". */
    virtual std::string name() const = 0;

    /**
     * Replay a run of deferred bank events through this filter,
     * accumulating into @p st — the filter-major path behind
     * FilterBank::flushDeferred. The base implementation walks the
     * events through the virtual probe/onSnoopMiss/onFill/onEvict hooks
     * with exactly the bookkeeping of FilterBank::observeSnoop, so every
     * family is batch-correct by construction; IJ and the IJ+EJ hybrid
     * override it with devirtualized inner loops. The bank's deferred
     * flush replays EJs through ExcludeJettyStack (which falls back to
     * this walk one event at a time when it must replay per member) and
     * VEJs through their event-major family kernel. Safety
     * violations are *counted* here (st.safetyViolations); the bank
     * decides whether to panic.
     */
    virtual void applyBatch(const BankEvent *evs, std::size_t n,
                            FilterStats &st);
};

using SnoopFilterPtr = std::unique_ptr<SnoopFilter>;

} // namespace jetty::filter

#endif // JETTY_CORE_SNOOP_FILTER_HH
