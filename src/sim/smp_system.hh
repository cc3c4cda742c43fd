/**
 * @file
 * The bus-based SMP system: N processor nodes (L1 + write-back buffer +
 * subblocked MOESI L2 + JETTY filter bank) on an atomic snoopy bus with a
 * memory behind it. Trace-driven: per-processor reference streams are
 * interleaved round-robin, one reference per turn (a WWT2-style quantum).
 *
 * Filters are passive observers (DESIGN.md): each node carries a
 * FilterBank whose configurations all see every snoop with ground truth,
 * so one run scores every candidate JETTY and the energy accountant
 * evaluates them afterwards.
 */

#ifndef JETTY_SIM_SMP_SYSTEM_HH
#define JETTY_SIM_SMP_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "coherence/bus_txn.hh"
#include "core/filter_bank.hh"
#include "mem/cache_config.hh"
#include "mem/l1_cache.hh"
#include "mem/l2_cache.hh"
#include "mem/writeback_buffer.hh"
#include "sim/interconnect.hh"
#include "sim/observer.hh"
#include "sim/sim_stats.hh"
#include "trace/trace_source.hh"

namespace jetty::sim
{

/** Configuration of the whole SMP. Defaults are the paper's base 4-way
 *  SPARC-like system. */
struct SmpConfig
{
    unsigned nprocs = 4;
    mem::L1Config l1;
    mem::L2Config l2;
    unsigned wbEntries = 8;
    unsigned physAddrBits = 40;

    /** JETTY configurations every node evaluates in parallel. */
    std::vector<std::string> filterSpecs;

    /** Panic when a filter would have broken coherence (keep on). */
    bool checkSafety = true;

    /**
     * References pulled per TraceSource::nextBatch call in the delivery
     * path (1 = scalar per-reference pulls). Purely a transport knob:
     * the round-robin interleaving — one reference per processor per
     * sweep — and therefore every simulated number is bit-identical for
     * every value.
     */
    unsigned batchRefs = 256;

    /**
     * Logical snoop buses of the address-interleaved split interconnect
     * (sim/interconnect.hh). 1 is the classic single shared bus and is
     * bit-identical to the pre-interconnect simulator in every number.
     * Any value leaves the coherence outcome (caches, write-back
     * buffers, architectural statistics) untouched — all transactions
     * for one unit serialize on its home bus — and only changes the
     * per-bus occupancy stats and the latency model's contention input.
     * Filter statistics do not depend on it: the banks replay in
     * capture order at any bus count.
     */
    unsigned snoopBuses = 1;

    /** Derive the filters' address-space facts. */
    filter::AddressMap addressMap() const;
};

/** The simulated machine. */
class SmpSystem
{
  public:
    explicit SmpSystem(const SmpConfig &cfg);

    /** Attach one reference stream per processor (size must match). */
    void attachSources(std::vector<trace::TraceSourcePtr> sources);

    /**
     * One round-robin sweep: each processor with a live stream issues one
     * reference. @return false once every stream is exhausted.
     *
     * References are pulled from the sources in batches of
     * SmpConfig::batchRefs and replayed one per sweep, so a step()-driven
     * simulation is bit-identical to run() and to any batch size.
     */
    bool step();

    /**
     * Run until all streams are exhausted. This is the hot path: batched
     * delivery plus an inlined L1-hit fast path, with the full
     * processorAccess() route for everything else. Produces exactly the
     * per-reference behaviour of repeated step() calls.
     */
    void run();

    /** Drive one reference directly (unit/integration tests). */
    void processorAccess(ProcId p, AccessType type, Addr addr);

    /** Gathered statistics. */
    const SimStats &stats() const { return stats_; }

    /**
     * Wall seconds run() has spent in the deferred filter replay (the
     * chunk-end flushes), summed over every run() call. A timing
     * figure: not part of SimStats, so it never enters stats equality,
     * cache keys or Report bytes.
     */
    double replaySeconds() const { return replaySeconds_; }

    /** A node's filter bank (coverage stats per configuration). */
    const filter::FilterBank &bank(ProcId p) const;

    /** Coverage stats of filter @p filterIdx merged over all nodes. */
    filter::FilterStats mergedFilterStats(std::size_t filterIdx) const;

    /** L2 traffic merged over all nodes (energy denominator). */
    energy::L2Traffic mergedTraffic() const;

    /** Direct cache access for white-box tests. */
    mem::L2Cache &l2(ProcId p) { return *nodes_[p]->l2; }
    mem::L1Cache &l1(ProcId p) { return *nodes_[p]->l1; }
    mem::WritebackBuffer &wb(ProcId p) { return *nodes_[p]->wb; }
    const mem::L2Cache &l2(ProcId p) const { return *nodes_[p]->l2; }
    const mem::L1Cache &l1(ProcId p) const { return *nodes_[p]->l1; }
    const mem::WritebackBuffer &wb(ProcId p) const { return *nodes_[p]->wb; }

    /** The configuration the system was built with. */
    const SmpConfig &config() const { return cfg_; }

    /**
     * Attach (or detach with nullptr) a passive observer of references,
     * snoops, and bus transactions (sim/observer.hh). While an observer
     * is attached run() routes every reference through the fully
     * instrumented per-reference path instead of the inlined L1 fast
     * path — the two paths are bit-identical, so the observed simulation
     * is exactly the unobserved one. With no observer the hot loop pays
     * nothing.
     */
    void setObserver(SimObserver *obs) { observer_ = obs; }

    /** Attach a per-(filter, snoop) observer to every node's bank.
     *  While one is attached run() takes the fully instrumented
     *  per-reference route (like setObserver), so every verdict is
     *  emitted immediately and in stream order. */
    void setFilterProbeObserver(filter::FilterProbeObserver *obs);

    /** The snoop interconnect (bus count and routing). */
    const Interconnect &interconnect() const { return interconnect_; }

  private:
    struct Node
    {
        std::unique_ptr<mem::L1Cache> l1;
        std::unique_ptr<mem::L2Cache> l2;
        std::unique_ptr<mem::WritebackBuffer> wb;
        std::unique_ptr<filter::FilterBank> bank;
        trace::TraceSourcePtr source;
        bool sourceDone = true;

        /** Delivery batch prefetched from the source (cfg.batchRefs). */
        std::vector<trace::TraceRecord> batch;
        std::size_t batchPos = 0;  //!< next undelivered record
        std::size_t batchLen = 0;  //!< valid records in batch
    };

    /** Refill @p node's delivery batch; marks the source done (and
     *  returns false) when the stream is exhausted. */
    bool refillBatch(Node &node);

    /** Chunk-end flush of every node's deferred filter queues, in node
     *  order. Adds its wall time to replaySeconds_. */
    void flushAllBanks();

    /**
     * Routing facts of one prepared miss (Stage 3 of the batched hot
     * loop): the unit's home bus and its write-back Bloom-signature
     * bit, precomputed per miss run (the signature bits through the
     * simd::oneHotHash kernel) instead of per broadcast. Both depend
     * only on the address, so a prepared entry can never go stale.
     */
    struct MissPrep
    {
        unsigned bus = 0;
        std::uint64_t sigBit = 0;
    };

    /** Place a transaction on its home snoop bus: snoop all other
     *  nodes, count remote copies, transition their states. The one
     *  snoop route for run() and step() alike: each remote bank sees
     *  the snoop with its L2 ground truth through observeSnoop, which
     *  queues while the bank is deferred (the batched run() hot loop)
     *  and walks every filter otherwise. @p prep, when given, carries
     *  the precomputed routing facts for @p unitAddr. */
    coherence::BusResponse
    broadcast(ProcId requester, coherence::BusOp op, Addr unitAddr,
              const MissPrep *prep = nullptr);

    /** Handle a local L2 miss for @p addr: WB reclaim or bus fetch plus
     *  L2 (and victim) bookkeeping. Returns the unit's final L2 state. */
    coherence::State
    fetchUnit(ProcId p, Addr unitAddr, bool forWrite,
              const MissPrep *prep = nullptr);

    /** The L1-miss tail of processorAccess(): L2 lookup/upgrade/fetch,
     *  L1 fill, dirty-victim writeback, observer. Entered directly by
     *  the batched hot loop once the pre-classifier reported a miss, so
     *  the L1 is not probed twice; @p unit is the aligned address.
     *  Every bus transaction of one missTail call targets @p unit, so
     *  @p prep (when given) covers the whole tail. */
    void missTail(ProcId p, AccessType type, Addr addr, Addr unit,
                  const MissPrep *prep = nullptr);

    /**
     * Per-live-processor scratch of one hot-loop chunk (reused across
     * chunks, so the arrays stop allocating after warm-up). Rows index
     * the processor's references within the chunk, one per round-robin
     * sweep: unit/write are decoded up front; outcome/waySel hold the
     * Stage-1 classification window [0, clsTo) taken at L1 generation
     * gen; sigBit holds the Stage-3 prepared signature bits [0, prepTo).
     */
    struct Lane
    {
        std::vector<Addr> unit;             //!< [row] unit-aligned address
        std::vector<std::uint8_t> write;    //!< [row] 1 = write
        std::vector<std::uint8_t> outcome;  //!< [row] L1FastOutcome
        std::vector<std::uint8_t> waySel;   //!< [row] classify verdicts
        /** [row] WB signature bits, batch-hashed at classify time for
         *  every window that contains at least one Miss verdict — so a
         *  cached Miss verdict always has its signature bit ready. */
        std::vector<std::uint64_t> sigBit;
        /** The lane's slice of its node's trace batch for this chunk.
         *  The fused walk classifies straight out of it instead of
         *  paying a decode pass into the arrays above. */
        const trace::TraceRecord *rec = nullptr;
        mem::L1Cache *l1 = nullptr;  //!< the lane's L1, devirtualized
        std::size_t clsTo = 0;   //!< rows [0, clsTo) hold verdicts
        std::uint64_t gen = 0;   //!< L1 generation of the verdicts
        /** Adaptive classification window: each extension that the
         *  Stage-1 scan consumes whole doubles it (amortizing the
         *  kernel-call overhead over hit runs), and a generation bump
         *  drops it back to the seed so miss-dense phases never
         *  classify far past the next invalidation. Any policy here is
         *  bit-identical — windows only cache verdicts. */
        std::size_t win = 0;
    };

    /** Stage 1: first row in [from, limit) whose classified verdict is
     *  non-Hit, or @p limit when every row classifies Hit. Extends the
     *  lane's classification window on demand (never past @p rounds)
     *  and re-takes it when the L1 generation moved. */
    std::size_t firstNonHit(Lane &ls, std::size_t from, std::size_t limit,
                            std::size_t rounds);

    /** Stage 3 setup, run per freshly classified window [from, to):
     *  when the window holds any Miss verdict, batch-hash the rows'
     *  write-back signature bits (simd::oneHotHash) and prefetch every
     *  node's L2 set line for each Miss row — the drain's remote snoop
     *  probes are the miss path's coldest loads, and classify time is
     *  far enough ahead of the drain for the prefetches to land.
     *  Address-only facts, so prepared rows can never go stale. */
    void prepareMissRows(Lane &ls, std::size_t from, std::size_t to);

    /** Make room in the WB, then insert a victim. */
    void pushVictim(ProcId p, const mem::L2Victim &victim);

    /** Invalidate the L1 line backing @p unitAddr (inclusion). */
    void enforceInclusion(ProcId p, Addr unitAddr);

    SmpConfig cfg_;
    std::vector<std::unique_ptr<Node>> nodes_;
    Interconnect interconnect_;
    std::vector<mem::L2Victim> victimScratch_;  //!< fetchUnit reuse
    SimStats stats_;
    SimObserver *observer_ = nullptr;
    bool probeObserved_ = false;  //!< any bank has a probe observer
    bool deferActive_ = false;    //!< run() hot loop: banks are queueing

    double replaySeconds_ = 0.0;  //!< see replaySeconds()

    std::vector<Lane> lanes_;  //!< [live index] hot-loop chunk scratch
    /** Chunk-local per-bus occupancy deltas: while the hot loop runs,
     *  broadcast() accumulates here and run() folds into SimStats
     *  bus-major at each chunk boundary — commutative sums, so the
     *  fold is bit-identical to immediate accounting. */
    std::vector<BusStats> chunkBus_;
    std::vector<std::uint64_t> chunkBusProbes_;
};

} // namespace jetty::sim

#endif // JETTY_SIM_SMP_SYSTEM_HH
