#include "sim/smp_system.hh"

#include <algorithm>
#include <chrono>

#include "util/bits.hh"
#include "util/logging.hh"
#include "util/simd.hh"

namespace jetty::sim
{

using coherence::BusOp;
using coherence::BusResponse;
using coherence::State;

namespace
{

/** Rows classified per Stage-1 window extension. Large enough to keep
 *  the SIMD classify kernel's lanes full, small enough that a miss
 *  invalidating the window (the L1 generation moved) throws away
 *  little work. Any value is bit-identical. */
constexpr std::size_t kClassifyWindowMin = 8;
constexpr std::size_t kClassifyWindowMax = 128;

/** Consecutive fully-Hit drain sweeps required before Stage 3 hands
 *  control back to the run splitter. One all-Hit sweep right after a
 *  miss is often a lull, not a run — re-entering Stage 1 for it pays
 *  the window bookkeeping only to fall straight back into the drain. */
constexpr std::size_t kDrainExitStreak = 1;

} // namespace

filter::AddressMap
SmpConfig::addressMap() const
{
    filter::AddressMap amap;
    amap.unitOffsetBits = floorLog2(l2.unitBytes());
    amap.blockOffsetBits = floorLog2(l2.blockBytes);
    amap.physAddrBits = physAddrBits;
    amap.l2CapacityUnits = l2.sizeBytes / l2.unitBytes();
    return amap;
}

SmpSystem::SmpSystem(const SmpConfig &cfg)
    : cfg_(cfg),
      interconnect_(cfg.snoopBuses, floorLog2(cfg.l2.blockBytes)),
      stats_(cfg.nprocs, cfg.snoopBuses)
{
    if (cfg.nprocs < 2)
        fatal("SmpSystem: an SMP needs at least two processors");
    if (cfg.l1.blockBytes != cfg.l2.unitBytes())
        fatal("SmpSystem: the L1 line must equal the L2 coherence unit");

    const filter::AddressMap amap = cfg.addressMap();
    for (unsigned p = 0; p < cfg.nprocs; ++p) {
        auto node = std::make_unique<Node>();
        node->l1 = std::make_unique<mem::L1Cache>(cfg.l1);
        node->l2 = std::make_unique<mem::L2Cache>(cfg.l2);
        node->wb = std::make_unique<mem::WritebackBuffer>(cfg.wbEntries);
        node->bank = std::make_unique<filter::FilterBank>(
            cfg.filterSpecs, amap, cfg.checkSafety);
        node->l2->addListener(node->bank.get());
        nodes_.push_back(std::move(node));
    }
}

void
SmpSystem::flushAllBanks()
{
    // Timed per chunk, never per reference: a clock read costs tens of
    // nanoseconds, a chunk is hundreds of references per node.
    const auto t0 = std::chrono::steady_clock::now();
    for (auto &node : nodes_)
        node->bank->flushDeferred();
    replaySeconds_ += std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
}

void
SmpSystem::attachSources(std::vector<trace::TraceSourcePtr> sources)
{
    if (sources.size() != nodes_.size())
        fatal("SmpSystem::attachSources: need one source per processor");
    for (unsigned p = 0; p < nodes_.size(); ++p) {
        nodes_[p]->source = std::move(sources[p]);
        nodes_[p]->sourceDone = nodes_[p]->source == nullptr;
        nodes_[p]->batchPos = 0;
        nodes_[p]->batchLen = 0;
    }
}

bool
SmpSystem::refillBatch(Node &node)
{
    const std::size_t want = cfg_.batchRefs >= 1 ? cfg_.batchRefs : 1;
    if (node.batch.size() != want)
        node.batch.resize(want);
    node.batchLen = node.source->nextBatch(node.batch.data(), want);
    node.batchPos = 0;
    if (node.batchLen == 0) {
        node.sourceDone = true;
        return false;
    }
    return true;
}

bool
SmpSystem::step()
{
    bool any = false;
    for (unsigned p = 0; p < nodes_.size(); ++p) {
        Node &node = *nodes_[p];
        if (node.sourceDone)
            continue;
        if (node.batchPos == node.batchLen && !refillBatch(node))
            continue;
        const trace::TraceRecord rec = node.batch[node.batchPos++];
        any = true;
        processorAccess(p, rec.type, rec.addr);
    }
    return any;
}

void
SmpSystem::run()
{
    // With an observer attached, take the step() route: it funnels every
    // reference through processorAccess(), which is where the hooks
    // fire, and it is bit-identical to the batched loop below (asserted
    // in test_sim). The hooks-unset hot path is untouched.
    if (observer_ || probeObserved_) {
        while (step()) {
        }
        return;
    }

    // The batched hot loop: a three-stage pipeline over chunks of the
    // round-robin schedule (DESIGN.md, "Batched miss pipeline"). The
    // interleaving is exactly step()'s — one reference per live
    // processor per sweep — but the chunk is walked as runs instead of
    // references:
    //
    //  Stage 1 classifies windows of upcoming references per processor
    //  through the vectorized L1 pre-classifier (classifyBatch — pure
    //  reads, verdicts pinned to the L1's generation counter);
    //  Stage 2 retires the maximal all-Hit schedule prefix in bulk
    //  (hits touch only their own L1's LRU/dirty state, never another
    //  processor and never a verdict, so per-lane retirement order is
    //  bit-identical to the interleaved order);
    //  Stage 3 drains the non-Hit run one schedule slot at a time —
    //  misses interact across processors (fill states, evictions, WB
    //  FIFOs), so their coherence work cannot be reordered — but with
    //  the per-run setup batched: signature bits via simd::oneHotHash,
    //  home-bus routing, and L2 set prefetches are prepared for whole
    //  runs, and the per-bus occupancy counters accumulate in
    //  chunk-local deltas folded bus-major at the chunk boundary.
    //
    // The filter banks run deferred throughout: every snoop observation
    // and L2 fill/evict notification is queued in capture order and
    // replayed through the per-filter batched probe path at chunk
    // boundaries (FilterBank::flushDeferred). The replay applies each
    // bank's events in exactly the order immediate observation would,
    // so run(), step()-driven loops, and every batchRefs and
    // snoopBuses value produce bit-identical statistics, filter
    // numbers included.
    const unsigned nprocs = static_cast<unsigned>(nodes_.size());
    const Addr unit_mask = ~(static_cast<Addr>(cfg_.l2.unitBytes()) - 1);

    // Walk mode. With a direct-mapped L1 a probe is one scalar load, and
    // the fused drain — classify-and-retire in a single pass per row —
    // out-runs the three-stage pipeline's separate classify/scan/retire
    // array passes: forcing the pipeline walk on perfbench lu-cold
    // raised run_s from 0.93-1.13 to 1.49-1.54 s (3/3 alternating
    // pairs, 4-core AVX2 host). An associative L1 flips the trade:
    // there the SIMD pre-classifier replaces a whole multi-way tag scan
    // per reference, and the run splitter pays for itself — forcing the
    // fused walk on fm-replay-l1x4 raised run_s from 0.169-0.226 to
    // 0.222-0.267 s (36-48 -> 30-36 Mrefs/s, 6/6 pairs). Both walks
    // retire the same schedule in the same order, so the choice is
    // invisible in the statistics (asserted by test_differential across
    // geometries).
    const bool fused_walk = cfg_.l1.assoc == 1;

    for (auto &node : nodes_)
        node->bank->beginDeferred();
    deferActive_ = true;
    chunkBus_.assign(interconnect_.buses(), BusStats{});
    chunkBusProbes_.assign(interconnect_.buses(), 0);

    // Live processors in ascending id order (the round-robin order),
    // with their nodes resolved once per chunk so the per-reference
    // loop does no unique_ptr chasing.
    std::vector<ProcId> live;
    std::vector<Node *> liveNodes;
    live.reserve(nprocs);
    liveNodes.reserve(nprocs);
    if (lanes_.size() < nprocs)
        lanes_.resize(nprocs);

    for (;;) {
        // Top up every live batch and size the next chunk of sweeps: all
        // live processors can serve at least `rounds` full sweeps without
        // another exhaustion or refill check. A processor leaves the live
        // set only at a batch boundary, which is exactly when step()
        // semantics would discover its exhaustion — the (proc, record)
        // issue order is untouched.
        live.clear();
        liveNodes.clear();
        std::size_t rounds = ~std::size_t{0};
        for (unsigned p = 0; p < nprocs; ++p) {
            Node &node = *nodes_[p];
            if (node.sourceDone)
                continue;
            if (node.batchPos == node.batchLen && !refillBatch(node))
                continue;
            live.push_back(p);
            liveNodes.push_back(&node);
            rounds = std::min(rounds, node.batchLen - node.batchPos);
        }
        if (live.empty())
            break;
        const std::size_t nlive = live.size();

        // Pin each lane to its slice of the trace batch, then (for the
        // associative walk only) decode the chunk once: unit-aligned
        // addresses and write flags per lane row, in the layout the
        // SIMD kernels consume. The fused walk skips the decode pass —
        // its drain reads the records directly.
        for (std::size_t li = 0; li < nlive; ++li) {
            Lane &ls = lanes_[li];
            Node &node = *liveNodes[li];
            ls.rec = node.batch.data() + node.batchPos;
            ls.l1 = node.l1.get();
            ls.clsTo = 0;
            ls.win = kClassifyWindowMin;
            ls.gen = node.l1->generation();
            node.batchPos += rounds;
            if (fused_walk)
                continue;
            if (ls.unit.size() < rounds) {
                ls.unit.resize(rounds);
                ls.write.resize(rounds);
                ls.outcome.resize(rounds);
                ls.waySel.resize(rounds);
                ls.sigBit.resize(rounds);
            }
            for (std::size_t row = 0; row < rounds; ++row) {
                ls.unit[row] = ls.rec[row].addr & unit_mask;
                ls.write[row] = static_cast<std::uint8_t>(
                    ls.rec[row].type == AccessType::Write);
            }
        }

        std::size_t r = 0;
        while (r < rounds) {
            // ---- Stages 1+2 (associative walk only): split off the
            // maximal prefix of rounds in which every lane's verdict is
            // Hit, and retire it in bulk. No verdict goes stale inside
            // the prefix: Stage 1 only reads, and hit retirement never
            // moves a generation.
            if (!fused_walk) {
                std::size_t h = rounds - r;
                for (std::size_t li = 0; li < nlive && h > 0; ++li)
                    h = firstNonHit(lanes_[li], r, r + h, rounds) - r;
                if (h > 0) {
                    for (std::size_t li = 0; li < nlive; ++li) {
                        Lane &ls = lanes_[li];
                        std::uint64_t wr = 0;
                        for (std::size_t row = r; row < r + h; ++row) {
                            ls.l1->retireHitAt(ls.unit[row],
                                               ls.waySel[row],
                                               ls.write[row] != 0);
                            wr += ls.write[row];
                        }
                        ProcStats &ps = stats_.procs[live[li]];
                        ps.accesses += h;
                        ps.writes += wr;
                        ps.reads += h - wr;
                        ps.l1Hits += h;
                    }
                    r += h;
                    if (r >= rounds)
                        break;
                }
            }

            // ---- Stage 3: drain the non-Hit run in exact schedule
            // order until a fully-Hit sweep hands control back to the
            // run splitter (the fused walk never hands back — it drains
            // whole chunks). Cached verdicts are honoured while their
            // generation holds; stale slots fall back to the scalar
            // classify (which retires hits itself, exactly like the
            // sequential path).
            std::size_t hitStreak = 0;
            while (r < rounds &&
                   (fused_walk || hitStreak < kDrainExitStreak)) {
                bool all_hit = true;
                for (std::size_t li = 0; li < nlive; ++li) {
                    Lane &ls = lanes_[li];
                    const ProcId p = live[li];
                    Addr unit;
                    bool write;
                    if (fused_walk) {
                        const trace::TraceRecord &rc = ls.rec[r];
                        unit = rc.addr & unit_mask;
                        write = rc.type == AccessType::Write;
                    } else {
                        unit = ls.unit[r];
                        write = ls.write[r] != 0;
                    }

                    // Re-checked every slot: an earlier lane's miss this
                    // very round may have invalidated one of our lines.
                    // (Always false in the fused walk — nothing is ever
                    // classified ahead there.)
                    const bool cached =
                        r < ls.clsTo && ls.gen == ls.l1->generation();
                    mem::L1FastOutcome out;
                    if (cached) {
                        out = static_cast<mem::L1FastOutcome>(
                            ls.outcome[r]);
                        if (out == mem::L1FastOutcome::Hit)
                            ls.l1->retireHitAt(unit, ls.waySel[r], write);
                    } else {
                        out = ls.l1->accessClassify(unit, write);
                    }

                    if (out == mem::L1FastOutcome::Hit) {
                        ProcStats &ps = stats_.procs[p];
                        ++ps.accesses;
                        if (write)
                            ++ps.writes;
                        else
                            ++ps.reads;
                        ++ps.l1Hits;
                        continue;
                    }
                    all_hit = false;
                    if (out == mem::L1FastOutcome::Miss) {
                        ProcStats &ps = stats_.procs[p];
                        ++ps.accesses;
                        if (write)
                            ++ps.writes;
                        else
                            ++ps.reads;
                        ++ps.l1Misses;
                        // A cached Miss verdict carries its prepared
                        // signature bit; a scalar reclassify hashes it
                        // here (no prefetch — the stale path is rare).
                        const MissPrep prep{
                            interconnect_.busOf(unit),
                            cached ? ls.sigBit[r]
                                   : mem::WritebackBuffer::signatureBitOf(
                                         unit)};
                        missTail(p,
                                 write ? AccessType::Write
                                       : AccessType::Read,
                                 unit, unit, &prep);
                        continue;
                    }
                    // Blocked: a write hit lacking permission — the
                    // rare upgrade path; take the fully general route.
                    processorAccess(p,
                                    write ? AccessType::Write
                                          : AccessType::Read,
                                    unit);
                }
                hitStreak = all_hit ? hitStreak + 1 : 0;
                ++r;
            }
        }

        // Chunk boundary: replay every node's queued filter events
        // through the batched probe path before the queues grow past
        // the cache-friendly chunk size, then fold the chunk's per-bus
        // occupancy deltas in ascending bus order.
        flushAllBanks();
        // Accumulate first, clear in a separate pass: mixing the adds
        // and the resets in one loop trips a GCC 12 -O3
        // loop-distribution misordering (the generated memset lands
        // before the accumulation reads it feeds).
        for (unsigned b = 0; b < interconnect_.buses(); ++b) {
            BusStats &dst = stats_.perBus[b];
            const BusStats &src = chunkBus_[b];
            dst.transactions += src.transactions;
            dst.reads += src.reads;
            dst.readXs += src.readXs;
            dst.upgrades += src.upgrades;
            stats_.busSnoopTagProbes[b] += chunkBusProbes_[b];
        }
        std::fill(chunkBus_.begin(), chunkBus_.end(), BusStats{});
        std::fill(chunkBusProbes_.begin(), chunkBusProbes_.end(),
                  std::uint64_t{0});
    }

    deferActive_ = false;
    flushAllBanks();
    for (auto &node : nodes_)
        node->bank->endDeferred();
}

std::size_t
SmpSystem::firstNonHit(Lane &ls, std::size_t from, std::size_t limit,
                       std::size_t rounds)
{
    constexpr auto kHit = static_cast<std::uint8_t>(mem::L1FastOutcome::Hit);
    const std::uint64_t gen = ls.l1->generation();
    if (ls.gen != gen) {
        // The window is stale: a fill/invalidate/permission change
        // moved the generation. Re-take it from the cursor and re-seed
        // the adaptive window — the run pattern restarts after an
        // invalidation.
        ls.clsTo = from;
        ls.gen = gen;
        ls.win = kClassifyWindowMin;
    } else if (ls.clsTo < from) {
        // Valid but consumed past: the drain advanced beyond the
        // window without touching this lane's L1. Keep the grown
        // window size — the verdicts were good, only the cursor moved.
        ls.clsTo = from;
    }
    std::size_t f = from;
    for (;;) {
        if (f >= limit)
            return limit;
        if (f == ls.clsTo) {
            const std::size_t to =
                std::min(ls.clsTo + ls.win, rounds);
            ls.win = std::min(ls.win * 2, kClassifyWindowMax);
            ls.l1->classifyBatch(ls.unit.data() + ls.clsTo,
                                 ls.write.data() + ls.clsTo, to - ls.clsTo,
                                 ls.outcome.data() + ls.clsTo,
                                 ls.waySel.data() + ls.clsTo);
            prepareMissRows(ls, ls.clsTo, to);
            ls.clsTo = to;
        }
        const std::size_t end = std::min(ls.clsTo, limit);
        while (f < end && ls.outcome[f] == kHit)
            ++f;
        if (f < end)
            return f;
    }
}

void
SmpSystem::prepareMissRows(Lane &ls, std::size_t from, std::size_t to)
{
    // Hit-only windows (the common case everywhere but the miss-heavy
    // apps) pay one byte scan and nothing else.
    constexpr auto kMiss =
        static_cast<std::uint8_t>(mem::L1FastOutcome::Miss);
    bool any_miss = false;
    for (std::size_t k = from; k < to && !any_miss; ++k)
        any_miss = ls.outcome[k] == kMiss;
    if (!any_miss)
        return;
    simd::oneHotHash(ls.unit.data() + from, to - from,
                     mem::WritebackBuffer::kSigPreShift,
                     mem::WritebackBuffer::kSigMul,
                     mem::WritebackBuffer::kSigPostShift,
                     ls.sigBit.data() + from);
    // Every node's L2 set line for each upcoming miss: the drain's
    // remote snoop probes (3 cold tag reads per miss) plus the
    // requester's own probe/fill are the miss path's dominant stalls.
    for (std::size_t k = from; k < to; ++k) {
        if (ls.outcome[k] != kMiss)
            continue;
        const Addr unit = ls.unit[k];
        for (const auto &node : nodes_)
            node->l2->prefetchSet(unit);
    }
}

const filter::FilterBank &
SmpSystem::bank(ProcId p) const
{
    return *nodes_.at(p)->bank;
}

void
SmpSystem::setFilterProbeObserver(filter::FilterProbeObserver *obs)
{
    probeObserved_ = obs != nullptr;
    for (unsigned p = 0; p < nodes_.size(); ++p)
        nodes_[p]->bank->setProbeObserver(obs, p);
}

filter::FilterStats
SmpSystem::mergedFilterStats(std::size_t filterIdx) const
{
    filter::FilterStats merged;
    for (const auto &node : nodes_)
        merged.merge(node->bank->statsAt(filterIdx));
    return merged;
}

energy::L2Traffic
SmpSystem::mergedTraffic() const
{
    energy::L2Traffic t;
    for (const auto &p : stats_.procs)
        t.merge(p.traffic);
    return t;
}

void
SmpSystem::enforceInclusion(ProcId p, Addr unitAddr)
{
    Node &node = *nodes_[p];
    // An L1 line equals one coherence unit, so a single invalidate covers
    // it. Dirty L1 data conceptually merges into the departing unit; the
    // victim is already dirty (M/O) whenever the L1 line could be dirty.
    if (node.l1->invalidate(unitAddr))
        ++stats_.procs[p].l1SnoopInvalidations;
}

BusResponse
SmpSystem::broadcast(ProcId requester, BusOp op, Addr unitAddr,
                     const MissPrep *prep)
{
    BusResponse resp;
    ++stats_.snoopTransactions;

    // Route to the unit's home bus and count its occupancy. While the
    // hot loop runs the counts land in the chunk-local deltas and fold
    // into SimStats bus-major at the chunk boundary.
    const unsigned bus = prep ? prep->bus : interconnect_.busOf(unitAddr);
    {
        BusStats &bs =
            deferActive_ ? chunkBus_[bus] : stats_.perBus[bus];
        std::uint64_t &probes = deferActive_ ? chunkBusProbes_[bus]
                                             : stats_.busSnoopTagProbes[bus];
        ++bs.transactions;
        switch (op) {
          case BusOp::BusRead:
            ++bs.reads;
            break;
          case BusOp::BusReadX:
            ++bs.readXs;
            break;
          case BusOp::BusUpgrade:
            ++bs.upgrades;
            break;
          case BusOp::BusWriteback:
            break;
        }
        probes += nodes_.size() - 1;
    }

    // One route for run() and step(): the write-back scan is gated by
    // the exact-safe presence signature (the address hashes to its
    // signature bit once, tested against every remote buffer), and the
    // L2 snoop reuses the ground-truth probe's way lookup.
    const std::uint64_t sig_bit =
        prep ? prep->sigBit : mem::WritebackBuffer::signatureBitOf(unitAddr);
    const bool takes_ownership =
        op == BusOp::BusReadX || op == BusOp::BusUpgrade;
    SimObserver *const obs = observer_;
    for (unsigned q = 0; q < nodes_.size(); ++q) {
        if (q == requester)
            continue;
        Node &node = *nodes_[q];
        ProcStats &qs = stats_.procs[q];

        bool copy_here = false;

        // 1. The write-back buffer is always snooped (never filtered).
        //    One scan settles the hit, the ownership transfer on
        //    BusReadX/BusUpgrade (the pending memory update is
        //    obsolete), and the M->O demotion on a supplying BusRead —
        //    without the demotion the owner's later reclaim would
        //    resurrect an M (write-without-bus) copy while the reader
        //    still holds Shared, the silent-stale-read coherence break
        //    the differential checkers caught.
        const bool wb_hit = node.wb->maybeContainsSig(sig_bit) &&
                            node.wb->snoop(unitAddr, takes_ownership);
        if (wb_hit) {
            copy_here = true;
            ++qs.wbSnoopsHit;
            resp.suppliedByCache = true;
        }

        // 2. The JETTY bank observes the snoop with L2 ground truth
        //    *before* any state transition — queued for the chunk-end
        //    replay while the bank is deferred, walked now otherwise.
        //    One probe serves both the bank's ground truth and the
        //    pre-transition state below; nothing mutates the L2 in
        //    between.
        mem::L2LookupResult probe_res;
        const int way = node.l2->probeWay(unitAddr, probe_res);
        node.bank->observeSnoop(unitAddr, probe_res.unitValid,
                                probe_res.tagMatch);

        // 3. The L2 tag array is probed (a JETTY saves this energy for
        //    filtered snoops; the accountant subtracts it per filter).
        ++qs.snoopTagProbes;
        ++qs.traffic.snoopTagProbes;

        const State before = probe_res.state;
        const auto outcome = node.l2->snoopAtWay(way, unitAddr, op);
        if (outcome.hadCopy) {
            copy_here = true;
            ++qs.snoopHits;
            if (outcome.supplied) {
                ++qs.snoopSupplies;
                resp.suppliedByCache = true;
                ++qs.traffic.snoopDataReads;
            }
            if (outcome.next != before)
                ++qs.traffic.snoopTagUpdates;
            // Inclusion: purge the L1 copy whenever the unit leaves or
            // loses exclusivity (the only cases where the L1 could hold
            // stale permissions or newer data).
            if (!coherence::isValid(outcome.next) ||
                coherence::isWritable(before)) {
                enforceInclusion(q, unitAddr);
            }
        } else {
            ++qs.snoopMisses;
        }

        if (copy_here)
            ++resp.remoteCopies;

        if (obs) {
            // Emitted after the transition and inclusion enforcement, so
            // a checker sees the settled post-snoop node state.
            SnoopEvent ev;
            ev.requester = requester;
            ev.target = q;
            ev.op = op;
            ev.unitAddr = unitAddr;
            ev.before = before;
            ev.after = outcome.next;
            ev.wbHit = wb_hit;
            ev.supplied = outcome.supplied;
            ev.busId = bus;
            obs->onSnoop(ev);
        }
    }

    stats_.remoteHits.sample(resp.remoteCopies);
    if (obs)
        obs->onBusTransaction(requester, op, unitAddr, resp.remoteCopies,
                              bus);
    return resp;
}

void
SmpSystem::pushVictim(ProcId p, const mem::L2Victim &victim)
{
    Node &node = *nodes_[p];
    ProcStats &ps = stats_.procs[p];

    if (!coherence::isDirty(victim.state))
        return;  // clean units vanish silently (memory is current)

    if (!node.wb->hasRoom()) {
        // Forced drain: the oldest victim goes to memory over the bus.
        node.wb->pop();
        ++ps.wbDrains;
        ++ps.busWritebacks;
    }
    node.wb->push({victim.unitAddr, victim.state});
    ++ps.wbInsertions;
}

coherence::State
SmpSystem::fetchUnit(ProcId p, Addr unitAddr, bool forWrite,
                     const MissPrep *prep)
{
    Node &node = *nodes_[p];
    ProcStats &ps = stats_.procs[p];

    // Reclaim from the local write-back buffer when possible: the victim
    // never left the chip, so no bus transaction is needed for data.
    bool in_wb = false;
    mem::WbEntry wb_entry = node.wb->take(unitAddr, in_wb);
    State fill_state;

    if (in_wb) {
        ++ps.wbReclaims;
        fill_state = wb_entry.state;
        if (forWrite && !coherence::isWritable(fill_state)) {
            // An Owned victim may still be shared elsewhere: upgrade.
            broadcast(p, BusOp::BusUpgrade, unitAddr, prep);
            ++ps.busUpgrades;
            fill_state = State::Modified;
        }
    } else {
        const BusOp op = forWrite ? BusOp::BusReadX : BusOp::BusRead;
        const BusResponse resp = broadcast(p, op, unitAddr, prep);
        if (op == BusOp::BusRead)
            ++ps.busReads;
        else
            ++ps.busReadXs;
        fill_state = coherence::fillState(op, resp.remoteCopies > 0);
    }

    // Install the unit; handle the displaced block, if any.
    std::vector<mem::L2Victim> &victims = victimScratch_;
    victims.clear();
    node.l2->fill(unitAddr, fill_state, victims);
    ++ps.l2Fills;
    ++ps.traffic.localTagUpdates;  // tag/state install
    ++ps.traffic.localDataWrites;  // unit data written into the array
    for (const auto &v : victims) {
        ++ps.l2Evictions;
        enforceInclusion(p, v.unitAddr);
        pushVictim(p, v);
    }
    return fill_state;
}

void
SmpSystem::processorAccess(ProcId p, AccessType type, Addr addr)
{
    Node &node = *nodes_[p];
    ProcStats &ps = stats_.procs[p];

    ++ps.accesses;
    if (type == AccessType::Read)
        ++ps.reads;
    else
        ++ps.writes;

    const Addr unit = node.l2->unitAlign(addr);

    // ---- L1 ----
    const auto l1_res = node.l1->probe(unit);
    if (l1_res.hit && (type == AccessType::Read || l1_res.writable)) {
        ++ps.l1Hits;
        node.l1->touch(unit);
        if (type == AccessType::Write)
            node.l1->markDirty(unit);
        if (observer_)
            observer_->onReference(p, type, addr);
        return;
    }

    if (l1_res.hit) {
        // Write hit on a non-writable line: obtain write permission.
        ++ps.l1Hits;
        node.l1->touch(unit);

        ++ps.l2LocalAccesses;
        ++ps.traffic.localTagProbes;
        mem::L2LookupResult l2_res;
        const int way = node.l2->probeWay(unit, l2_res);
        if (!l2_res.unitValid)
            panic("inclusion violated: L1 line without L2 unit");
        ++ps.l2LocalHits;
        node.l2->touchAt(way, unit);

        if (coherence::isWritable(l2_res.state)) {
            if (l2_res.state == State::Exclusive) {
                node.l2->setStateAt(way, unit, State::Modified);
                ++ps.upgradesSilent;
                ++ps.traffic.localTagUpdates;
            }
        } else {
            // Shared or Owned: invalidate the other copies. (The bus
            // only snoops remote nodes, so the located way survives.)
            broadcast(p, BusOp::BusUpgrade, unit);
            ++ps.busUpgrades;
            node.l2->setStateAt(way, unit, State::Modified);
            ++ps.traffic.localTagUpdates;
        }
        node.l1->setWritable(unit, true);
        node.l1->markDirty(unit);
        if (observer_)
            observer_->onReference(p, type, addr);
        return;
    }

    // ---- L1 miss: go to the L2. ----
    ++ps.l1Misses;
    missTail(p, type, addr, unit);
}

void
SmpSystem::missTail(ProcId p, AccessType type, Addr addr, Addr unit,
                    const MissPrep *prep)
{
    Node &node = *nodes_[p];
    ProcStats &ps = stats_.procs[p];

    ++ps.l2LocalAccesses;
    ++ps.traffic.localTagProbes;

    mem::L2LookupResult l2_res;
    const int way = node.l2->probeWay(unit, l2_res);
    State unit_state = l2_res.state;
    bool l2_hit = l2_res.unitValid;

    if (l2_hit && type == AccessType::Write &&
        !coherence::isWritable(unit_state)) {
        // Write to a Shared/Owned unit: upgrade first.
        broadcast(p, BusOp::BusUpgrade, unit, prep);
        ++ps.busUpgrades;
        node.l2->setStateAt(way, unit, State::Modified);
        ++ps.traffic.localTagUpdates;
        unit_state = State::Modified;
    }

    if (l2_hit) {
        ++ps.l2LocalHits;
        node.l2->touchAt(way, unit);
        if (type == AccessType::Write && unit_state == State::Exclusive) {
            node.l2->setStateAt(way, unit, State::Modified);
            ++ps.upgradesSilent;
            ++ps.traffic.localTagUpdates;
            unit_state = State::Modified;
        }
        ++ps.traffic.localDataReads;  // unit handed to the L1
    } else {
        unit_state = fetchUnit(p, unit, type == AccessType::Write, prep);
    }

    // ---- Fill the L1 (write-allocate). ----
    mem::L1Victim victim;
    node.l1->fill(unit, coherence::isWritable(unit_state), victim);
    if (type == AccessType::Write)
        node.l1->markDirty(unit);

    if (victim.valid && victim.dirty) {
        // Dirty L1 victim: write its data back into the L2 unit. By the
        // inclusion invariant that unit is present and writable (M or E;
        // E becomes M now that dirty data lands in it).
        ++ps.l1Writebacks;
        ++ps.l2LocalAccesses;
        ++ps.traffic.localTagProbes;
        mem::L2LookupResult wb_res;
        const int wb_way = node.l2->probeWay(victim.lineAddr, wb_res);
        if (!wb_res.unitValid)
            panic("inclusion violated: dirty L1 victim without L2 unit");
        ++ps.l2LocalHits;
        if (wb_res.state == State::Exclusive) {
            node.l2->setStateAt(wb_way, victim.lineAddr, State::Modified);
            ++ps.traffic.localTagUpdates;
        } else if (!coherence::isDirty(wb_res.state)) {
            panic("dirty L1 victim over a non-writable L2 unit");
        }
        ++ps.traffic.localDataWrites;
    }

    if (observer_)
        observer_->onReference(p, type, addr);
}

} // namespace jetty::sim
