#include "core/exclude_jetty.hh"

#include <algorithm>

#include "energy/sram_array.hh"
#include "util/bits.hh"
#include "util/logging.hh"
#include "util/simd.hh"

namespace jetty::filter
{

ExcludeJetty::ExcludeJetty(const ExcludeJettyConfig &cfg,
                           const AddressMap &amap)
    : cfg_(cfg), amap_(amap)
{
    if (!isPowerOfTwo(cfg.sets) || cfg.assoc == 0)
        fatal("ExcludeJetty: sets must be a power of two, assoc non-zero");
    setBits_ = floorLog2(cfg.sets);
    if (amap.physAddrBits <= amap.blockOffsetBits + setBits_)
        fatal("ExcludeJetty: address space too small");
    tagBits_ = amap.physAddrBits - amap.blockOffsetBits - setBits_;
    setMask_ = cfg.sets - 1;
    tagShift_ = amap.blockOffsetBits + setBits_;
    presTag_.assign(static_cast<std::size_t>(cfg.sets) * cfg.assoc, 0);
}

bool
ExcludeJetty::probe(Addr unitAddr)
{
    std::uint64_t *const s = setOf(unitAddr);
    const std::uint64_t key = keyOf(unitAddr);
    unsigned hole = 0;
    const unsigned pos = simd::findStackU64(s, cfg_.assoc, key, hole);
    if (pos == cfg_.assoc)
        return false;
    toFront(s, cfg_.assoc, key, pos, hole);
    return true;
}

void
ExcludeJetty::onSnoopMiss(Addr unitAddr, bool blockPresent)
{
    // Only a whole-block miss gives the "nothing of this block is cached"
    // guarantee an entry encodes; a tag-matching subblock miss does not.
    if (blockPresent)
        return;
    // A hit (the hybrid's IJ filtered nothing, yet the EJ part matched)
    // refreshes the entry; a miss allocates it.
    std::uint64_t *const s = setOf(unitAddr);
    const std::uint64_t key = keyOf(unitAddr);
    unsigned hole = 0;
    const unsigned pos = simd::findStackU64(s, cfg_.assoc, key, hole);
    toFront(s, cfg_.assoc, key, pos, hole);
}

void
ExcludeJetty::clear()
{
    for (auto &w : presTag_)
        w = 0;
}

StorageBreakdown
ExcludeJetty::storage() const
{
    StorageBreakdown s;
    s.presenceBits = static_cast<std::uint64_t>(cfg_.sets) * cfg_.assoc *
                     (tagBits_ + 1);
    return s;
}

energy::FilterEnergyCosts
ExcludeJetty::energyCosts(const energy::Technology &tech) const
{
    // The EJ is a tiny tag array: one row per set, all ways side by side.
    const std::uint64_t cols =
        static_cast<std::uint64_t>(cfg_.assoc) * (tagBits_ + 1);
    energy::SramArray array(cfg_.sets, cols, 1, tech);
    const double comparators =
        static_cast<double>(cfg_.assoc) * tagBits_ * tech.eComparatorPerBit;

    energy::FilterEnergyCosts costs;
    // The comparators sit beside the array (register-file scale), so no
    // long output wires are driven: bitsOut = 0, comparator term added.
    costs.probe = array.readEnergy(0) + comparators;
    costs.snoopAlloc = array.writeEnergy(tagBits_ + 1);
    // A local fill must search the EJ and clear a matching present bit.
    costs.fillUpdate = costs.probe + array.writeEnergy(1);
    costs.evictUpdate = 0.0;  // EJ ignores evictions
    return costs;
}

std::string
ExcludeJetty::name() const
{
    return "EJ-" + std::to_string(cfg_.sets) + "x" +
           std::to_string(cfg_.assoc);
}

void
ExcludeJettyStack::add(ExcludeJetty *ej, FilterStats *stats)
{
    members_.push_back(ej);
    stats_.push_back(stats);
    const unsigned assoc = ej->cfg_.assoc;
    if (assoc > depth_) {
        deep_ = ej;
        depth_ = assoc;
    }
    shallowest_ = members_.size() == 1 ? assoc
                                       : std::min(shallowest_, assoc);
    hist_.assign(2 * (static_cast<std::size_t>(depth_) + 1), 0);
}

void
ExcludeJettyStack::beginFlush()
{
    // Every member is a prefix of the deep stack after each stacked
    // flush and under any consistent immediate stream; an inconsistent
    // one (possible only through observeSnoop or step()) can break that.
    for (const ExcludeJetty *m : members_) {
        if (m == deep_)
            continue;
        const unsigned a = m->cfg_.assoc;
        for (std::size_t set = 0; set < m->cfg_.sets; ++set) {
            const std::uint64_t *const own = &m->presTag_[set * a];
            if (!std::equal(own, own + a, &deep_->presTag_[set * depth_])) {
                perMember_ = true;
                return;
            }
        }
    }
}

void
ExcludeJettyStack::endFlush()
{
    if (!perMember_)
        foldAndCopy();
    perMember_ = false;
}

void
ExcludeJettyStack::split(const BankEvent &ev)
{
    foldAndCopy();
    perMember_ = true;
    applyPerMember(ev);
}

void
ExcludeJettyStack::applyPerMember(const BankEvent &ev)
{
    for (std::size_t m = 0; m < members_.size(); ++m)
        members_[m]->SnoopFilter::applyBatch(&ev, 1, *stats_[m]);
}

void
ExcludeJettyStack::foldAndCopy()
{
    const std::size_t row = static_cast<std::size_t>(depth_) + 1;
    for (std::size_t m = 0; m < members_.size(); ++m) {
        ExcludeJetty &member = *members_[m];
        FilterStats &st = *stats_[m];
        const unsigned a = member.cfg_.assoc;
        // Member A filtered exactly the snoops found at a position < A.
        for (const bool unitInL2 : {false, true}) {
            const std::uint64_t *const h = &hist_[unitInL2 ? row : 0];
            std::uint64_t hits = 0, misses = 0;
            for (unsigned p = 0; p <= depth_; ++p)
                (p < a ? hits : misses) += h[p];
            countSnoopVerdicts(st, unitInL2, true, hits);
            countSnoopVerdicts(st, unitInL2, false, misses);
        }
        st.fillUpdates += fills_;
        st.evictUpdates += evicts_;
        if (&member == deep_)
            continue;
        const std::size_t sets = member.cfg_.sets;
        for (std::size_t set = 0; set < sets; ++set)
            std::copy_n(&deep_->presTag_[set * depth_], a,
                        &member.presTag_[set * a]);
    }
    std::fill(hist_.begin(), hist_.end(), 0);
    fills_ = 0;
    evicts_ = 0;
}

} // namespace jetty::filter
