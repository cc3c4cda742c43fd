#include "core/vector_exclude_jetty.hh"

#include "energy/sram_array.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace jetty::filter
{

VectorExcludeJetty::VectorExcludeJetty(const VectorExcludeJettyConfig &cfg,
                                       const AddressMap &amap)
    : cfg_(cfg), amap_(amap)
{
    if (!isPowerOfTwo(cfg.sets) || cfg.assoc == 0 ||
        !isPowerOfTwo(cfg.vectorBits) || cfg.vectorBits > 64) {
        fatal("VectorExcludeJetty: bad geometry");
    }
    vecBits_ = floorLog2(cfg.vectorBits);
    setBits_ = floorLog2(cfg.sets);
    const unsigned consumed = amap.blockOffsetBits + vecBits_ + setBits_;
    if (amap.physAddrBits <= consumed)
        fatal("VectorExcludeJetty: address space too small");
    tagBits_ = amap.physAddrBits - consumed;
    vecMask_ = cfg.vectorBits - 1;
    setMask_ = cfg.sets - 1;
    setShift_ = amap.blockOffsetBits + vecBits_;
    tagShift_ = setShift_ + setBits_;
    entries_.assign(static_cast<std::size_t>(cfg.sets) * cfg.assoc, Entry{});
}

bool
VectorExcludeJetty::probe(Addr unitAddr)
{
    Entry *e = find(setOf(unitAddr), tagOf(unitAddr));
    if (!e)
        return false;
    e->lastUse = ++useClock_;
    return (e->vector & bitOf(unitAddr)) != 0;
}

void
VectorExcludeJetty::onSnoopMiss(Addr unitAddr, bool blockPresent)
{
    if (blockPresent)
        return;  // only whole-block absence may be recorded

    Entry *const set = setOf(unitAddr);
    const Addr tag = tagOf(unitAddr);
    const std::uint64_t bit = bitOf(unitAddr);
    if (Entry *e = find(set, tag)) {
        e->vector |= bit;
        e->lastUse = ++useClock_;
        return;
    }
    allocate(set, tag, bit);
}

void
VectorExcludeJetty::allocate(Entry *set, Addr tag, std::uint64_t bit)
{
    // Prefer an invalid way, else LRU.
    Entry *victim = nullptr;
    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        if (!set[w].valid) {
            victim = &set[w];
            break;
        }
    }
    if (!victim) {
        victim = set;
        for (unsigned w = 1; w < cfg_.assoc; ++w) {
            if (set[w].lastUse < victim->lastUse)
                victim = &set[w];
        }
    }
    victim->valid = true;
    victim->tag = tag;
    victim->vector = bit;
    victim->lastUse = ++useClock_;
}

void
VectorExcludeJetty::clear()
{
    for (auto &e : entries_)
        e = Entry{};
    useClock_ = 0;
}

StorageBreakdown
VectorExcludeJetty::storage() const
{
    StorageBreakdown s;
    s.presenceBits = static_cast<std::uint64_t>(cfg_.sets) * cfg_.assoc *
                     (tagBits_ + cfg_.vectorBits);
    return s;
}

energy::FilterEnergyCosts
VectorExcludeJetty::energyCosts(const energy::Technology &tech) const
{
    const std::uint64_t cols =
        static_cast<std::uint64_t>(cfg_.assoc) * (tagBits_ + cfg_.vectorBits);
    energy::SramArray array(cfg_.sets, cols, 1, tech);
    const double comparators =
        static_cast<double>(cfg_.assoc) * tagBits_ * tech.eComparatorPerBit;

    energy::FilterEnergyCosts costs;
    // Comparators and vector-bit muxes are adjacent to the array; no long
    // output wires are driven on a probe.
    costs.probe = array.readEnergy(0) + comparators;
    costs.snoopAlloc = array.writeEnergy(tagBits_ + cfg_.vectorBits);
    costs.fillUpdate = costs.probe + array.writeEnergy(cfg_.vectorBits);
    costs.evictUpdate = 0.0;
    return costs;
}

std::string
VectorExcludeJetty::name() const
{
    return "VEJ-" + std::to_string(cfg_.sets) + "x" +
           std::to_string(cfg_.assoc) + "-" + std::to_string(cfg_.vectorBits);
}

} // namespace jetty::filter
