#include "core/exclude_jetty.hh"

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
    lastUse_.assign(presTag_.size(), 0);
}

bool
ExcludeJetty::probe(Addr unitAddr)
{
    const std::size_t base = setBase(unitAddr);
    const std::uint64_t key = keyOf(unitAddr);
    const int w = simd::findEqU64(&presTag_[base], cfg_.assoc, key);
    if (w < 0)
        return false;
    lastUse_[base + static_cast<unsigned>(w)] = ++useClock_;
    return true;
}

void
ExcludeJetty::onSnoopMiss(Addr unitAddr, bool blockPresent)
{
    // Only a whole-block miss gives the "nothing of this block is cached"
    // guarantee an entry encodes; a tag-matching subblock miss does not.
    if (blockPresent)
        return;

    const std::size_t base = setBase(unitAddr);
    const std::uint64_t key = keyOf(unitAddr);

    const int hit = simd::findEqU64(&presTag_[base], cfg_.assoc, key);
    if (hit >= 0) {
        lastUse_[base + static_cast<unsigned>(hit)] = ++useClock_;
        return;
    }
    allocate(base, key);
}

void
ExcludeJetty::allocate(std::size_t base, std::uint64_t key)
{
    // Prefer a not-present way, else LRU.
    std::size_t victim = base;
    bool found_free = false;
    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        if (!(presTag_[base + w] & 1)) {
            victim = base + w;
            found_free = true;
            break;
        }
    }
    if (!found_free) {
        for (unsigned w = 1; w < cfg_.assoc; ++w) {
            if (lastUse_[base + w] < lastUse_[victim])
                victim = base + w;
        }
    }
    presTag_[victim] = key;
    lastUse_[victim] = ++useClock_;
}

void
ExcludeJetty::clear()
{
    for (auto &w : presTag_)
        w = 0;
    for (auto &u : lastUse_)
        u = 0;
    useClock_ = 0;
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

} // namespace jetty::filter
