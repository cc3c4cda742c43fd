/**
 * @file
 * Exclude-JETTY (Section 3.1): a small set-associative array of
 * (TAG, present-bit) pairs recording recently snooped L2 *blocks* that
 * were entirely absent from the local L2 and have not been fetched since.
 * A tag match with the present bit set guarantees the snooped unit's whole
 * block is absent, filtering the snoop.
 *
 * Granularity matters: entries cover one L2 block (64 B in the base
 * system), not one coherence unit. This is what lets subblocking feed the
 * EJ -- a miss on one subblock allocates an entry that then filters the
 * (extremely likely) follow-up snoop to the sibling subblock, the effect
 * the paper identifies as the primary source of snoop locality. For
 * safety an entry is only allocated when the snooping tag probe saw no
 * matching tag at all (whole block absent), and it is cleared the moment
 * a local miss fills any unit of the block.
 */

#ifndef JETTY_CORE_EXCLUDE_JETTY_HH
#define JETTY_CORE_EXCLUDE_JETTY_HH

#include <cstdint>

#include "core/snoop_filter.hh"
#include "util/arena.hh"
#include "util/simd.hh"

namespace jetty::filter
{

/** Configuration of an EJ-SxA organization. */
struct ExcludeJettyConfig
{
    unsigned sets = 32;   //!< power of two
    unsigned assoc = 4;   //!< ways per set
};

/** The exclude-JETTY proper. */
class ExcludeJetty : public SnoopFilter
{
  public:
    ExcludeJetty(const ExcludeJettyConfig &cfg, const AddressMap &amap);

    bool probe(Addr unitAddr) override;
    void onSnoopMiss(Addr unitAddr, bool blockPresent) override;
    void onFill(Addr unitAddr) override;
    void onEvict(Addr) override {}
    void clear() override;

    /**
     * The EJ family's event-major replay kernels (FilterBank's deferred
     * flush): apply one queued event to each of the @p k EJs of a bank,
     * accumulating into the matching @p stats slot. The bank branches
     * on the event kind once and calls these directly, so a bank of
     * several EJs pays one kind branch per event, not one per (event,
     * filter). The snoop kernel folds probe and allocation: a miss
     * that allocates reuses the probe's set scan (the key is known
     * absent) instead of rescanning the set as onSnoopMiss must.
     */
    static inline void snoopFamily(const BankEvent &ev,
                                   ExcludeJetty *const *ejs,
                                   FilterStats *const *stats,
                                   std::size_t k);
    static inline void fillFamily(Addr unitAddr, ExcludeJetty *const *ejs,
                                  FilterStats *const *stats, std::size_t k);

    StorageBreakdown storage() const override;
    energy::FilterEnergyCosts
    energyCosts(const energy::Technology &tech) const override;
    std::string name() const override;

    /** Bits of tag stored per entry (block address above the set index). */
    unsigned storedTagBits() const { return tagBits_; }

  private:
    /** First way of @p unitAddr's set in the flat entry arrays. */
    std::size_t
    setBase(Addr unitAddr) const
    {
        return static_cast<std::size_t>(
                   (unitAddr >> amap_.blockOffsetBits) & setMask_) *
               cfg_.assoc;
    }

    /** The probe key: the block's tag with the present bit set. */
    std::uint64_t
    keyOf(Addr unitAddr) const
    {
        return ((unitAddr >> tagShift_) << 1) | 1;
    }

    /** Install @p key (known absent from the set at @p base). */
    void allocate(std::size_t base, std::uint64_t key);

    ExcludeJettyConfig cfg_;
    AddressMap amap_;
    unsigned setBits_;
    unsigned tagBits_;
    std::uint64_t setMask_;  //!< sets - 1
    unsigned tagShift_;      //!< blockOffsetBits + setBits_
    /**
     * Packed entry words, flat [set * assoc + way]: (tag << 1) | present,
     * cache-line aligned. A probe is one equality scan of a set's ways
     * for (tag << 1) | 1 (a cleared present bit can never match — the
     * key's low bit is set), which the SIMD kernel compares a whole
     * vector of ways at a time. LRU clocks live in a parallel array so
     * the scan stays dense.
     */
    util::AlignedVec<std::uint64_t> presTag_;
    util::AlignedVec<std::uint64_t> lastUse_;
    std::uint64_t useClock_ = 0;
};

inline void
ExcludeJetty::onFill(Addr unitAddr)
{
    const std::size_t base = setBase(unitAddr);
    const int w = simd::findEqU64(&presTag_[base], cfg_.assoc,
                                  keyOf(unitAddr));
    // Part of the block is now cached: the guarantee is void. The tag
    // stays (exactly the old Entry's cleared present bit).
    if (w >= 0)
        presTag_[base + static_cast<unsigned>(w)] &= ~std::uint64_t{1};
}

inline void
ExcludeJetty::snoopFamily(const BankEvent &ev, ExcludeJetty *const *ejs,
                          FilterStats *const *stats, std::size_t k)
{
    for (std::size_t m = 0; m < k; ++m) {
        ExcludeJetty &f = *ejs[m];
        const std::size_t base = f.setBase(ev.unitAddr);
        const std::uint64_t key = f.keyOf(ev.unitAddr);
        const int w = simd::findEqU64(&f.presTag_[base], f.cfg_.assoc, key);
        if (w >= 0)
            f.lastUse_[base + static_cast<unsigned>(w)] = ++f.useClock_;
        applySnoopVerdict(*stats[m], ev, w >= 0,
                          [&f, base, key](Addr, bool blockPresent) {
                              if (!blockPresent)
                                  f.allocate(base, key);
                          });
    }
}

inline void
ExcludeJetty::fillFamily(Addr unitAddr, ExcludeJetty *const *ejs,
                         FilterStats *const *stats, std::size_t k)
{
    for (std::size_t m = 0; m < k; ++m) {
        ejs[m]->ExcludeJetty::onFill(unitAddr);
        ++stats[m]->fillUpdates;
    }
}

} // namespace jetty::filter

#endif // JETTY_CORE_EXCLUDE_JETTY_HH
