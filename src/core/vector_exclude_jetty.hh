/**
 * @file
 * Vector-Exclude-JETTY (Section 3.1, Figure 3a): an exclude-JETTY whose
 * entries cover a chunk of V consecutive L2 *blocks* with a V-bit present
 * vector, exploiting spatial locality in the snoop miss stream. The
 * stored tag covers the chunk; the low block-address bits select the
 * vector bit. A set bit means that whole block is absent from the local
 * L2 (same whole-block semantics as the scalar EJ).
 */

#ifndef JETTY_CORE_VECTOR_EXCLUDE_JETTY_HH
#define JETTY_CORE_VECTOR_EXCLUDE_JETTY_HH

#include <cstdint>
#include <vector>

#include "core/snoop_filter.hh"

namespace jetty::filter
{

/** Configuration of a VEJ-SxA-V organization. */
struct VectorExcludeJettyConfig
{
    unsigned sets = 32;       //!< power of two
    unsigned assoc = 4;       //!< ways per set
    unsigned vectorBits = 8;  //!< consecutive blocks per entry (power of 2)
};

/** The vector exclude-JETTY. */
class VectorExcludeJetty : public SnoopFilter
{
  public:
    VectorExcludeJetty(const VectorExcludeJettyConfig &cfg,
                       const AddressMap &amap);

    bool probe(Addr unitAddr) override;
    void onSnoopMiss(Addr unitAddr, bool blockPresent) override;
    void onFill(Addr unitAddr) override;
    void onEvict(Addr) override {}
    void clear() override;

    /**
     * The VEJ family's event-major replay kernels (FilterBank's
     * deferred flush): apply one queued event to each of the @p k VEJs
     * of a bank, accumulating into the matching @p stats slot, so a bank
     * of several VEJs pays one kind branch per event, not one per
     * (event, filter). The snoop kernel folds probe and allocation over
     * one set scan. (VEJs of different vector widths hold different
     * tags, so unlike the EJs they share no LRU stack.)
     */
    static inline void snoopFamily(const BankEvent &ev,
                                   VectorExcludeJetty *const *vejs,
                                   FilterStats *const *stats,
                                   std::size_t k);
    static inline void fillFamily(Addr unitAddr,
                                  VectorExcludeJetty *const *vejs,
                                  FilterStats *const *stats, std::size_t k);

    StorageBreakdown storage() const override;
    energy::FilterEnergyCosts
    energyCosts(const energy::Technology &tech) const override;
    std::string name() const override;

    /** Bits of tag stored per entry. */
    unsigned storedTagBits() const { return tagBits_; }

  private:
    struct Entry
    {
        Addr tag = 0;
        std::uint64_t vector = 0;  //!< bit i set => block (chunk+i) absent
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

    /** First way of @p unitAddr's set in entries_. The set index sits
     *  above the vector-selection bits; this is why a VEJ with the same
     *  sets/assoc as an EJ hashes addresses differently (the thrashing
     *  effect the paper observes on Barnes). */
    Entry *
    setOf(Addr unitAddr)
    {
        return &entries_[static_cast<std::size_t>(
                             (unitAddr >> setShift_) & setMask_) *
                         cfg_.assoc];
    }

    Addr tagOf(Addr unitAddr) const { return unitAddr >> tagShift_; }

    /** The present-vector bit selecting @p unitAddr's block. */
    std::uint64_t
    bitOf(Addr unitAddr) const
    {
        return std::uint64_t{1}
               << ((unitAddr >> amap_.blockOffsetBits) & vecMask_);
    }

    /** The valid entry of @p set tagged @p tag, or nullptr. */
    Entry *
    find(Entry *set, Addr tag) const
    {
        for (unsigned w = 0; w < cfg_.assoc; ++w) {
            if (set[w].valid && set[w].tag == tag)
                return &set[w];
        }
        return nullptr;
    }

    /** Install @p tag (known absent from @p set) with vector @p bit. */
    void allocate(Entry *set, Addr tag, std::uint64_t bit);

    VectorExcludeJettyConfig cfg_;
    AddressMap amap_;
    unsigned vecBits_;   //!< log2(vectorBits)
    unsigned setBits_;
    unsigned tagBits_;
    std::uint64_t vecMask_;  //!< vectorBits - 1
    std::uint64_t setMask_;  //!< sets - 1
    unsigned setShift_;      //!< blockOffsetBits + vecBits_
    unsigned tagShift_;      //!< setShift_ + setBits_
    /** Entries, flat [set * assoc + way]. */
    std::vector<Entry> entries_;
    std::uint64_t useClock_ = 0;
};

inline void
VectorExcludeJetty::onFill(Addr unitAddr)
{
    Entry *e = find(setOf(unitAddr), tagOf(unitAddr));
    if (!e)
        return;
    e->vector &= ~bitOf(unitAddr);
    if (e->vector == 0)
        e->valid = false;
}

inline void
VectorExcludeJetty::snoopFamily(const BankEvent &ev,
                                VectorExcludeJetty *const *vejs,
                                FilterStats *const *stats, std::size_t k)
{
    for (std::size_t m = 0; m < k; ++m) {
        VectorExcludeJetty &f = *vejs[m];
        Entry *const set = f.setOf(ev.unitAddr);
        const Addr tag = f.tagOf(ev.unitAddr);
        const std::uint64_t bit = f.bitOf(ev.unitAddr);
        Entry *const e = f.find(set, tag);
        if (e)
            e->lastUse = ++f.useClock_;
        applySnoopVerdict(
            *stats[m], ev, e && (e->vector & bit) != 0,
            [&f, set, e, tag, bit](Addr, bool blockPresent) {
                if (blockPresent)
                    return;
                if (e) {
                    e->vector |= bit;
                    e->lastUse = ++f.useClock_;
                } else {
                    f.allocate(set, tag, bit);
                }
            });
    }
}

inline void
VectorExcludeJetty::fillFamily(Addr unitAddr,
                               VectorExcludeJetty *const *vejs,
                               FilterStats *const *stats, std::size_t k)
{
    for (std::size_t m = 0; m < k; ++m) {
        vejs[m]->VectorExcludeJetty::onFill(unitAddr);
        ++stats[m]->fillUpdates;
    }
}

} // namespace jetty::filter

#endif // JETTY_CORE_VECTOR_EXCLUDE_JETTY_HH
