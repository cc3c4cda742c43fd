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
 *
 * Each set is held as an LRU stack, most recently used way first; a way
 * whose present bit is clear is a *hole*. Replacement (a not-present way
 * first, else the least recently used one) is then three stack rules:
 *
 *  - an allocation removes the topmost hole, or drops the bottom way
 *    when there is none, and pushes the key on top;
 *  - a hit at position p moves the block to the top and, when a hole
 *    sits above p, moves the topmost such hole down to p;
 *  - a fill clears the block's present bit in place.
 *
 * Under these rules the top A ways of a deeper stack are exactly an
 * A-way EJ of the same set count fed the same stream (Mattson et al.,
 * 1970; Hill & Smith, 1989; here with holes), which is what lets
 * ExcludeJettyStack replay a bank's same-set-count EJs as one
 * stack-distance kernel. DESIGN.md "Stack-distance EJ replay" has the
 * argument.
 */

#ifndef JETTY_CORE_EXCLUDE_JETTY_HH
#define JETTY_CORE_EXCLUDE_JETTY_HH

#include <algorithm>
#include <cstdint>
#include <vector>

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

    StorageBreakdown storage() const override;
    energy::FilterEnergyCosts
    energyCosts(const energy::Technology &tech) const override;
    std::string name() const override;

    const ExcludeJettyConfig &config() const { return cfg_; }

    /** Bits of tag stored per entry (block address above the set index). */
    unsigned storedTagBits() const { return tagBits_; }

  private:
    friend class ExcludeJettyStack;

    /** The stack (first way) of @p unitAddr's set. */
    std::uint64_t *
    setOf(Addr unitAddr)
    {
        return &presTag_[static_cast<std::size_t>(
                             (unitAddr >> amap_.blockOffsetBits) &
                             setMask_) *
                         cfg_.assoc];
    }

    /** The probe key: the block's tag with the present bit set. */
    std::uint64_t
    keyOf(Addr unitAddr) const
    {
        return ((unitAddr >> tagShift_) << 1) | 1;
    }

    /**
     * Move @p key to the top of the @p depth-way stack @p s: a hit when
     * @p pos < depth, else an allocation. @p hole is the topmost hole
     * above @p pos (depth when none), as simd::findStackU64 reports.
     * Either rule shifts a prefix of the stack down one way and writes
     * the key on top; a hit under a hole also moves that hole to @p pos.
     */
    static void
    toFront(std::uint64_t *s, unsigned depth, std::uint64_t key,
            unsigned pos, unsigned hole)
    {
        const unsigned k = std::min(std::min(pos, hole), depth - 1);
        if (hole < pos && pos < depth)
            s[pos] = s[hole];
        for (unsigned i = k; i > 0; --i)
            s[i] = s[i - 1];
        s[0] = key;
    }

    ExcludeJettyConfig cfg_;
    AddressMap amap_;
    unsigned setBits_;
    unsigned tagBits_;
    std::uint64_t setMask_;  //!< sets - 1
    unsigned tagShift_;      //!< blockOffsetBits + setBits_
    /**
     * Packed entry words, flat [set * assoc + stack position]:
     * (tag << 1) | present, each set most recently used first, cache-line
     * aligned. A probe is one scan of a set for (tag << 1) | 1 (a
     * cleared present bit can never match — the key's low bit is set),
     * which the SIMD kernel runs a whole vector of ways at a time; the
     * same scan finds the topmost hole. Recency is the order itself, so
     * no clock is kept.
     */
    util::AlignedVec<std::uint64_t> presTag_;
};

inline void
ExcludeJetty::onFill(Addr unitAddr)
{
    std::uint64_t *const s = setOf(unitAddr);
    const int w = simd::findEqU64(s, cfg_.assoc, keyOf(unitAddr));
    // Part of the block is now cached: the guarantee is void. The tag
    // stays (exactly the old Entry's cleared present bit): the way
    // becomes a hole where it stands.
    if (w >= 0)
        s[w] &= ~std::uint64_t{1};
}

/**
 * A bank's exact-type EJs of one set count, replayed through FilterBank's
 * deferred flush as one LRU stack (the stack-distance kernel). The
 * deepest member carries the stack; per snoop one scan gives the block's
 * stack position p, one update applies the replacement rules, and one
 * count lands in a histogram of (unitInL2, min(p, depth)). Fills update
 * the stack in place and evictions are only counted. endFlush() folds
 * the histogram into every member's FilterStats — a member of A ways
 * filtered exactly the snoops with p < A — and copies the deep stack's
 * top A ways into each shallower member, so between flushes every member
 * holds its own true state.
 *
 * The stack cannot represent a snoop that some members filter while
 * others do not when the L2 holds the block (the filtering members move
 * it to the top; the others allocate nothing). A consistent L2 never
 * produces one — an entry exists only while its block is absent — but
 * when a stream does, the kernel folds what it has and finishes the
 * flush member by member; so does a flush that finds a shallower member
 * not a prefix of the deep one.
 */
class ExcludeJettyStack
{
  public:
    /** Add a member (same set count as the others) and its stats slot. */
    void add(ExcludeJetty *ej, FilterStats *stats);

    /** The members' set count. */
    unsigned sets() const { return members_.front()->cfg_.sets; }

    /** Start a flush: replay per member unless every member is a prefix
     *  of the deep stack. */
    void beginFlush();

    /** Replay one queued event of each kind. */
    inline void snoop(const BankEvent &ev);

    void
    fill(const BankEvent &ev)
    {
        if (perMember_) {
            applyPerMember(ev);
            return;
        }
        deep_->ExcludeJetty::onFill(ev.unitAddr);
        ++fills_;
    }

    void
    evict(const BankEvent &ev)
    {
        if (perMember_) {
            applyPerMember(ev);
            return;
        }
        ++evicts_;  // the EJ ignores evictions
    }

    /** End a flush: fold the counts into the members' stats and copy the
     *  deep stack's prefixes into the shallower members. */
    void endFlush();

  private:
    void applyPerMember(const BankEvent &ev);
    /** Fold and copy out; the rest of the flush replays per member. */
    void split(const BankEvent &ev);
    void foldAndCopy();

    std::vector<ExcludeJetty *> members_;
    std::vector<FilterStats *> stats_;
    ExcludeJetty *deep_ = nullptr;  //!< a member of the greatest assoc
    unsigned depth_ = 0;            //!< deep_'s assoc
    unsigned shallowest_ = 0;       //!< the least member assoc
    /** Snoop counts by [unitInL2 * (depth + 1) + min(p, depth)]. */
    std::vector<std::uint64_t> hist_;
    std::uint64_t fills_ = 0;
    std::uint64_t evicts_ = 0;
    bool perMember_ = false;
};

inline void
ExcludeJettyStack::snoop(const BankEvent &ev)
{
    if (perMember_) {
        applyPerMember(ev);
        return;
    }
    ExcludeJetty &d = *deep_;
    std::uint64_t *const s = d.setOf(ev.unitAddr);
    const std::uint64_t key = d.keyOf(ev.unitAddr);
    unsigned hole = 0;
    const unsigned pos = simd::findStackU64(s, depth_, key, hole);
    if (ev.unitInL2 || ev.blockInL2) {
        // No member allocates; only a filtering one moves the block up.
        if (pos < depth_ && pos >= shallowest_) {
            split(ev);
            return;
        }
        ++hist_[(ev.unitInL2 ? depth_ + 1 : 0) + pos];
        if (pos < depth_)
            ExcludeJetty::toFront(s, depth_, key, pos, hole);
        return;
    }
    // The whole block is absent: every member ends with it on top, by a
    // hit (p < A) or an allocation.
    ++hist_[pos];
    ExcludeJetty::toFront(s, depth_, key, pos, hole);
}

} // namespace jetty::filter

#endif // JETTY_CORE_EXCLUDE_JETTY_HH
