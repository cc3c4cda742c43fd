/**
 * @file
 * Unit tests for the JETTY filter family: exclude, vector-exclude,
 * include, hybrid, the spec parser, storage accounting and energy costs,
 * the bank's grouped deferred replay against immediate observation, and
 * the stack-form EJ against the clock-LRU EJ it replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/exclude_jetty.hh"
#include "core/filter_bank.hh"
#include "core/filter_spec.hh"
#include "core/hybrid_jetty.hh"
#include "core/include_jetty.hh"
#include "core/null_filter.hh"
#include "core/vector_exclude_jetty.hh"
#include "util/simd.hh"

using namespace jetty;
using namespace jetty::filter;

namespace
{

AddressMap
baseMap()
{
    AddressMap amap;
    amap.unitOffsetBits = 5;   // 32B units
    amap.blockOffsetBits = 6;  // 64B blocks
    amap.physAddrBits = 40;
    amap.l2CapacityUnits = 32768;
    return amap;
}

constexpr Addr kBlock = 0x123440;   // block-aligned
constexpr Addr kUnit0 = kBlock;     // first subblock
constexpr Addr kUnit1 = kBlock + 32;

} // namespace

// -------------------------------------------------------- NullFilter ----

TEST(NullFilter, NeverFilters)
{
    NullFilter f;
    EXPECT_FALSE(f.probe(0x1000));
    f.onSnoopMiss(0x1000, false);
    EXPECT_FALSE(f.probe(0x1000));
    EXPECT_EQ(f.storage().totalBits(), 0u);
    EXPECT_EQ(f.name(), "NULL");
}

// ------------------------------------------------------- ExcludeJetty ----

TEST(ExcludeJetty, FiltersAfterWholeBlockMiss)
{
    ExcludeJetty ej({32, 4}, baseMap());
    EXPECT_FALSE(ej.probe(kUnit0));
    ej.onSnoopMiss(kUnit0, /*blockPresent=*/false);
    EXPECT_TRUE(ej.probe(kUnit0));
}

TEST(ExcludeJetty, SubblockSiblingFiltered)
{
    // The paper's key locality source: a whole-block miss on one subblock
    // lets the EJ filter the follow-up snoop to the sibling.
    ExcludeJetty ej({32, 4}, baseMap());
    ej.onSnoopMiss(kUnit0, false);
    EXPECT_TRUE(ej.probe(kUnit1));
}

TEST(ExcludeJetty, TagMatchingMissNotRecorded)
{
    // When some other subblock of the block is valid locally, recording
    // "whole block absent" would be unsafe, so nothing is learned.
    ExcludeJetty ej({32, 4}, baseMap());
    ej.onSnoopMiss(kUnit0, /*blockPresent=*/true);
    EXPECT_FALSE(ej.probe(kUnit0));
    EXPECT_FALSE(ej.probe(kUnit1));
}

TEST(ExcludeJetty, FillClearsEntry)
{
    ExcludeJetty ej({32, 4}, baseMap());
    ej.onSnoopMiss(kUnit0, false);
    ej.onFill(kUnit1);  // any unit of the block voids the guarantee
    EXPECT_FALSE(ej.probe(kUnit0));
    EXPECT_FALSE(ej.probe(kUnit1));
}

TEST(ExcludeJetty, UnrelatedFillKeepsEntry)
{
    ExcludeJetty ej({32, 4}, baseMap());
    ej.onSnoopMiss(kUnit0, false);
    ej.onFill(0x999940);
    EXPECT_TRUE(ej.probe(kUnit0));
}

TEST(ExcludeJetty, LruReplacementWithinSet)
{
    AddressMap amap = baseMap();
    ExcludeJetty ej({4, 2}, amap);  // tiny: 4 sets x 2 ways
    // Three blocks mapping to the same set (stride = sets * blockBytes).
    const Addr stride = 4 * 64;
    ej.onSnoopMiss(0 * stride, false);
    ej.onSnoopMiss(1 * stride, false);
    ej.probe(0 * stride);  // refresh entry 0
    ej.onSnoopMiss(2 * stride, false);  // evicts entry for 1*stride
    EXPECT_TRUE(ej.probe(0 * stride));
    EXPECT_FALSE(ej.probe(1 * stride));
    EXPECT_TRUE(ej.probe(2 * stride));
}

TEST(ExcludeJetty, ClearEmptiesEverything)
{
    ExcludeJetty ej({32, 4}, baseMap());
    ej.onSnoopMiss(kUnit0, false);
    ej.clear();
    EXPECT_FALSE(ej.probe(kUnit0));
}

TEST(ExcludeJetty, StorageAndName)
{
    ExcludeJetty ej({32, 4}, baseMap());
    // Tag bits: 40 - 6 (block) - 5 (sets) = 29; +1 present bit.
    EXPECT_EQ(ej.storedTagBits(), 29u);
    EXPECT_EQ(ej.storage().presenceBits, 32u * 4u * 30u);
    EXPECT_EQ(ej.storage().counterBits, 0u);
    EXPECT_EQ(ej.name(), "EJ-32x4");
}

TEST(ExcludeJetty, EnergyCostsSane)
{
    ExcludeJetty ej({32, 4}, baseMap());
    const auto c = ej.energyCosts(energy::Technology::micron180());
    EXPECT_GT(c.probe, 0.0);
    EXPECT_GT(c.snoopAlloc, 0.0);
    EXPECT_GT(c.fillUpdate, c.probe);  // probe + write
    EXPECT_DOUBLE_EQ(c.evictUpdate, 0.0);
}

// ------------------------------------------------- VectorExcludeJetty ----

TEST(VectorExcludeJetty, PerBlockBits)
{
    VectorExcludeJetty vej({32, 4, 8}, baseMap());
    vej.onSnoopMiss(kUnit0, false);
    EXPECT_TRUE(vej.probe(kUnit0));
    EXPECT_TRUE(vej.probe(kUnit1));  // same block
    // The next block in the chunk is not yet known absent.
    EXPECT_FALSE(vej.probe(kBlock + 64));
}

TEST(VectorExcludeJetty, SpatialAccumulation)
{
    VectorExcludeJetty vej({32, 4, 8}, baseMap());
    // Record all 8 blocks of one chunk.
    const Addr chunk = 0x40000;  // 8*64 aligned
    for (int b = 0; b < 8; ++b)
        vej.onSnoopMiss(chunk + b * 64, false);
    for (int b = 0; b < 8; ++b)
        EXPECT_TRUE(vej.probe(chunk + b * 64));
}

TEST(VectorExcludeJetty, FillClearsOnlyItsBlockBit)
{
    VectorExcludeJetty vej({32, 4, 8}, baseMap());
    const Addr chunk = 0x40000;
    vej.onSnoopMiss(chunk, false);
    vej.onSnoopMiss(chunk + 64, false);
    vej.onFill(chunk + 64);
    EXPECT_TRUE(vej.probe(chunk));
    EXPECT_FALSE(vej.probe(chunk + 64));
}

TEST(VectorExcludeJetty, EntryDiesWhenVectorEmpties)
{
    VectorExcludeJetty vej({4, 1, 4}, baseMap());
    const Addr chunk = 0x40000;
    vej.onSnoopMiss(chunk, false);
    vej.onFill(chunk);
    EXPECT_FALSE(vej.probe(chunk));
    // The way is reusable for another chunk without eviction.
    vej.onSnoopMiss(chunk + 4 * 64 * 4, false);
    EXPECT_TRUE(vej.probe(chunk + 4 * 64 * 4));
}

TEST(VectorExcludeJetty, BlockPresentMissNotRecorded)
{
    VectorExcludeJetty vej({32, 4, 8}, baseMap());
    vej.onSnoopMiss(kUnit0, true);
    EXPECT_FALSE(vej.probe(kUnit0));
}

TEST(VectorExcludeJetty, NameAndStorage)
{
    VectorExcludeJetty vej({32, 4, 8}, baseMap());
    EXPECT_EQ(vej.name(), "VEJ-32x4-8");
    // Tag bits: 40 - 6 - 3 (vector) - 5 (sets) = 26; +8 vector bits.
    EXPECT_EQ(vej.storedTagBits(), 26u);
    EXPECT_EQ(vej.storage().presenceBits, 32u * 4u * 34u);
}

TEST(VectorExcludeJetty, DifferentIndexingThanEj)
{
    // Equal sets/assoc EJ and VEJ slice the address differently (the
    // paper's thrashing observation): two blocks that share an EJ set may
    // land in different VEJ sets and vice versa.
    AddressMap amap = baseMap();
    ExcludeJetty ej({32, 4}, amap);
    VectorExcludeJetty vej({32, 4, 8}, amap);
    // Blocks 0 and 32 blocks apart share an EJ set but differ in VEJ set.
    const Addr a = 0, b = 32 * 64;
    ej.onSnoopMiss(a, false);
    ej.onSnoopMiss(b, false);
    EXPECT_TRUE(ej.probe(a));
    EXPECT_TRUE(ej.probe(b));
    vej.onSnoopMiss(a, false);
    vej.onSnoopMiss(b, false);
    EXPECT_TRUE(vej.probe(a));
    EXPECT_TRUE(vej.probe(b));
}

// ------------------------------------------------------- IncludeJetty ----

TEST(IncludeJetty, EmptyFiltersEverything)
{
    IncludeJetty ij({10, 4, 7}, baseMap());
    EXPECT_TRUE(ij.probe(0x0));
    EXPECT_TRUE(ij.probe(0xdeadbee0));
}

TEST(IncludeJetty, FilledUnitNeverFiltered)
{
    IncludeJetty ij({10, 4, 7}, baseMap());
    ij.onFill(kUnit0);
    EXPECT_FALSE(ij.probe(kUnit0));
}

TEST(IncludeJetty, EvictRestoresFiltering)
{
    IncludeJetty ij({10, 4, 7}, baseMap());
    ij.onFill(kUnit0);
    ij.onEvict(kUnit0);
    EXPECT_TRUE(ij.probe(kUnit0));
}

TEST(IncludeJetty, CountersHandleMultiplicity)
{
    IncludeJetty ij({10, 4, 7}, baseMap());
    ij.onFill(kUnit0);
    ij.onFill(kUnit0 + (1ull << 36));  // far away; may share some slices
    ij.onEvict(kUnit0 + (1ull << 36));
    EXPECT_FALSE(ij.probe(kUnit0));  // first fill still protected
}

TEST(IncludeJetty, BlockGranularIndexSharesSubblocks)
{
    // Paper indexing starts above the block offset: both subblocks of a
    // block index identically, so the sibling of a cached unit is never
    // filtered (it is a superset at block grain).
    IncludeJetty ij({10, 4, 7}, baseMap());
    ij.onFill(kUnit0);
    EXPECT_FALSE(ij.probe(kUnit1));
}

TEST(IncludeJetty, UnitGranularIndexSeparatesSubblocks)
{
    IncludeJettyConfig cfg{10, 4, 7, IjIndexBase::Unit};
    IncludeJetty ij(cfg, baseMap());
    ij.onFill(kUnit0);
    // With unit-granular indexing the sibling differs in the lowest index
    // bit, so at least one slice can be empty for it.
    EXPECT_TRUE(ij.probe(kUnit1));
    EXPECT_EQ(ij.name(), "IJ-10x4x7u");
}

TEST(IncludeJetty, IndexSlices)
{
    IncludeJetty ij({10, 4, 7}, baseMap());
    // Index i covers bits [6 + 7i, 16 + 7i) of the address.
    const Addr a = 0x3ffull << 6;  // bits 6..16 set
    EXPECT_EQ(ij.indexOf(a, 0), 0x3ffull);
    EXPECT_EQ(ij.indexOf(a, 1), 0x3ffull >> 7);
    EXPECT_EQ(ij.indexOf(a, 2), 0ull);
}

TEST(IncludeJetty, SupersetProperty)
{
    // Whatever the fill set, no member of it may be filtered.
    IncludeJetty ij({8, 4, 7}, baseMap());
    std::vector<Addr> filled;
    for (Addr a = 0; a < 300; ++a)
        filled.push_back(0x10000000 + a * 32);
    for (Addr a : filled)
        ij.onFill(a);
    for (Addr a : filled)
        EXPECT_FALSE(ij.probe(a));
}

TEST(IncludeJetty, ClearResetsCounters)
{
    IncludeJetty ij({8, 4, 7}, baseMap());
    ij.onFill(kUnit0);
    ij.clear();
    EXPECT_TRUE(ij.probe(kUnit0));
}

TEST(IncludeJetty, CounterWidthPessimistic)
{
    IncludeJetty ij({10, 4, 7}, baseMap());
    // 32768 units -> 16 bits (we count units; paper's 14 bits counted
    // 16K blocks).
    EXPECT_EQ(ij.counterBits(), 16u);
}

TEST(IncludeJetty, PbitShapesMatchTable4)
{
    const AddressMap amap = baseMap();
    std::uint64_t r, c;
    IncludeJetty({10, 4, 7}, amap).pbitArrayShape(r, c);
    EXPECT_EQ(r, 32u);
    EXPECT_EQ(c, 32u);
    IncludeJetty({9, 4, 7}, amap).pbitArrayShape(r, c);
    EXPECT_EQ(r, 16u);
    EXPECT_EQ(c, 32u);
    IncludeJetty({8, 4, 7}, amap).pbitArrayShape(r, c);
    EXPECT_EQ(r, 16u);
    EXPECT_EQ(c, 16u);
}

TEST(IncludeJetty, StorageScalesWithConfig)
{
    const AddressMap amap = baseMap();
    const auto big = IncludeJetty({10, 4, 7}, amap).storage();
    const auto small = IncludeJetty({6, 5, 6}, amap).storage();
    EXPECT_EQ(big.presenceBits, 4u * 1024u);
    EXPECT_EQ(small.presenceBits, 5u * 64u);
    EXPECT_GT(big.totalBytes(), small.totalBytes() * 8);
}

TEST(IncludeJettyDeathTest, CounterUnderflowPanics)
{
    IncludeJetty ij({8, 4, 7}, baseMap());
    EXPECT_DEATH(ij.onEvict(kUnit0), "underflow");
}

// -------------------------------------------------------- HybridJetty ----

TEST(HybridJetty, EitherComponentFilters)
{
    const AddressMap amap = baseMap();
    HybridJetty hj(std::make_unique<IncludeJetty>(
                       IncludeJettyConfig{10, 4, 7}, amap),
                   std::make_unique<ExcludeJetty>(
                       ExcludeJettyConfig{32, 4}, amap));
    // Empty IJ filters everything.
    EXPECT_TRUE(hj.probe(kUnit0));
    // Make the IJ agnostic about this block, then rely on the EJ.
    hj.onFill(kUnit0);
    EXPECT_FALSE(hj.probe(kUnit0));
    hj.onEvict(kUnit0);
    EXPECT_TRUE(hj.probe(kUnit0));
}

TEST(HybridJetty, EjBacksUpIjLeaks)
{
    const AddressMap amap = baseMap();
    auto ij_owned = std::make_unique<IncludeJetty>(
        IncludeJettyConfig{6, 2, 6}, amap);
    HybridJetty hj(std::move(ij_owned),
                   std::make_unique<ExcludeJetty>(
                       ExcludeJettyConfig{32, 4}, amap));

    // Saturate the IJ's view of this address's slices with other fills so
    // the IJ cannot filter kUnit0.
    auto &ij = hj.includePart();
    for (int i = 0; i < 4000; ++i) {
        const Addr scatter =
            (static_cast<Addr>(i) * 2654435761ull) & 0xFFFE0ull;
        ij.onFill(0x20000000 + scatter);
    }
    ASSERT_FALSE(hj.probe(kUnit0));

    // The unfiltered miss is recorded by the EJ and filters next time.
    hj.onSnoopMiss(kUnit0, false);
    EXPECT_TRUE(hj.probe(kUnit0));
}

TEST(HybridJetty, AggregatesStorageAndEnergy)
{
    const AddressMap amap = baseMap();
    auto ij = std::make_unique<IncludeJetty>(IncludeJettyConfig{10, 4, 7},
                                             amap);
    auto ej = std::make_unique<ExcludeJetty>(ExcludeJettyConfig{32, 4},
                                             amap);
    const auto ij_storage = ij->storage();
    const auto ej_storage = ej->storage();
    const auto tech = energy::Technology::micron180();
    const auto ij_costs = ij->energyCosts(tech);
    const auto ej_costs = ej->energyCosts(tech);

    HybridJetty hj(std::move(ij), std::move(ej));
    EXPECT_EQ(hj.storage().totalBits(),
              ij_storage.totalBits() + ej_storage.totalBits());
    EXPECT_DOUBLE_EQ(hj.energyCosts(tech).probe,
                     ij_costs.probe + ej_costs.probe);
    EXPECT_EQ(hj.name(), "HJ(IJ-10x4x7,EJ-32x4)");
}

// -------------------------------------------------------- Spec parser ----

TEST(FilterSpec, ParsesAllPaperConfigs)
{
    const AddressMap amap = baseMap();
    for (const auto &group :
         {paperExcludeSpecs(), paperVectorExcludeSpecs(),
          paperIncludeSpecs(), paperHybridSpecs()}) {
        for (const auto &spec : group) {
            EXPECT_TRUE(isValidFilterSpec(spec)) << spec;
            auto f = makeFilter(spec, amap);
            EXPECT_EQ(f->name(), spec);
        }
    }
}

TEST(FilterSpec, ParsesNull)
{
    auto f = makeFilter("null", baseMap());
    EXPECT_EQ(f->name(), "NULL");
}

TEST(FilterSpec, ParsesUnitVariant)
{
    auto f = makeFilter("IJ-8x4x7u", baseMap());
    EXPECT_EQ(f->name(), "IJ-8x4x7u");
}

TEST(FilterSpec, RejectsGarbage)
{
    EXPECT_FALSE(isValidFilterSpec(""));
    EXPECT_FALSE(isValidFilterSpec("EJ-32"));
    EXPECT_FALSE(isValidFilterSpec("EJ-axb"));
    EXPECT_FALSE(isValidFilterSpec("VEJ-32x4"));
    EXPECT_FALSE(isValidFilterSpec("IJ-10x4"));
    EXPECT_FALSE(isValidFilterSpec("HJ(IJ-10x4x7)"));
    EXPECT_FALSE(isValidFilterSpec("HJ(IJ-10x4x7,)"));
    EXPECT_FALSE(isValidFilterSpec("ZZ-1x2"));
}

TEST(FilterSpec, HybridComposesVej)
{
    auto f = makeFilter("HJ(IJ-9x4x7,VEJ-32x4-8)", baseMap());
    EXPECT_EQ(f->name(), "HJ(IJ-9x4x7,VEJ-32x4-8)");
}

// ------------------------------------------ Grouped deferred replay ----
//
// FilterBank's deferred flush replays EJ groups (one LRU stack per set
// count) and VEJ members event-major and every other family
// filter-major.
// Immediate observation (observeSnoop / unitFilled / unitEvicted) is the
// oracle: a deferred bank flushed at arbitrary chunk splits must end in
// exactly the same place, member for member, in any bank order.

namespace
{

/** EJ and VEJ members of several geometries (EJ assoc 1/2/4/65, VEJ
 *  vector 1/8/64), interleaved with every other family. */
const std::vector<std::string> kMixedBank = {
    "EJ-32x4",  "NULL",        "VEJ-32x4-8", "IJ-10x4x7",
    "EJ-8x1",   "RF-8x10",     "VEJ-16x2-1", "HJ(IJ-9x4x7,EJ-16x2)",
    "EJ-16x2",  "VEJ-8x4-64",  "EJ-32x65",   "HJ(IJ-8x4x7,VEJ-16x4-8)",
};

/** One bank-visible event of a seeded stream. */
struct StreamEvent
{
    BankEvent::Kind kind;
    Addr unit;
    bool unitInL2;
    bool blockInL2;
};

/**
 * A seeded stream consistent with a modelled L2: fills bring in absent
 * units, evictions drop present ones, and snoops carry the model's
 * ground truth. Units come from a few thousand blocks under two tag
 * regions, so small EJs thrash, large ones hit, and VEJ chunks fill up.
 */
std::vector<StreamEvent>
randomStream(std::uint32_t seed, std::size_t n)
{
    std::mt19937_64 rng(seed);
    const auto unitAt = [&rng] {
        const Addr block = (rng() % 3072) | ((rng() % 2) << 20);
        return (block << 6) | ((rng() % 2) << 5);
    };
    std::set<Addr> cached;
    std::vector<StreamEvent> out;
    out.reserve(n);
    while (out.size() < n) {
        const unsigned roll = static_cast<unsigned>(rng() % 100);
        if (roll < 15 && cached.size() < 512) {
            const Addr u = unitAt();
            if (cached.insert(u).second)
                out.push_back({BankEvent::Kind::Fill, u, false, false});
        } else if (roll < 28 && !cached.empty()) {
            auto it = cached.begin();
            std::advance(it, static_cast<long>(rng() % cached.size()));
            out.push_back({BankEvent::Kind::Evict, *it, false, false});
            cached.erase(it);
        } else {
            const Addr u = unitAt();
            const Addr block = u & ~Addr{63};
            const bool unit_in = cached.count(u) != 0;
            const bool block_in =
                cached.count(block) != 0 || cached.count(block + 32) != 0;
            out.push_back({BankEvent::Kind::Snoop, u, unit_in, block_in});
        }
    }
    return out;
}

void
feed(FilterBank &bank, const StreamEvent &ev)
{
    switch (ev.kind) {
      case BankEvent::Kind::Snoop:
        bank.observeSnoop(ev.unit, ev.unitInL2, ev.blockInL2);
        break;
      case BankEvent::Kind::Fill:
        bank.unitFilled(ev.unit);
        break;
      case BankEvent::Kind::Evict:
        bank.unitEvicted(ev.unit);
        break;
    }
}

/** Replay @p events into a deferred bank, flushing at seeded random
 *  chunk splits (1 to 700 events per chunk). */
void
feedDeferred(FilterBank &bank, const std::vector<StreamEvent> &events,
             std::uint32_t splitSeed)
{
    std::mt19937 rng(splitSeed);
    bank.beginDeferred();
    std::size_t untilFlush = 1 + rng() % 700;
    for (const StreamEvent &ev : events) {
        feed(bank, ev);
        if (--untilFlush == 0) {
            bank.flushDeferred();
            untilFlush = 1 + rng() % 700;
        }
    }
    bank.endDeferred();
}

void
expectSameStats(const FilterStats &a, const FilterStats &b,
                const std::string &what)
{
    EXPECT_EQ(a.probes, b.probes) << what;
    EXPECT_EQ(a.filtered, b.filtered) << what;
    EXPECT_EQ(a.wouldMiss, b.wouldMiss) << what;
    EXPECT_EQ(a.filteredWouldMiss, b.filteredWouldMiss) << what;
    EXPECT_EQ(a.snoopAllocs, b.snoopAllocs) << what;
    EXPECT_EQ(a.fillUpdates, b.fillUpdates) << what;
    EXPECT_EQ(a.evictUpdates, b.evictUpdates) << what;
    EXPECT_EQ(a.safetyViolations, b.safetyViolations) << what;
}

/** Seeded permutations of kMixedBank, the identity and reverse first. */
std::vector<std::vector<std::string>>
mixedBankOrders()
{
    std::vector<std::vector<std::string>> orders = {kMixedBank};
    orders.emplace_back(kMixedBank.rbegin(), kMixedBank.rend());
    std::mt19937 rng(7);
    for (int i = 0; i < 3; ++i) {
        std::vector<std::string> order = kMixedBank;
        std::shuffle(order.begin(), order.end(), rng);
        orders.push_back(order);
    }
    return orders;
}

} // namespace

TEST(GroupedReplay, MatchesImmediateObservationInAnyBankOrder)
{
    for (const auto &order : mixedBankOrders()) {
        for (const std::uint32_t seed : {1u, 2u, 3u}) {
            const auto events = randomStream(seed, 20000);
            FilterBank immediate(order, baseMap());
            FilterBank deferred(order, baseMap());
            for (const StreamEvent &ev : events)
                feed(immediate, ev);
            feedDeferred(deferred, events, seed * 31 + 5);

            ASSERT_EQ(deferred.size(), immediate.size());
            for (std::size_t i = 0; i < immediate.size(); ++i) {
                const std::string what = immediate.filterAt(i).name() +
                                         " seed " + std::to_string(seed) +
                                         " slot " + std::to_string(i);
                expectSameStats(deferred.statsAt(i), immediate.statsAt(i),
                                what);
                // The stats exercised every arm of the protocol.
                EXPECT_GT(immediate.statsAt(i).wouldMiss, 0u) << what;
            }
            // A final probe sweep over the stream's units: the replayed
            // filter contents must equal the immediate ones.
            std::set<Addr> units;
            for (const StreamEvent &ev : events)
                units.insert(ev.unit);
            for (std::size_t i = 0; i < immediate.size(); ++i) {
                std::size_t mismatches = 0;
                for (const Addr u : units) {
                    if (deferred.filterAt(i).probe(u) !=
                        immediate.filterAt(i).probe(u))
                        ++mismatches;
                }
                EXPECT_EQ(mismatches, 0u)
                    << immediate.filterAt(i).name() << " seed " << seed;
            }
        }
    }
}

TEST(GroupedReplay, FamiliesFilterAndAllocate)
{
    // Guard against a vacuous equivalence: on the seeded stream every
    // EJ and VEJ member both filters snoops and allocates entries.
    const auto events = randomStream(1, 20000);
    FilterBank deferred(kMixedBank, baseMap());
    feedDeferred(deferred, events, 11);
    for (std::size_t i = 0; i < deferred.size(); ++i) {
        const std::string name = deferred.filterAt(i).name();
        if (name.rfind("EJ-", 0) != 0 && name.rfind("VEJ-", 0) != 0)
            continue;
        EXPECT_GT(deferred.statsAt(i).filteredWouldMiss, 0u) << name;
        EXPECT_GT(deferred.statsAt(i).snoopAllocs, 0u) << name;
    }
}

namespace
{

/**
 * A stream every exclude-side filter violates on: u1 is filled, then a
 * snoop to its sibling u0 wrongly reports the whole block absent (the
 * EJ/VEJ parts allocate while the IJ and RF, which saw the fill, do not
 * filter), and a second snoop claims u0 cached without any fill. EJs,
 * VEJs and hybrids filter it; NULL, IJ and RF never do.
 */
std::vector<StreamEvent>
violatingStream()
{
    const Addr u0 = 0x40000;
    const Addr u1 = u0 + 32;
    return {{BankEvent::Kind::Fill, u1, false, false},
            {BankEvent::Kind::Snoop, u0, false, false},
            {BankEvent::Kind::Snoop, u0, true, true}};
}

} // namespace

TEST(GroupedReplay, CountsViolationsLikeImmediateObservation)
{
    for (const auto &order : mixedBankOrders()) {
        FilterBank immediate(order, baseMap(), /*checkSafety=*/false);
        FilterBank deferred(order, baseMap(), /*checkSafety=*/false);
        for (const StreamEvent &ev : violatingStream())
            feed(immediate, ev);
        feedDeferred(deferred, violatingStream(), 3);
        for (std::size_t i = 0; i < immediate.size(); ++i) {
            const std::string name = immediate.filterAt(i).name();
            expectSameStats(deferred.statsAt(i), immediate.statsAt(i),
                            name);
            const bool violator = name.rfind("NULL", 0) != 0 &&
                                  name.rfind("IJ-", 0) != 0 &&
                                  name.rfind("RF-", 0) != 0;
            EXPECT_EQ(deferred.statsAt(i).safetyViolations,
                      violator ? 1u : 0u)
                << name;
        }
    }
}

TEST(GroupedReplayDeathTest, PanicNamesFirstViolatorInBankOrder)
{
    // The event-major kernels replay after the filter-major members, but
    // the panic is decided in bank order: a filter-major hybrid ahead of
    // the exclude members is named first, and an EJ or VEJ ahead of it
    // is.
    const auto run_deferred = [](const std::vector<std::string> &order) {
        FilterBank bank(order, baseMap(), /*checkSafety=*/true);
        bank.beginDeferred();
        for (const StreamEvent &ev : violatingStream())
            feed(bank, ev);
        bank.flushDeferred();
    };
    const auto run_immediate = [](const std::vector<std::string> &order) {
        FilterBank bank(order, baseMap(), /*checkSafety=*/true);
        for (const StreamEvent &ev : violatingStream())
            feed(bank, ev);
    };
    const std::vector<std::string> vej_first = {
        "NULL", "IJ-10x4x7", "RF-8x10", "VEJ-32x4-8", "EJ-32x4",
        "HJ(IJ-10x4x7,EJ-32x4)"};
    const std::vector<std::string> ej_first = {
        "IJ-10x4x7", "EJ-32x65", "HJ(IJ-10x4x7,EJ-32x4)", "VEJ-8x4-64"};
    const std::vector<std::string> hybrid_first = {
        "RF-8x10", "HJ(IJ-10x4x7,EJ-32x4)", "EJ-8x1", "VEJ-16x2-1"};
    EXPECT_DEATH(run_deferred(vej_first), "violation: VEJ-32x4-8 filtered");
    EXPECT_DEATH(run_immediate(vej_first), "violation: VEJ-32x4-8 filtered");
    EXPECT_DEATH(run_deferred(ej_first), "violation: EJ-32x65 filtered");
    EXPECT_DEATH(run_immediate(ej_first), "violation: EJ-32x65 filtered");
    EXPECT_DEATH(run_deferred(hybrid_first),
                 "violation: HJ\\(IJ-10x4x7,EJ-32x4\\) filtered");
    EXPECT_DEATH(run_immediate(hybrid_first),
                 "violation: HJ\\(IJ-10x4x7,EJ-32x4\\) filtered");
}

// ----------------------------------------- Stack-distance EJ oracle ----
//
// ExcludeJetty holds each set as an LRU stack with holes, and the bank
// replays same-set-count EJs as one stack (ExcludeJettyStack). The
// oracle is the clock-LRU exclude-JETTY that representation replaced,
// kept here verbatim and independent of it: flat (tag << 1) | present
// words beside a parallel array of LRU clocks, allocation into the
// first not-present way, else the least recently used one.

namespace
{

class ClockLruExcludeJetty
{
  public:
    ClockLruExcludeJetty(unsigned sets, unsigned assoc,
                         const AddressMap &amap)
        : assoc_(assoc), blockOffsetBits_(amap.blockOffsetBits),
          setMask_(sets - 1),
          presTag_(static_cast<std::size_t>(sets) * assoc, 0),
          lastUse_(presTag_.size(), 0)
    {
        unsigned setBits = 0;
        while ((1u << setBits) < sets)
            ++setBits;
        tagShift_ = amap.blockOffsetBits + setBits;
    }

    bool
    probe(Addr unitAddr)
    {
        const std::size_t base = setBase(unitAddr);
        const int w = simd::scalar::findEqU64(&presTag_[base], assoc_,
                                              keyOf(unitAddr));
        if (w < 0)
            return false;
        lastUse_[base + static_cast<unsigned>(w)] = ++useClock_;
        return true;
    }

    void
    onSnoopMiss(Addr unitAddr, bool blockPresent)
    {
        if (blockPresent)
            return;
        const std::size_t base = setBase(unitAddr);
        const std::uint64_t key = keyOf(unitAddr);
        const int hit = simd::scalar::findEqU64(&presTag_[base], assoc_, key);
        if (hit >= 0) {
            lastUse_[base + static_cast<unsigned>(hit)] = ++useClock_;
            return;
        }
        allocate(base, key);
    }

    void
    onFill(Addr unitAddr)
    {
        const std::size_t base = setBase(unitAddr);
        const int w = simd::scalar::findEqU64(&presTag_[base], assoc_,
                                              keyOf(unitAddr));
        if (w >= 0)
            presTag_[base + static_cast<unsigned>(w)] &= ~std::uint64_t{1};
    }

  private:
    std::size_t
    setBase(Addr unitAddr) const
    {
        return static_cast<std::size_t>(
                   (unitAddr >> blockOffsetBits_) & setMask_) *
               assoc_;
    }

    std::uint64_t
    keyOf(Addr unitAddr) const
    {
        return ((unitAddr >> tagShift_) << 1) | 1;
    }

    void
    allocate(std::size_t base, std::uint64_t key)
    {
        // Prefer a not-present way, else LRU.
        std::size_t victim = base;
        bool found_free = false;
        for (unsigned w = 0; w < assoc_; ++w) {
            if (!(presTag_[base + w] & 1)) {
                victim = base + w;
                found_free = true;
                break;
            }
        }
        if (!found_free) {
            for (unsigned w = 1; w < assoc_; ++w) {
                if (lastUse_[base + w] < lastUse_[victim])
                    victim = base + w;
            }
        }
        presTag_[victim] = key;
        lastUse_[victim] = ++useClock_;
    }

    unsigned assoc_;
    unsigned blockOffsetBits_;
    std::uint64_t setMask_;
    unsigned tagShift_ = 0;
    std::vector<std::uint64_t> presTag_;
    std::vector<std::uint64_t> lastUse_;
    std::uint64_t useClock_ = 0;
};

/**
 * randomStream with the ground truth of one snoop in ten re-rolled: an
 * inconsistent stream, on which EJs hit while the L2 holds the block —
 * the events the bank's stack kernel cannot represent and must split on.
 */
std::vector<StreamEvent>
scrambledStream(std::uint32_t seed, std::size_t n)
{
    std::vector<StreamEvent> events = randomStream(seed, n);
    std::mt19937 rng(seed + 1000);
    for (StreamEvent &ev : events) {
        if (ev.kind != BankEvent::Kind::Snoop || rng() % 10 != 0)
            continue;
        ev.blockInL2 = rng() % 2 != 0;
        ev.unitInL2 = ev.blockInL2 && rng() % 2 != 0;
    }
    return events;
}

/** Same-set-count EJ groups: assoc 1, 2, 4 and 65 at 16 sets. */
const std::vector<std::string> kStackGroup = {"EJ-16x1", "EJ-16x2",
                                              "EJ-16x4", "EJ-16x65"};

} // namespace

TEST(StackDistanceOracle, VerdictsMatchClockLruEventByEvent)
{
    for (const unsigned assoc : {1u, 2u, 4u, 65u}) {
        for (const std::uint32_t seed : {1u, 2u, 3u}) {
            for (const bool scrambled : {false, true}) {
                const auto events = scrambled ? scrambledStream(seed, 20000)
                                              : randomStream(seed, 20000);
                ExcludeJetty ej({16, assoc}, baseMap());
                ClockLruExcludeJetty ref(16, assoc, baseMap());
                std::size_t hits = 0, misses = 0, mismatches = 0;
                for (const StreamEvent &ev : events) {
                    switch (ev.kind) {
                      case BankEvent::Kind::Snoop: {
                        const bool got = ej.probe(ev.unit);
                        if (got != ref.probe(ev.unit))
                            ++mismatches;
                        (got ? hits : misses) += 1;
                        if (!ev.unitInL2 && !got) {
                            ej.onSnoopMiss(ev.unit, ev.blockInL2);
                            ref.onSnoopMiss(ev.unit, ev.blockInL2);
                        }
                        break;
                      }
                      case BankEvent::Kind::Fill:
                        ej.onFill(ev.unit);
                        ref.onFill(ev.unit);
                        break;
                      case BankEvent::Kind::Evict:
                        ej.onEvict(ev.unit);
                        break;
                    }
                }
                const std::string what =
                    "assoc " + std::to_string(assoc) + " seed " +
                    std::to_string(seed) + (scrambled ? " scrambled" : "");
                EXPECT_EQ(mismatches, 0u) << what;
                EXPECT_GT(hits, 0u) << what;
                EXPECT_GT(misses, 0u) << what;
            }
        }
    }
}

TEST(GroupedReplay, StackGroupsMatchImmediateInEveryBankOrder)
{
    // Every order of one same-set group, beside a second group, the VEJ
    // family and a hybrid; consistent streams replay through the stack
    // kernel, scrambled ones split into per-member replay.
    std::vector<std::string> group = kStackGroup;
    std::sort(group.begin(), group.end());
    do {
        std::vector<std::string> order = group;
        order.insert(order.begin() + 2, "EJ-8x2");
        order.insert(order.end(), {"VEJ-16x4-8", "EJ-8x4",
                                   "HJ(IJ-9x4x7,EJ-16x2)"});
        for (const std::uint32_t seed : {1u, 2u}) {
            for (const bool scrambled : {false, true}) {
                const auto events = scrambled ? scrambledStream(seed, 6000)
                                              : randomStream(seed, 6000);
                FilterBank immediate(order, baseMap(), !scrambled);
                FilterBank deferred(order, baseMap(), !scrambled);
                for (const StreamEvent &ev : events)
                    feed(immediate, ev);
                feedDeferred(deferred, events, seed * 17 + 3);

                std::set<Addr> units;
                for (const StreamEvent &ev : events)
                    units.insert(ev.unit);
                for (std::size_t i = 0; i < immediate.size(); ++i) {
                    const std::string what =
                        immediate.filterAt(i).name() + " seed " +
                        std::to_string(seed) +
                        (scrambled ? " scrambled" : "") + " order " +
                        std::to_string(i);
                    expectSameStats(deferred.statsAt(i),
                                    immediate.statsAt(i), what);
                    EXPECT_GT(immediate.statsAt(i).filteredWouldMiss, 0u)
                        << what;
                    std::size_t mismatches = 0;
                    for (const Addr u : units) {
                        if (deferred.filterAt(i).probe(u) !=
                            immediate.filterAt(i).probe(u))
                            ++mismatches;
                    }
                    EXPECT_EQ(mismatches, 0u) << what;
                }
            }
        }
    } while (std::next_permutation(group.begin(), group.end()));
}

TEST(GroupedReplay, SplitsWhenADeepMemberHitsUnderABlockInL2)
{
    // Three whole-block misses to one set leave the 4-way stack
    // [c, b, a, hole] and the 2-way [c, b]. A snoop to a that claims
    // the block cached then hits the 4-way at stack position 2 and
    // misses the 2-way: the 4-way moves a to the top, the 2-way
    // allocates nothing — no one stack holds both, so the flush splits
    // and ends per member, the 4-way filtering b at position 2 and the
    // 2-way at position 1. The next flush starts with the 2-way [b, c]
    // no prefix of the 4-way [b, a, c, hole] and must replay per member
    // too: the stack would have the 2-way miss c.
    const Addr a = 0x40000;
    const Addr stride = 32 * 64;  // same set of a 32-set EJ
    const Addr b = a + stride, c = a + 2 * stride, d = a + 3 * stride;
    const std::vector<StreamEvent> first = {
        {BankEvent::Kind::Snoop, a, false, false},
        {BankEvent::Kind::Snoop, b, false, false},
        {BankEvent::Kind::Snoop, c, false, false},
        {BankEvent::Kind::Snoop, a, false, true},
        {BankEvent::Kind::Snoop, b, false, false},
    };
    const std::vector<StreamEvent> second = {
        {BankEvent::Kind::Snoop, c, false, false},
        {BankEvent::Kind::Snoop, d, false, false},
        {BankEvent::Kind::Fill, c, false, false},
        {BankEvent::Kind::Snoop, a, false, false},
        {BankEvent::Kind::Evict, c, false, false},
        {BankEvent::Kind::Snoop, c, false, false},
        {BankEvent::Kind::Snoop, d, true, true},
        {BankEvent::Kind::Snoop, b, false, false},
    };
    for (const std::vector<std::string> &order :
         {std::vector<std::string>{"EJ-32x2", "EJ-32x4"},
          std::vector<std::string>{"EJ-32x4", "EJ-32x1", "EJ-32x2"}}) {
        FilterBank immediate(order, baseMap(), /*checkSafety=*/false);
        FilterBank deferred(order, baseMap(), /*checkSafety=*/false);
        deferred.beginDeferred();
        for (const StreamEvent &ev : first) {
            feed(immediate, ev);
            feed(deferred, ev);
        }
        deferred.flushDeferred();
        const int deep = deferred.indexOf("EJ-32x4");
        const int two = deferred.indexOf("EJ-32x2");
        ASSERT_GE(deep, 0);
        ASSERT_GE(two, 0);
        // The 4-way filters the block-in-L2 snoop to a and then b; the
        // 2-way filters only b.
        EXPECT_EQ(deferred.statsAt(static_cast<std::size_t>(deep))
                      .filteredWouldMiss,
                  2u);
        EXPECT_EQ(deferred.statsAt(static_cast<std::size_t>(two))
                      .filteredWouldMiss,
                  1u);
        for (const StreamEvent &ev : second) {
            feed(immediate, ev);
            feed(deferred, ev);
        }
        deferred.endDeferred();
        for (std::size_t i = 0; i < immediate.size(); ++i)
            expectSameStats(deferred.statsAt(i), immediate.statsAt(i),
                            immediate.filterAt(i).name());
        for (const Addr u : {a, b, c, d}) {
            for (std::size_t i = 0; i < immediate.size(); ++i) {
                EXPECT_EQ(deferred.filterAt(i).probe(u),
                          immediate.filterAt(i).probe(u))
                    << immediate.filterAt(i).name() << " unit " << u;
            }
        }
    }
}
