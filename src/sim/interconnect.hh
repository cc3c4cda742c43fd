/**
 * @file
 * Address-interleaved split snoop interconnect.
 *
 * Real SMP servers of the paper's class split the snoop fabric into N
 * logical buses, interleaved by address, so independent transactions
 * proceed in parallel. The functional model here keeps every transaction
 * atomic — the interleave maps each coherence unit to exactly one bus,
 * so all transactions for a unit serialize on its home bus and the
 * coherence outcome is independent of the bus count (asserted against
 * the golden model for snoopBuses in {1, 2, 4}).
 *
 * What the bus count *does* change: per-bus occupancy statistics
 * (SimStats::perBus / busSnoopTagProbes), the input of the latency
 * model's contention term and the accountant's per-bus snoop energy
 * split. Filter statistics do not move: the deferred filter banks
 * replay in capture order, whatever the bus count.
 *
 * The interleave granularity is the L2 *block*, so sibling subblocks
 * sharing a tag always serialize on one bus. The routing function is
 * busOf(): for a unit address U,
 * bus = (U >> blockOffsetBits) % snoopBuses — deterministic, checked
 * online by the CheckerSuite's bus-routing invariant and offline
 * against GoldenSmp's independently restated interleave.
 */

#ifndef JETTY_SIM_INTERCONNECT_HH
#define JETTY_SIM_INTERCONNECT_HH

#include <cstdint>

#include "util/types.hh"

namespace jetty::sim
{

/** Occupancy counters of one logical snoop bus (SimStats::perBus). */
struct BusStats
{
    std::uint64_t transactions = 0;  //!< transactions routed to this bus
    std::uint64_t reads = 0;         //!< BusRead share
    std::uint64_t readXs = 0;        //!< BusReadX share
    std::uint64_t upgrades = 0;      //!< BusUpgrade share
};

/** The split snoop interconnect's routing fabric: N logical buses,
 *  block-interleaved. Occupancy is counted in SimStats so it travels
 *  with every SweepResult. */
class Interconnect
{
  public:
    /**
     * @param buses           logical snoop buses (>= 1; 1 = the classic
     *                        single shared bus).
     * @param blockOffsetBits log2 of the L2 block size — the interleave
     *                        granularity (see the file comment).
     */
    Interconnect(unsigned buses, unsigned blockOffsetBits);

    /** Number of logical buses. */
    unsigned buses() const { return buses_; }

    /** Home bus of the unit at @p unitAddr. Power-of-two bus counts
     *  (all the sweep points, including the single-bus default) route
     *  with a mask; the modulo stays as the general fallback and both
     *  agree bit-for-bit whenever the mask applies. */
    unsigned
    busOf(Addr unitAddr) const
    {
        const Addr block = unitAddr >> blockOffsetBits_;
        if (busesPow2_)
            return static_cast<unsigned>(block & (buses_ - 1));
        return static_cast<unsigned>(block % buses_);
    }

  private:
    unsigned buses_;
    unsigned blockOffsetBits_;
    bool busesPow2_;
};

} // namespace jetty::sim

#endif // JETTY_SIM_INTERCONNECT_HH
