#include "core/snoop_filter.hh"

namespace jetty::filter
{

void
FilterStats::merge(const FilterStats &o)
{
    probes += o.probes;
    filtered += o.filtered;
    wouldMiss += o.wouldMiss;
    filteredWouldMiss += o.filteredWouldMiss;
    snoopAllocs += o.snoopAllocs;
    fillUpdates += o.fillUpdates;
    evictUpdates += o.evictUpdates;
    safetyViolations += o.safetyViolations;
}

void
SnoopFilter::applyBatch(const BankEvent *evs, std::size_t n, FilterStats &st)
{
    // Generic batch path: the shared protocol over the virtual hooks,
    // one event at a time, so a deferred replay is bit-identical to
    // immediate observation of the same sequence for any filter type.
    for (std::size_t i = 0; i < n; ++i) {
        const BankEvent &ev = evs[i];
        switch (ev.kind) {
          case BankEvent::Kind::Snoop:
            applySnoopVerdict(st, ev, probe(ev.unitAddr),
                              [this](Addr a, bool blockPresent) {
                                  onSnoopMiss(a, blockPresent);
                              });
            break;
          case BankEvent::Kind::Fill:
            onFill(ev.unitAddr);
            ++st.fillUpdates;
            break;
          case BankEvent::Kind::Evict:
            onEvict(ev.unitAddr);
            ++st.evictUpdates;
            break;
        }
    }
}

} // namespace jetty::filter
