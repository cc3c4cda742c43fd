#include "core/filter_bank.hh"

#include <algorithm>
#include <typeinfo>

#include "core/exclude_jetty.hh"
#include "core/filter_spec.hh"
#include "core/vector_exclude_jetty.hh"
#include "util/logging.hh"
#include "util/simd.hh"

namespace jetty::filter
{

FilterBank::FilterBank(const std::vector<std::string> &specs,
                       const AddressMap &amap, bool checkSafety)
    : checkSafety_(checkSafety)
{
    filters_.reserve(specs.size());
    for (const auto &spec : specs)
        filters_.push_back(makeFilter(spec, amap));
    stats_.resize(filters_.size());

    // Group for the deferred replay: EJs by set count, VEJs as one
    // family. The exact-type test keeps a subclass (which may override a
    // hook the kernels call directly) on the generic filter-major path.
    for (std::size_t i = 0; i < filters_.size(); ++i) {
        SnoopFilter *const f = filters_[i].get();
        if (typeid(*f) == typeid(ExcludeJetty)) {
            auto *const ej = static_cast<ExcludeJetty *>(f);
            auto group = std::find_if(
                ejStacks_.begin(), ejStacks_.end(),
                [ej](const ExcludeJettyStack &g) {
                    return g.sets() == ej->config().sets;
                });
            if (group == ejStacks_.end())
                group = ejStacks_.emplace(ejStacks_.end());
            group->add(ej, &stats_[i]);
        } else if (typeid(*f) == typeid(VectorExcludeJetty)) {
            vejs_.push_back(static_cast<VectorExcludeJetty *>(f));
            vejStats_.push_back(&stats_[i]);
        } else {
            batchReplayed_.push_back(i);
        }
    }
}

void
FilterBank::walkSnoop(Addr unitAddr, bool unitInL2, bool blockInL2)
{
    // Hot path: one call per filter per snoop per remote node. The
    // ground truth is identical for every filter, so the branch on it is
    // hoisted out of the loop; the counters each arm bumps are exactly
    // those of the straightforward per-filter version. The observer is
    // likewise hoisted into one register-held pointer, so the unobserved
    // bank pays a single never-taken branch per filter.
    const std::size_t n = filters_.size();
    FilterProbeObserver *const obs = probeObserver_;
    if (unitInL2) {
        // Cached here: no filter may claim "not cached".
        for (std::size_t i = 0; i < n; ++i) {
            FilterStats &st = stats_[i];
            ++st.probes;
            const bool filtered = filters_[i]->probe(unitAddr);
            if (obs)
                obs->onFilterProbe(
                    {owner_, i, unitAddr, true, blockInL2, filtered});
            if (filtered) {
                ++st.filtered;
                ++st.safetyViolations;
                if (checkSafety_) {
                    panic("JETTY safety violation: " + filters_[i]->name() +
                          " filtered a snoop to a cached unit");
                }
            }
        }
        return;
    }
    // True miss everywhere: filtering is the win, and unfiltered misses
    // feed the exclude components' allocation streams.
    for (std::size_t i = 0; i < n; ++i) {
        FilterStats &st = stats_[i];
        ++st.probes;
        ++st.wouldMiss;
        const bool filtered = filters_[i]->probe(unitAddr);
        if (obs)
            obs->onFilterProbe(
                {owner_, i, unitAddr, false, blockInL2, filtered});
        if (filtered) {
            ++st.filtered;
            ++st.filteredWouldMiss;
        } else {
            filters_[i]->onSnoopMiss(unitAddr, blockInL2);
            ++st.snoopAllocs;
        }
    }
}

void
FilterBank::setProbeObserver(FilterProbeObserver *obs, ProcId owner)
{
    // Observed banks observe immediately and in stream order; entering
    // (or being in) deferred mode with an observer attached would starve
    // it. SmpSystem routes observed runs through the immediate path, so
    // both of these are caller bugs, caught loudly.
    if (obs && deferred_)
        panic("FilterBank: cannot attach a probe observer while deferred");
    probeObserver_ = obs;
    owner_ = owner;
}

void
FilterBank::beginDeferred()
{
    if (probeObserver_)
        panic("FilterBank: cannot defer while a probe observer is attached");
    deferred_ = true;
}

void
FilterBank::endDeferred()
{
    flushDeferred();
    deferred_ = false;
}

void
FilterBank::flushDeferred()
{
    if (queue_.empty())
        return;
    violationsBefore_.resize(stats_.size());
    for (std::size_t i = 0; i < stats_.size(); ++i)
        violationsBefore_[i] = stats_[i].safetyViolations;

    VectorExcludeJetty *const *const vej = vejs_.data();
    FilterStats *const *const vejStats = vejStats_.data();
    const std::size_t nvej = vejs_.size();

    for (ExcludeJettyStack &g : ejStacks_)
        g.beginFlush();
    queue_.forEachRun([&](const BankEvent *evs, std::size_t n) {
        // Pull the run's tail toward the cache while the head replays;
        // each 64 B line holds four 16 B events.
        for (std::size_t off = 0; off < n; off += 64 / sizeof(BankEvent))
            simd::prefetchRead(evs + off);

        // Filter-major: each remaining filter walks the run once through
        // its own (devirtualized where it pays) applyBatch.
        for (const std::size_t i : batchReplayed_)
            filters_[i]->applyBatch(evs, n, stats_[i]);

        // Event-major: one walk for every EJ group and the VEJ family,
        // one kind branch per event.
        if (ejStacks_.empty() && nvej == 0)
            return;
        for (std::size_t e = 0; e < n; ++e) {
            const BankEvent &ev = evs[e];
            switch (ev.kind) {
              case BankEvent::Kind::Snoop:
                for (ExcludeJettyStack &g : ejStacks_)
                    g.snoop(ev);
                VectorExcludeJetty::snoopFamily(ev, vej, vejStats, nvej);
                break;
              case BankEvent::Kind::Fill:
                for (ExcludeJettyStack &g : ejStacks_)
                    g.fill(ev);
                VectorExcludeJetty::fillFamily(ev.unitAddr, vej, vejStats,
                                               nvej);
                break;
              case BankEvent::Kind::Evict:
                for (ExcludeJettyStack &g : ejStacks_)
                    g.evict(ev);
                // The VEJs ignore evictions; only the counter moves.
                for (std::size_t m = 0; m < nvej; ++m)
                    ++vejStats[m]->evictUpdates;
                break;
            }
        }
    });
    // Fold before the safety decision reads the violation counters.
    for (ExcludeJettyStack &g : ejStacks_)
        g.endFlush();

    if (checkSafety_) {
        for (std::size_t i = 0; i < filters_.size(); ++i) {
            if (stats_[i].safetyViolations != violationsBefore_[i]) {
                panic("JETTY safety violation: " + filters_[i]->name() +
                      " filtered a snoop to a cached unit");
            }
        }
    }
    queue_.clear();
}

void
FilterBank::unitFilled(Addr unitAddr)
{
    if (deferred_) {
        queue_.push({unitAddr, BankEvent::Kind::Fill, false, false});
        return;
    }
    for (std::size_t i = 0; i < filters_.size(); ++i) {
        filters_[i]->onFill(unitAddr);
        ++stats_[i].fillUpdates;
    }
}

void
FilterBank::unitEvicted(Addr unitAddr)
{
    if (deferred_) {
        queue_.push({unitAddr, BankEvent::Kind::Evict, false, false});
        return;
    }
    for (std::size_t i = 0; i < filters_.size(); ++i) {
        filters_[i]->onEvict(unitAddr);
        ++stats_[i].evictUpdates;
    }
}

int
FilterBank::indexOf(const std::string &name) const
{
    for (std::size_t i = 0; i < filters_.size(); ++i) {
        if (filters_[i]->name() == name)
            return static_cast<int>(i);
    }
    return -1;
}

} // namespace jetty::filter
