/**
 * @file
 * Lightweight statistics primitives (counters, ratios, histograms) used by
 * the simulator and the filter bank. Deliberately simple: everything is a
 * named 64-bit counter or a fixed-bucket histogram that can be printed or
 * merged.
 */

#ifndef JETTY_UTIL_STATS_HH
#define JETTY_UTIL_STATS_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace jetty
{

/** A monotonically increasing event counter. */
class Counter
{
  public:
    Counter() = default;

    /** Add @p n events (default one). */
    void inc(std::uint64_t n = 1) { value_ += n; }

    /** Current count. */
    std::uint64_t value() const { return value_; }

    /** Merge another counter into this one. */
    void merge(const Counter &o) { value_ += o.value_; }

    /** Reset to zero. */
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** Safe ratio of two counts; returns 0 when the denominator is zero. */
inline double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/** Percentage form of ratio(). */
inline double
percent(std::uint64_t num, std::uint64_t den)
{
    return 100.0 * ratio(num, den);
}

/**
 * Median of @p samples (sorted in place); 0 on an empty vector. Even
 * counts take the lower middle element — a real measurement, not an
 * average of two — so repeated runs over the same samples agree exactly.
 * The benches report median-of-N wall-clock times through this: the
 * median rides out the one-sided contention spikes a shared CI box
 * injects, where a mean would absorb them.
 */
inline double
medianInPlace(std::vector<double> &samples)
{
    if (samples.empty())
        return 0.0;
    if (samples.size() == 1)
        return samples[0];  // nothing to sort for a single sample
    std::sort(samples.begin(), samples.end());
    return samples[(samples.size() - 1) / 2];
}

/**
 * Fixed-bucket histogram over small integer samples (e.g., the number of
 * remote caches hit by a snoop, 0..Ncpu-1). Samples beyond the last bucket
 * are clamped into it.
 */
class Histogram
{
  public:
    /** Create a histogram with @p buckets buckets (>= 1). */
    explicit Histogram(std::size_t buckets = 1) : counts_(buckets, 0) {}

    /** Record one sample with value @p v. */
    void
    sample(std::size_t v)
    {
        if (v >= counts_.size())
            v = counts_.size() - 1;
        ++counts_[v];
        ++total_;
    }

    /** Rebuild a histogram from serialized raw counts (the persistent
     *  RunCache restoring an AppRunResult from disk). @p total is kept
     *  as recorded rather than recomputed: clamped samples mean the
     *  bucket sum equals total anyway, and a restore must be exact. */
    static Histogram
    fromRaw(std::vector<std::uint64_t> counts, std::uint64_t total)
    {
        Histogram h(std::max<std::size_t>(counts.size(), 1));
        if (!counts.empty())
            h.counts_ = std::move(counts);
        h.total_ = total;
        return h;
    }

    /** Number of buckets. */
    std::size_t buckets() const { return counts_.size(); }

    /** Raw count in bucket @p i. */
    std::uint64_t count(std::size_t i) const { return counts_.at(i); }

    /** Total number of samples recorded. */
    std::uint64_t total() const { return total_; }

    /** Merge another histogram (same bucket count) into this one. */
    void
    merge(const Histogram &o)
    {
        counts_.resize(std::max(counts_.size(), o.counts_.size()), 0);
        for (std::size_t i = 0; i < o.counts_.size(); ++i)
            counts_[i] += o.counts_[i];
        total_ += o.total_;
    }

    /** Reset all buckets. */
    void
    reset()
    {
        for (auto &c : counts_)
            c = 0;
        total_ = 0;
    }

  private:
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

} // namespace jetty

#endif // JETTY_UTIL_STATS_HH
