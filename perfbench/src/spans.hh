/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * Every span has a name ("<layer>.<call>"), a start and an end on the
 * host's steady clock, its parent span and the op id current when it
 * opened. Spans are kept in memory and only written out at exit, as
 * Chrome trace-event JSON (opens in Perfetto or chrome://tracing).
 * Self time is a span's duration minus its direct children's.
 *
 * When no recorder is installed (the untraced runs that produce the
 * end-to-end numbers) a Span is one null check.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "util/json.hh"

namespace perfbench
{

struct SpanRecord
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;  //!< index into the recorder, -1 = root
    std::uint64_t op = 0;
};

class SpanRecorder
{
  public:
    using Clock = std::chrono::steady_clock;

    SpanRecorder() : epoch_(Clock::now()) {}

    int
    open(const std::string &name)
    {
        SpanRecord rec;
        rec.name = name;
        rec.startNs = nowNs();
        rec.parent = stack_.empty() ? -1 : stack_.back();
        rec.op = op_;
        spans_.push_back(std::move(rec));
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void
    close(int idx)
    {
        spans_[static_cast<std::size_t>(idx)].endNs = nowNs();
        if (!stack_.empty() && stack_.back() == idx)
            stack_.pop_back();
    }

    void setOp(std::uint64_t op) { op_ = op; }

    const std::vector<SpanRecord> &spans() const { return spans_; }

    /** Duration minus the direct children's durations, per span. */
    std::vector<std::int64_t>
    selfTimes() const
    {
        std::vector<std::int64_t> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i)
            self[i] = spans_[i].endNs - spans_[i].startNs;
        for (const auto &s : spans_) {
            if (s.parent >= 0)
                self[static_cast<std::size_t>(s.parent)] -= s.endNs - s.startNs;
        }
        return self;
    }

    /** Chrome trace-event document ("X" complete events, microseconds). */
    jetty::json::Value
    chromeTrace(jetty::json::Value otherData) const
    {
        const auto self = selfTimes();
        jetty::json::Value events = jetty::json::Value::array();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const auto &s = spans_[i];
            jetty::json::Value ev = jetty::json::Value::object();
            ev.set("name", s.name);
            ev.set("cat", layerOf(s.name));
            ev.set("ph", "X");
            ev.set("ts", static_cast<double>(s.startNs) / 1e3);
            ev.set("dur", static_cast<double>(s.endNs - s.startNs) / 1e3);
            ev.set("pid", 1);
            ev.set("tid", 1);
            jetty::json::Value args = jetty::json::Value::object();
            args.set("op", s.op);
            args.set("span", static_cast<std::uint64_t>(i));
            args.set("parent", s.parent);
            args.set("self_us", static_cast<double>(self[i]) / 1e3);
            ev.set("args", std::move(args));
            events.push(std::move(ev));
        }
        jetty::json::Value doc = jetty::json::Value::object();
        doc.set("traceEvents", std::move(events));
        doc.set("displayTimeUnit", "ms");
        doc.set("otherData", std::move(otherData));
        return doc;
    }

    /**
     * Print, for the spans under every root span named "op", each
     * layer's self time per op and its share of the op's wall time.
     */
    void
    printOpShares() const
    {
        const auto self = selfTimes();
        std::map<std::string, std::int64_t> byLayer;
        std::int64_t opTotal = 0;
        std::size_t ops = 0;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const int root = rootOf(static_cast<int>(i));
            if (spans_[static_cast<std::size_t>(root)].name != "op")
                continue;
            if (static_cast<int>(i) == root) {
                opTotal += spans_[i].endNs - spans_[i].startNs;
                ++ops;
            }
            byLayer[layerOf(spans_[i].name)] += self[i];
        }
        if (ops == 0)
            return;
        std::printf("per-layer self time over %zu traced ops:\n", ops);
        for (const auto &[layer, ns] : byLayer) {
            std::printf("  %-12s %10.3f ms/op  %6.2f%% of op\n",
                        layer.c_str(),
                        static_cast<double>(ns) / 1e6 /
                            static_cast<double>(ops),
                        opTotal > 0 ? 100.0 * static_cast<double>(ns) /
                                          static_cast<double>(opTotal)
                                    : 0.0);
        }
    }

  private:
    /** The layer a span belongs to: its name up to the first '.'. */
    static std::string
    layerOf(const std::string &name)
    {
        const auto dot = name.find('.');
        return dot == std::string::npos ? name : name.substr(0, dot);
    }

    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
            .count();
    }

    int
    rootOf(int i) const
    {
        while (spans_[static_cast<std::size_t>(i)].parent >= 0)
            i = spans_[static_cast<std::size_t>(i)].parent;
        return i;
    }

    Clock::time_point epoch_;
    std::vector<SpanRecord> spans_;
    std::vector<int> stack_;
    std::uint64_t op_ = 0;
};

/** The recorder of the traced run; null in untraced runs. */
inline SpanRecorder *&
activeRecorder()
{
    static SpanRecorder *rec = nullptr;
    return rec;
}

/** RAII span on the active recorder (a no-op when there is none). */
class Span
{
  public:
    explicit Span(const char *name)
        : rec_(activeRecorder()), idx_(rec_ ? rec_->open(name) : -1)
    {}
    ~Span()
    {
        if (rec_)
            rec_->close(idx_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanRecorder *rec_;
    int idx_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
