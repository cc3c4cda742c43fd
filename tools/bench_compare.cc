/**
 * @file
 * bench_compare: the CI perf-regression gate over committed bench
 * baselines.
 *
 * Compares a fresh bench Report (bench_throughput / bench_snoopbus
 * --out) against the committed BENCH_*.json baseline and fails (exit 2)
 * when any throughput metric regressed by more than the threshold
 * (default 10%). Both files are PR 5 structured Reports, so the compare
 * is a walk of two JSON trees — no scraping.
 *
 * What counts as a throughput metric (higher is better):
 *  - any key ending in `_refs_per_sec` (absolute simulation rates);
 *  - any key containing `speedup` (batched-vs-scalar ratios).
 *
 * Array elements are matched by identity, not position: an object with a
 * `name` ("workloads" rows) or `buses` ("bus_rows") member is paired
 * with the baseline element carrying the same value, so reordering or
 * appending workloads never mis-pairs rows. A baseline metric missing
 * from the fresh report fails the gate (schema drift is a regression of
 * the gate itself); fresh-only metrics are ignored (new benches may land
 * before their baselines).
 *
 * Rates can legitimately be null (a run too short to rate: the Report
 * layer emits null, never 0 or inf) — a null or non-positive value on
 * either side SKIPs that metric instead of scoring it as a 100%
 * regression. Skips are reported, and `--max-skips N` (default:
 * unlimited) can bound them where a baseline is known to be fully rated.
 *
 * `--ratios-only` restricts the gate to the speedup metrics. Absolute
 * refs/sec only compare like-for-like on the machine that produced the
 * baseline; CI boxes differ, so the CI job gates on the
 * machine-portable ratios and prints the absolute rows as context.
 *
 * Exit codes: 0 pass, 1 usage/parse/schema error, 2 regression.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "util/flags.hh"
#include "util/json.hh"
#include "util/table.hh"

using namespace jetty;

namespace
{

bool
endsWith(const std::string &s, const char *suffix)
{
    const std::size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

bool
isRateKey(const std::string &key)
{
    return endsWith(key, "_refs_per_sec");
}

bool
isSpeedupKey(const std::string &key)
{
    return key.find("speedup") != std::string::npos;
}

/** One throughput metric found in a report tree. */
struct Metric
{
    std::string path;  //!< e.g. "workloads[lu].bus_rows[4].speedup"
    bool isRatio = false;
    bool rated = false;  //!< numeric and > 0 (null/0 = unrated run)
    double value = 0;
};

/** The identity suffix for an array element: match by name/buses when
 *  the row carries one, by position otherwise. */
std::string
elementKey(const json::Value &elem, std::size_t index)
{
    if (elem.isObject()) {
        if (const json::Value *name = elem.find("name");
            name && name->isString())
            return name->asString();
        if (const json::Value *buses = elem.find("buses");
            buses && buses->isNumber())
            return std::to_string(buses->asI64());
    }
    return "#" + std::to_string(index);
}

void
collectMetrics(const json::Value &v, const std::string &path,
               std::vector<Metric> &out)
{
    if (v.isObject()) {
        for (const auto &[key, child] : v.members()) {
            const std::string child_path =
                path.empty() ? key : path + "." + key;
            if (isRateKey(key) || isSpeedupKey(key)) {
                Metric m;
                m.path = child_path;
                m.isRatio = isSpeedupKey(key);
                if (child.isNumber() && child.asDouble() > 0) {
                    m.rated = true;
                    m.value = child.asDouble();
                }
                out.push_back(std::move(m));
                continue;
            }
            collectMetrics(child, child_path, out);
        }
    } else if (v.isArray()) {
        for (std::size_t i = 0; i < v.items().size(); ++i) {
            const json::Value &elem = v.items()[i];
            collectMetrics(elem,
                           path + "[" + elementKey(elem, i) + "]", out);
        }
    }
}

const Metric *
findMetric(const std::vector<Metric> &metrics, const std::string &path)
{
    for (const auto &m : metrics) {
        if (m.path == path)
            return &m;
    }
    return nullptr;
}

json::Value
loadReport(const std::string &path)
{
    std::string err;
    json::Value v = json::parseFile(path, &err);
    if (!err.empty()) {
        std::fprintf(stderr, "bench_compare: %s: %s\n", path.c_str(),
                     err.c_str());
        std::exit(1);
    }
    if (!v.isObject() || !v.find("jetty_report")) {
        std::fprintf(stderr,
                     "bench_compare: %s is not a jetty Report\n",
                     path.c_str());
        std::exit(1);
    }
    return v;
}

std::string
stringField(const json::Value &v, const char *key)
{
    const json::Value *f = v.find(key);
    return f && f->isString() ? f->asString() : std::string("?");
}

} // namespace

int
main(int argc, char **argv)
{
    using K = flags::Kind;
    const flags::Command cmd{
        "bench_compare",
        {"BASELINE.json", "FRESH.json"},
        {{"threshold", K::NonNegative, "PCT"}, {"ratios-only"},
         {"max-skips", K::Count, "N"}}};
    flags::Values f;
    std::string err = flags::parse(cmd, argc, argv, 1, f);
    if (err.empty() && f.args().size() < 2)
        err = "bench_compare needs a baseline and a fresh report";
    if (!err.empty()) {
        std::fprintf(stderr, "%s\nusage: %s\n", err.c_str(),
                     flags::usage(cmd).c_str());
        return 1;
    }
    const std::string &baseline_path = f.args()[0];
    const std::string &fresh_path = f.args()[1];
    const double threshold = f.number("threshold", 10.0);
    const bool ratios_only = f.has("ratios-only");
    const long max_skips =
        f.has("max-skips") ? static_cast<long>(f.count("max-skips", 0)) : -1;

    const json::Value baseline = loadReport(baseline_path);
    const json::Value fresh = loadReport(fresh_path);

    const std::string base_kind = stringField(baseline, "kind");
    const std::string fresh_kind = stringField(fresh, "kind");
    if (base_kind != fresh_kind) {
        std::fprintf(stderr,
                     "bench_compare: kind mismatch: baseline is '%s', "
                     "fresh is '%s'\n",
                     base_kind.c_str(), fresh_kind.c_str());
        return 1;
    }

    const std::string base_isa = stringField(baseline, "simd_isa");
    const std::string fresh_isa = stringField(fresh, "simd_isa");
    if (base_isa != fresh_isa) {
        std::printf("note: SIMD tier differs (baseline %s, fresh %s) — "
                    "absolute rates are not like-for-like\n",
                    base_isa.c_str(), fresh_isa.c_str());
    }

    std::vector<Metric> base_metrics, fresh_metrics;
    collectMetrics(baseline, "", base_metrics);
    collectMetrics(fresh, "", fresh_metrics);
    if (base_metrics.empty()) {
        std::fprintf(stderr,
                     "bench_compare: no throughput metrics in %s\n",
                     baseline_path.c_str());
        return 1;
    }

    TextTable table;
    table.header({"metric", "baseline", "fresh", "delta", "verdict"});
    unsigned regressions = 0, skips = 0, missing = 0, compared = 0;
    std::string worst_path;  // deepest regression, for the FAIL line
    double worst_delta = 0.0;
    for (const auto &base : base_metrics) {
        if (ratios_only && !base.isRatio)
            continue;
        const Metric *now = findMetric(fresh_metrics, base.path);
        if (!now) {
            table.row({base.path, TextTable::num(base.value, 3), "-", "-",
                       "MISSING"});
            ++missing;
            continue;
        }
        if (!base.rated || !now->rated) {
            // A null/zero rate means "run too short to rate", not "rate
            // of zero": scoring it would report a 100% regression for a
            // timer artifact.
            table.row({base.path,
                       base.rated ? TextTable::num(base.value, 3) : "null",
                       now->rated ? TextTable::num(now->value, 3) : "null",
                       "-", "skip"});
            ++skips;
            continue;
        }
        ++compared;
        const double delta_pct =
            100.0 * (now->value - base.value) / base.value;
        const bool regressed = delta_pct < -threshold;
        if (regressed) {
            ++regressions;
            if (delta_pct < worst_delta) {
                worst_delta = delta_pct;
                worst_path = base.path;
            }
        }
        char delta[32];
        std::snprintf(delta, sizeof delta, "%+.1f%%", delta_pct);
        table.row({base.path, TextTable::num(base.value, 3),
                   TextTable::num(now->value, 3), delta,
                   regressed ? "REGRESSED" : "ok"});
    }
    table.print();

    if (missing > 0) {
        std::fprintf(stderr,
                     "bench_compare: %u baseline metric(s) missing from "
                     "the fresh report\n",
                     missing);
        return 1;
    }
    if (max_skips >= 0 && skips > static_cast<unsigned>(max_skips)) {
        std::fprintf(stderr,
                     "bench_compare: %u metric(s) skipped (unrated), "
                     "more than --max-skips %ld\n",
                     skips, max_skips);
        return 1;
    }
    if (regressions > 0) {
        // Name the deepest offender inline: a CI log tail shows the
        // FAIL line long before the table, so the row that broke the
        // gate must be readable from it alone.
        std::printf("FAIL: %u metric(s) regressed more than %.1f%% vs "
                    "%s (worst: %s %+.1f%%)\n",
                    regressions, threshold, baseline_path.c_str(),
                    worst_path.c_str(), worst_delta);
        return 2;
    }
    std::printf("PASS: no metric regressed more than %.1f%% "
                "(%u compared, %u skipped)\n",
                threshold, compared, skips);
    return 0;
}
