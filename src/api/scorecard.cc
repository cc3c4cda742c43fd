#include "api/scorecard.hh"

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <set>

#include "util/string_utils.hh"
#include "util/table.hh"

namespace jetty::api
{

namespace
{

const std::vector<json::Value> &
items(const json::Value &obj, const char *key)
{
    static const std::vector<json::Value> kNone;
    const json::Value *v = obj.find(key);
    return v && v->isArray() ? v->items() : kNone;
}

/** String member @p key of @p obj, else of @p defaults; "" if neither. */
std::string
field(const json::Value &obj, const json::Value *defaults, const char *key)
{
    const json::Value *v = obj.find(key);
    if (!v && defaults)
        v = defaults->find(key);
    return v && v->isString() ? v->asString() : "";
}

/** "" when @p obj is an object holding only @p keys, else the
 *  complaint. */
std::string
unknownKey(const json::Value &obj, std::initializer_list<const char *> keys)
{
    if (!obj.isObject())
        return "expected an object";
    for (const auto &m : obj.members()) {
        if (std::none_of(keys.begin(), keys.end(),
                         [&m](const char *k) { return m.first == k; }))
            return "unknown key '" + m.first + "'";
    }
    return "";
}

json::Value
object(std::initializer_list<std::pair<const char *, json::Value>> members)
{
    json::Value v = json::Value::object();
    for (const auto &m : members)
        v.set(m.first, m.second);
    return v;
}

/** The dotted @p path under @p v (a number segment indexes an array);
 *  nullptr when absent. */
const json::Value *
at(const json::Value *v, const std::string &path)
{
    for (const auto &seg : split(trim(path), '.')) {
        unsigned i = 0;
        v = !v || !v->isArray() ? (v ? v->find(seg) : nullptr)
            : parseUnsigned(seg, i) && i < v->size() ? &v->items()[i]
                                                     : nullptr;
    }
    return v;
}

/** Sum the numbers at the paths of "a + b" or "(a + b)" under @p node. */
bool
sumAt(const json::Value &node, std::string terms, double &out)
{
    terms = trim(terms);
    if (terms.size() > 1 && terms.front() == '(' && terms.back() == ')')
        terms = terms.substr(1, terms.size() - 2);
    out = 0;
    for (const auto &path : split(terms, '+')) {
        const json::Value *v = at(&node, path);
        if (!v || !v->isNumber())
            return false;
        out += v->asDouble();
    }
    return true;
}

std::string
formatted(const std::string &unit, double v)
{
    return unit == "fraction" || unit == "percent" ? TextTable::pct(v)
                                                   : TextTable::num(v, 1);
}

/**
 * The checks of metric @p m (fields falling back to @p defaults) that
 * need no Report: its spec is one of @p specIds, it has a value and a
 * well-formed "where", and its unit is known.
 * @return "" or the complaint.
 */
std::string
checkMetric(const json::Value &m, const json::Value *defaults,
            const std::set<std::string> &specIds)
{
    const std::string spec = field(m, defaults, "spec");
    const std::string where = field(m, defaults, "where");
    const std::string unit = field(m, defaults, "unit");
    if (!specIds.count(spec))
        return "unknown spec '" + spec + "'";
    if (field(m, defaults, "value").empty() ||
        (!where.empty() && where.find("==") == std::string::npos))
        return "needs a \"value\" (and \"where\" reads '<path> == <json>')";
    if (unit != "fraction" && unit != "percent" && unit != "count" &&
        unit != "bytes" && unit != "cycles")
        return "unit '" + unit +
               "' (valid: fraction, percent, count, bytes, cycles)";
    return "";
}

/** Panel column @p c as an object: a bare name is a filter column
 *  under the panel's fields. */
json::Value
columnOf(const json::Value &c)
{
    if (!c.isString())
        return c;
    return object({{"label", c}, {"filter", c}});
}

/**
 * Every check of scorecard @p doc that needs no Report: keys, metric
 * fields, unique references, claim shapes and the references claims
 * name. @return "" or the complaint, worded as evaluate() words its own.
 */
std::string
validate(const json::Value &doc, const std::set<std::string> &specIds)
{
    std::set<std::string> refs;
    const auto metric = [&](const json::Value &m, const json::Value *defaults,
                            const std::string &ref,
                            std::initializer_list<const char *> keys) {
        std::string why = unknownKey(m, keys);
        if (why.empty() && !refs.insert(ref).second)
            why = "duplicate reference '" + ref + "'";
        return why.empty() ? checkMetric(m, defaults, specIds) : why;
    };
    const auto fail = [](const std::string &where, const std::string &why) {
        return "scorecard: " + where + ": " + why;
    };

    for (const auto &p : items(doc, "panels")) {
        const std::string id = field(p, nullptr, "id");
        const std::string why = unknownKey(
            p, {"id", "title", "spec", "where", "value", "unit", "columns"});
        if (!why.empty())
            return fail("panel " + id, why);
        for (const auto &c : items(p, "columns")) {
            const json::Value col = columnOf(c);
            const std::string label = field(col, nullptr, "label");
            const std::string bad =
                metric(col, &p, id + "/" + label,
                       {"label", "spec", "where", "filter", "value", "unit"});
            if (!bad.empty())
                return fail("panel " + id + " column " + label, bad);
        }
        if (items(p, "columns").empty())
            return fail("panel " + id, "no columns");
    }

    for (const auto &a : items(doc, "anchors")) {
        const std::string name = field(a, nullptr, "name");
        const json::Value *paper = a.find("paper");
        const std::string why =
            paper && paper->isNumber()
                ? metric(a, nullptr, name,
                         {"name", "quote", "paper", "spec", "where",
                          "filter", "value", "unit"})
                : "needs a \"paper\" number";
        if (!why.empty())
            return fail("anchor " + name, why);
    }

    for (const auto &c : items(doc, "claims")) {
        const std::string text = field(c, nullptr, "claim");
        const std::string gap = field(c, nullptr, "known_gap");
        const json::Value *gated = c.find("gated");
        const json::Value *everyApp = c.find("every_app");
        const auto &chains = items(c, "order");
        std::string why = unknownKey(c, {"claim", "order", "gated",
                                         "every_app", "known_gap"});
        if (why.empty() &&
            (!gated || !gated->isBool() || (gated->asBool() && !gap.empty()) ||
             (everyApp && !everyApp->isBool()) || chains.empty() ||
             std::any_of(chains.begin(), chains.end(), [](const auto &ch) {
                 return !ch.isArray() || ch.size() < 2;
             })))
            why = "needs \"gated\" and an \"order\" of chains of two or more "
                  "terms (a known gap is never gated)";
        if (!why.empty())
            return fail("claim '" + text + "'", why);
        const json::Value &head = chains[0].items()[0];
        if (everyApp && everyApp->asBool() &&
            !refs.count(head.isString() ? head.asString() : ""))
            return fail("claim '" + text + "'",
                        "every_app needs a reference as its first term");
        for (const auto &chain : chains) {
            for (const auto &t : chain.items()) {
                if (!t.isNumber() &&
                    !refs.count(t.isString() ? t.asString() : ""))
                    return fail("claim '" + text + "'",
                                "no value for " + t.dumpCompact() +
                                    " at AVG");
            }
        }
    }
    return "";
}

/**
 * Evaluate the metric @p m (fields falling back to @p defaults) over its
 * spec's Report: @p out maps each selected cell's app to its value, then
 * "AVG" to their mean (summed in Report cell order).
 * @return "" or the complaint.
 */
std::string
evalMetric(const json::Value &m, const json::Value *defaults,
           const std::map<std::string, json::Value> &reports,
           json::Value &out)
{
    const std::string spec = field(m, defaults, "spec");
    const std::string where = field(m, defaults, "where");
    const std::string filter = field(m, defaults, "filter");
    const std::string value = field(m, defaults, "value");
    const std::string unit = field(m, defaults, "unit");
    const auto report = reports.find(spec);
    if (report == reports.end())
        return "unknown spec '" + spec + "'";
    const std::size_t eq = where.find("==");
    // The Report quantity's unit -> its scored form: a percentage,
    // millions, MiB; percent and cycles score as read (checkMetric
    // vetted the unit).
    const double mul = unit == "fraction" ? 100 : 1;
    const double divisor = unit == "count"   ? 1e6
                           : unit == "bytes" ? 1024.0 * 1024.0
                                             : 1;

    const std::size_t div = value.find('/');
    out = json::Value::object();
    double sum = 0;
    for (const auto &run : items(report->second, "runs")) {
        if (!where.empty()) {
            const json::Value *w = at(&run, where.substr(0, eq));
            if (!w || w->dumpCompact() != trim(where.substr(eq + 2)))
                continue;
        }
        const std::string app = field(run, nullptr, "abbrev");
        const json::Value *node = filter.empty() ? &run : nullptr;
        for (const auto &row : items(run, "filters")) {
            if (!node && field(row, nullptr, "spec") == filter)
                node = &row;
        }
        double num = 0, den = 1;
        if (!node || !sumAt(*node, value.substr(0, div), num) ||
            (div != std::string::npos &&
             !sumAt(*node, value.substr(div + 1), den)))
            return "app " + app + " has no '" + value + "'" +
                   (filter.empty() ? "" : " for filter " + filter);
        if (out.find(app))
            return "two cells of app " + app + " (narrow it with \"where\")";
        // util/stats.hh ratio() and percent() arithmetic: a 0/0 ratio
        // scores 0, and a percentage is 100 * (num / den).
        const double v = mul * (den == 0 ? 0.0 : num / den) / divisor;
        out.set(app, v);
        sum += v;
    }
    if (out.size() == 0)
        return "selects no cells";
    out.set("AVG", sum / static_cast<double>(out.size()));
    return "";
}

} // namespace

Scorecard
Scorecard::load(const std::string &path, std::string *err)
{
    Scorecard card;
    card.doc_ = json::parseFile(path, err);
    const json::Value *version = card.doc_.find("jetty_scorecard");
    const json::Value *specs = card.doc_.find("specs");
    if (err->empty() &&
        (!version || !version->isIntegral() || version->asI64() != kVersion ||
         !specs || !specs->isObject()))
        *err = "needs \"jetty_scorecard\": 1 and a \"specs\" object";
    if (err->empty())
        *err = unknownKey(card.doc_, {"jetty_scorecard", "specs", "panels",
                                      "anchors", "claims"});
    if (!err->empty()) {
        *err = "scorecard '" + path + "': " + *err;
        return card;
    }
    const std::size_t slash = path.rfind('/');
    for (const auto &m : specs->members()) {
        std::string file = field(*specs, nullptr, m.first.c_str());
        if (file.empty()) {
            *err = "scorecard '" + path + "': specs." + m.first +
                   " needs a spec file name";
            return card;
        }
        if (file.front() != '/' && slash != std::string::npos)
            file = path.substr(0, slash + 1) + file;
        card.specs_.emplace_back(m.first, file);
    }
    std::set<std::string> specIds;
    for (const auto &spec : card.specs_)
        specIds.insert(spec.first);
    *err = validate(card.doc_, specIds);
    return card;
}

json::Value
Scorecard::evaluate(const std::map<std::string, json::Value> &reports,
                    double scale, std::string *err) const
{
    // Every evaluated metric by its claim reference: "<panel>/<label>"
    // or the anchor's name.
    // load() ran every check that needs no Report; what fails here is
    // the Reports' content.
    std::map<std::string, json::Value> refs;
    const auto metric = [&](const json::Value &m, const json::Value *defaults,
                            const std::string &ref) {
        return evalMetric(m, defaults, reports, refs[ref]);
    };
    const auto fail = [err](const std::string &where, const std::string &why) {
        *err = "scorecard: " + where + ": " + why;
        return json::Value();
    };

    json::Value panels = json::Value::array();
    for (const auto &p : items(doc_, "panels")) {
        const std::string id = field(p, nullptr, "id");
        json::Value columns = json::Value::array();
        for (const auto &c : items(p, "columns")) {
            const json::Value col = columnOf(c);
            const std::string label = field(col, nullptr, "label");
            const std::string bad = metric(col, &p, id + "/" + label);
            if (!bad.empty())
                return fail("panel " + id + " column " + label, bad);
            columns.push(object({{"label", label},
                                 {"unit", field(col, &p, "unit")},
                                 {"values", refs[id + "/" + label]}}));
        }
        panels.push(object({{"id", id},
                            {"title", field(p, nullptr, "title")},
                            {"columns", std::move(columns)}}));
    }

    json::Value anchors = json::Value::array();
    for (const auto &a : items(doc_, "anchors")) {
        const std::string name = field(a, nullptr, "name");
        const json::Value *paper = a.find("paper");
        const std::string why = metric(a, nullptr, name);
        if (!why.empty())
            return fail("anchor " + name, why);
        const double simulated = refs[name].find("AVG")->asDouble();
        anchors.push(object({{"name", name},
                             {"quote", field(a, nullptr, "quote")},
                             {"unit", field(a, nullptr, "unit")},
                             {"paper", paper->asDouble()},
                             {"simulated", simulated},
                             {"delta", simulated - paper->asDouble()}}));
    }

    json::Value claims = json::Value::array();
    for (const auto &c : items(doc_, "claims")) {
        const std::string text = field(c, nullptr, "claim");
        const std::string gap = field(c, nullptr, "known_gap");
        const json::Value *gated = c.find("gated");
        const json::Value *everyApp = c.find("every_app");
        const auto &chains = items(c, "order");
        // Each chain must fall strictly on the means ("AVG") and, with
        // every_app, at every app of the first chain's first reference.
        std::vector<std::string> keys{"AVG"};
        const json::Value &head = chains[0].items()[0];
        if (everyApp && everyApp->asBool()) {
            for (const auto &m : refs.at(head.asString()).members()) {
                if (m.first != "AVG")
                    keys.push_back(m.first);
            }
        }
        bool holds = true;
        std::string detail, failing;
        for (const auto &key : keys) {
            for (const auto &chain : chains) {
                double prev = 0;
                for (std::size_t i = 0; i < chain.size(); ++i) {
                    const json::Value &t = chain.items()[i];
                    const auto ref =
                        refs.find(t.isString() ? t.asString() : "");
                    const json::Value *v = t.isNumber() ? &t
                                           : ref == refs.end()
                                               ? nullptr
                                               : ref->second.find(key);
                    if (!v)
                        return fail("claim '" + text + "'",
                                    "no value for " + t.dumpCompact() +
                                        " at " + key);
                    const bool link = i == 0 || prev > v->asDouble();
                    holds = holds && link;
                    if (!link && key != "AVG" &&
                        failing.find(" " + key) == std::string::npos)
                        failing += " " + key;
                    if (key == "AVG")
                        detail += std::string(i == 0 ? (detail.empty() ? ""
                                                                       : "; ")
                                              : link ? " > "
                                                     : " <= ") +
                                  TextTable::num(v->asDouble(), 1);
                    prev = v->asDouble();
                }
            }
        }
        if (keys.size() > 1)
            detail += "; per app: fails on" +
                      (failing.empty() ? std::string(" none") : failing);
        claims.push(object(
            {{"claim", text},
             {"gated", gated->asBool()},
             {"known_gap", gap.empty() ? json::Value() : json::Value(gap)},
             {"holds", holds},
             {"detail", detail}}));
    }

    return object({{"jetty_scorecard_result", kVersion},
                   {"scale", scale > 0 ? json::Value(scale) : json::Value()},
                   {"panels", std::move(panels)},
                   {"anchors", std::move(anchors)},
                   {"claims", std::move(claims)}});
}

void
Scorecard::print(const json::Value &result)
{
    for (const auto &panel : items(result, "panels")) {
        const auto &columns = items(panel, "columns");
        TextTable table;
        std::vector<std::string> head{"App"};
        for (const auto &col : columns)
            head.push_back(field(col, nullptr, "label"));
        table.header(head);
        // One row per app of the first column, then its AVG.
        for (const auto &m : columns[0].find("values")->members()) {
            std::vector<std::string> row{m.first};
            for (const auto &col : columns) {
                const json::Value *v = col.find("values")->find(m.first);
                row.push_back(v ? formatted(field(col, nullptr, "unit"),
                                            v->asDouble())
                                : "-");
            }
            table.row(std::move(row));
        }
        std::printf("%s\n\n", field(panel, nullptr, "title").c_str());
        table.print();
        std::printf("\n");
    }

    TextTable anchors;
    anchors.header({"anchor", "paper", "simulated", "delta"});
    for (const auto &a : items(result, "anchors")) {
        const std::string unit = field(a, nullptr, "unit");
        const double delta = a.find("delta")->asDouble();
        anchors.row({field(a, nullptr, "name"),
                     formatted(unit, a.find("paper")->asDouble()),
                     formatted(unit, a.find("simulated")->asDouble()),
                     (delta >= 0 ? "+" : "") + TextTable::num(delta, 1)});
    }
    std::printf("Paper anchors (simulated = mean over the selected "
                "cells)\n\n");
    anchors.print();

    std::printf("\nClaims\n\n");
    for (const auto &c : items(result, "claims")) {
        const std::string gap = field(c, nullptr, "known_gap");
        std::printf("  %-5s  %-9s  %s: %s\n",
                    c.find("holds")->asBool() ? "holds" : "FAILS",
                    c.find("gated")->asBool() ? "gated"
                    : gap.empty()             ? "printed"
                                              : "known gap",
                    field(c, nullptr, "claim").c_str(),
                    field(c, nullptr, "detail").c_str());
        if (!gap.empty())
            std::printf("%20s%s\n", "", gap.c_str());
    }
    std::printf("\n%u gated claim(s) fail\n", failedGates(result));
}

unsigned
Scorecard::failedGates(const json::Value &result)
{
    const auto &claims = items(result, "claims");
    return static_cast<unsigned>(std::count_if(
        claims.begin(), claims.end(), [](const json::Value &c) {
            return c.find("gated")->asBool() && !c.find("holds")->asBool();
        }));
}

} // namespace jetty::api
