/**
 * @file
 * Scorecard: the paper's figures and tables as data, scored against the
 * paper's own numbers. A scorecard file (`"jetty_scorecard": 1`; schema
 * in DESIGN.md "Paper scorecard") names sweep specs and, over their
 * Reports, per-app *panels* (the figure and table layouts), *anchors*
 * (a metric's mean next to the value the paper reports) and *claims*
 * (ordered comparisons, gated or printed only). The evaluator only
 * reads Report trees; `jetty_cli scorecard` runs the specs through the
 * service executor, so it scores exactly what `sweep --json` writes.
 */

#ifndef JETTY_API_SCORECARD_HH
#define JETTY_API_SCORECARD_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hh"

namespace jetty::api
{

class Scorecard
{
  public:
    /** The file and result schema version this build reads/writes. */
    static constexpr std::int64_t kVersion = 1;

    /** Load @p path, whose spec files resolve relative to it, and run
     *  every check that needs no Report (keys, units, metric fields,
     *  claim shapes and references), so a malformed file fails before
     *  any campaign runs; @p err receives the problem ("" on success). */
    static Scorecard load(const std::string &path, std::string *err);

    /** (id, spec file) pairs in file order. */
    const std::vector<std::pair<std::string, std::string>> &
    specs() const
    {
        return specs_;
    }

    /** Score @p reports (one sweep Report per spec id) into the result
     *  document, which has no timing members: the same runs give the
     *  same bytes. @p scale > 0 is echoed as the runs' scale override.
     *  @return the document, or null with @p err naming the entry whose
     *  Report lacks what it selects. */
    json::Value evaluate(const std::map<std::string, json::Value> &reports,
                         double scale, std::string *err) const;

    /** Print a result document as text tables. */
    static void print(const json::Value &result);

    /** Gated claims that do not hold in a result document. */
    static unsigned failedGates(const json::Value &result);

  private:
    json::Value doc_;
    std::vector<std::pair<std::string, std::string>> specs_;
};

} // namespace jetty::api

#endif // JETTY_API_SCORECARD_HH
