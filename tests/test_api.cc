/**
 * @file
 * The declarative API layer: util/json writer/parser round trips,
 * ExperimentSpec parse/emit identity, unknown-key / version-mismatch /
 * range rejection with descriptive messages, canonicalization stability
 * (reordered keys -> the same RunCache key), Report schema goldens, the
 * machine <-> SmpConfig mapping, the paper's filter lists against the
 * committed figure specs, and scorecard load-time validation.
 *
 * The golden fixtures live in tests/golden/ (JETTY_SOURCE_DIR is
 * injected by the build): emitted bytes are compared against checked-in
 * files, so any schema or formatting drift fails CI until the goldens
 * are deliberately regenerated.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "api/experiment_spec.hh"
#include "api/report.hh"
#include "api/scorecard.hh"
#include "core/filter_spec.hh"
#include "util/json.hh"

using namespace jetty;
using api::ExperimentSpec;

namespace
{

std::string
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return "";
    std::string text;
    char buf[4096];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, got);
    std::fclose(f);
    return text;
}

std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

double
doubleOf(std::uint64_t bits)
{
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
goldenPath(const std::string &name)
{
    return std::string(JETTY_SOURCE_DIR) + "/tests/golden/" + name;
}

} // namespace

// ---- util/json -------------------------------------------------------

TEST(Json, ScalarRoundTrips)
{
    std::string err;
    const json::Value v = json::parse(
        "{\"i\": -3, \"u\": 18446744073709551615, \"d\": 0.25, "
        "\"s\": \"hi\", \"b\": true, \"n\": null, \"a\": [1, 2]}",
        &err);
    ASSERT_EQ(err, "");
    EXPECT_EQ(v.find("i")->asI64(), -3);
    EXPECT_EQ(v.find("u")->asU64(), 18446744073709551615ULL);
    EXPECT_EQ(v.find("d")->asDouble(), 0.25);
    EXPECT_EQ(v.find("s")->asString(), "hi");
    EXPECT_TRUE(v.find("b")->asBool());
    EXPECT_TRUE(v.find("n")->isNull());
    EXPECT_EQ(v.find("a")->items().size(), 2u);

    // parse(dump()) is the identity (canonical and pretty agree on
    // content, differ only in layout).
    const json::Value again = json::parse(v.dump(), &err);
    ASSERT_EQ(err, "");
    EXPECT_EQ(again.dumpCanonical(), v.dumpCanonical());

    // Integers emit exactly at both ends of their ranges.
    json::Value ints = json::Value::array();
    ints.push(std::numeric_limits<std::int64_t>::min());
    ints.push(std::numeric_limits<std::int64_t>::max());
    ints.push(std::numeric_limits<std::uint64_t>::max());
    ints.push(0);
    EXPECT_EQ(ints.dumpCompact(),
              "[-9223372036854775808,9223372036854775807,"
              "18446744073709551615,0]");
}

TEST(Json, StringEscapingRoundTrips)
{
    // The fix the shared writer brings over the fprintf emitters: every
    // hostile character survives a write/parse cycle.
    const std::string hostile =
        "quote\" backslash\\ newline\n tab\t ctrl\x01 done";
    json::Value v = json::Value::object();
    v.set("s", hostile);
    std::string err;
    const json::Value back = json::parse(v.dump(), &err);
    ASSERT_EQ(err, "");
    EXPECT_EQ(back.find("s")->asString(), hostile);
    EXPECT_EQ(json::Value("a\x01\x1f\x7f\"b\\").dumpCompact(),
              "\"a\\u0001\\u001f\x7f\\\"b\\\\\"");
    // And \u escapes decode (including a surrogate pair).
    const json::Value uni =
        json::parse("\"a\\u00e9b\\ud83d\\ude00c\"", &err);
    ASSERT_EQ(err, "");
    EXPECT_EQ(uni.asString(), "a\xc3\xa9"
                              "b\xf0\x9f\x98\x80"
                              "c");
}

TEST(Json, DoubleFormattingIsLeastRoundTrippingPrecision)
{
    // "%.Pg" at the smallest P that parses back: not the shortest
    // string (100 -> "1e+02"), and frozen — Report bytes, runCacheKey
    // text and disk-cache file names depend on it.
    EXPECT_EQ(json::formatDouble(0.25), "0.25");
    EXPECT_EQ(json::formatDouble(1.0), "1");
    EXPECT_EQ(json::formatDouble(100.0), "1e+02");
    EXPECT_EQ(json::formatDouble(1e-4), "0.0001");
    EXPECT_EQ(json::formatDouble(-0.0), "-0");
    EXPECT_EQ(json::formatDouble(0.1 + 0.2), "0.30000000000000004");
    EXPECT_EQ(json::formatDouble(5e-324), "5e-324");  // denorm_min
}

TEST(Json, DoubleFormattingMatchesTheLegacyLoopAndParsesBack)
{
    // The original formatDouble, kept as the oracle: try "%.1g".."%.17g"
    // and stop at the first that strtod parses back exactly.
    const auto legacy = [](double v) {
        char buf[40];
        for (int prec = 1; prec <= 17; ++prec) {
            std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
            if (std::strtod(buf, nullptr) == v)
                break;
        }
        return std::string(buf);
    };
    // The emitted text also parses back to the same bits (subnormals
    // and -0 included): parse(dump()) is the identity.
    const auto check = [&](double v) {
        const std::string text = json::formatDouble(v);
        ASSERT_EQ(text, legacy(v)) << "bits 0x" << std::hex << bitsOf(v);
        std::string err;
        const json::Value back = json::parse(text, &err);
        ASSERT_EQ(err, "") << text;
        ASSERT_EQ(bitsOf(back.asDouble()), bitsOf(v)) << text;
    };

    using L = std::numeric_limits<double>;
    for (double v : {0.0, -0.0, 1.0, -1.0, 0.1, 0.5, 2.0 / 3.0, 100.0,
                     1e-4, 1e-5, 123456.0, 1e15, 1e16, 1e17, 1e21, 1e22,
                     1e23, 9007199254740993.0, 18446744073709551616.0,
                     L::max(), -L::max(), L::min(), L::denorm_min(),
                     L::epsilon()}) {
        check(v);
    }

    // Every power of two and its neighbour toward zero: the exponent
    // boundaries where the rounding interval is asymmetric.
    for (int k = -1074; k <= 1023; ++k) {
        const double p = std::ldexp(1.0, k);
        check(p);
        check(std::nextafter(p, 0.0));
        check(-p);
    }

    // Seeded random finite bit patterns; every fourth one has its
    // exponent cleared, so subnormals are well represented.
    std::mt19937_64 rng(20011001);
    constexpr std::uint64_t kExponent = 0x7ff0000000000000ULL;
    unsigned checked = 0;
    for (unsigned i = 0; checked < 120000; ++i) {
        std::uint64_t bits = rng();
        if (i % 4 == 0)
            bits &= ~kExponent;
        const double v = doubleOf(bits);
        if (!std::isfinite(v))
            continue;
        check(v);
        ++checked;
    }
}

TEST(Json, NegativeZeroRelaysThroughTheWire)
{
    // "-0" is a Double -0.0 on the way back in, so a relayed document
    // re-emits the producer's bytes (it used to come back as Int 0).
    json::Value v = json::Value::object();
    v.set("x", -0.0);
    v.set("y", 0.0);
    const std::string wire = v.dumpCompact();
    EXPECT_EQ(wire, "{\"x\":-0,\"y\":0}");
    std::string err;
    const json::Value back = json::parse(wire, &err);
    ASSERT_EQ(err, "");
    EXPECT_EQ(back.dumpCompact(), wire);
    EXPECT_EQ(back.dump(), v.dump());
    EXPECT_TRUE(std::signbit(back.find("x")->asDouble()));
    EXPECT_FALSE(std::signbit(back.find("y")->asDouble()));

    // An integral reader still takes it as 0.
    EXPECT_TRUE(back.find("x")->fitsU64());
    EXPECT_EQ(back.find("x")->asU64(), 0u);
    EXPECT_EQ(back.find("x")->asI64(), 0);
    EXPECT_EQ(json::parse("[-0]", &err).dumpCompact(), "[-0]");
}

TEST(Json, CanonicalFormSortsKeysAndStripsWhitespace)
{
    std::string err;
    const json::Value a = json::parse(
        "{\"zeta\": 1, \"alpha\": {\"b\": 2, \"a\": [3]}}", &err);
    ASSERT_EQ(err, "");
    const json::Value b = json::parse(
        "{ \"alpha\" : { \"a\":[3], \"b\": 2 }, \"zeta\": 1 }", &err);
    ASSERT_EQ(err, "");
    EXPECT_EQ(a.dumpCanonical(), b.dumpCanonical());
    EXPECT_EQ(a.dumpCanonical(),
              "{\"alpha\":{\"a\":[3],\"b\":2},\"zeta\":1}");
}

TEST(Json, ErrorsNameTheLineAndProblem)
{
    std::string err;
    json::parse("{\n  \"a\": 1,\n  \"a\": 2\n}", &err);
    EXPECT_NE(err.find("line 3"), std::string::npos) << err;
    EXPECT_NE(err.find("duplicate object key \"a\""), std::string::npos)
        << err;

    json::parse("{\"a\": 1} trailing", &err);
    EXPECT_NE(err.find("trailing"), std::string::npos) << err;

    json::parse("{\"a\": 01x}", &err);
    EXPECT_FALSE(err.empty());
}

// ---- ExperimentSpec: round trips -------------------------------------

TEST(Spec, ParseEmitParseIsTheIdentity)
{
    const std::string text = readFile(
        std::string(JETTY_SOURCE_DIR) + "/examples/quickstart.spec.json");
    ASSERT_FALSE(text.empty());

    std::string err;
    const ExperimentSpec one = ExperimentSpec::parse(text, &err);
    ASSERT_EQ(err, "") << err;
    const std::string emitted = one.emit();
    const ExperimentSpec two = ExperimentSpec::parse(emitted, &err);
    ASSERT_EQ(err, "") << err;
    // Bit-equal re-emission: the schema has one normal form.
    EXPECT_EQ(two.emit(), emitted);
    EXPECT_EQ(two.canonicalText(), one.canonicalText());
}

TEST(Spec, FuzzGeometrySpecRoundTrips)
{
    const std::string text = readFile(
        std::string(JETTY_SOURCE_DIR) + "/examples/fuzz_smoke.spec.json");
    ASSERT_FALSE(text.empty());
    std::string err;
    const ExperimentSpec spec = ExperimentSpec::parse(text, &err);
    ASSERT_EQ(err, "") << err;
    EXPECT_TRUE(spec.machine.hasGeometry);
    EXPECT_EQ(spec.machine.l1.sizeBytes, 1024u);
    EXPECT_EQ(spec.machine.l2.subblocks, 2u);
    EXPECT_TRUE(spec.hasFuzz);
    EXPECT_EQ(spec.fuzz.seed, 12345u);
    EXPECT_FALSE(spec.fuzz.randomizeBuses);

    const ExperimentSpec again = ExperimentSpec::parse(spec.emit(), &err);
    ASSERT_EQ(err, "") << err;
    EXPECT_EQ(again.emit(), spec.emit());

    // machine -> SmpConfig -> machine is lossless.
    const sim::SmpConfig cfg = spec.smpConfig();
    EXPECT_EQ(cfg.l1.sizeBytes, 1024u);
    EXPECT_EQ(cfg.l2.sizeBytes, 8192u);
    EXPECT_EQ(cfg.wbEntries, 4u);
    EXPECT_EQ(cfg.snoopBuses, 2u);
    const api::MachineSpec back = api::MachineSpec::fromSmpConfig(cfg);
    ExperimentSpec echo;
    echo.machine = back;
    ExperimentSpec reparsed = ExperimentSpec::parse(echo.emit(), &err);
    ASSERT_EQ(err, "") << err;
    EXPECT_EQ(reparsed.machine.l1.sizeBytes, spec.machine.l1.sizeBytes);
    EXPECT_EQ(reparsed.machine.l2.blockBytes,
              spec.machine.l2.blockBytes);
    EXPECT_EQ(reparsed.machine.wbEntries, spec.machine.wbEntries);
}

// ---- ExperimentSpec: rejection with descriptive messages -------------

TEST(Spec, UnknownKeysAreNamedWithTheValidSet)
{
    std::string err;
    ExperimentSpec::parse(
        "{\"jetty_spec\": 1, \"machine\": {\"procss\": 4}}", &err);
    EXPECT_NE(err.find("machine.procss"), std::string::npos) << err;
    EXPECT_NE(err.find("valid:"), std::string::npos) << err;
    EXPECT_NE(err.find("procs"), std::string::npos) << err;

    ExperimentSpec::parse("{\"jetty_spec\": 1, \"machien\": {}}", &err);
    EXPECT_NE(err.find("machien"), std::string::npos) << err;
    EXPECT_NE(err.find("valid:"), std::string::npos) << err;
}

TEST(Spec, VersionMismatchIsRejected)
{
    std::string err;
    ExperimentSpec::parse("{\"jetty_spec\": 2}", &err);
    EXPECT_NE(err.find("unsupported version"), std::string::npos) << err;
    EXPECT_NE(err.find("reads version 1"), std::string::npos) << err;

    ExperimentSpec::parse("{\"machine\": {}}", &err);
    EXPECT_NE(err.find("jetty_spec"), std::string::npos) << err;
    EXPECT_NE(err.find("missing"), std::string::npos) << err;
}

TEST(Spec, RangeViolationsAreRejectedDescriptively)
{
    std::string err;
    ExperimentSpec::parse(
        "{\"jetty_spec\": 1, \"machine\": {\"buses\": 0}}", &err);
    EXPECT_NE(err.find("machine.buses"), std::string::npos) << err;
    EXPECT_NE(err.find("out of range"), std::string::npos) << err;

    ExperimentSpec::parse(
        "{\"jetty_spec\": 1, \"workload\": {\"scale\": -0.5}}", &err);
    EXPECT_NE(err.find("workload.scale"), std::string::npos) << err;

    ExperimentSpec::parse(
        "{\"jetty_spec\": 1, \"sweep\": {\"procs\": [4, 1]}}", &err);
    EXPECT_NE(err.find("sweep.procs"), std::string::npos) << err;
    EXPECT_NE(err.find("out of range"), std::string::npos) << err;

    // A one-processor "SMP" fails at parse, not in SmpSystem.
    ExperimentSpec::parse(
        "{\"jetty_spec\": 1, \"machine\": {\"procs\": 1}}", &err);
    EXPECT_NE(err.find("machine.procs"), std::string::npos) << err;
    EXPECT_NE(err.find("out of range"), std::string::npos) << err;

    // Both workload kinds at once would silently drop the apps half.
    ExperimentSpec::parse(
        "{\"jetty_spec\": 1, \"workload\": {\"apps\": [\"lu\"], "
        "\"trace_files\": [\"t.jtt\"]}}",
        &err);
    EXPECT_NE(err.find("mutually exclusive"), std::string::npos) << err;

    // Half a geometry is no geometry.
    ExperimentSpec::parse(
        "{\"jetty_spec\": 1, \"machine\": {\"l1\": {\"size_bytes\": 1024, "
        "\"assoc\": 1, \"block_bytes\": 32}}}",
        &err);
    EXPECT_NE(err.find("both l1 and l2"), std::string::npos) << err;
}

TEST(Spec, UnsignedFieldsAcceptNegativeZero)
{
    // "-0" parses as a Double -0.0; an unsigned member still reads it
    // as 0, and the spec re-emits a plain 0.
    std::string err;
    const ExperimentSpec spec = ExperimentSpec::parse(
        "{\"jetty_spec\": 1, \"fuzz\": {\"seed\": -0, "
        "\"audit_every\": -0}}",
        &err);
    ASSERT_EQ(err, "") << err;
    EXPECT_EQ(spec.fuzz.seed, 0u);
    EXPECT_EQ(spec.fuzz.auditEvery, 0u);
    EXPECT_NE(spec.emit().find("\"seed\": 0,"), std::string::npos)
        << spec.emit();
}

TEST(Spec, FilterAndAppTyposFailThroughTheRegistries)
{
    std::string err;
    ExperimentSpec::parse(
        "{\"jetty_spec\": 1, \"filters\": [\"BOGUS-1\"]}", &err);
    EXPECT_NE(err.find("unknown filter family"), std::string::npos) << err;

    ExperimentSpec::parse(
        "{\"jetty_spec\": 1, \"workload\": {\"apps\": [\"nosuch\"]}}",
        &err);
    EXPECT_NE(err.find("unknown application 'nosuch'"), std::string::npos)
        << err;
}

// ---- Canonicalization is the RunCache key ----------------------------

TEST(Spec, ReorderedKeysCanonicalizeIdentically)
{
    std::string err;
    const ExperimentSpec a = ExperimentSpec::parse(
        "{\"jetty_spec\": 1,\n"
        " \"machine\": {\"procs\": 4, \"buses\": 2, \"subblocked\": true},\n"
        " \"workload\": {\"apps\": [\"lu\"], \"scale\": 0.25},\n"
        " \"filters\": [\"EJ-32x4\"]}",
        &err);
    ASSERT_EQ(err, "") << err;
    const ExperimentSpec b = ExperimentSpec::parse(
        "{\"filters\": [\"EJ-32x4\"],\n"
        " \"workload\": {\"scale\": 0.25, \"apps\": [\"lu\"]},\n"
        " \"machine\": {\"subblocked\": true, \"buses\": 2, \"procs\": 4},\n"
        " \"jetty_spec\": 1}",
        &err);
    ASSERT_EQ(err, "") << err;
    EXPECT_EQ(a.canonicalText(), b.canonicalText());

    // ... and therefore the expanded requests key the RunCache
    // identically: same cell, same canonical key, one simulation.
    const auto ra = a.expand();
    const auto rb = b.expand();
    ASSERT_EQ(ra.size(), 1u);
    ASSERT_EQ(rb.size(), 1u);
    EXPECT_EQ(api::runCacheKey(ra[0], a.scale),
              api::runCacheKey(rb[0], b.scale));
}

TEST(Spec, RunCacheKeySeparatesWhatMustBeSeparate)
{
    std::string err;
    const ExperimentSpec base = ExperimentSpec::parse(
        "{\"jetty_spec\": 1, \"workload\": {\"apps\": [\"lu\"], "
        "\"scale\": 0.25}}",
        &err);
    ASSERT_EQ(err, "") << err;
    const auto req = base.expand().at(0);

    // Scale splits profile-backed keys.
    EXPECT_NE(api::runCacheKey(req, 0.25), api::runCacheKey(req, 0.5));

    // A different variant splits keys.
    auto other = req;
    other.variant.snoopBuses = 4;
    EXPECT_NE(api::runCacheKey(req, 0.25),
              api::runCacheKey(other, 0.25));

    // A different app splits keys (content fingerprint, not name).
    ExperimentSpec fm = base;
    fm.apps = {"fm"};
    EXPECT_NE(api::runCacheKey(fm.expand().at(0), 0.25),
              api::runCacheKey(req, 0.25));

    // Filters deliberately do NOT join the key: the bank is a passive
    // observer, so a superset simulation answers any subset request.
    auto filtered = req;
    filtered.filterSpecs = {"EJ-32x4"};
    EXPECT_EQ(api::runCacheKey(req, 0.25),
              api::runCacheKey(filtered, 0.25));
}

// ---- expansion -------------------------------------------------------

TEST(Spec, ExpandIsTheSweepCrossProduct)
{
    std::string err;
    const ExperimentSpec spec = ExperimentSpec::parse(
        "{\"jetty_spec\": 1,\n"
        " \"workload\": {\"apps\": [\"lu\", \"fm\"], \"scale\": 0.01},\n"
        " \"sweep\": {\"procs\": [4, 8], \"buses\": [1, 2]}}",
        &err);
    ASSERT_EQ(err, "") << err;
    const auto requests = spec.expand();
    ASSERT_EQ(requests.size(), 8u);  // 2 apps x 2 procs x 2 buses
    // Axis order: procs-major, then buses, then apps (the CLI's table
    // order).
    EXPECT_EQ(requests[0].variant.nprocs, 4u);
    EXPECT_EQ(requests[0].variant.snoopBuses, 1u);
    EXPECT_EQ(requests[0].app.abbrev, "lu");
    EXPECT_EQ(requests[1].app.abbrev, "fm");
    EXPECT_EQ(requests[2].variant.snoopBuses, 2u);
    EXPECT_EQ(requests[4].variant.nprocs, 8u);
    for (const auto &req : requests)
        EXPECT_EQ(req.accessScale, 0.01);
}

// ---- Report schema golden --------------------------------------------

TEST(Report, GoldenFixturePinsTheSchema)
{
    // A fully deterministic report: fixed spec, fixed stats. Emitted
    // bytes must match the checked-in golden; regenerate it consciously
    // (see tests/golden/README) when the schema changes.
    std::string err;
    const ExperimentSpec spec = ExperimentSpec::parse(
        readFile(std::string(JETTY_SOURCE_DIR) +
                 "/examples/quickstart.spec.json"),
        &err);
    ASSERT_EQ(err, "") << err;

    sim::SimStats stats(2, 2);
    stats.procs[0].accesses = 100;
    stats.procs[0].reads = 60;
    stats.procs[0].writes = 40;
    stats.procs[0].l1Hits = 90;
    stats.procs[0].l1Misses = 10;
    stats.procs[1].accesses = 100;
    stats.procs[1].snoopTagProbes = 7;
    stats.procs[1].snoopMisses = 5;
    stats.snoopTransactions = 7;
    for (unsigned i = 0; i < 7; ++i)
        stats.remoteHits.sample(i < 5 ? 0 : 1);  // 5 found no copy, 2 one
    stats.perBus[0].transactions = 4;
    stats.perBus[0].reads = 4;
    stats.perBus[1].transactions = 3;
    stats.perBus[1].upgrades = 3;
    stats.busSnoopTagProbes = {4, 3};

    api::Report report("golden");
    // The envelope's SIMD provenance is resolved from the running host;
    // pin it so the golden bytes stay machine- and tier-independent
    // (set() replaces in place, keeping the envelope field order).
    report.root().set("simd_isa", "scalar");
    report.root().set("simd_width", 1);
    report.echoSpec(spec);
    report.root().set("arch", api::Report::archNode(stats));
    report.root().set("per_bus", api::Report::perBusNode(stats));
    report.root().set("timing",
                      api::Report::timingNode(200, 0.5, false));
    report.root().set("short_run",
                      api::Report::timingNode(10, 0.0, true));

    const std::string golden = readFile(goldenPath("report_fixture.json"));
    ASSERT_FALSE(golden.empty())
        << "missing golden: " << goldenPath("report_fixture.json");
    EXPECT_EQ(report.emit(), golden)
        << "Report schema drifted; regenerate tests/golden/"
           "report_fixture.json deliberately if this is intended";
}

TEST(Spec, GoldenCanonicalFormIsStable)
{
    // The canonical serialization IS the RunCache key, so its exact
    // bytes are a compatibility surface; pin them.
    std::string err;
    const ExperimentSpec spec = ExperimentSpec::parse(
        readFile(std::string(JETTY_SOURCE_DIR) +
                 "/examples/quickstart.spec.json"),
        &err);
    ASSERT_EQ(err, "") << err;
    const std::string golden =
        readFile(goldenPath("quickstart.canonical.json"));
    ASSERT_FALSE(golden.empty())
        << "missing golden: " << goldenPath("quickstart.canonical.json");
    // The golden file has a trailing newline (editors insist); the
    // canonical form itself has none.
    EXPECT_EQ(spec.canonicalText() + "\n", golden)
        << "canonical spec form drifted; RunCache keys would change";
}

// ---- The paper's filter lists and the committed figure specs ---------

TEST(PaperSpecs, FilterListsEqualTheCommittedFigureSpecs)
{
    // The paper's per-figure filter lists live in filter_spec.cc (listed
    // by `jetty_cli filters`) and in the figure specs the scorecard
    // runs; an edit to one must not silently diverge from the other.
    const auto filtersOf = [](const std::string &name) {
        std::string err;
        const ExperimentSpec spec = ExperimentSpec::parse(
            readFile(std::string(JETTY_SOURCE_DIR) + "/examples/" + name),
            &err);
        EXPECT_EQ(err, "") << name << ": " << err;
        return spec.filters;
    };
    const auto concat = [](std::vector<std::string> a,
                           const std::vector<std::string> &b) {
        a.insert(a.end(), b.begin(), b.end());
        return a;
    };
    EXPECT_EQ(filtersOf("paper_figure4.spec.json"),
              concat(filter::paperExcludeSpecs(),
                     filter::paperVectorExcludeSpecs()));
    EXPECT_EQ(filtersOf("paper_figure5.spec.json"),
              concat(filter::paperIncludeSpecs(),
                     filter::paperHybridSpecs()));
}

TEST(PaperSpecs, AblationCellsAreFigure4Cells)
{
    // The ablation panels only add filters to cells the scorecard
    // already simulates: every ablation cell's RunCache key must be a
    // Figure-4 cell's key, so runMany folds them into one simulation.
    const auto keysOf = [](const std::string &name) {
        std::string err;
        const ExperimentSpec spec = ExperimentSpec::parse(
            readFile(std::string(JETTY_SOURCE_DIR) + "/examples/" + name),
            &err);
        EXPECT_EQ(err, "") << name << ": " << err;
        std::set<std::string> keys;
        for (const auto &req : spec.expand())
            keys.insert(api::runCacheKey(req, req.accessScale));
        return keys;
    };
    const auto figure4 = keysOf("paper_figure4.spec.json");
    const auto ablations = keysOf("paper_ablations.spec.json");
    EXPECT_EQ(ablations.size(), 10u);
    for (const auto &key : ablations)
        EXPECT_TRUE(figure4.count(key)) << key;
}

// ---- Scorecard: validated at load, before any campaign ---------------

TEST(Scorecard, MisspeltUnitFailsInLoad)
{
    const std::string path = ::testing::TempDir() + "jetty_bad_unit.json";
    const auto loadWithUnit = [&path](const std::string &unit) {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        EXPECT_NE(f, nullptr);
        if (!f)
            return std::string("unwritable");
        std::fputs((R"({
  "jetty_scorecard": 1,
  "specs": {"fig4": "paper_figure4.spec.json"},
  "panels": [{"id": "4a", "title": "t", "spec": "fig4",
              "value": "filtered_snoops / snoops", "unit": ")" +
                    unit + R"(",
              "columns": ["EJ-32x4"]}]
})")
                       .c_str(),
                   f);
        std::fclose(f);
        std::string err;
        api::Scorecard::load(path, &err);
        return err;
    };
    EXPECT_EQ(loadWithUnit("cnt"),
              "scorecard: panel 4a column EJ-32x4: unit 'cnt' "
              "(valid: fraction, percent, count, bytes, cycles)");
    EXPECT_EQ(loadWithUnit("cycle"),
              "scorecard: panel 4a column EJ-32x4: unit 'cycle' "
              "(valid: fraction, percent, count, bytes, cycles)");
    EXPECT_EQ(loadWithUnit("cycles"), "");

    // The committed scorecard passes every load-time check.
    std::string err;
    api::Scorecard::load(
        std::string(JETTY_SOURCE_DIR) + "/examples/paper_scorecard.json",
        &err);
    EXPECT_EQ(err, "");
}
