/**
 * @file
 * Unit tests for the util library: bit helpers, deterministic RNG,
 * statistics primitives, table formatting, and string parsing.
 */

#include <gtest/gtest.h>

#include <set>

#include "util/bits.hh"
#include "util/flags.hh"
#include "util/random.hh"
#include "util/stats.hh"
#include "util/string_utils.hh"
#include "util/table.hh"

using namespace jetty;

TEST(Bits, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_TRUE(isPowerOfTwo(1ull << 40));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_FALSE(isPowerOfTwo(6));
}

TEST(Bits, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(floorLog2(1ull << 63), 63u);
}

TEST(Bits, CeilLog2)
{
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(1025), 11u);
}

TEST(Bits, BitField)
{
    EXPECT_EQ(bitField(0xff00, 8, 8), 0xffull);
    EXPECT_EQ(bitField(0xabcd, 0, 4), 0xdull);
    EXPECT_EQ(bitField(0xabcd, 4, 4), 0xcull);
    EXPECT_EQ(bitField(~0ull, 60, 10), 0xfull);  // truncated at bit 63
    EXPECT_EQ(bitField(0xff, 0, 0), 0ull);
    EXPECT_EQ(bitField(0xff, 64, 4), 0ull);
}

TEST(Bits, MaskAndAlign)
{
    EXPECT_EQ(maskBits(0), 0ull);
    EXPECT_EQ(maskBits(8), 0xffull);
    EXPECT_EQ(maskBits(64), ~0ull);
    EXPECT_EQ(alignDown(0x1234, 0x100), 0x1200ull);
    EXPECT_EQ(alignDown(0x1200, 0x100), 0x1200ull);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    bool differs = false;
    Rng a2(42);
    for (int i = 0; i < 100; ++i)
        differs |= a2.next() != c.next();
    EXPECT_TRUE(differs);
}

TEST(Rng, BelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        const auto v = r.below(37);
        EXPECT_LT(v, 37u);
    }
}

TEST(Rng, BelowCoversRange)
{
    Rng r(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(r.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(5);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(9);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, HotIndexBiased)
{
    Rng r(13);
    // With strong bias the mean index is far below uniform's n/2.
    double hot_sum = 0, uni_sum = 0;
    const std::uint64_t n = 1000;
    for (int i = 0; i < 20000; ++i) {
        hot_sum += static_cast<double>(r.hotIndex(n, 0.7));
        uni_sum += static_cast<double>(r.hotIndex(n, 0.0));
    }
    EXPECT_LT(hot_sum, uni_sum * 0.6);
}

TEST(Rng, HotIndexInRange)
{
    Rng r(17);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.hotIndex(33, 0.5), 33u);
}

TEST(Stats, Counter)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(4);
    EXPECT_EQ(c.value(), 5u);
    Counter d;
    d.inc(7);
    c.merge(d);
    EXPECT_EQ(c.value(), 12u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, MedianInPlace)
{
    std::vector<double> empty;
    EXPECT_DOUBLE_EQ(medianInPlace(empty), 0.0);

    // Single sample takes the direct path: the value comes back as-is
    // and the vector is untouched.
    std::vector<double> one = {42.5};
    EXPECT_DOUBLE_EQ(medianInPlace(one), 42.5);
    EXPECT_EQ(one.size(), 1u);
    EXPECT_DOUBLE_EQ(one[0], 42.5);

    // Odd count: the middle element after sorting.
    std::vector<double> odd = {3.0, 1.0, 2.0};
    EXPECT_DOUBLE_EQ(medianInPlace(odd), 2.0);

    // Even count: the lower-middle element (no averaging).
    std::vector<double> even = {4.0, 1.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(medianInPlace(even), 2.0);
}

TEST(Stats, Ratios)
{
    EXPECT_DOUBLE_EQ(ratio(1, 2), 0.5);
    EXPECT_DOUBLE_EQ(ratio(1, 0), 0.0);
    EXPECT_DOUBLE_EQ(percent(1, 4), 25.0);
}

TEST(Stats, HistogramBasics)
{
    Histogram h(4);
    h.sample(0);
    h.sample(1);
    h.sample(1);
    h.sample(9);  // clamped into the last bucket
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.count(1), 2u);
    EXPECT_EQ(h.count(3), 1u);
}

TEST(Stats, HistogramMerge)
{
    Histogram a(3), b(3);
    a.sample(0);
    b.sample(2);
    b.sample(2);
    a.merge(b);
    EXPECT_EQ(a.total(), 3u);
    EXPECT_EQ(a.count(2), 2u);
}

TEST(Stats, HistogramReset)
{
    Histogram h(2);
    h.sample(1);
    h.reset();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.count(1), 0u);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(TextTable::num(1.5, 1), "1.5");
    EXPECT_EQ(TextTable::pct(12.34, 1), "12.3%");
    EXPECT_EQ(TextTable::count(42), "42");
}

TEST(Table, PrintAndCsvDoNotCrash)
{
    TextTable t;
    t.header({"a", "b"});
    t.row({"1", "longer"});
    t.row({"x"});
    std::FILE *dev_null = std::fopen("/dev/null", "w");
    ASSERT_NE(dev_null, nullptr);
    t.print(dev_null);
    t.printCsv(dev_null);
    std::fclose(dev_null);
}

TEST(Strings, Split)
{
    const auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
    EXPECT_EQ(split("", 'x').size(), 1u);
}

TEST(Strings, StartsWith)
{
    EXPECT_TRUE(startsWith("EJ-32x4", "EJ-"));
    EXPECT_FALSE(startsWith("EJ", "EJ-"));
}

TEST(Strings, ParseUnsigned)
{
    unsigned v = 0;
    EXPECT_TRUE(parseUnsigned("123", v));
    EXPECT_EQ(v, 123u);
    EXPECT_FALSE(parseUnsigned("", v));
    EXPECT_FALSE(parseUnsigned("12a", v));
    EXPECT_FALSE(parseUnsigned("-3", v));
    EXPECT_FALSE(parseUnsigned("99999999999", v));
}

TEST(Strings, TrimAndUpper)
{
    EXPECT_EQ(trim("  hi "), "hi");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(toUpper("ba"), "BA");
}

namespace
{

/** Parse @p args (after a command name) against @p cmd. */
std::string
parseFlags(const flags::Command &cmd, std::vector<std::string> args,
           flags::Values &out)
{
    args.insert(args.begin(), "tool");
    std::vector<char *> argv;
    for (auto &a : args)
        argv.push_back(a.data());
    return flags::parse(cmd, static_cast<int>(argv.size()), argv.data(), 1,
                        out);
}

const flags::Command kCmd{
    "cmd",
    {"FILE"},
    {{"dry"}, {"procs", flags::Kind::Count, "N", 2},
     {"bytes", flags::Kind::U64, "N", 1}, {"seed", flags::Kind::Seed, "N"},
     {"scale", flags::Kind::Positive, "F"}, {"skew", flags::Kind::Number, "S"},
     {"buses", flags::Kind::Counts, "N[,N...]", 1},
     {"out", flags::Kind::Text, "FILE"}}};

} // namespace

TEST(Flags, TypedValuesAndDefaults)
{
    flags::Values f;
    ASSERT_EQ(parseFlags(kCmd,
                         {"in.json", "--dry", "--procs", "8", "--bytes",
                          "68719476736", "--seed", "0x1F", "--scale", "2.5e-1",
                          "--skew", "-3", "--buses", "1, 2,4", "--out",
                          "--looks-like-a-flag", "--procs", "16"},
                         f),
              "");
    EXPECT_EQ(f.args(), std::vector<std::string>{"in.json"});
    EXPECT_TRUE(f.has("dry"));
    EXPECT_EQ(f.count("procs", 0), 16u);  // the last one wins
    EXPECT_EQ(f.u64("bytes", 0), 68719476736ull);
    EXPECT_EQ(f.u64("seed", 0), 31u);
    EXPECT_DOUBLE_EQ(f.number("scale", 1), 0.25);
    EXPECT_DOUBLE_EQ(f.number("skew", 0), -3);
    EXPECT_EQ(f.counts("buses"), (std::vector<unsigned>{1, 2, 4}));
    EXPECT_EQ(f.text("out"), "--looks-like-a-flag");

    ASSERT_EQ(parseFlags(kCmd, {"--seed", "010"}, f), "");
    EXPECT_EQ(f.u64("seed", 0), 8u);  // strtoull's octal form
    EXPECT_FALSE(f.has("dry"));
    EXPECT_EQ(f.count("procs", 4), 4u);
    EXPECT_DOUBLE_EQ(f.number("scale", 1), 1.0);
    EXPECT_TRUE(f.counts("buses").empty());
}

TEST(Flags, RejectsWhatTheOldParsersSwallowed)
{
    const std::vector<std::pair<std::vector<std::string>, std::string>>
        cases = {
            {{"--procs", "1"}, "cmd --procs needs a count >= 2, got '1'"},
            {{"--procs", "4294967296"}, "got '4294967296'"},
            {{"--bytes", "-5"}, "cmd --bytes needs a count >= 1, got '-5'"},
            {{"--bytes", "64MiB"}, "got '64MiB'"},
            {{"--seed", "-1"}, "cmd --seed needs a 64-bit seed"},
            {{"--seed", "0x"}, "got '0x'"},
            {{"--scale", "0.001xyz"}, "got '0.001xyz'"},
            {{"--scale", "0"}, "needs a finite number > 0, got '0'"},
            {{"--skew", "inf"}, "cmd --skew needs a finite number, got 'inf'"},
            {{"--buses", "4,0"}, "cmd --buses needs counts >= 1, got '0'"},
            {{"--buses", "4,"}, "got ''"},
            {{"--out"}, "cmd --out needs a value"},
            {{"--filtres", "x"},
             "cmd: unknown flag '--filtres' (valid: --dry, --procs, --bytes, "
             "--seed, --scale, --skew, --buses, --out)"},
            {{"a", "b"}, "cmd: unexpected argument 'b' (usage: cmd [FILE]"},
        };
    for (const auto &[args, want] : cases) {
        flags::Values f;
        const std::string err = parseFlags(kCmd, args, f);
        EXPECT_NE(err.find(want), std::string::npos)
            << args[0] << ": " << err;
    }
}

TEST(Strings, ParseU64)
{
    EXPECT_EQ(parseU64("18446744073709551615"), UINT64_MAX);
    EXPECT_EQ(parseU64("1f", 16), 31u);
    EXPECT_FALSE(parseU64("18446744073709551616"));
    EXPECT_FALSE(parseU64(""));
    EXPECT_FALSE(parseU64(" 4"));
    EXPECT_FALSE(parseU64("4x"));
    EXPECT_FALSE(parseU64("+4"));
    EXPECT_FALSE(parseU64("-4"));
}
