#include "util/flags.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <optional>

#include "util/logging.hh"
#include "util/string_utils.hh"

namespace jetty::flags
{

namespace
{

/** @p s as @p f's integer kind; a seed keeps strtoull(s, 0, 0)'s hex
 *  and octal forms. */
std::optional<std::uint64_t>
parseInt(const Flag &f, std::string_view s)
{
    int base = 10;
    if (f.kind == Kind::Seed && s.size() > 1 && s[0] == '0') {
        const bool hex = s[1] == 'x' || s[1] == 'X';
        base = hex ? 16 : 8;
        s.remove_prefix(hex ? 2 : 1);
    }
    const auto v = parseU64(s, base);
    const bool narrow = f.kind == Kind::Count || f.kind == Kind::Counts;
    if (!v || *v < f.min ||
        (narrow && *v > std::numeric_limits<unsigned>::max()))
        return std::nullopt;
    return v;
}

std::optional<double>
parseNumber(const Flag &f, std::string_view s)
{
    double v = 0;
    const char *end = s.data() + s.size();
    const auto r = std::from_chars(s.data(), end, v);
    if (s.empty() || r.ec != std::errc() || r.ptr != end ||
        !std::isfinite(v) || (f.kind == Kind::NonNegative && v < 0) ||
        (f.kind == Kind::Positive && v <= 0))
        return std::nullopt;
    return v;
}

/** What a valid value of @p f looks like, for "needs ..." messages. */
std::string
expected(const Flag &f)
{
    switch (f.kind) {
      case Kind::Seed:
        return "a 64-bit seed (decimal or 0x hex)";
      case Kind::Number:
        return "a finite number";
      case Kind::NonNegative:
        return "a finite number >= 0";
      case Kind::Positive:
        return "a finite number > 0";
      case Kind::Counts:
        return "counts >= " + std::to_string(f.min);
      default:
        return "a count >= " + std::to_string(f.min);
    }
}

} // namespace

std::string
usage(const Command &cmd)
{
    std::string out = cmd.name;
    for (const auto &p : cmd.positionals)
        out += " [" + p + "]";
    for (const auto &f : cmd.flags)
        out += " [--" + f.name + (f.meta.empty() ? "" : " " + f.meta) + "]";
    return out;
}

std::string
parse(const Command &cmd, int argc, char **argv, int first, Values &out)
{
    out = Values();
    out.cmd_ = cmd.name;
    std::string valid;
    for (const auto &row : cmd.flags) {
        out.values_[row.name];
        valid += (valid.empty() ? "--" : ", --") + row.name;
    }
    for (int i = first; i < argc; ++i) {
        const std::string tok = argv[i];
        if (tok.rfind("--", 0) != 0) {
            if (out.args_.size() == cmd.positionals.size())
                return cmd.name + ": unexpected argument '" + tok +
                       "' (usage: " + usage(cmd) + ")";
            out.args_.push_back(tok);
            continue;
        }
        const auto row = std::find_if(
            cmd.flags.begin(), cmd.flags.end(), [&tok](const Flag &f) {
                return tok.compare(2, std::string::npos, f.name) == 0;
            });
        if (row == cmd.flags.end())
            return cmd.name + ": unknown flag '" + tok + "' (valid: " +
                   (valid.empty() ? "none" : valid) + ")";
        const Flag &f = *row;
        if (f.kind != Kind::Switch && i + 1 >= argc)
            return cmd.name + " " + tok + " needs a value";
        Values::Value v{true, f.kind == Kind::Switch ? "" : argv[++i]};
        std::optional<std::string> bad;
        if (f.kind == Kind::Counts) {
            for (const auto &item : split(v.text, ',')) {
                const auto n = parseInt(f, trim(item));
                if (!n && !bad)
                    bad = trim(item);
                v.list.push_back(static_cast<unsigned>(n.value_or(0)));
            }
        } else if (f.kind == Kind::Number || f.kind == Kind::NonNegative ||
                   f.kind == Kind::Positive) {
            const auto d = parseNumber(f, v.text);
            v.d = d.value_or(0);
            bad = d ? std::nullopt : std::optional(v.text);
        } else if (f.kind != Kind::Switch && f.kind != Kind::Text) {
            const auto n = parseInt(f, v.text);
            v.u = n.value_or(0);
            bad = n ? std::nullopt : std::optional(v.text);
        }
        if (bad)
            return cmd.name + " " + tok + " needs " + expected(f) +
                   ", got '" + *bad + "'";
        out.values_[f.name] = std::move(v);
    }
    return "";
}

const Values::Value &
Values::get(const std::string &name) const
{
    const auto it = values_.find(name);
    if (it == values_.end())
        panic("flag --" + name + " is not in " + cmd_ + "'s table");
    return it->second;
}

std::uint64_t
Values::u64(const std::string &name, std::uint64_t fallback) const
{
    return has(name) ? get(name).u : fallback;
}

unsigned
Values::count(const std::string &name, unsigned fallback) const
{
    return has(name) ? static_cast<unsigned>(get(name).u) : fallback;
}

double
Values::number(const std::string &name, double fallback) const
{
    return has(name) ? get(name).d : fallback;
}

std::vector<unsigned>
Values::counts(const std::string &name) const
{
    return get(name).list;
}

} // namespace jetty::flags
