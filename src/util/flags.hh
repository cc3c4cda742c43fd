/**
 * @file
 * The one command-line flag reader. A command declares its flags once,
 * as a table of typed rows; parse() reads argv against it, or returns a
 * diagnostic naming the command, the flag and the bad value. Unknown
 * flags, trailing garbage ("0.001xyz") and negatives that strtoull()
 * would wrap are all rejected, and nothing here exits: the caller
 * decides how an error ends.
 */

#ifndef JETTY_UTIL_FLAGS_HH
#define JETTY_UTIL_FLAGS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace jetty::flags
{

enum class Kind
{
    Switch,       //!< present or absent; takes no value
    Count,        //!< decimal integer >= min that fits in 32 bits
    U64,          //!< decimal integer >= min that fits in 64 bits
    Seed,         //!< 64-bit integer: decimal, 0x hex or 0-prefixed octal
    Number,       //!< finite decimal number
    NonNegative,  //!< finite decimal number >= 0
    Positive,     //!< finite decimal number > 0
    Counts,       //!< comma list of Counts
    Text,         //!< any string
};

/** One row of a command's flag table. */
struct Flag
{
    std::string name;  //!< without the leading "--"
    Kind kind = Kind::Switch;
    std::string meta = {};  //!< the value's name in usage lines
    std::uint64_t min = 0;  //!< Count, U64 and Counts
};

/** A command: its name, its positional arguments' names (each optional
 *  to the reader) and its flag table. */
struct Command
{
    std::string name;
    std::vector<std::string> positionals;
    std::vector<Flag> flags;
};

/** One parsed command line. Reading a flag that the command's table
 *  does not declare is a program bug and panics. */
class Values
{
  public:
    bool has(const std::string &name) const { return get(name).given; }
    /** The value as given; "" when absent. */
    std::string text(const std::string &name) const { return get(name).text; }
    std::uint64_t u64(const std::string &name, std::uint64_t fallback) const;
    unsigned count(const std::string &name, unsigned fallback) const;
    double number(const std::string &name, double fallback) const;
    std::vector<unsigned> counts(const std::string &name) const;
    const std::vector<std::string> &args() const { return args_; }

  private:
    friend std::string parse(const Command &, int, char **, int, Values &);
    struct Value
    {
        bool given = false;
        std::string text;
        std::uint64_t u = 0;  //!< Count, U64, Seed
        double d = 0;  //!< Number, NonNegative, Positive
        std::vector<unsigned> list = {};  //!< Counts
    };
    const Value &get(const std::string &name) const;

    std::string cmd_;
    std::map<std::string, Value> values_;  //!< every declared flag
    std::vector<std::string> args_;
};

/**
 * Parse argv[first..argc) against @p cmd into @p out.
 * Returns "" on success, "<cmd> --<flag> needs <what>, got '<value>'"
 * for a bad value, or an unknown-flag error listing the valid flags. A
 * value flag takes the next token even when it starts with '-'; a
 * repeated flag keeps its last value.
 */
std::string parse(const Command &cmd, int argc, char **argv, int first,
                  Values &out);

/** "<name> [POSITIONAL...] [--flag META]..." for usage messages. */
std::string usage(const Command &cmd);

} // namespace jetty::flags

#endif // JETTY_UTIL_FLAGS_HH
