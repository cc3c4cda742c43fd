/**
 * @file
 * Small string helpers for parsing filter spec strings such as "EJ-32x4",
 * "VEJ-32x4-8", "IJ-10x4x7" and "HJ(IJ-10x4x7,EJ-32x4)".
 */

#ifndef JETTY_UTIL_STRING_UTILS_HH
#define JETTY_UTIL_STRING_UTILS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace jetty
{

/** Split @p s on character @p sep (no empty-token suppression). */
std::vector<std::string> split(const std::string &s, char sep);

/** Split a filter list on commas, but not inside HJ(...) parentheses;
 *  each spec is trimmed. */
std::vector<std::string> splitFilterList(const std::string &s);

/** True when @p s starts with @p prefix. */
bool startsWith(const std::string &s, const std::string &prefix);

/** Parse an unsigned integer in @p base: digits only, no sign, no
 *  space, no overflow; nullopt otherwise. */
std::optional<std::uint64_t> parseU64(std::string_view s, int base = 10);

/** Parse an unsigned decimal integer; returns false on any non-digit. */
bool parseUnsigned(const std::string &s, unsigned &out);

/** Trim ASCII whitespace from both ends. */
std::string trim(const std::string &s);

/** Upper-case an ASCII string. */
std::string toUpper(const std::string &s);

} // namespace jetty

#endif // JETTY_UTIL_STRING_UTILS_HH
