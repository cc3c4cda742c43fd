#include "util/string_utils.hh"

#include <cctype>

namespace jetty
{

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == sep) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    out.push_back(cur);
    return out;
}

std::vector<std::string>
splitFilterList(const std::string &s)
{
    std::vector<std::string> out;
    std::string cur;
    int depth = 0;
    for (char c : s) {
        if (c == '(')
            ++depth;
        else if (c == ')')
            --depth;
        if (c == ',' && depth == 0) {
            out.push_back(trim(cur));
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    out.push_back(trim(cur));
    return out;
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

bool
parseUnsigned(const std::string &s, unsigned &out)
{
    if (s.empty())
        return false;
    unsigned long v = 0;
    for (char c : s) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return false;
        v = v * 10 + static_cast<unsigned long>(c - '0');
        if (v > 0xffffffffUL)
            return false;
    }
    out = static_cast<unsigned>(v);
    return true;
}

std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::string
toUpper(const std::string &s)
{
    std::string out = s;
    for (char &c : out)
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    return out;
}

} // namespace jetty
