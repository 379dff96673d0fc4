#include "support/strings.h"

#include <charconv>
#include <climits>
#include <cstdlib>

#include "support/diag.h"

namespace dms {

std::vector<std::string>
split(std::string_view s, char delim)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (true) {
        size_t pos = s.find(delim, start);
        if (pos == std::string_view::npos) {
            out.emplace_back(s.substr(start));
            break;
        }
        out.emplace_back(s.substr(start, pos - start));
        start = pos + 1;
    }
    return out;
}

std::string
join(const std::vector<std::string> &parts, std::string_view sep)
{
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (i)
            out += sep;
        out += parts[i];
    }
    return out;
}

namespace {

/**
 * isspace() in the C locale — ' ', \t, \n, \v, \f, \r — without
 * its per-call locale lookup: the loop and machine parsers trim
 * every line and integer field.
 */
bool
isAsciiSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

} // namespace

std::string_view
trimView(std::string_view s)
{
    size_t b = 0;
    size_t e = s.size();
    while (b < e && isAsciiSpace(s[b]))
        ++b;
    while (e > b && isAsciiSpace(s[e - 1]))
        --e;
    return s.substr(b, e - b);
}

std::string
trim(std::string_view s)
{
    return std::string(trimView(s));
}

namespace {

/**
 * The base-10 grammar strtol accepts — surrounding whitespace, an
 * optional sign, digits — except that the whole of @p s must be
 * consumed, so bytes after an embedded NUL are no longer ignored.
 * False on garbage or overflow of long long.
 */
bool
parseDecimal(std::string_view s, long long &out)
{
    s = trimView(s);
    if (!s.empty() && s[0] == '+') {
        s.remove_prefix(1);
        if (!s.empty() && s[0] == '-')
            return false; // "+-5": from_chars would take the '-'
    }
    const char *end = s.data() + s.size();
    auto [ptr, ec] = std::from_chars(s.data(), end, out);
    return ec == std::errc() && ptr == end;
}

} // namespace

bool
parseInt(std::string_view s, int &out)
{
    long long v = 0;
    if (!parseDecimal(s, v) || v < 0 || v > INT_MAX)
        return false;
    out = static_cast<int>(v);
    return true;
}

bool
parseU64(std::string_view s, std::uint64_t &out)
{
    // from_chars into an unsigned type takes neither a sign nor
    // leading whitespace, and reports overflow as out_of_range.
    std::uint64_t v = 0;
    const char *end = s.data() + s.size();
    auto [ptr, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc() || ptr != end)
        return false;
    out = v;
    return true;
}

bool
parseSignedInt(std::string_view s, int &out)
{
    long long v = 0;
    if (!parseDecimal(s, v) || v < INT_MIN || v > INT_MAX)
        return false;
    out = static_cast<int>(v);
    return true;
}

void
appendInt(std::string &out, long long v)
{
    char buf[24];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, r.ptr);
}

void
appendInt(std::string &out, std::string_view label, long long v)
{
    out += label;
    appendInt(out, v);
}

int
envInt(const char *var, int fallback, int lo)
{
    const char *s = std::getenv(var);
    if (s == nullptr)
        return fallback;
    int v = 0;
    if (!parseSignedInt(s, v) || v < lo) {
        warn("%s='%s' is not an integer >= %d; using %d", var, s,
             lo, fallback);
        return fallback;
    }
    return v;
}

std::uint64_t
fnv1a64(std::string_view s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace dms
