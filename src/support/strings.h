#ifndef DMS_SUPPORT_STRINGS_H
#define DMS_SUPPORT_STRINGS_H

/**
 * @file
 * Small string helpers used by config parsing, emitters and the
 * byte hash the result cache and the fault injector share.
 */

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dms {

/** Split on a delimiter; empty fields are preserved. */
std::vector<std::string> split(std::string_view s, char delim);

/** Join with a separator. */
std::string join(const std::vector<std::string> &parts,
                 std::string_view sep);

/** Strip leading/trailing ASCII whitespace. */
std::string trim(std::string_view s);

/** trim() without the copy: a view into @p s. */
std::string_view trimView(std::string_view s);

/**
 * Parse a non-negative decimal integer; returns false on garbage.
 * Surrounding whitespace, a leading '+' or "-0", and leading zeros
 * are accepted; every other byte of @p s — an embedded NUL
 * included — must be a digit.
 */
bool parseInt(std::string_view s, int &out);

/**
 * Parse an unsigned 64-bit decimal: ASCII digits only (no sign, no
 * whitespace) over the whole of @p s; false on an empty field,
 * garbage or overflow. Used for counters and seeds.
 */
bool parseU64(std::string_view s, std::uint64_t &out);

/**
 * Parse a possibly-negative integer; same strictness as parseInt
 * (no trailing garbage, no overflow). Used where the textual
 * formats carry signed values (memory offsets, const literals).
 */
bool parseSignedInt(std::string_view s, int &out);

/** Append the decimal form of @p v to @p out, with no temporary. */
void appendInt(std::string &out, long long v);

/** Append @p label, then @p v in decimal: one "key=value" field. */
void appendInt(std::string &out, std::string_view label, long long v);

/**
 * Checked integer environment knob: @p fallback when @p var is
 * unset; values that are not integers >= @p lo — garbage, trailing
 * junk, overflow, or too small — are rejected with a warning. The
 * strict-parse path every DMS_* knob goes through.
 */
int envInt(const char *var, int fallback, int lo = 1);

/**
 * FNV-1a 64 over bytes: the result cache's shard/bucket hash and
 * the fault injector's site-name hash.
 */
std::uint64_t fnv1a64(std::string_view s);

} // namespace dms

#endif // DMS_SUPPORT_STRINGS_H
