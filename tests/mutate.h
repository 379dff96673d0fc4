#ifndef DMS_TESTS_MUTATE_H
#define DMS_TESTS_MUTATE_H

/**
 * @file
 * Seeded text mutations for the parser outcome pins: byte
 * deletions, printable replacements, duplicated lines and inserted
 * fragments (whitespace of every kind the tokenisers treat
 * differently, comment and attribute punctuation, signs, an int
 * overflow, and format keywords). NUL is never produced; the
 * integer-parsing tests cover it.
 */

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/cache.h"
#include "support/rng.h"

namespace dms {

/** Apply one to three seeded mutations to @p text. */
inline std::string
mutateText(std::string text, Rng &rng,
           const std::vector<std::string> &keywords)
{
    static const char *const kFragments[] = {
        " ", "\t", "\r", "\v", "#", "=", "==", "+", "-",
        "2147483648", "foo=bar", "a=b=c",
    };
    constexpr int kNumFragments =
        static_cast<int>(sizeof(kFragments) / sizeof(kFragments[0]));
    const int n = rng.range(1, 3);
    for (int k = 0; k < n; ++k) {
        const int size = static_cast<int>(text.size());
        switch (rng.range(0, 3)) {
        case 0:
            if (size > 0)
                text.erase(static_cast<size_t>(rng.range(0, size - 1)),
                           1);
            break;
        case 1:
            if (size > 0)
                text[static_cast<size_t>(rng.range(0, size - 1))] =
                    static_cast<char>(rng.range(0x20, 0x7e));
            break;
        case 2: {
            if (size == 0)
                break;
            // Duplicate the line holding a random byte.
            size_t at = static_cast<size_t>(rng.range(0, size - 1));
            size_t begin = text.rfind('\n', at);
            begin = begin == std::string::npos ? 0 : begin + 1;
            size_t end = text.find('\n', at);
            end = end == std::string::npos ? text.size() : end + 1;
            text.insert(begin, text.substr(begin, end - begin));
            break;
        }
        default: {
            const int pick = rng.range(
                0, kNumFragments + static_cast<int>(keywords.size()) -
                       1);
            const std::string frag =
                pick < kNumFragments
                    ? std::string(kFragments[pick])
                    : keywords[static_cast<size_t>(pick -
                                                   kNumFragments)];
            size_t at = static_cast<size_t>(rng.range(0, size));
            // Half the inserts land on a field boundary, where
            // whitespace and whole attributes often still parse.
            if (rng.chance(0.5))
                at = std::min(text.find_first_of(" \n", at),
                              text.size());
            text.insert(at, frag);
            break;
        }
        }
    }
    return text;
}

/**
 * FNV-1a over the outcome of each base text and of @p perBase
 * mutations of it: @p outcome(text, ok) returns the canonical text
 * of an accepted input and the error message of a rejected one,
 * prefixed so the two cannot collide. @p accepted counts accepted
 * mutations.
 */
template <typename Outcome>
std::uint64_t
mutationOutcomeHash(const std::vector<std::string> &bases,
                    const std::vector<std::string> &keywords,
                    int perBase, std::uint64_t seed, int &accepted,
                    Outcome outcome)
{
    Rng rng(seed);
    std::string all;
    accepted = 0;
    bool ok = false;
    for (const std::string &base : bases) {
        all += outcome(base, ok);
        all += '\x01';
        for (int i = 0; i < perBase; ++i) {
            all += outcome(mutateText(base, rng, keywords), ok);
            all += '\x01';
            accepted += ok ? 1 : 0;
        }
    }
    return fnv1a64(all);
}

} // namespace dms

#endif // DMS_TESTS_MUTATE_H
