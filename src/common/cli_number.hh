/**
 * @file
 * Whole-value parsing of unsigned numeric options and environment
 * variables, so a malformed value ("--alat x", "--cq -1", "--jobs
 * 4294967297") fails naming the flag instead of running with whatever
 * prefix strtoul read, or whatever a narrowing cast left of it.
 */

#ifndef FF_COMMON_CLI_NUMBER_HH
#define FF_COMMON_CLI_NUMBER_HH

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <string>

#include "common/logging.hh"

namespace ff
{
namespace cli
{

/**
 * Parses @p text as one unsigned integer of type T, in strtoull's
 * base-0 syntax (decimal, 0x hex, leading-0 octal), into @p out.
 * @return false, leaving @p out alone, when the text is empty,
 *         signed, has anything after the number, or does not fit in T
 */
template <typename T>
bool
tryParseNumber(const std::string &text, T &out)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 0);
    // strtoull skips blanks and negates a leading '-', so the first
    // character must be a digit for the whole text to be the number.
    if (text.empty() ||
        !std::isdigit(static_cast<unsigned char>(text[0])) ||
        *end != '\0' || errno == ERANGE ||
        v > std::numeric_limits<T>::max()) {
        return false;
    }
    out = static_cast<T>(v);
    return true;
}

/**
 * Like tryParseNumber(), but fatal, naming @p flag and the value,
 * when @p text is not one unsigned integer that fits in T.
 */
template <typename T>
T
parseNumber(const std::string &flag, const std::string &text)
{
    T v{};
    ff_fatal_if(!tryParseNumber(text, v), "bad ", flag, " value '", text,
                "' (expected an integer from 0 to ",
                static_cast<unsigned long long>(
                    std::numeric_limits<T>::max()),
                ")");
    return v;
}

} // namespace cli
} // namespace ff

#endif // FF_COMMON_CLI_NUMBER_HH
