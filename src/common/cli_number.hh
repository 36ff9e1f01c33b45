/**
 * @file
 * Whole-value parsing of numeric options and environment variables,
 * so a malformed value ("--alat x", "--cq -1", "--jobs 4294967297",
 * "--max-err abc") fails naming the flag instead of running with
 * whatever prefix strtoul or atof read, or whatever a narrowing cast
 * left of it.
 */

#ifndef FF_COMMON_CLI_NUMBER_HH
#define FF_COMMON_CLI_NUMBER_HH

#include <cctype>
#include <cerrno>
#include <cmath>
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

/**
 * Parses @p text as one finite, non-negative real number in strtod's
 * syntax, fatal, naming @p flag and the value, when the text is
 * empty, signed, has anything after the number, or is out of range.
 */
inline double
parseReal(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text.c_str(), &end);
    // As above, the first character must start the number itself; a
    // digit or '.' also rules out "inf" and "nan".
    const bool ok = !text.empty() &&
                    (std::isdigit(static_cast<unsigned char>(text[0])) ||
                     text[0] == '.') &&
                    *end == '\0' && errno != ERANGE && std::isfinite(v);
    ff_fatal_if(!ok, "bad ", flag, " value '", text,
                "' (expected a non-negative number)");
    return v;
}

} // namespace cli
} // namespace ff

#endif // FF_COMMON_CLI_NUMBER_HH
