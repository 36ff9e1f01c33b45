/**
 * @file
 * Whole-value parsing of the tools' unsigned numeric options, so a
 * malformed value ("--alat x", "--max-cycles 4e8", "--cq -1") fails
 * naming the flag instead of running with whatever prefix strtoul
 * happened to read.
 */

#ifndef FF_TOOLS_CLI_NUMBER_HH
#define FF_TOOLS_CLI_NUMBER_HH

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
 * base-0 syntax (decimal, 0x hex, leading-0 octal). Fatal, naming
 * @p flag and the value, when the text is empty, signed, has
 * anything after the number, or does not fit in T.
 */
template <typename T>
T
parseNumber(const std::string &flag, const std::string &text)
{
    const unsigned long long max =
        static_cast<unsigned long long>(std::numeric_limits<T>::max());
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 0);
    // strtoull skips blanks and negates a leading '-', so the first
    // character must be a digit for the whole text to be the number.
    ff_fatal_if(text.empty() ||
                    !std::isdigit(static_cast<unsigned char>(text[0])) ||
                    *end != '\0' || errno == ERANGE || v > max,
                "bad ", flag, " value '", text,
                "' (expected an integer from 0 to ", max, ")");
    return static_cast<T>(v);
}

} // namespace cli
} // namespace ff

#endif // FF_TOOLS_CLI_NUMBER_HH
