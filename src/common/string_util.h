// Small string helpers shared across the library (no dependency on
// anything but the standard library).

#ifndef BAYESCROWD_COMMON_STRING_UTIL_H_
#define BAYESCROWD_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace bayescrowd {

/// Splits `text` on `delim`, keeping empty fields.
std::vector<std::string> Split(std::string_view text, char delim);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

/// True if `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// True if `text` is non-empty and only [A-Za-z0-9._-]: safe as part
/// of a file name and as a metric label value without escaping.
bool IsSafeName(std::string_view text);

/// Parses a decimal integer; returns false on malformed input.
bool ParseInt(std::string_view text, int* out);

/// Parses a floating-point number; returns false on malformed input.
bool ParseDouble(std::string_view text, double* out);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace bayescrowd

#endif  // BAYESCROWD_COMMON_STRING_UTIL_H_
