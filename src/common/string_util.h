#pragma once

#include <array>
#include <string>
#include <string_view>
#include <vector>

namespace humo {

/// Splits on any run of characters in `seps`; drops empty fields.
std::vector<std::string> SplitAny(std::string_view s, std::string_view seps);

/// Joins with a separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// The byte rule of NormalizeForMatching as one table: kMatchFold[c] is the
/// lower-case form of an ASCII letter or digit ([0-9A-Za-z], A-Z folded to
/// a-z) and 0 for every other byte, which separates tokens. The rule is
/// fixed ASCII, not the process locale's: bytes >= 0x80 separate, so UTF-8
/// letters split tokens exactly as in the "C" locale, whatever a host
/// program passed to setlocale.
extern const std::array<char, 256> kMatchFold;

/// Lower-cases ASCII letters and keeps digits (kMatchFold); every run of
/// other bytes becomes one ' ' between tokens, none leading or trailing.
/// This is the canonical normalization applied to attribute values before
/// similarity computation.
std::string NormalizeForMatching(std::string_view s);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace humo
