#pragma once

#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace humo::text {

/// Splits a normalized string into word tokens (whitespace-delimited).
std::vector<std::string> WordTokens(std::string_view s);

/// Deduplicated token set (for set-based similarities).
std::unordered_set<std::string> TokenSet(
    const std::vector<std::string>& tokens);

}  // namespace humo::text
