#include "text/tokenizer.h"

#include "common/string_util.h"

namespace humo::text {

std::vector<std::string> WordTokens(std::string_view s) {
  return SplitAny(s, " \t\r\n");
}

std::unordered_set<std::string> TokenSet(
    const std::vector<std::string>& tokens) {
  return {tokens.begin(), tokens.end()};
}

}  // namespace humo::text
