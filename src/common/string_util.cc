#include "common/string_util.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>

namespace humo {

std::vector<std::string> SplitAny(std::string_view s, std::string_view seps) {
  std::vector<std::string> out;
  size_t start = std::string_view::npos;
  for (size_t i = 0; i <= s.size(); ++i) {
    bool is_sep = (i == s.size()) || seps.find(s[i]) != std::string_view::npos;
    if (!is_sep && start == std::string_view::npos) {
      start = i;
    } else if (is_sep && start != std::string_view::npos) {
      out.emplace_back(s.substr(start, i - start));
      start = std::string_view::npos;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string NormalizeForMatching(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  bool pending_space = false;
  for (char raw : s) {
    unsigned char c = static_cast<unsigned char>(raw);
    if (std::isalnum(c)) {
      if (pending_space && !out.empty()) out.push_back(' ');
      pending_space = false;
      out.push_back(static_cast<char>(std::tolower(c)));
    } else {
      // Whitespace and punctuation both act as token separators.
      pending_space = true;
    }
  }
  return out;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace humo
