#include "common/string_util.h"

#include <cstdarg>
#include <cstdio>

namespace humo {
namespace {

constexpr std::array<char, 256> MakeMatchFold() {
  std::array<char, 256> fold{};
  for (char c = '0'; c <= '9'; ++c) fold[c] = c;
  for (char c = 'a'; c <= 'z'; ++c) fold[c] = fold[c - 'a' + 'A'] = c;
  return fold;
}

}  // namespace

const std::array<char, 256> kMatchFold = MakeMatchFold();

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
    const char c = kMatchFold[static_cast<unsigned char>(raw)];
    if (c != 0) {
      if (pending_space && !out.empty()) out.push_back(' ');
      pending_space = false;
      out.push_back(c);
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
