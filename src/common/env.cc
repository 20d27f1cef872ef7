#include "common/env.h"

#include <cstdlib>

namespace humo {

int64_t GetEnvInt64(const char* name, int64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  long long v = std::strtoll(raw, &end, 10);
  if (end == raw || *end != '\0') return fallback;
  return static_cast<int64_t>(v);
}

}  // namespace humo
