#pragma once

#include <cstdint>

namespace humo {

/// Reads an environment variable as int64, returning `fallback` when unset or
/// unparsable. The one caller is ThreadPool's HUMO_NUM_THREADS.
int64_t GetEnvInt64(const char* name, int64_t fallback);

}  // namespace humo
