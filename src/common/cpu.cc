#include "common/cpu.h"

namespace humo {

bool CpuHasAvx2() {
#ifdef HUMO_HAS_AVX2_DISPATCH
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
#else
  return false;
#endif
}

}  // namespace humo
