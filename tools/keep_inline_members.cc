// One translation unit over the umbrella header. Compiled with
// -O0 -fkeep-inline-functions it defines every inline humo:: function the
// library's headers declare (in-class member bodies included), which
// `check_unlinked_objects.py --functions` then compares with what the
// bench, example and bench_e2e binaries keep: an inline function only
// tests call never reaches libhumo.a, so the archive scan alone cannot see
// it. CI's g++ Debug leg builds it:
//
//   g++ -std=c++17 -O0 -fkeep-inline-functions -ffunction-sections -I src \
//       -c tools/keep_inline_members.cc -o build/keep_inline_members.o
#include "humo.h"
