#include "common/isa.hpp"

namespace adapex::isa {

bool host_supports(Feature feature) {
  switch (feature) {
    case Feature::kBaseline:
      return true;
#if defined(__GNUC__) && defined(__x86_64__)
    case Feature::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case Feature::kAvx512:
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0 &&
             __builtin_cpu_supports("avx512vl") != 0 &&
             __builtin_cpu_supports("avx512dq") != 0;
    case Feature::kAvx512Vp:
      return host_supports(Feature::kAvx512) &&
             __builtin_cpu_supports("avx512vpopcntdq") != 0;
#endif
    default:
      return false;
  }
}

}  // namespace adapex::isa
