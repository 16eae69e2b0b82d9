// Runtime ISA-tier selection shared by the multiversioned kernel layers.
//
// tensor/kernels.cpp (float GEMM) and tensor/packed.cpp (popcount GEMM)
// each compile one body per x86 ISA tier under `#pragma GCC target` and
// pick one tier at first use. This header owns that decision for both:
// the host CPU feature probe, the widest-supported default, the
// ADAPEX_*_ISA environment pin, and force_isa(). Each layer only lists
// its tier table.

#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/env.hpp"
#include "common/error.hpp"

namespace adapex::isa {

/// CPU feature set a tier's code is compiled for.
enum class Feature {
  kBaseline,  ///< x86-64 baseline (SSE2) or portable scalar code.
  kAvx2,
  kAvx512,    ///< AVX-512 F + BW + VL + DQ.
  kAvx512Vp,  ///< kAvx512 + VPOPCNTDQ.
};

/// True when the host CPU can execute code compiled for `feature`.
bool host_supports(Feature feature);

/// The dispatch state of one kernel layer. `Table` is a struct of function
/// pointers with `const char* name` and `Feature feature` members; `tiers`
/// lists the compiled tiers widest first and ends with a kBaseline tier.
/// Kernel calls read active(): one load of the cached table pointer.
template <typename Table>
class Dispatcher {
 public:
  /// Starts on the tier named by environment variable `env_pin` when it is
  /// set (throwing like force()), else on the widest tier the host
  /// supports. `facility` names the layer in error messages.
  Dispatcher(const char* facility, std::span<const Table> tiers,
             const char* env_pin)
      : facility_(facility), tiers_(tiers), active_(&tiers.back()) {
    if (const std::optional<std::string> pin = env_value(env_pin)) {
      force(pin->c_str());
      return;
    }
    for (const Table& t : tiers_) {
      if (host_supports(t.feature)) {
        active_ = &t;
        break;
      }
    }
  }

  const Table& active() const { return *active_; }

  /// Switches to tier `name`. Throws ConfigError when the name is unknown
  /// or the host lacks the ISA. Not thread-safe: call only while no kernel
  /// of this layer is running.
  void force(const char* name) {
    ADAPEX_CHECK(name != nullptr, "force_isa: null name");
    const std::string facility(facility_);
    std::string expected;
    for (const Table& t : tiers_) {
      if (std::string_view(t.name) == name) {
        if (!host_supports(t.feature)) {
          throw ConfigError(facility + " ISA '" + name +
                            "' not supported by this CPU");
        }
        active_ = &t;
        return;
      }
      if (!expected.empty()) expected += '|';
      expected += t.name;
    }
    throw ConfigError("unknown " + facility + " ISA '" + name +
                      "' (expected " + expected + ")");
  }

 private:
  const char* facility_;
  std::span<const Table> tiers_;
  const Table* active_;
};

}  // namespace adapex::isa
