// The single reader of ADAPEX_* environment knobs.
//
// Every knob treats an empty value exactly like an unset one, so
// `ADAPEX_X=` in a shell or CI matrix means "use the default" everywhere.

#pragma once

#include <cstdlib>
#include <optional>
#include <string>

namespace adapex {

/// The value of environment variable `name`; std::nullopt when it is unset
/// or empty.
inline std::optional<std::string> env_value(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  return std::string(v);
}

}  // namespace adapex
