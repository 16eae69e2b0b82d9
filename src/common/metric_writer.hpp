// Scalar-metric serialization driven by one field visitor.
//
// A metrics struct describes its scalar fields once, as a visitor
// `visit(fn)` that calls fn(name, value) for every field in a fixed order.
// The JSON object, the CSV header and the CSV row are all produced from
// that one visitor, so the artifacts cannot drift apart, and every written
// value is checked finite first ("<Type>::<field> is not finite").

#pragma once

#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/json.hpp"

namespace adapex::metric_writer {

inline void check_finite(const char* type, const char* name, double value) {
  ADAPEX_CHECK(std::isfinite(value),
               std::string(type) + "::" + name +
                   " is not finite — refusing to serialize");
}

/// Every visited scalar as one JSON object member.
template <typename Visit>
Json to_json(const char* type, Visit&& visit) {
  Json j = Json::object();
  visit([&](const char* name, double value) {
    check_finite(type, name, value);
    j[name] = value;
  });
  return j;
}

/// Comma-separated field names in visit order.
template <typename Visit>
std::string csv_header(Visit&& visit) {
  std::string out;
  visit([&](const char* name, double) {
    if (!out.empty()) out += ",";
    out += name;
  });
  return out;
}

/// Comma-separated values in visit order, printed round-trip exact.
template <typename Visit>
std::string csv_row(const char* type, Visit&& visit) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  bool first = true;
  visit([&](const char* name, double value) {
    check_finite(type, name, value);
    if (!first) os << ",";
    os << value;
    first = false;
  });
  return os.str();
}

}  // namespace adapex::metric_writer
