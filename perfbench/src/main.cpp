// perfbench: runs one benchmark workload against the adapex public API and
// prints one JSON result object as the last line of standard output.
//
//   perfbench --workload design|frozen_eval|fleet --seed N --seconds S
//             --trace 0|1 --workdir DIR [--trace-out FILE]
//
// perfbench/run.py is the intended entry point: it builds this binary,
// strips ambient ADAPEX_* variables, and turns the samples into the
// benchmark's metrics. The binary itself refuses to run with any ADAPEX_*
// variable set, so no environment override can reach a measured call.

#include <sys/resource.h>

#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "harness.hpp"
#include "tensor/kernels.hpp"
#include "tensor/packed.hpp"

extern char** environ;

namespace perfbench {

void Result::add_samples(const std::string& name, const std::string& unit,
                         std::vector<double> samples) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.samples.insert(m.samples.end(), samples.begin(), samples.end());
      return;
    }
  }
  metrics_.push_back({name, unit, std::move(samples)});
}

void Result::check(const std::string& name, bool ok) {
  checks_.emplace_back(name, ok);
}

adapex::Json Result::to_json() const {
  adapex::Json j = adapex::Json::object();
  bool correct = true;
  long failed = failed_;
  adapex::Json checks = adapex::Json::object();
  for (const auto& [name, ok] : checks_) {
    checks[name] = ok;
    if (!ok) {
      correct = false;
      ++failed;
    }
  }
  j["correct"] = correct;
  j["attempted"] = static_cast<std::int64_t>(attempted_ + static_cast<long>(checks_.size()));
  j["failed"] = static_cast<std::int64_t>(failed);
  j["checks"] = checks;
  adapex::Json metrics = adapex::Json::object();
  for (const Metric& m : metrics_) {
    adapex::Json entry = adapex::Json::object();
    entry["unit"] = m.unit;
    adapex::Json samples = adapex::Json::array();
    for (double v : m.samples) samples.push_back(v);
    entry["samples"] = samples;
    metrics[m.name] = entry;
  }
  j["metrics"] = metrics;
  j["context"] = context_;
  return j;
}

double median(std::vector<double> v) {
  ADAPEX_CHECK(!v.empty(), "median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench

namespace {

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload design|frozen_eval|fleet "
               "--seed N --seconds S --trace 0|1 --workdir DIR "
               "[--trace-out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;

  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "ADAPEX_", 7) == 0) {
      std::cerr << "perfbench: refusing to run with ambient override "
                << std::string(*e).substr(0, std::strcspn(*e, "=")) << "\n";
      return 2;
    }
  }

  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--workdir") {
      opt.workdir = value;
    } else if (key == "--trace-out") {
      opt.trace_path = value;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1) return usage("arguments come in --key value pairs");
  if (opt.workdir.empty()) return usage("--workdir is required");
  if (opt.seconds <= 0.0) return usage("--seconds must be positive");
  if (opt.trace && opt.trace_path.empty()) {
    return usage("--trace 1 needs --trace-out");
  }
  // Worker budget: one process, at most 4 threads, never more
  // than the host has.
  const unsigned hw = std::thread::hardware_concurrency();
  opt.workers = static_cast<int>(std::min(4u, hw == 0 ? 1u : hw));

  try {
    Result result;
    if (opt.workload == "design") {
      result = run_design(opt);
    } else if (opt.workload == "frozen_eval") {
      result = run_frozen_eval(opt);
    } else if (opt.workload == "fleet") {
      result = run_fleet(opt);
    } else {
      return usage(("unknown workload " + opt.workload).c_str());
    }
    result.add("peak_rss_mb", "MiB", peak_rss_mb());
    adapex::Json j = result.to_json();
    j["workload"] = opt.workload;
    j["seed"] = static_cast<std::int64_t>(opt.seed);
    j["trace"] = opt.trace;
    j["workers"] = opt.workers;
    j["kernel_isa"] = adapex::kernels::active_isa();
    j["packed_isa"] = adapex::packed::active_isa();
    std::cout << j.dump() << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  return 0;
}
