// Shared pieces of the benchmark binary: run options, the result record
// every workload fills, and small measurement helpers.

#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "model/walk.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 10.0;
  bool trace = false;
  /// Fresh per-run scratch directory (journal, temp artifacts); the
  /// caller creates and removes it.
  std::string workdir;
  /// Where a traced run writes its Chrome trace-event JSON.
  std::string trace_path;
  /// Worker threads for everything that fans out (<= hardware threads).
  int workers = 1;
};

/// What one workload run reports. Metrics carry every in-run sample; the
/// caller reports their median.
class Result {
 public:
  void add(const std::string& name, const std::string& unit, double value) {
    add_samples(name, unit, {value});
  }
  void add_samples(const std::string& name, const std::string& unit,
                   std::vector<double> samples);
  /// Records a named correctness check; a failed check is one failed
  /// operation.
  void check(const std::string& name, bool ok);
  void attempt(long attempted, long failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  adapex::Json& context() { return context_; }
  adapex::Json to_json() const;

 private:
  struct Metric {
    std::string name;
    std::string unit;
    std::vector<double> samples;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, bool>> checks_;
  adapex::Json context_ = adapex::Json::object();
  long attempted_ = 0;
  long failed_ = 0;
};

double median(std::vector<double> v);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

inline double elapsed_since(double start_s) { return now_s() - start_s; }

/// Runs `setup` at least `min_reps` times and until `min_seconds` have
/// passed, and returns each wall time in seconds; the value of the last
/// repetition is left in `out`.
template <typename T, typename Fn>
std::vector<double> timed_setups(int min_reps, double min_seconds, T& out,
                                 Fn&& setup) {
  std::vector<double> times;
  const double start = now_s();
  while (static_cast<int>(times.size()) < min_reps ||
         elapsed_since(start) < min_seconds) {
    const double t0 = now_s();
    out = setup();
    times.push_back(elapsed_since(t0));
  }
  return times;
}

/// Times ops::conv2d_forward (and, with `backward`, conv2d_backward) at each
/// captured conv input shape, reporting tensor.conv_fwd.l<i>_us,
/// tensor.conv_bwd.l<i>_us and tensor.conv_bwd.l<i>_gflops. Operands: 2-bit
/// per-channel weights (what QuantConv2d hands the kernel layer) and
/// 4-level activations (the ActQuant output every conv but the first
/// consumes).
void replay_conv_kernels(const std::vector<std::vector<int>>& shapes,
                         const std::vector<adapex::LayerSite>& conv_sites,
                         std::uint64_t seed, bool backward, Result& r);

Result run_design(const Options& opt);
Result run_frozen_eval(const Options& opt);
Result run_fleet(const Options& opt);

}  // namespace perfbench
