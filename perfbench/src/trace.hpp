// Outside-in span tracer for the benchmark's traced runs.
//
// Spans are recorded only from the benchmark's own files: around the calls
// the harness makes into each adapex module, and — through TimedLayer — around
// every layer's forward/backward while a model is instrumented. The adapex
// library itself carries no instrumentation. Spans are kept in per-thread
// in-memory buffers (no locking on the hot path) and written once, at the
// end of the run, as Chrome trace-event JSON; perfbench/benchlib.py turns
// that file into the flat self-time table and the per-layer metrics.
//
// Recording is off until Tracer::set_enabled(true): an untraced run pays one
// relaxed atomic load per ScopedSpan.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/branchy.hpp"
#include "nn/layers.hpp"

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double now_s();

class Tracer {
 public:
  static void set_enabled(bool on);
  static bool enabled();
  /// Opens a span on the calling thread; returns its buffer index, or -1
  /// when recording is off. Its parent is `parent` when given (a span id
  /// from current_span(), e.g. of a span on the thread that submitted this
  /// work), else the enclosing open span of the same thread.
  static int begin(const char* name, long arg, long parent = -1);
  static void end(int index);
  /// Id of the calling thread's innermost open span (-1 when none or when
  /// recording is off).
  static long current_span();
  /// Writes every span recorded so far as Chrome trace-event JSON (one "X"
  /// event per span with args id/parent/arg; tid is the registration order
  /// of the recording thread, and a span's id is tid * 2^32 + its index in
  /// that thread's buffer). Returns the number of spans written.
  static std::size_t write_chrome_trace(const std::string& path);
};

/// RAII span. `name` must outlive the process (string literal).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, long arg = -1, long parent = -1)
      : index_(Tracer::begin(name, arg, parent)) {}
  ~ScopedSpan() {
    if (index_ >= 0) Tracer::end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int index_;
};

/// Timing decorator: forwards every Layer call to the wrapped layer and
/// records `nn.fwd.<kind>` / `nn.bwd.<kind>` spans around forward/backward.
/// A conv decorator with a shape slot stores the first input shape it sees
/// (the kernel replays run at those captured shapes).
///
/// Installed only around train_model and float evaluation: prune_model,
/// walk_compute_layers, compile_accelerator and freeze_packed downcast to
/// the concrete layer types, so uninstrument() must run before them.
class TimedLayer final : public adapex::Layer {
 public:
  TimedLayer(std::unique_ptr<adapex::Layer> inner, std::vector<int>* shape_slot);

  adapex::Tensor forward(const adapex::Tensor& input, bool train) override;
  adapex::Tensor backward(const adapex::Tensor& grad_output) override;
  std::vector<adapex::Param*> params() override { return inner_->params(); }
  std::vector<const adapex::Param*> params() const override {
    return static_cast<const adapex::Layer&>(*inner_).params();
  }
  adapex::LayerKind kind() const override { return inner_->kind(); }
  std::string name() const override { return inner_->name(); }
  std::unique_ptr<adapex::Layer> clone() const override;

  /// Hands the wrapped layer back (uninstrument()).
  std::unique_ptr<adapex::Layer> release() { return std::move(inner_); }

 private:
  std::unique_ptr<adapex::Layer> inner_;
  std::vector<int>* shape_slot_;
  const char* fwd_name_;
  const char* bwd_name_;
};

/// Wraps every leaf layer of `model` except Flatten in a TimedLayer. When
/// `conv_shapes` is non-null it is resized to the model's conv count and
/// conv i (backbone blocks first, then exit heads — walk_compute_layers
/// order) captures its first input shape into (*conv_shapes)[i].
void instrument(adapex::BranchyModel& model,
                std::vector<std::vector<int>>* conv_shapes = nullptr);

/// Removes every TimedLayer instrument() installed, restoring the original
/// layer objects in place.
void uninstrument(adapex::BranchyModel& model);

}  // namespace perfbench
