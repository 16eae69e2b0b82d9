#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>

#include "common/error.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point g_epoch = Clock::now();

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() - g_epoch)
      .count();
}

struct Span {
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  long parent = -1;  ///< Span id of the parent, -1 for a root.
  long arg = -1;
};

/// One recording thread's spans. Only the owning thread appends; the
/// writer reads after every recording thread has finished its spans.
struct ThreadBuffer {
  long tid = 0;
  std::vector<Span> spans;
  std::vector<int> open;

  long id(int index) const { return (tid << 32) + index; }
};

std::atomic<bool> g_enabled{false};
std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded
thread_local ThreadBuffer* t_buffer = nullptr;

ThreadBuffer& local_buffer() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    t_buffer = g_buffers.back().get();
    t_buffer->tid = static_cast<long>(g_buffers.size() - 1);
  }
  return *t_buffer;
}

const char* span_name(adapex::LayerKind kind, bool forward) {
  switch (kind) {
    case adapex::LayerKind::kConv:
      return forward ? "nn.fwd.conv" : "nn.bwd.conv";
    case adapex::LayerKind::kBatchNorm:
      return forward ? "nn.fwd.bn" : "nn.bwd.bn";
    case adapex::LayerKind::kActQuant:
      return forward ? "nn.fwd.actquant" : "nn.bwd.actquant";
    case adapex::LayerKind::kMaxPool:
      return forward ? "nn.fwd.pool" : "nn.bwd.pool";
    case adapex::LayerKind::kLinear:
      return forward ? "nn.fwd.linear" : "nn.bwd.linear";
    case adapex::LayerKind::kFlatten:
      break;
  }
  return forward ? "nn.fwd.other" : "nn.bwd.other";
}

std::vector<adapex::Sequential*> containers(adapex::BranchyModel& model) {
  std::vector<adapex::Sequential*> out;
  for (std::size_t b = 0; b < model.num_blocks(); ++b) {
    out.push_back(&model.block(b));
  }
  for (std::size_t e = 0; e < model.num_exits(); ++e) {
    out.push_back(model.exit(e).head.get());
  }
  return out;
}

}  // namespace

double now_s() { return now_us() * 1e-6; }

void Tracer::set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

int Tracer::begin(const char* name, long arg, long parent) {
  if (!enabled()) return -1;
  ThreadBuffer& b = local_buffer();
  Span s;
  s.name = name;
  s.parent = parent >= 0 ? parent : b.open.empty() ? -1 : b.id(b.open.back());
  s.arg = arg;
  const int index = static_cast<int>(b.spans.size());
  b.open.push_back(index);
  s.start_us = now_us();
  b.spans.push_back(s);
  return index;
}

void Tracer::end(int index) {
  const double t = now_us();
  ThreadBuffer& b = local_buffer();
  b.spans[static_cast<std::size_t>(index)].end_us = t;
  ADAPEX_CHECK(!b.open.empty() && b.open.back() == index,
               "trace spans must close in LIFO order");
  b.open.pop_back();
}

long Tracer::current_span() {
  if (!enabled()) return -1;
  const ThreadBuffer& b = local_buffer();
  return b.open.empty() ? -1 : b.id(b.open.back());
}

std::size_t Tracer::write_chrome_trace(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ADAPEX_CHECK(out.good(), "cannot open trace output " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  std::size_t written = 0;
  char line[512];
  for (const auto& buffer : g_buffers) {
    const ThreadBuffer& b = *buffer;
    for (std::size_t i = 0; i < b.spans.size(); ++i) {
      const Span& s = b.spans[i];
      std::snprintf(line, sizeof(line),
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%ld,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%ld,"
                    "\"parent\":%ld,\"arg\":%ld}}",
                    written == 0 ? "" : ",", s.name, b.tid, s.start_us,
                    s.end_us - s.start_us, b.id(static_cast<int>(i)), s.parent,
                    s.arg);
      out << line;
      ++written;
    }
  }
  out << "\n]}\n";
  ADAPEX_CHECK(out.good(), "failed writing trace output " + path);
  return written;
}

TimedLayer::TimedLayer(std::unique_ptr<adapex::Layer> inner,
                       std::vector<int>* shape_slot)
    : inner_(std::move(inner)),
      shape_slot_(shape_slot),
      fwd_name_(span_name(inner_->kind(), true)),
      bwd_name_(span_name(inner_->kind(), false)) {}

adapex::Tensor TimedLayer::forward(const adapex::Tensor& input, bool train) {
  if (shape_slot_ != nullptr && shape_slot_->empty()) {
    *shape_slot_ = input.shape();
  }
  ScopedSpan span(fwd_name_);
  return inner_->forward(input, train);
}

adapex::Tensor TimedLayer::backward(const adapex::Tensor& grad_output) {
  ScopedSpan span(bwd_name_);
  return inner_->backward(grad_output);
}

std::unique_ptr<adapex::Layer> TimedLayer::clone() const {
  // Clones (evaluate_exits' per-worker copies) record spans but never
  // capture shapes: the slot belongs to the instrumented original.
  return std::make_unique<TimedLayer>(inner_->clone(), nullptr);
}

void instrument(adapex::BranchyModel& model,
                std::vector<std::vector<int>>* conv_shapes) {
  const std::vector<adapex::Sequential*> seqs = containers(model);
  if (conv_shapes != nullptr) {
    // Sized once up front: the decorators keep pointers into it.
    std::size_t convs = 0;
    for (adapex::Sequential* seq : seqs) {
      for (std::size_t i = 0; i < seq->size(); ++i) {
        convs += seq->layer(i).kind() == adapex::LayerKind::kConv;
      }
    }
    conv_shapes->assign(convs, {});
  }
  std::size_t conv = 0;
  for (adapex::Sequential* seq : seqs) {
    for (std::size_t i = 0; i < seq->size(); ++i) {
      const adapex::LayerKind kind = seq->layer(i).kind();
      if (kind == adapex::LayerKind::kFlatten) continue;
      std::vector<int>* slot = nullptr;
      if (kind == adapex::LayerKind::kConv) {
        if (conv_shapes != nullptr) slot = &(*conv_shapes)[conv];
        ++conv;
      }
      // Sequential::replace destroys the layer it replaces, so the
      // decorator wraps a deep copy (weights, BN statistics and quantizer
      // scales included; gradients are zero between train_model calls).
      seq->replace(i, std::make_unique<TimedLayer>(seq->layer(i).clone(), slot));
    }
  }
}

void uninstrument(adapex::BranchyModel& model) {
  for (adapex::Sequential* seq : containers(model)) {
    for (std::size_t i = 0; i < seq->size(); ++i) {
      if (auto* timed = dynamic_cast<TimedLayer*>(&seq->layer(i))) {
        seq->replace(i, timed->release());
      }
    }
  }
}

}  // namespace perfbench
