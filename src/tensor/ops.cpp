#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/thread_pool.hpp"
#include "tensor/kernels.hpp"

namespace adapex::ops {

int out_dim(int in, int kernel, int stride) {
  ADAPEX_CHECK(kernel >= 1 && stride >= 1 && in >= kernel,
               "invalid pooling/conv geometry");
  return (in - kernel) / stride + 1;
}

namespace {

// The conv passes fold whole images into the GEMM N dimension: a chunk of
// images lays its patches side by side, column n * patch + p for image n,
// so layers whose output plane is narrower than the blocked kernels need
// still fill them. Planes of kWidePlane patches or more (one column panel of
// the direct kernel) gain nothing from it and run one image per chunk.
// Otherwise a chunk holds as many images as keep each of its panels (rows x
// chunk patches) under kPanelCap floats, and at least one, so the
// per-thread panels stay bounded whatever the batch size. With a work team
// (common/thread_pool.hpp) a chunk also holds at most ceil(batch / team)
// images, so every thread gets one; chunks are the unit a team splits.
constexpr std::size_t kWidePlane = 512;
constexpr std::size_t kPanelCap = std::size_t{64} * 1024;

int images_per_chunk(int batch, int rows, std::size_t patch) {
  const std::size_t per_image = static_cast<std::size_t>(rows) * patch;
  const std::size_t fit =
      patch >= kWidePlane || per_image == 0 ? 1 : kPanelCap / per_image;
  const std::size_t images = static_cast<std::size_t>(std::max(batch, 1));
  const std::size_t team = team_size();
  return static_cast<int>(
      std::clamp<std::size_t>(fit, 1, (images + team - 1) / team));
}

/// Per-thread GEMM panels, grown on demand and reused across calls and
/// layers so the training loop never allocates; thread_local keeps pool
/// workers and team helpers independent. kFilter holds F rows x chunk
/// patches (forward output, gathered dOut), kPatch C*k*k rows x chunk
/// patches (im2col, dcol), kRow one image's im2row panel, and kPartial the
/// per-image weight-gradient partials of conv2d_backward.
enum class Panel { kFilter, kPatch, kRow, kPartial };

float* thread_panel(Panel which, std::size_t floats) {
  thread_local std::vector<float> bufs[4];
  std::vector<float>& buf = bufs[static_cast<int>(which)];
  if (buf.size() < floats) buf.resize(floats);
  return buf.data();
}

/// Adds images partial rows, `stride` floats apart, into dst[0, len) in
/// ascending image order: dst[e] += part[0][e], then part[1][e], and so on,
/// the sequence a serial `dst += acc` per image performs. Element ranges
/// are independent, so they split across the team.
void add_in_image_order(const float* part, int images, std::size_t stride,
                        std::size_t len, float* dst) {
  constexpr std::size_t kGrain = 4096;
  const std::size_t ranges =
      std::clamp<std::size_t>(len / kGrain, 1, team_size());
  const std::size_t step = (len + ranges - 1) / ranges;
  team_for(ranges, [&](std::size_t r) {
    const std::size_t e0 = r * step;
    const std::size_t e1 = std::min(len, e0 + step);
    for (int img = 0; img < images; ++img) {
      const float* p = part + static_cast<std::size_t>(img) * stride;
      for (std::size_t e = e0; e < e1; ++e) dst[e] += p[e];
    }
  });
}

/// im2row of one image: row p = y * ow + x holds patch (y, x) in the
/// (c, ky, kx) order of im2col, zero-padded to ldrow floats.
void im2row(const float* img, int channels, int height, int width, int kernel,
            float* rows, int ldrow) {
  const int oh = height - kernel + 1;
  const int ow = width - kernel + 1;
  const int kdim = channels * kernel * kernel;
  for (int y = 0; y < oh; ++y) {
    for (int x = 0; x < ow; ++x) {
      float* dst =
          rows + (static_cast<std::size_t>(y) * ow + x) * ldrow;
      for (int c = 0; c < channels; ++c) {
        const float* src = img +
                           (static_cast<std::size_t>(c) * height + y) * width +
                           x;
        for (int ky = 0; ky < kernel; ++ky) {
          for (int kx = 0; kx < kernel; ++kx) *dst++ = src[kx];
          src += width;
        }
      }
      std::fill(dst, dst + (ldrow - kdim), 0.0f);
    }
  }
}

/// Checks a conv's input [N,C,H,W] against its weight [F,C,k,k].
void check_conv_geometry(const Tensor& input, const Tensor& weight) {
  ADAPEX_CHECK(input.ndim() == 4, "conv2d input must be [N,C,H,W]");
  ADAPEX_CHECK(weight.ndim() == 4, "conv2d weight must be [F,C,k,k]");
  ADAPEX_CHECK(weight.dim(1) == input.dim(1),
               "conv2d channel mismatch: input has " +
                   std::to_string(input.dim(1)) + " channels");
  ADAPEX_CHECK(weight.dim(2) == weight.dim(3), "conv2d kernel must be square");
}

}  // namespace

void im2col(const float* img, int channels, int height, int width, int kernel,
            float* col, std::size_t ldcol) {
  const int oh = height - kernel + 1;
  const int ow = width - kernel + 1;
  std::size_t row = 0;
  for (int c = 0; c < channels; ++c) {
    const float* plane = img + static_cast<std::size_t>(c) * height * width;
    for (int ky = 0; ky < kernel; ++ky) {
      for (int kx = 0; kx < kernel; ++kx) {
        float* dst = col + row * ldcol;
        for (int y = 0; y < oh; ++y) {
          const float* src = plane + static_cast<std::size_t>(y + ky) * width + kx;
          std::memcpy(dst + static_cast<std::size_t>(y) * ow, src,
                      static_cast<std::size_t>(ow) * sizeof(float));
        }
        ++row;
      }
    }
  }
}

void col2im_accumulate(const float* col, std::size_t ldcol, int channels,
                       int height, int width, int kernel, float* img) {
  const int oh = height - kernel + 1;
  const int ow = width - kernel + 1;
  std::size_t row = 0;
  for (int c = 0; c < channels; ++c) {
    float* plane = img + static_cast<std::size_t>(c) * height * width;
    for (int ky = 0; ky < kernel; ++ky) {
      for (int kx = 0; kx < kernel; ++kx) {
        const float* src = col + row * ldcol;
        for (int y = 0; y < oh; ++y) {
          float* dst = plane + static_cast<std::size_t>(y + ky) * width + kx;
          const float* s = src + static_cast<std::size_t>(y) * ow;
          for (int x = 0; x < ow; ++x) dst[x] += s[x];
        }
        ++row;
      }
    }
  }
}

Tensor conv2d_forward(const Tensor& input, const Tensor& weight,
                      const Tensor& bias, std::vector<float>& /*col_scratch*/) {
  check_conv_geometry(input, weight);
  const int batch = input.dim(0), cin = input.dim(1), h = input.dim(2),
            w = input.dim(3);
  const int fout = weight.dim(0), k = weight.dim(2);
  const int oh = out_dim(h, k, 1), ow = out_dim(w, k, 1);
  const int kdim = cin * k * k;
  const std::size_t patch = static_cast<std::size_t>(oh) * ow;
  const std::size_t image = static_cast<std::size_t>(cin) * h * w;
  const int chunk = images_per_chunk(batch, std::max(kdim, fout), patch);

  Tensor out({batch, fout, oh, ow});
  // Chunks write disjoint output images, so they split across the team.
  team_for((batch + chunk - 1) / chunk, [&](std::size_t c) {
    const int n0 = static_cast<int>(c) * chunk;
    const int images = std::min(chunk, batch - n0);
    const std::size_t cols = static_cast<std::size_t>(images) * patch;
    float* col = thread_panel(Panel::kPatch, kdim * cols);
    for (int i = 0; i < images; ++i) {
      im2col(input.data() + static_cast<std::size_t>(n0 + i) * image, cin,
             h, w, k, col + i * patch, cols);
    }
    // Every element reduces over the same k in the same order as a
    // one-image GEMM would, seeded by the bias or by zero like the fresh
    // output. A one-image chunk's panel is its output image itself.
    float* optr = out.data() + static_cast<std::size_t>(n0) * fout * patch;
    float* dst = images == 1 ? optr : thread_panel(Panel::kFilter, fout * cols);
    for (int f = 0; f < fout; ++f) {
      std::fill(dst + f * cols, dst + (f + 1) * cols,
                bias.empty() ? 0.0f : bias[static_cast<std::size_t>(f)]);
    }
    kernels::gemm_accumulate(weight.data(), col, dst, fout, kdim,
                             static_cast<int>(cols));
    for (int i = 0; images > 1 && i < images; ++i) {
      for (int f = 0; f < fout; ++f) {
        std::memcpy(optr + (i * fout + f) * patch, dst + f * cols + i * patch,
                    patch * sizeof(float));
      }
    }
  });
  return out;
}

void conv2d_backward(const Tensor& input, const Tensor& weight,
                     const Tensor& grad_output, Tensor& grad_input,
                     Tensor& grad_weight, Tensor& grad_bias,
                     std::vector<float>& col_scratch) {
  conv2d_backward(input, weight, grad_output, &grad_input, grad_weight,
                  grad_bias, col_scratch);
}

void conv2d_backward(const Tensor& input, const Tensor& weight,
                     const Tensor& grad_output, Tensor* grad_input,
                     Tensor& grad_weight, Tensor& grad_bias,
                     std::vector<float>& /*col_scratch*/) {
  check_conv_geometry(input, weight);
  const int batch = input.dim(0), cin = input.dim(1), h = input.dim(2),
            w = input.dim(3);
  const int fout = weight.dim(0), k = weight.dim(2);
  const int oh = out_dim(h, k, 1), ow = out_dim(w, k, 1);
  ADAPEX_CHECK(grad_output.shape() == (std::vector<int>{batch, fout, oh, ow}),
               "conv2d_backward: grad_output must be [N,F,oh,ow]");
  ADAPEX_CHECK(grad_weight.shape() == weight.shape(),
               "conv2d_backward: grad_weight must have the weight's shape");
  ADAPEX_CHECK(grad_bias.empty() || grad_bias.shape() == std::vector<int>{fout},
               "conv2d_backward: grad_bias must be empty or [F]");
  const int kdim = cin * k * k;
  const int ldrow = kernels::panel_stride(kdim);
  const std::size_t patch = static_cast<std::size_t>(oh) * ow;
  const std::size_t image = static_cast<std::size_t>(cin) * h * w;
  const int chunk = images_per_chunk(batch, std::max(kdim, fout), patch);
  // A team finishes images in any order, so each image's dW and bias
  // gradient land in its own partial row, added into dW and db in image
  // order afterwards. The rows start at -0.0f, and -0 + acc == acc exactly,
  // so each holds the accumulator a one-image pass adds. One thread runs
  // the images in order and adds straight into dW and db, the same
  // sequence without the extra pass over batch x |W| floats.
  const bool partial_rows = team_size() > 1;
  const std::size_t wsize = weight.numel();
  const std::size_t stride = wsize + grad_bias.numel();
  float* partials = partial_rows
                        ? thread_panel(Panel::kPartial,
                                       static_cast<std::size_t>(batch) * stride)
                        : nullptr;

  if (grad_input != nullptr) *grad_input = Tensor(input.shape());
  // Chunks write disjoint partial rows and grad_input images, so they
  // split across the team (or run in order on one thread).
  team_for((batch + chunk - 1) / chunk, [&](std::size_t c) {
    const int n0 = static_cast<int>(c) * chunk;
    const int images = std::min(chunk, batch - n0);
    const std::size_t cols = static_cast<std::size_t>(images) * patch;
    const float* dout0 =
        grad_output.data() + static_cast<std::size_t>(n0) * fout * patch;
    const bool gather = grad_input != nullptr && images > 1;
    float* rows = thread_panel(Panel::kRow, patch * ldrow);
    float* dout_panel = gather ? thread_panel(Panel::kFilter, fout * cols)
                               : nullptr;
    for (int i = 0; i < images; ++i) {
      const float* dout = dout0 + static_cast<std::size_t>(i) * fout * patch;
      float* dw = grad_weight.data();
      float* db = grad_bias.data();
      if (partial_rows) {
        dw = partials + static_cast<std::size_t>(n0 + i) * stride;
        db = dw + wsize;
        std::fill(dw, dw + stride, -0.0f);
      }
      // One dot reduction over this image's patches per dW element.
      im2row(input.data() + static_cast<std::size_t>(n0 + i) * image, cin, h,
             w, k, rows, ldrow);
      kernels::gemm_a_bt_packed_accumulate(dout, rows, ldrow, dw, fout,
                                           static_cast<int>(patch), kdim);
      for (int f = 0; gather && f < fout; ++f) {
        std::memcpy(dout_panel + f * cols + i * patch, dout + f * patch,
                    patch * sizeof(float));
      }
      for (int f = 0; !grad_bias.empty() && f < fout; ++f) {
        const float* drow = dout + static_cast<std::size_t>(f) * patch;
        float acc = 0.0f;
        for (std::size_t p = 0; p < patch; ++p) acc += drow[p];
        db[f] += acc;
      }
    }
    if (grad_input == nullptr) return;
    // dcol = W^T * dOut over the whole chunk (a one-image chunk's dOut is
    // already [F][oh*ow]), then scattered per image.
    float* dcol = thread_panel(Panel::kPatch, kdim * cols);
    std::fill(dcol, dcol + kdim * cols, 0.0f);
    kernels::gemm_at_b_accumulate(weight.data(), gather ? dout_panel : dout0,
                                  dcol, kdim, fout, static_cast<int>(cols));
    for (int i = 0; i < images; ++i) {
      col2im_accumulate(
          dcol + i * patch, cols, cin, h, w, k,
          grad_input->data() + static_cast<std::size_t>(n0 + i) * image);
    }
  });
  if (!partial_rows) return;
  add_in_image_order(partials, batch, stride, wsize, grad_weight.data());
  if (!grad_bias.empty()) {
    add_in_image_order(partials + wsize, batch, stride, grad_bias.numel(),
                       grad_bias.data());
  }
}

Tensor linear_forward(const Tensor& input, const Tensor& weight,
                      const Tensor& bias) {
  ADAPEX_CHECK(input.ndim() == 2, "linear input must be [N,In]");
  const int batch = input.dim(0), in = input.dim(1), out = weight.dim(0);
  ADAPEX_CHECK(weight.dim(1) == in,
               "linear weight expects " + std::to_string(weight.dim(1)) +
                   " inputs, got " + std::to_string(in));
  Tensor y({batch, out});
  // y = bias + x * W^T: each row seeded with the bias, then one dot
  // product added per element.
  for (int n = 0; !bias.empty() && n < batch; ++n) {
    std::copy(bias.data(), bias.data() + out,
              y.data() + static_cast<std::size_t>(n) * out);
  }
  kernels::gemm_a_bt_accumulate(input.data(), weight.data(), y.data(), batch,
                                in, out);
  return y;
}

void linear_backward(const Tensor& input, const Tensor& weight,
                     const Tensor& grad_output, Tensor& grad_input,
                     Tensor& grad_weight, Tensor& grad_bias) {
  const int batch = input.dim(0), in = input.dim(1), out = weight.dim(0);
  grad_input = Tensor(input.shape());
  // dX = dY * W
  kernels::gemm_accumulate(grad_output.data(), weight.data(),
                           grad_input.data(), batch, out, in);
  // dW += dY^T * X
  kernels::gemm_at_b_accumulate(grad_output.data(), input.data(),
                                grad_weight.data(), out, batch, in);
  if (!grad_bias.empty()) {
    for (int n = 0; n < batch; ++n) {
      for (int f = 0; f < out; ++f) {
        grad_bias[static_cast<std::size_t>(f)] += grad_output.at2(n, f);
      }
    }
  }
}

Tensor maxpool_forward(const Tensor& input, int kernel, int stride,
                       std::vector<int>& argmax) {
  const int batch = input.dim(0), ch = input.dim(1), h = input.dim(2),
            w = input.dim(3);
  const int oh = out_dim(h, kernel, stride), ow = out_dim(w, kernel, stride);
  Tensor out({batch, ch, oh, ow});
  argmax.assign(out.numel(), 0);
  std::size_t oi = 0;
  for (int n = 0; n < batch; ++n) {
    for (int c = 0; c < ch; ++c) {
      const float* plane =
          input.data() + (static_cast<std::size_t>(n) * ch + c) * h * w;
      if (kernel == 2 && stride == 2) {
        // Fast path for the pool shape the CNV topology uses everywhere:
        // hoist the two row pointers and the flat base index out of the
        // window scan. Same scan order ((ky,kx) ascending) and same strict
        // `>` compare against a -inf start as the generic path, so values
        // and argmax ties are bit-identical.
        for (int y = 0; y < oh; ++y) {
          const int iy0 = 2 * y;
          const float* r0 = plane + static_cast<std::size_t>(iy0) * w;
          const float* r1 = r0 + w;
          for (int x = 0; x < ow; ++x) {
            const int ix0 = 2 * x;
            const int base = iy0 * w + ix0;
            float best = -std::numeric_limits<float>::infinity();
            int best_idx = 0;
            if (r0[ix0] > best) { best = r0[ix0]; best_idx = base; }
            if (r0[ix0 + 1] > best) { best = r0[ix0 + 1]; best_idx = base + 1; }
            if (r1[ix0] > best) { best = r1[ix0]; best_idx = base + w; }
            if (r1[ix0 + 1] > best) {
              best = r1[ix0 + 1];
              best_idx = base + w + 1;
            }
            out[oi] = best;
            argmax[oi] = best_idx;
            ++oi;
          }
        }
        continue;
      }
      for (int y = 0; y < oh; ++y) {
        const int iy0 = y * stride;
        for (int x = 0; x < ow; ++x) {
          const int ix0 = x * stride;
          float best = -std::numeric_limits<float>::infinity();
          int best_idx = 0;
          const float* wrow = plane + static_cast<std::size_t>(iy0) * w + ix0;
          int rowbase = iy0 * w + ix0;
          for (int ky = 0; ky < kernel; ++ky) {
            for (int kx = 0; kx < kernel; ++kx) {
              if (wrow[kx] > best) {
                best = wrow[kx];
                best_idx = rowbase + kx;
              }
            }
            wrow += w;
            rowbase += w;
          }
          out[oi] = best;
          argmax[oi] = best_idx;
          ++oi;
        }
      }
    }
  }
  return out;
}

Tensor maxpool_backward(const std::vector<int>& input_shape,
                        const Tensor& grad_output, int kernel, int stride,
                        const std::vector<int>& argmax) {
  ADAPEX_CHECK(input_shape.size() == 4, "maxpool input must be [N,C,H,W]");
  const int batch = input_shape[0], ch = input_shape[1], h = input_shape[2],
            w = input_shape[3];
  const int oh = out_dim(h, kernel, stride), ow = out_dim(w, kernel, stride);
  ADAPEX_ASSERT(argmax.size() == grad_output.numel());
  Tensor grad_input(input_shape);
  std::size_t oi = 0;
  for (int n = 0; n < batch; ++n) {
    for (int c = 0; c < ch; ++c) {
      float* plane =
          grad_input.data() + (static_cast<std::size_t>(n) * ch + c) * h * w;
      for (int i = 0; i < oh * ow; ++i, ++oi) {
        plane[argmax[oi]] += grad_output[oi];
      }
    }
  }
  return grad_input;
}

Tensor softmax(const Tensor& logits) {
  ADAPEX_CHECK(logits.ndim() == 2, "softmax expects [N,K] logits");
  const int batch = logits.dim(0), k = logits.dim(1);
  Tensor out(logits.shape());
  for (int n = 0; n < batch; ++n) {
    float maxv = -std::numeric_limits<float>::infinity();
    for (int j = 0; j < k; ++j) maxv = std::max(maxv, logits.at2(n, j));
    double denom = 0.0;
    for (int j = 0; j < k; ++j) {
      const float e = std::exp(logits.at2(n, j) - maxv);
      out.at2(n, j) = e;
      denom += e;
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (int j = 0; j < k; ++j) out.at2(n, j) *= inv;
  }
  return out;
}

double cross_entropy(const Tensor& logits, const std::vector<int>& labels,
                     Tensor& grad) {
  const int batch = logits.dim(0), k = logits.dim(1);
  ADAPEX_CHECK(static_cast<int>(labels.size()) == batch,
               "labels size must equal batch size");
  grad = softmax(logits);
  double loss = 0.0;
  const float invn = 1.0f / static_cast<float>(batch);
  for (int n = 0; n < batch; ++n) {
    const int y = labels[static_cast<std::size_t>(n)];
    ADAPEX_CHECK(y >= 0 && y < k, "label out of range");
    const float p = std::max(grad.at2(n, y), 1e-12f);
    loss -= std::log(p);
    grad.at2(n, y) -= 1.0f;
  }
  grad.scale_(invn);
  return loss / batch;
}

}  // namespace adapex::ops
