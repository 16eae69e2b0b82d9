// HLS module models for the FINN-style dataflow accelerator.
//
// Each CNN layer maps to streaming hardware modules, mirroring the FINN
// library (substitution for Vivado HLS synthesis; see DESIGN.md):
//   - SWU  (Sliding Window Unit): im2col generator feeding a conv MVTU.
//   - MVTU (Matrix-Vector-Threshold Unit): PE x SIMD array executing a conv
//     or fc layer; BatchNorm and activation quantization are absorbed into
//     its threshold stage, as in FINN. The stage is costed from the
//     activation bit width alone; the executable form of that folding is
//     the frozen PackedModel (nn/quant.hpp).
//   - Pool: max-pool unit.
//   - Branch: AXI-stream duplicator inserted at an exit attachment point
//     (the paper's new HLS module); buffers the tapped feature map stream.
// Per-module cycle counts follow FINN's analytical performance estimation;
// resource counts (LUT/FF/BRAM/DSP) follow the folding-proportional cost
// structure of the published FINN-R models, with constants calibrated so
// the full CNV lands in the reported utilization ballpark.

#pragma once

#include <string>
#include <vector>

#include "common/error.hpp"

namespace adapex {

/// FPGA resource vector.
struct Resources {
  long lut = 0;
  long ff = 0;
  long bram = 0;  ///< BRAM18 units.
  long dsp = 0;

  Resources& operator+=(const Resources& other) {
    lut += other.lut;
    ff += other.ff;
    bram += other.bram;
    dsp += other.dsp;
    return *this;
  }
  friend Resources operator+(Resources a, const Resources& b) {
    a += b;
    return a;
  }
  Resources& operator-=(const Resources& other) {
    lut -= other.lut;
    ff -= other.ff;
    bram -= other.bram;
    dsp -= other.dsp;
    return *this;
  }
  friend Resources operator-(Resources a, const Resources& b) {
    a -= b;
    return a;
  }
  /// True when every axis of `*this` is within `cap`.
  bool fits_within(const Resources& cap) const {
    return lut <= cap.lut && ff <= cap.ff && bram <= cap.bram && dsp <= cap.dsp;
  }
};

/// Kinds of streaming modules.
enum class HlsModuleKind { kSwu, kMvtu, kPool, kBranch };

const char* to_string(HlsModuleKind kind);

/// One instantiated streaming module with resolved cost.
struct HlsModule {
  HlsModuleKind kind = HlsModuleKind::kMvtu;
  std::string name;
  /// Expected cycles this module spends per fully-processed image (the
  /// module's initiation interval contribution).
  long cycles = 0;
  Resources resources;

  // --- early-exit reach bookkeeping (filled by the compiler) ---
  /// For backbone modules: number of exit branch points strictly upstream.
  /// An input reaches this module only if it did not take any of them.
  int exit_level = 0;
  /// For exit-head modules: which exit, else -1.
  int exit_head = -1;

  // --- stream geometry (filled by the compiler; linted by analysis R3) ---
  /// Elements per cycle the module consumes on its input stream (SIMD for
  /// an MVTU, the upstream parallelism for SWU/Pool/Branch).
  int in_stream_elems = 1;
  /// Elements per cycle the module produces (PE for an MVTU).
  int out_stream_elems = 1;
};

/// Geometry of a conv/fc layer as needed for module costing.
struct MvtuGeometry {
  bool is_conv = false;
  int in_channels = 0;   ///< conv channels / fc in-features
  int out_channels = 0;  ///< conv filters / fc out-features
  int kernel = 1;
  int out_dim = 1;       ///< output feature-map side (1 for fc)
  int in_dim = 1;
  int weight_bits = 2;
  int act_bits = 2;
};

/// Cycles an MVTU needs per image: out_pixels * (k^2*ch_in/SIMD) *
/// (ch_out/PE). PE/SIMD must divide the respective dimensions.
long mvtu_cycles(const MvtuGeometry& g, int pe, int simd);

/// Cycles of the SWU feeding a conv MVTU (one window element per SIMD pack).
long swu_cycles(const MvtuGeometry& g, int simd);

/// Cycles of a max-pool unit consuming `in_dim^2 * channels` elements at a
/// stream parallelism of `stream_pe` channels per cycle.
long pool_cycles(int channels, int in_dim, int stream_pe);

/// Cycles of a branch duplicator forwarding a `dim^2 * channels` feature map
/// at `stream_pe` channels per cycle.
long branch_cycles(int channels, int dim, int stream_pe);

/// Resource model constants (tunable for ablation).
struct HlsCostModel {
  /// LUTs per PE*SIMD MAC lane as a function of weight/activation bits.
  double lut_per_mac_base = 2.0;
  double lut_per_mac_per_bitbit = 1.1;  ///< multiplied by wbits*abits
  /// Flip-flops per LUT of datapath.
  double ff_per_lut = 1.1;
  /// Control/threshold overhead LUTs per PE.
  double lut_per_pe = 40.0;
  /// BRAM18 capacity in bits.
  double bram_bits = 18432.0;
  /// FIFO depth (elements) inserted at each module input.
  int fifo_depth = 64;
};

Resources mvtu_resources(const MvtuGeometry& g, int pe, int simd,
                         const HlsCostModel& cost);
Resources swu_resources(const MvtuGeometry& g, int simd,
                        const HlsCostModel& cost);
Resources pool_resources(int channels, int stream_pe, int act_bits,
                         const HlsCostModel& cost);
Resources branch_resources(int channels, int dim, int stream_pe, int act_bits,
                           const HlsCostModel& cost);

}  // namespace adapex
