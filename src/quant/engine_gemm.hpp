// engine_gemm.hpp — internal decode-once GEMM and the conv/linear entry
// points shared by the free functions (posit_linear / posit_conv2d) and the
// compiled PositSession. Not part of the public API.
#pragma once

#include <cstddef>
#include <vector>

#include "posit/add_lut.hpp"
#include "posit/mul_lut.hpp"
#include "posit/quire.hpp"
#include "quant/posit_inference.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace pdnn::quant::detail {

/// Upper bound on the OpenMP team size the engine regions can start.
inline int engine_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Multiply-accumulates below which engine_gemm runs on the calling thread
/// alone: ~100 us of quire MACs, where forking a team costs more than it
/// saves (every per-image GEMM of a small CIFAR ResNet sits below it).
constexpr std::size_t kParallelMacs = std::size_t{1} << 15;

/// The tabulated kernels a (spec, mode) pair can dispatch onto (n <= 8
/// formats; all pointers null otherwise). `mul`+`add` drive serial
/// accumulation, `fma` the fma chain, and `add` alone every bias add and
/// residual join in any mode. Results are bit-identical to the arithmetic
/// routines by construction.
struct EngineLuts {
  const posit::MulLut* mul = nullptr;
  const posit::AddLut* add = nullptr;
  const posit::FmaLut* fma = nullptr;
};

/// Resolve the tables once per call/compile (takes the process-wide LUT
/// cache lock; never call on the per-row hot path).
EngineLuts resolve_luts(const posit::PositSpec& spec, AccumMode mode);

/// Whether a (mode, luts) pairing reads decoded Unpacked lanes; the LUT
/// serial/fma chains index raw codes only.
bool reads_lanes(AccumMode mode, const EngineLuts& luts);

/// A layer's bound right-hand side: packed weight panel [cols, k] (resident
/// at format width), optional packed bias [cols], accumulation mode, tables,
/// and — for kQuire — at least engine_threads() quires of the weight spec.
struct EngineWeights {
  const EncodedTensor& w;
  const EncodedTensor& bias;
  AccumMode mode;
  const EngineLuts& luts;
  posit::Quire* quire_pool;
};

/// Grow-only activation scratch of the conv/linear entry points: a conv
/// input image's codes and decoded lanes, and the transposed patch panel
/// gathered from the lanes (from the codes for the LUT chains); a linear
/// step's codes and lanes. A conv holds one image at a time, never the
/// batch. Run scratch, not model footprint.
struct ActScratch {
  std::vector<std::uint32_t> input;
  std::vector<posit::Unpacked> input_ops;
  std::vector<std::uint32_t> codes;
  std::vector<posit::Unpacked> ops;

  std::size_t bytes() const {
    return (input.capacity() + codes.capacity()) * sizeof(std::uint32_t) +
           (input_ops.capacity() + ops.capacity()) * sizeof(posit::Unpacked);
  }
};

/// The GEMM at the heart of the engine. Activation row r is the k lanes at
/// a_ops[r*k] when reads_lanes() is true, else the k codes at a_codes[r*k]
/// (only that one of the two is read); the rounded dot of every (row, weight
/// row) pair — plus the optional bias — lands at
/// out[r * row_stride + o * col_stride]. Each packed weight row is decoded
/// once per call into its thread's O(k) scratch and streamed against every
/// activation row; kQuire outputs are one Quire::dot_round each.
///
/// Threading is over output columns with one quire per thread, and only
/// above kParallelMacs. Each output is accumulated start-to-finish by a
/// single thread in ascending-k order — exactly the reference order — so
/// results are bit-identical to the scalar reference and to any other
/// thread count, for every AccumMode.
void engine_gemm(const std::uint32_t* a_codes, const posit::Unpacked* a_ops,
                 const EngineWeights& wt, std::size_t rows, std::size_t k, std::size_t cols,
                 float* out, std::size_t row_stride, std::size_t col_stride);

/// y[n, out] = x[n, in] W^T (+ bias): encode x once, decode it, one GEMM.
void engine_linear(const float* x, std::size_t n, const EngineWeights& wt, ActScratch& scratch,
                   float* y);

/// Posit convolution of x [batch, C, H, W] into y [batch, O, H', W'], one
/// image at a time: encode and decode the image once (one from_double and
/// one decode per element), gather its transposed patch panel of lanes (the
/// zero lane for padding; codes instead when reads_lanes() is false), GEMM.
void engine_conv2d(const float* x, std::size_t batch, const tensor::Conv2dGeom& geom,
                   const EngineWeights& wt, ActScratch& scratch, float* y);

}  // namespace pdnn::quant::detail
