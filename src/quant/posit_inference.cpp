#include "quant/posit_inference.hpp"

#include <stdexcept>

#include "quant/engine_gemm.hpp"
#include "quant/posit_session.hpp"
#include "tensor/ops.hpp"

namespace pdnn::quant {

using posit::PositSpec;
using posit::Unpacked;
using tensor::Tensor;

namespace detail {

namespace {

/// Per-thread weight-row scratch: the packed row the thread is currently
/// streaming, unpacked to codes and (when the mode reads them) decoded
/// lanes. Grow-only and thread-local — bounded by the largest k this thread
/// has seen.
struct WeightRow {
  std::vector<std::uint32_t> codes;
  std::vector<Unpacked> ops;
};
thread_local WeightRow tl_weight_row;

/// Encode `count` floats to codes under kEncodeRound, in parallel when large.
void encode_codes(const float* src, std::size_t count, const PositSpec& spec,
                  std::uint32_t* codes) {
#pragma omp parallel for schedule(static) if (count > 4096)
  for (std::size_t i = 0; i < count; ++i) {
    codes[i] = posit::from_double(src[i], spec, kEncodeRound);
  }
}

/// Gather one image [C, H, W] of codes or decoded lanes into its transposed
/// patch panel [pixels, patch]: each output pixel's patch contiguous in the
/// weight layout's (c, ky, kx) order, as im2col orders its rows. Taps outside
/// the image read T{} — code 0 or the zero lane, the encoding of im2col's
/// zero padding.
template <typename T>
void gather_patches(const T* img, const tensor::Conv2dGeom& g, T* panel) {
  const long oh = static_cast<long>(g.out_h()), ow = static_cast<long>(g.out_w());
  const long in_h = static_cast<long>(g.in_h), in_w = static_cast<long>(g.in_w);
  const long kh = static_cast<long>(g.kh()), kw = static_cast<long>(g.kw());
  const long channels = static_cast<long>(g.in_c);
  const long stride = static_cast<long>(g.stride), pad = static_cast<long>(g.pad);
  const std::size_t patch = g.patch();
#pragma omp parallel for schedule(static) if (oh > 1 && g.out_h() * g.out_w() * patch > 16384)
  for (long y = 0; y < oh; ++y) {
    T* dst = panel + static_cast<std::size_t>(y * ow) * patch;
    for (long x = 0; x < ow; ++x) {
      for (long c = 0; c < channels; ++c) {
        const T* plane = img + c * in_h * in_w;
        for (long ky = 0; ky < kh; ++ky) {
          const long iy = y * stride - pad + ky;
          const bool row_in = iy >= 0 && iy < in_h;
          for (long kx = 0; kx < kw; ++kx) {
            const long ix = x * stride - pad + kx;
            *dst++ = row_in && ix >= 0 && ix < in_w ? plane[iy * in_w + ix] : T{};
          }
        }
      }
    }
  }
}

}  // namespace

EngineLuts resolve_luts(const PositSpec& spec, AccumMode mode) {
  // The tables tabulate the *arithmetic* rounding of the engine
  // (nearest-even, the default of posit::add/mul/fma), which is independent
  // of the kEncodeRound float->posit encode constant.
  constexpr posit::RoundMode kArith = posit::RoundMode::kNearestEven;
  EngineLuts luts;
  if (posit::add_lut_supported(spec, kArith)) luts.add = &posit::add_lut(spec, kArith);
  if (mode == AccumMode::kSerial && posit::mul_lut_supported(spec, kArith)) {
    luts.mul = &posit::mul_lut(spec, kArith);
  }
  if (mode == AccumMode::kFma && posit::fma_lut_supported(spec, kArith)) {
    luts.fma = &posit::fma_lut(spec, kArith);
  }
  return luts;
}

bool reads_lanes(AccumMode mode, const EngineLuts& luts) {
  const bool lut_serial = mode == AccumMode::kSerial && luts.mul != nullptr && luts.add != nullptr;
  const bool lut_fma = mode == AccumMode::kFma && luts.fma != nullptr;
  return !(lut_serial || lut_fma);
}

void engine_gemm(const std::uint32_t* a_codes, const Unpacked* a_ops, const EngineWeights& wt,
                 std::size_t rows, std::size_t k, std::size_t cols, float* out,
                 std::size_t row_stride, std::size_t col_stride) {
  const PositSpec spec = wt.w.spec;
  const EncodedTensor& bias = wt.bias;
  const EngineLuts& luts = wt.luts;
  const AccumMode mode = wt.mode;
  const bool lanes = reads_lanes(mode, luts);
#pragma omp parallel if (cols > 1 && rows * k * cols > kParallelMacs)
  {
#ifdef _OPENMP
    const int tid = omp_get_thread_num();
#else
    const int tid = 0;
#endif
    posit::Quire* quire = mode == AccumMode::kQuire ? &wt.quire_pool[tid] : nullptr;
    WeightRow& scratch = tl_weight_row;
    scratch.codes.resize(k);
    if (lanes) scratch.ops.resize(k);
    const std::uint32_t* wcodes = scratch.codes.data();
    const Unpacked* wrow = scratch.ops.data();
#pragma omp for schedule(static)
    for (std::size_t o = 0; o < cols; ++o) {
      posit::unpack_codes(wt.w.packed.data(), o * k, k, spec, scratch.codes.data());
      if (lanes) posit::decode_unpacked(wcodes, k, spec, scratch.ops.data());
      const posit::Operand bop(
          !bias.empty() ? posit::unpack_one(bias.packed.data(), o, bias.spec) : 0u, spec);
      for (std::size_t r = 0; r < rows; ++r) {
        std::uint32_t acc = 0;
        if (lanes) {
          const Unpacked* arow = a_ops + r * k;
          switch (mode) {
            case AccumMode::kQuire:
              acc = quire->dot_round(arow, wrow, k);
              break;
            case AccumMode::kSerial:
              for (std::size_t i = 0; i < k; ++i) {
                acc = posit::add(acc, posit::mul(arow[i], wrow[i], spec), spec);
              }
              break;
            case AccumMode::kFma:
              for (std::size_t i = 0; i < k; ++i) acc = posit::fma(arow[i], wrow[i], acc, spec);
              break;
          }
        } else {
          const std::uint32_t* acodes = a_codes + r * k;
          if (mode == AccumMode::kSerial) {
            // Two table reads per term: the multiply and the accumulator add
            // both come out of L2-resident LUTs.
            for (std::size_t i = 0; i < k; ++i) {
              acc = luts.add->at(acc, luts.mul->at(acodes[i], wcodes[i]));
            }
          } else {
            for (std::size_t i = 0; i < k; ++i) acc = luts.fma->at(acodes[i], wcodes[i], acc);
          }
        }
        if (!bias.empty()) {
          acc = luts.add != nullptr ? luts.add->at(acc, bop.code) : posit::add(acc, bop, spec);
        }
        out[r * row_stride + o * col_stride] = static_cast<float>(posit::to_double(acc, spec));
      }
    }
  }
}

void engine_linear(const float* x, std::size_t n, const EngineWeights& wt, ActScratch& scratch,
                   float* y) {
  const std::size_t in = wt.w.shape[1], out = wt.w.shape[0];
  const bool lanes = reads_lanes(wt.mode, wt.luts);
  scratch.codes.resize(n * in);
  encode_codes(x, n * in, wt.w.spec, scratch.codes.data());
  if (lanes) {
    scratch.ops.resize(n * in);
    posit::decode_unpacked(scratch.codes.data(), n * in, wt.w.spec, scratch.ops.data());
  }
  engine_gemm(scratch.codes.data(), lanes ? scratch.ops.data() : nullptr, wt, n, in, out, y, out,
              1);
}

void engine_conv2d(const float* x, std::size_t batch, const tensor::Conv2dGeom& geom,
                   const EngineWeights& wt, ActScratch& scratch, float* y) {
  const std::size_t image = geom.in_c * geom.in_h * geom.in_w;
  const std::size_t pixels = geom.out_h() * geom.out_w();
  const std::size_t patch = geom.patch();
  const bool lanes = reads_lanes(wt.mode, wt.luts);
  scratch.input.resize(image);
  if (lanes) {
    scratch.input_ops.resize(image);
    scratch.ops.resize(pixels * patch);
  } else {
    scratch.codes.resize(pixels * patch);
  }
  for (std::size_t nidx = 0; nidx < batch; ++nidx) {
    encode_codes(x + nidx * image, image, wt.w.spec, scratch.input.data());
    // Each activation sits in about kh*kw patches: decode the image once and
    // gather lanes, or gather codes for the LUT chains that index them.
    if (lanes) {
      posit::decode_unpacked(scratch.input.data(), image, wt.w.spec, scratch.input_ops.data());
      gather_patches(scratch.input_ops.data(), geom, scratch.ops.data());
    } else {
      gather_patches(scratch.input.data(), geom, scratch.codes.data());
    }
    // Output plane for this image is [out_c, pixels]: column stride `pixels`.
    engine_gemm(scratch.codes.data(), lanes ? scratch.ops.data() : nullptr, wt, pixels, patch,
                geom.out_c, y + nidx * geom.out_c * pixels, 1, pixels);
  }
}

}  // namespace detail

namespace {

/// Transient per-thread quire pool for the free-function entry points (the
/// session plans its arenas once at compile instead).
std::vector<posit::Quire> make_quire_pool(const PositSpec& spec, AccumMode mode) {
  std::vector<posit::Quire> pool;
  if (mode == AccumMode::kQuire) {
    const int threads = detail::engine_threads();
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) pool.emplace_back(spec);
  }
  return pool;
}

// ---------------------------------------------------------------------------
// Retained scalar reference path (pre-engine implementation, verbatim
// semantics): coded operands, a full decode per multiply-accumulate, weights
// re-encoded from float on every call.
// ---------------------------------------------------------------------------

std::vector<std::uint32_t> encode_tensor(const Tensor& t, const PositSpec& spec) {
  std::vector<std::uint32_t> codes(t.numel());
  for (std::size_t i = 0; i < t.numel(); ++i) {
    codes[i] = posit::from_double(t[i], spec, kEncodeRound);
  }
  return codes;
}

/// Dot product of two code vectors under the selected accumulation mode.
std::uint32_t dot(const std::uint32_t* a, const std::uint32_t* b, std::size_t count,
                  const PositSpec& spec, AccumMode mode, posit::Quire* quire) {
  switch (mode) {
    case AccumMode::kQuire: {
      quire->clear();
      for (std::size_t i = 0; i < count; ++i) quire->add_product(a[i], b[i]);
      return quire->to_posit();
    }
    case AccumMode::kSerial: {
      std::uint32_t acc = 0;
      for (std::size_t i = 0; i < count; ++i) {
        acc = posit::add(acc, posit::mul(a[i], b[i], spec), spec);
      }
      return acc;
    }
    case AccumMode::kFma: {
      std::uint32_t acc = 0;
      for (std::size_t i = 0; i < count; ++i) acc = posit::fma(a[i], b[i], acc, spec);
      return acc;
    }
  }
  return 0;
}

}  // namespace

EncodedTensor encode_pack(const Tensor& t, const PositSpec& spec) {
  EncodedTensor e;
  e.spec = spec;
  e.shape = t.shape();
  e.count = t.numel();
  // Parallel encode, serial bit-pack: pack_codes RMWs 64-bit windows that
  // straddle neighbouring ranges, so the pack must not be split.
  std::vector<std::uint32_t> codes(e.count);
  detail::encode_codes(t.data(), e.count, spec, codes.data());
  e.packed.assign(posit::packed_capacity(e.count, spec), 0u);
  posit::pack_codes(codes.data(), 0, e.count, spec, e.packed.data());
  return e;
}

Tensor posit_linear(const Tensor& x, const EncodedTensor& w, const EncodedTensor& bias,
                    AccumMode mode) {
  if (x.shape().rank() != 2 || w.shape.rank() != 2) {
    throw std::invalid_argument("posit_linear: rank mismatch");
  }
  const std::size_t n = x.shape()[0], in = x.shape()[1], out = w.shape[0];
  if (w.shape[1] != in) throw std::invalid_argument("posit_linear: shape mismatch");
  if (!bias.empty() && bias.numel() != out) {
    throw std::invalid_argument("posit_linear: bias shape mismatch");
  }
  if (!bias.empty() && !(bias.spec == w.spec)) {
    throw std::invalid_argument("posit_linear: bias/weight spec mismatch");
  }
  const detail::EngineLuts luts = detail::resolve_luts(w.spec, mode);
  std::vector<posit::Quire> pool = make_quire_pool(w.spec, mode);
  detail::ActScratch scratch;
  Tensor y({n, out});
  detail::engine_linear(x.data(), n, {w, bias, mode, luts, pool.data()}, scratch, y.data());
  return y;
}

Tensor posit_linear(const Tensor& x, const Tensor& w, const Tensor& bias, const PositSpec& spec,
                    AccumMode mode) {
  const EncodedTensor we = encode_pack(w, spec);
  EncodedTensor be;
  be.spec = spec;
  if (bias.numel() > 0) be = encode_pack(bias, spec);
  return posit_linear(x, we, be, mode);
}

Tensor posit_conv2d(const Tensor& x, const EncodedTensor& w, const EncodedTensor& bias,
                    const tensor::Conv2dGeom& geom, AccumMode mode) {
  geom.validate();
  const PositSpec spec = w.spec;
  if (x.shape().rank() != 4 || x.shape()[1] != geom.in_c || x.shape()[2] != geom.in_h ||
      x.shape()[3] != geom.in_w) {
    throw std::invalid_argument("posit_conv2d: input shape does not match the geometry");
  }
  const std::size_t batch = x.shape()[0];
  if (w.numel() != geom.out_c * geom.patch()) {
    throw std::invalid_argument("posit_conv2d: weight mismatch");
  }
  if (!bias.empty() && bias.numel() != geom.out_c) {
    throw std::invalid_argument("posit_conv2d: bias shape mismatch");
  }
  if (!bias.empty() && !(bias.spec == spec)) {
    throw std::invalid_argument("posit_conv2d: bias/weight spec mismatch");
  }

  const detail::EngineLuts luts = detail::resolve_luts(spec, mode);
  std::vector<posit::Quire> pool = make_quire_pool(spec, mode);
  detail::ActScratch scratch;
  Tensor out({batch, geom.out_c, geom.out_h(), geom.out_w()});
  detail::engine_conv2d(x.data(), batch, geom, {w, bias, mode, luts, pool.data()}, scratch,
                        out.data());
  return out;
}

Tensor posit_conv2d(const Tensor& x, const Tensor& w, const Tensor& bias,
                    const tensor::Conv2dGeom& geom, const PositSpec& spec, AccumMode mode) {
  const EncodedTensor we = encode_pack(w, spec);
  EncodedTensor be;
  be.spec = spec;
  if (bias.numel() > 0) be = encode_pack(bias, spec);
  return posit_conv2d(x, we, be, geom, mode);
}

Tensor posit_forward(nn::Sequential& net, const Tensor& x, const QuantConfig& cfg, AccumMode mode) {
  PositSession session = PositSession::compile(net, SessionConfig::from_quant(cfg, mode));
  return session.run(x);
}

// ---------------------------------------------------------------------------
// Reference path
// ---------------------------------------------------------------------------

Tensor posit_linear_reference(const Tensor& x, const Tensor& w, const Tensor& bias,
                              const PositSpec& spec, AccumMode mode) {
  const std::size_t n = x.shape()[0], in = x.shape()[1], out = w.shape()[0];
  if (w.shape()[1] != in) throw std::invalid_argument("posit_linear: shape mismatch");
  const auto xc = encode_tensor(x, spec);
  const auto wc = encode_tensor(w, spec);
  const auto bc = bias.numel() > 0 ? encode_tensor(bias, spec) : std::vector<std::uint32_t>();
  posit::Quire quire(spec);

  Tensor y({n, out});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t o = 0; o < out; ++o) {
      std::uint32_t acc = dot(xc.data() + i * in, wc.data() + o * in, in, spec, mode, &quire);
      if (!bc.empty()) acc = posit::add(acc, bc[o], spec);
      y.at(i, o) = static_cast<float>(posit::to_double(acc, spec));
    }
  }
  return y;
}

Tensor posit_conv2d_reference(const Tensor& x, const Tensor& w, const Tensor& bias,
                              const tensor::Conv2dGeom& geom, const PositSpec& spec, AccumMode mode) {
  geom.validate();
  const std::size_t batch = x.shape()[0];
  const std::size_t oh = geom.out_h(), ow = geom.out_w();
  const std::size_t patch = geom.patch();
  const auto wc = encode_tensor(w, spec);
  const auto bc = bias.numel() > 0 ? encode_tensor(bias, spec) : std::vector<std::uint32_t>();
  posit::Quire quire(spec);

  Tensor out({batch, geom.out_c, oh, ow});
  Tensor cols({patch, oh * ow});
  for (std::size_t nidx = 0; nidx < batch; ++nidx) {
    tensor::im2col(x.data() + nidx * geom.in_c * geom.in_h * geom.in_w, geom, cols.data());
    // Encode the unfolded image, transposed so each output pixel's patch is
    // contiguous.
    std::vector<std::uint32_t> cc(patch * oh * ow);
    for (std::size_t p = 0; p < patch; ++p) {
      for (std::size_t t = 0; t < oh * ow; ++t) {
        cc[t * patch + p] = posit::from_double(cols[p * (oh * ow) + t], spec, kEncodeRound);
      }
    }
    for (std::size_t o = 0; o < geom.out_c; ++o) {
      for (std::size_t t = 0; t < oh * ow; ++t) {
        std::uint32_t acc = dot(cc.data() + t * patch, wc.data() + o * patch, patch, spec, mode, &quire);
        if (!bc.empty()) acc = posit::add(acc, bc[o], spec);
        out[((nidx * geom.out_c + o) * oh * ow) + t] = static_cast<float>(posit::to_double(acc, spec));
      }
    }
  }
  return out;
}

}  // namespace pdnn::quant
