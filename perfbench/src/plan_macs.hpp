// plan_macs.hpp — multiply-accumulates per sample computed from an ExecPlan's
// step geometry (conv and linear steps only). A count derived from shapes,
// not a measurement.
#pragma once

#include <vector>

#include "exec/plan.hpp"

namespace perfbench {

inline pdnn::tensor::Shape with_batch(const pdnn::tensor::Shape& s, std::size_t n) {
  switch (s.rank()) {
    case 1: return pdnn::tensor::Shape{n, s[0]};
    case 2: return pdnn::tensor::Shape{n, s[0], s[1]};
    default: return pdnn::tensor::Shape{n, s[0], s[1], s[2]};
  }
}

/// Forward MACs for one sample of shape `sample` (no batch axis).
inline double plan_macs_per_sample(const pdnn::exec::ExecPlan& plan,
                                   const pdnn::tensor::Shape& sample) {
  std::vector<pdnn::tensor::Shape> slot(plan.slots.size());
  slot[static_cast<std::size_t>(plan.input_slot)] = with_batch(sample, 1);
  double macs = 0.0;
  for (const auto& st : plan.steps) {
    const auto& in = slot[static_cast<std::size_t>(st.in0)];
    const auto* skip = st.in1 >= 0 ? &slot[static_cast<std::size_t>(st.in1)] : nullptr;
    const auto out = pdnn::exec::infer_out_shape(st, in, skip, "perfbench");
    if (st.op == pdnn::exec::OpKind::kLinear) {
      macs += static_cast<double>(st.in_c * st.out_c);
    } else if (st.op == pdnn::exec::OpKind::kConv2d) {
      macs += static_cast<double>(st.out_c * out[2] * out[3] * st.in_c * st.kernel * st.kernel_w);
    }
    slot[static_cast<std::size_t>(st.out)] = out;
  }
  return macs;
}

}  // namespace perfbench
