// Elementwise host kernels used by the MLP layers.
#pragma once

#include <span>

namespace fcc::ops {

inline void relu_inplace(std::span<float> x) {
  for (auto& v : x) v = v > 0.0f ? v : 0.0f;
}

}  // namespace fcc::ops
