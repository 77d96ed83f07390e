// Dense matrix multiplication for rank-2 tensors.
//
// The Linear layer's forward and backward passes need all three transpose
// variants. All of them dispatch through the kernel execution engine
// (gemm.hpp): the packed register-tiled backend by default, the original
// cache-blocked scalar loops when the reference backend is selected in the
// kernel config. The *_reference entry points call the scalar loops
// unconditionally — they are the parity baseline for tests and benchmarks.
// Shapes are checked; outputs are fresh tensors.
#pragma once

#include "tensor/tensor.hpp"

namespace appfl::tensor {

/// C[M,N] = A[M,K] · B[K,N].
Tensor matmul(const Tensor& a, const Tensor& b);

/// C[M,N] = A[M,K] · B[N,K]ᵀ  (i.e. A · Bᵀ).
Tensor matmul_bt(const Tensor& a, const Tensor& b);

/// C[M,N] = A[K,M]ᵀ · B[K,N]  (i.e. Aᵀ · B).
Tensor matmul_at(const Tensor& a, const Tensor& b);

/// Reference-backend variants: same contracts, always the scalar loops.
Tensor matmul_reference(const Tensor& a, const Tensor& b);
Tensor matmul_bt_reference(const Tensor& a, const Tensor& b);
Tensor matmul_at_reference(const Tensor& a, const Tensor& b);

}  // namespace appfl::tensor
