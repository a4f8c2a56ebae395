// General matrix multiplication, the compute kernel behind Linear and
// (via im2col) Conv2d layers.
//
// The blocked kernel carries SIMD microkernels selected at compile time
// (AVX2+FMA when the translation unit is built with those ISA flags —
// see MIME_ENABLE_SIMD in CMakeLists.txt — scalar otherwise); the
// `gemm_reference` triple loop stays as the oracle tests validate
// against. `gemm_rows` is the row-compacted entry point behind MIME's
// sparse planned executor: it contracts over a caller-supplied live-row
// index set and computes a caller-supplied set of output rows only,
// skipping the multiply-accumulates a threshold mask provably zeroes.
#pragma once

#include <cstdint>

#include "common/thread_pool.h"
#include "tensor/tensor.h"

namespace mime {

/// C[M,N] = alpha * op(A)[M,K] * op(B)[K,N] + beta * C[M,N]
///
/// Row-major storage with leading dimensions lda/ldb/ldc (the stride
/// between consecutive rows of the *stored* matrix, i.e. before any
/// transpose). `pool` may be null for single-threaded execution; when
/// provided, work is split across rows of C.
void gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, std::int64_t lda,
          const float* b, std::int64_t ldb, float beta, float* c,
          std::int64_t ldc, ThreadPool* pool = nullptr);

/// Row-compacted GEMM: contracts over the `row_count` indices in `rows`
/// and computes only the `out_row_count` rows of C listed in `out_rows`,
/// i.e. for each listed i
///   C[i,j] = alpha * sum_p op(A)[i, rows[p]] * op(B)[rows[p], j]
///            + beta * C[i,j].
///
/// Both lists must be strictly ascending: `rows` within [0, k), the full
/// contraction extent of the dense problem, and `out_rows` within
/// [0, m). A null list stands for the identity prefix 0..count-1, so
/// (nullptr, k) contracts densely and (nullptr, m) computes every row.
/// Skipped contraction rows are never read, so the dead rows of a
/// caller's B buffer may hold garbage; rows of C (and A) outside
/// `out_rows` are neither read nor written.
///
/// Each computed element keeps its dense FMA chain: the same terms in
/// ascending stored order, exact-zero op(A) entries skipped. So with
/// beta == 0 a listed row bit-matches the dense gemm() whenever every
/// skipped contraction row contributes exactly zero (op(B) row all
/// zeros, or op(A) column all zeros): a zero term never perturbs an
/// accumulator that started from +0.
void gemm_rows(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
               std::int64_t k, const std::int64_t* rows,
               std::int64_t row_count, const std::int64_t* out_rows,
               std::int64_t out_row_count, float alpha, const float* a,
               std::int64_t lda, const float* b, std::int64_t ldb, float beta,
               float* c, std::int64_t ldc, ThreadPool* pool = nullptr);

/// The microkernel variant this build selected at compile time
/// ("avx2+fma" or "scalar"); benches report it next to their numbers.
const char* gemm_kernel_name();

/// Tensor-level 2-D matmul: returns A[M,K] * B[K,N]. Both operands must be
/// rank-2.
Tensor matmul(const Tensor& a, const Tensor& b, ThreadPool* pool = nullptr);

/// Reference O(M*N*K) triple loop used by tests to validate the blocked
/// kernel.
void gemm_reference(bool trans_a, bool trans_b, std::int64_t m,
                    std::int64_t n, std::int64_t k, float alpha,
                    const float* a, std::int64_t lda, const float* b,
                    std::int64_t ldb, float beta, float* c, std::int64_t ldc);

}  // namespace mime
