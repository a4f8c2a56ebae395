// Int8 general matrix multiplication, the compute kernel behind the
// quantized planned executor.
//
// C[M,N] (int32) = A[M,K] (int8) * B[K,N] (int8); C is overwritten.
// Both quantized call sites arrange their operands row-major with no
// transpose: conv contracts a [Cout, C*K*K] weight matrix against an
// int8 im2col column matrix, and linear quantizes its activations
// *transposed* ([in_features, batch]) so the [out, in] weight matrix is
// the A operand there too. Per-output-channel scales then live on rows
// of A, and the dequantize pass is one multiply per output element.
//
// All arithmetic is exact: int8*int8 products are at most 127^2 = 16129,
// so an int32 accumulator holds any contraction up to k ~ 2^31 / 16129
// without overflow (enforced by a checked bound). Exactness means the
// AVX2 kernel, the scalar fallback and the qgemm_reference oracle agree
// bit-for-bit regardless of accumulation order — the float kernels'
// careful order-matching is unnecessary here.
//
// `qgemm_rows` is the row-compacted variant composing with the
// ActiveSet live lists: it contracts over a caller-supplied strictly
// ascending index set and computes a caller-supplied set of output rows
// only, skipping the work a threshold mask provably zeroes. Skipped rows
// of B may hold garbage.
#pragma once

#include <cstdint>

#include "common/thread_pool.h"

namespace mime {

/// Largest contraction depth the int32 accumulators provably hold:
/// floor((2^31 - 1) / 128^2), since the worst-case int8 product is
/// (-128)*(-128) = 16384. Both entry points require k <= this.
inline constexpr std::int64_t kQgemmMaxK = 131071;

/// C[M,N] = A[M,K] * B[K,N], int8 operands, int32 result (overwritten).
/// Row-major with leading dimensions lda/ldb/ldc. `pool` may be null;
/// when provided, work splits across rows of C.
void qgemm(std::int64_t m, std::int64_t n, std::int64_t k,
           const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
           std::int64_t ldb, std::int32_t* c, std::int64_t ldc,
           ThreadPool* pool = nullptr);

/// Row-compacted variant: for each of the `out_row_count` rows i listed
/// in `out_rows`, C[i,j] = sum_p A[i, rows[p]] * B[rows[p], j] over the
/// `row_count` indices in `rows`. Both lists are strictly ascending,
/// within [0, k) and [0, m); a null list stands for the identity prefix
/// 0..count-1, so (nullptr, k) contracts densely and (nullptr, m)
/// computes every row. Skipped rows of B are never read; rows of A and
/// C outside `out_rows` are neither read nor written. With int operands
/// a listed row equals the dense qgemm whenever every skipped
/// contraction row contributes zero — exactly, not just bit-compatibly.
void qgemm_rows(std::int64_t m, std::int64_t n, std::int64_t k,
                const std::int64_t* rows, std::int64_t row_count,
                const std::int64_t* out_rows, std::int64_t out_row_count,
                const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
                std::int64_t ldb, std::int32_t* c, std::int64_t ldc,
                ThreadPool* pool = nullptr);

/// The microkernel variant this build selected at compile time
/// ("avx2-int8" or "scalar"); benches report it next to their numbers.
const char* qgemm_kernel_name();

/// Reference O(M*N*K) triple loop used by tests to validate the blocked
/// kernel (must match it bit-for-bit — integer math is exact).
void qgemm_reference(std::int64_t m, std::int64_t n, std::int64_t k,
                     const std::int8_t* a, std::int64_t lda,
                     const std::int8_t* b, std::int64_t ldb, std::int32_t* c,
                     std::int64_t ldc);

}  // namespace mime
