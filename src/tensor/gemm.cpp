#include "tensor/gemm.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/check.h"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define MIME_GEMM_AVX2 1
#endif

namespace mime {

namespace {

// Cache-blocking parameters chosen for float32 on typical 32KiB L1 /
// 1MiB L2 caches; correctness does not depend on them.
constexpr std::int64_t kBlockM = 64;
constexpr std::int64_t kBlockN = 256;
constexpr std::int64_t kBlockK = 256;

inline float load(const float* p, std::int64_t ld, std::int64_t row,
                  std::int64_t col, bool transposed) {
    return transposed ? p[col * ld + row] : p[row * ld + col];
}

// Packing scratch lives per thread so a pool-banded gemm never shares
// (or repeatedly reallocates) pack buffers; capacity is retained across
// calls, so the serving hot path stops paying a heap allocation per
// conv sample that the old per-call std::vector cost.
thread_local std::vector<float> tl_a_pack;
thread_local std::vector<float> tl_b_pack;

// One row of the microkernel: c[jj:jend) += sum_p arow[p] * brows[p][j],
// with arow already alpha-scaled. Dense and row-compacted execution both
// funnel through this exact loop nest, which is what makes the sparse
// path bit-match the dense one: for a given output element the FMA chain
// visits the same surviving p's in the same order, and the terms the
// sparse path drops are exactly zero in the dense run (a +0 accumulator
// is unchanged by adding ±0, and cancellation can only produce +0 in
// round-to-nearest, never -0).
#if defined(MIME_GEMM_AVX2)
inline void micro_row(float* crow, const float* arow,
                      const float* const* brows, std::int64_t pack_cols,
                      std::int64_t jj, std::int64_t jend) {
    std::int64_t j = jj;
    for (; j + 16 <= jend; j += 16) {
        __m256 acc0 = _mm256_loadu_ps(crow + j);
        __m256 acc1 = _mm256_loadu_ps(crow + j + 8);
        for (std::int64_t p = 0; p < pack_cols; ++p) {
            const float av = arow[p];
            if (av == 0.0f) {
                continue;
            }
            const __m256 a_vec = _mm256_set1_ps(av);
            const float* brow = brows[p] + j;
            acc0 = _mm256_fmadd_ps(a_vec, _mm256_loadu_ps(brow), acc0);
            acc1 = _mm256_fmadd_ps(a_vec, _mm256_loadu_ps(brow + 8), acc1);
        }
        _mm256_storeu_ps(crow + j, acc0);
        _mm256_storeu_ps(crow + j + 8, acc1);
    }
    for (; j + 8 <= jend; j += 8) {
        __m256 acc = _mm256_loadu_ps(crow + j);
        for (std::int64_t p = 0; p < pack_cols; ++p) {
            const float av = arow[p];
            if (av == 0.0f) {
                continue;
            }
            acc = _mm256_fmadd_ps(_mm256_set1_ps(av),
                                  _mm256_loadu_ps(brows[p] + j), acc);
        }
        _mm256_storeu_ps(crow + j, acc);
    }
    // Narrow tail (fewer than 8 columns left, e.g. the 2x2 outputs of a
    // deep conv): 4-wide FMA, then 1-3 masked lanes. Each lane's
    // _mm_fmadd_ps is the same single-rounding fma the scalar loop did,
    // so every element keeps its exact chain; masked-off lanes never
    // touch memory past jend.
    if (j + 4 <= jend) {
        __m128 acc = _mm_loadu_ps(crow + j);
        for (std::int64_t p = 0; p < pack_cols; ++p) {
            const float av = arow[p];
            if (av == 0.0f) {
                continue;
            }
            acc = _mm_fmadd_ps(_mm_set1_ps(av), _mm_loadu_ps(brows[p] + j),
                               acc);
        }
        _mm_storeu_ps(crow + j, acc);
        j += 4;
    }
    if (j < jend) {
        const __m128i lanes = _mm_cmpgt_epi32(
            _mm_set1_epi32(static_cast<int>(jend - j)),
            _mm_setr_epi32(0, 1, 2, 3));
        __m128 acc = _mm_maskload_ps(crow + j, lanes);
        for (std::int64_t p = 0; p < pack_cols; ++p) {
            const float av = arow[p];
            if (av == 0.0f) {
                continue;
            }
            acc = _mm_fmadd_ps(_mm_set1_ps(av),
                               _mm_maskload_ps(brows[p] + j, lanes), acc);
        }
        _mm_maskstore_ps(crow + j, lanes, acc);
    }
}
#else
inline void micro_row(float* crow, const float* arow,
                      const float* const* brows, std::int64_t pack_cols,
                      std::int64_t jj, std::int64_t jend) {
    for (std::int64_t j = jj; j < jend; ++j) {
        float acc = crow[j];
        for (std::int64_t p = 0; p < pack_cols; ++p) {
            const float av = arow[p];
            if (av == 0.0f) {
                continue;
            }
            acc = std::fma(av, brows[p][j], acc);
        }
        crow[j] = acc;
    }
}
#endif

inline std::int64_t listed(const std::int64_t* list, std::int64_t p) {
    return list != nullptr ? list[p] : p;
}

// Computes positions [m0, m1) of the output-row list without any
// threading. `rows` restricts the contraction and `out_rows` the rows of
// A and C to the listed stored indices; a null list is the identity, so
// its length is the count itself.
void gemm_band(bool trans_a, bool trans_b, std::int64_t m0, std::int64_t m1,
               std::int64_t n, const std::int64_t* rows,
               std::int64_t row_count, const std::int64_t* out_rows,
               float alpha, const float* a, std::int64_t lda, const float* b,
               std::int64_t ldb, float beta, float* c, std::int64_t ldc) {
    // Scale C by beta once up front.
    for (std::int64_t i = m0; i < m1; ++i) {
        float* crow = c + listed(out_rows, i) * ldc;
        if (beta == 0.0f) {
            std::fill(crow, crow + n, 0.0f);
        } else if (beta != 1.0f) {
            for (std::int64_t j = 0; j < n; ++j) {
                crow[j] *= beta;
            }
        }
    }

    std::vector<float>& a_pack = tl_a_pack;
    std::vector<float>& b_pack = tl_b_pack;
    const float* brows[kBlockK];

    // Blocking runs over *positions* in the (possibly compacted) row
    // list, so the per-output accumulation order is the ascending stored
    // index order for dense and compacted execution alike.
    for (std::int64_t kk = 0; kk < row_count; kk += kBlockK) {
        const std::int64_t kend = std::min(kk + kBlockK, row_count);
        const std::int64_t pack_cols = kend - kk;

        // Resolve this block's op(B) row bases once. The transposed case
        // packs the strided columns of the stored B into contiguous rows
        // (one pass per K-block, amortized over every row of the band).
        if (!trans_b) {
            for (std::int64_t p = 0; p < pack_cols; ++p) {
                brows[p] = b + listed(rows, kk + p) * ldb;
            }
        } else {
            b_pack.resize(static_cast<std::size_t>(pack_cols * n));
            for (std::int64_t p = 0; p < pack_cols; ++p) {
                const std::int64_t row = listed(rows, kk + p);
                float* dst = b_pack.data() + p * n;
                for (std::int64_t j = 0; j < n; ++j) {
                    dst[j] = b[j * ldb + row];
                }
                brows[p] = dst;
            }
        }

        for (std::int64_t ii = m0; ii < m1; ii += kBlockM) {
            const std::int64_t iend = std::min(ii + kBlockM, m1);
            const std::int64_t pack_rows = iend - ii;
            // Pack op(A) alpha-scaled so the microkernel streams
            // contiguously regardless of the transpose flag. Scaling at
            // pack time is the same single multiply the inner loop used
            // to do, so results are unchanged.
            a_pack.resize(static_cast<std::size_t>(pack_rows * pack_cols));
            for (std::int64_t i = 0; i < pack_rows; ++i) {
                const std::int64_t row = listed(out_rows, ii + i);
                for (std::int64_t p = 0; p < pack_cols; ++p) {
                    a_pack[static_cast<std::size_t>(i * pack_cols + p)] =
                        alpha * load(a, lda, row, listed(rows, kk + p),
                                     trans_a);
                }
            }
            for (std::int64_t jj = 0; jj < n; jj += kBlockN) {
                const std::int64_t jend = std::min(jj + kBlockN, n);
                for (std::int64_t i = 0; i < pack_rows; ++i) {
                    micro_row(c + listed(out_rows, ii + i) * ldc,
                              a_pack.data() + i * pack_cols, brows, pack_cols,
                              jj, jend);
                }
            }
        }
    }
}

// `m` counts the computed rows: the output-row list's length.
void gemm_dispatch(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
                   const std::int64_t* rows, std::int64_t row_count,
                   const std::int64_t* out_rows, float alpha, const float* a,
                   std::int64_t lda, const float* b, std::int64_t ldb,
                   float beta, float* c, std::int64_t ldc, ThreadPool* pool) {
    if (pool == nullptr || pool->size() <= 1 || m < 2 * kBlockM) {
        gemm_band(trans_a, trans_b, 0, m, n, rows, row_count, out_rows, alpha,
                  a, lda, b, ldb, beta, c, ldc);
        return;
    }

    const std::int64_t bands =
        std::min<std::int64_t>(static_cast<std::int64_t>(pool->size()),
                               (m + kBlockM - 1) / kBlockM);
    const std::int64_t band_rows = (m + bands - 1) / bands;
    for (std::int64_t b0 = 0; b0 < m; b0 += band_rows) {
        const std::int64_t b1 = std::min(b0 + band_rows, m);
        pool->submit([=] {
            gemm_band(trans_a, trans_b, b0, b1, n, rows, row_count, out_rows,
                      alpha, a, lda, b, ldb, beta, c, ldc);
        });
    }
    pool->wait_idle();
}

}  // namespace

void gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, std::int64_t lda,
          const float* b, std::int64_t ldb, float beta, float* c,
          std::int64_t ldc, ThreadPool* pool) {
    MIME_REQUIRE(m >= 0 && n >= 0 && k >= 0, "gemm dimensions must be >= 0");
    MIME_REQUIRE(a != nullptr && b != nullptr && c != nullptr,
                 "gemm operands must be non-null");
    if (m == 0 || n == 0) {
        return;
    }
    gemm_dispatch(trans_a, trans_b, m, n, /*rows=*/nullptr, k,
                  /*out_rows=*/nullptr, alpha, a, lda, b, ldb, beta, c, ldc,
                  pool);
}

void gemm_rows(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
               std::int64_t k, const std::int64_t* rows,
               std::int64_t row_count, const std::int64_t* out_rows,
               std::int64_t out_row_count, float alpha, const float* a,
               std::int64_t lda, const float* b, std::int64_t ldb,
               float beta, float* c, std::int64_t ldc, ThreadPool* pool) {
    MIME_REQUIRE(m >= 0 && n >= 0 && k >= 0,
                 "gemm_rows dimensions must be >= 0");
    MIME_REQUIRE(a != nullptr && b != nullptr && c != nullptr,
                 "gemm_rows operands must be non-null");
    require_index_list(rows, row_count, k, "gemm_rows row");
    require_index_list(out_rows, out_row_count, m, "gemm_rows output row");
    if (out_row_count == 0 || n == 0) {
        return;
    }
    // An empty live set still applies beta (C = beta * C), matching the
    // dense kernel contracted over an all-zero operand.
    gemm_dispatch(trans_a, trans_b, out_row_count, n, rows, row_count,
                  out_rows, alpha, a, lda, b, ldb, beta, c, ldc, pool);
}

const char* gemm_kernel_name() {
#if defined(MIME_GEMM_AVX2)
    return "avx2+fma";
#else
    return "scalar";
#endif
}

Tensor matmul(const Tensor& a, const Tensor& b, ThreadPool* pool) {
    MIME_REQUIRE(a.shape().rank() == 2 && b.shape().rank() == 2,
                 "matmul requires rank-2 operands, got " +
                     a.shape().to_string() + " and " + b.shape().to_string());
    const std::int64_t m = a.shape().dim(0);
    const std::int64_t k = a.shape().dim(1);
    MIME_REQUIRE(b.shape().dim(0) == k,
                 "matmul inner dimensions differ: " + a.shape().to_string() +
                     " vs " + b.shape().to_string());
    const std::int64_t n = b.shape().dim(1);
    Tensor c({m, n});
    gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, c.data(),
         n, pool);
    return c;
}

void gemm_reference(bool trans_a, bool trans_b, std::int64_t m,
                    std::int64_t n, std::int64_t k, float alpha,
                    const float* a, std::int64_t lda, const float* b,
                    std::int64_t ldb, float beta, float* c,
                    std::int64_t ldc) {
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (std::int64_t p = 0; p < k; ++p) {
                const float av = trans_a ? a[p * lda + i] : a[i * lda + p];
                const float bv = trans_b ? b[j * ldb + p] : b[p * ldb + j];
                acc += static_cast<double>(av) * static_cast<double>(bv);
            }
            c[i * ldc + j] = static_cast<float>(
                alpha * acc + static_cast<double>(beta) * c[i * ldc + j]);
        }
    }
}

}  // namespace mime
