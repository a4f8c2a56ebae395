#include "tensor/qgemm.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/check.h"

#if defined(__AVX2__)
#include <immintrin.h>
#define MIME_QGEMM_AVX2 1
#endif

namespace mime {

namespace {

// Band granularity for the pool split (and the threshold below which a
// pool is not worth waking: quantized conv/linear GEMMs have tiny M).
constexpr std::int64_t kQBlockM = 64;

inline std::int64_t stored_row(const std::int64_t* rows, std::int64_t p) {
    return rows != nullptr ? rows[p] : p;
}

#if defined(MIME_QGEMM_AVX2)

// Packs two sign-extended int8 A values into one i32 lane pattern
// [a0 as low i16 | a1 as high i16] for vpmaddwd. Unsigned math keeps
// the shift well-defined under UBSan; the uint->int conversion is
// two's-complement by C++20.
inline std::int32_t a_pair_combo(std::int8_t a0, std::int8_t a1) {
    const auto lo = static_cast<std::uint32_t>(
                        static_cast<std::int32_t>(a0)) &
                    0xFFFFu;
    const auto hi = static_cast<std::uint32_t>(
                        static_cast<std::int32_t>(a1))
                    << 16;
    return static_cast<std::int32_t>(hi | lo);
}

// One register tile: R rows (R in 1..4, stored indices `ri`) by 16
// columns of C, contracting over the whole (possibly compacted) row
// list. B rows are widened to i16 and interleaved per k-pair in
// registers — vpmaddwd then computes a0*b[k0][j] + a1*b[k1][j] per i32
// lane with no saturation (|operand| <= 128, so each pair sum is at most
// 2*128^2, exact in i32). The unpack puts columns in the order
// {0-3, 8-11} / {4-7, 12-15}; the permute at store time restores linear
// order.
template <int R>
inline void qtile16(const std::int8_t* a, std::int64_t lda,
                    const std::int8_t* b, std::int64_t ldb, std::int32_t* c,
                    std::int64_t ldc, const std::int64_t* ri, std::int64_t j0,
                    const std::int64_t* rows, std::int64_t row_count) {
    const std::int8_t* arow[R];
    __m256i acc_lo[R];
    __m256i acc_hi[R];
    for (int r = 0; r < R; ++r) {
        arow[r] = a + ri[r] * lda;
        acc_lo[r] = _mm256_setzero_si256();
        acc_hi[r] = _mm256_setzero_si256();
    }
    std::int64_t p = 0;
    for (; p + 2 <= row_count; p += 2) {
        const std::int64_t k0 = stored_row(rows, p);
        const std::int64_t k1 = stored_row(rows, p + 1);
        const __m256i w0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(b + k0 * ldb + j0)));
        const __m256i w1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(b + k1 * ldb + j0)));
        const __m256i blo = _mm256_unpacklo_epi16(w0, w1);
        const __m256i bhi = _mm256_unpackhi_epi16(w0, w1);
        for (int r = 0; r < R; ++r) {
            const __m256i av =
                _mm256_set1_epi32(a_pair_combo(arow[r][k0], arow[r][k1]));
            acc_lo[r] =
                _mm256_add_epi32(acc_lo[r], _mm256_madd_epi16(av, blo));
            acc_hi[r] =
                _mm256_add_epi32(acc_hi[r], _mm256_madd_epi16(av, bhi));
        }
    }
    if (p < row_count) {
        // Odd contraction tail: pair the last row with an implicit zero
        // row (a1 = 0 contributes nothing through vpmaddwd).
        const std::int64_t k0 = stored_row(rows, p);
        const __m256i w0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(b + k0 * ldb + j0)));
        const __m256i zero = _mm256_setzero_si256();
        const __m256i blo = _mm256_unpacklo_epi16(w0, zero);
        const __m256i bhi = _mm256_unpackhi_epi16(w0, zero);
        for (int r = 0; r < R; ++r) {
            const __m256i av =
                _mm256_set1_epi32(a_pair_combo(arow[r][k0], 0));
            acc_lo[r] =
                _mm256_add_epi32(acc_lo[r], _mm256_madd_epi16(av, blo));
            acc_hi[r] =
                _mm256_add_epi32(acc_hi[r], _mm256_madd_epi16(av, bhi));
        }
    }
    for (int r = 0; r < R; ++r) {
        std::int32_t* crow = c + ri[r] * ldc + j0;
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(crow),
            _mm256_permute2x128_si256(acc_lo[r], acc_hi[r], 0x20));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(crow + 8),
            _mm256_permute2x128_si256(acc_lo[r], acc_hi[r], 0x31));
    }
}

// Widens `cols` (<= W) int8s of one B row to i16 lanes, reading exactly
// those bytes: a narrow tail must never run past the end of B.
template <int W>
inline __m128i load_narrow(const std::int8_t* p, std::int64_t cols) {
    std::uint64_t bytes = 0;
    if (cols == W) {
        std::memcpy(&bytes, p, W);
    } else {
        std::memcpy(&bytes, p, static_cast<std::size_t>(cols));
    }
    return _mm_cvtepi8_epi16(
        _mm_cvtsi64_si128(static_cast<std::int64_t>(bytes)));
}

// The narrow tile for the column tail: R rows by `cols` (<= W, W in
// {4, 8}) columns in 128-bit registers, the same k-pair vpmaddwd scheme
// as qtile16. Padding lanes load zeros and are never stored.
template <int R, int W>
inline void qtile_narrow(const std::int8_t* a, std::int64_t lda,
                         const std::int8_t* b, std::int64_t ldb,
                         std::int32_t* c, std::int64_t ldc,
                         const std::int64_t* ri, std::int64_t j0,
                         std::int64_t cols, const std::int64_t* rows,
                         std::int64_t row_count) {
    const std::int8_t* arow[R];
    __m128i acc_lo[R];
    __m128i acc_hi[R];
    for (int r = 0; r < R; ++r) {
        arow[r] = a + ri[r] * lda;
        acc_lo[r] = _mm_setzero_si128();
        acc_hi[r] = _mm_setzero_si128();
    }
    for (std::int64_t p = 0; p < row_count; p += 2) {
        const std::int64_t k0 = stored_row(rows, p);
        const bool pair = p + 1 < row_count;
        const std::int64_t k1 = pair ? stored_row(rows, p + 1) : k0;
        const __m128i w0 = load_narrow<W>(b + k0 * ldb + j0, cols);
        const __m128i w1 = pair ? load_narrow<W>(b + k1 * ldb + j0, cols)
                                : _mm_setzero_si128();
        const __m128i blo = _mm_unpacklo_epi16(w0, w1);
        const __m128i bhi = _mm_unpackhi_epi16(w0, w1);
        for (int r = 0; r < R; ++r) {
            const __m128i av = _mm_set1_epi32(
                a_pair_combo(arow[r][k0], pair ? arow[r][k1] : 0));
            acc_lo[r] = _mm_add_epi32(acc_lo[r], _mm_madd_epi16(av, blo));
            if constexpr (W == 8) {
                acc_hi[r] =
                    _mm_add_epi32(acc_hi[r], _mm_madd_epi16(av, bhi));
            }
        }
    }
    for (int r = 0; r < R; ++r) {
        std::int32_t* crow = c + ri[r] * ldc + j0;
        if (cols == W) {
            _mm_storeu_si128(reinterpret_cast<__m128i*>(crow), acc_lo[r]);
            if constexpr (W == 8) {
                _mm_storeu_si128(reinterpret_cast<__m128i*>(crow + 4),
                                 acc_hi[r]);
            }
        } else {
            alignas(16) std::int32_t lanes[W];
            _mm_store_si128(reinterpret_cast<__m128i*>(lanes), acc_lo[r]);
            if constexpr (W == 8) {
                _mm_store_si128(reinterpret_cast<__m128i*>(lanes + 4),
                                acc_hi[r]);
            }
            std::memcpy(crow, lanes,
                        static_cast<std::size_t>(cols) * sizeof(*crow));
        }
    }
}

template <int R>
void qrow_group(const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
                std::int64_t ldb, std::int32_t* c, std::int64_t ldc,
                const std::int64_t* ri, std::int64_t n,
                const std::int64_t* rows, std::int64_t row_count) {
    std::int64_t j = 0;
    for (; j + 16 <= n; j += 16) {
        qtile16<R>(a, lda, b, ldb, c, ldc, ri, j, rows, row_count);
    }
    // Column tail (< 16): an 8-wide tile, then a 4-wide one that also
    // takes the last 1-3 columns. Integer math is exact, so the split
    // needs no order matching.
    if (j + 8 <= n) {
        qtile_narrow<R, 8>(a, lda, b, ldb, c, ldc, ri, j, 8, rows,
                           row_count);
        j += 8;
    }
    while (j < n) {
        const std::int64_t cols = std::min<std::int64_t>(4, n - j);
        qtile_narrow<R, 4>(a, lda, b, ldb, c, ldc, ri, j, cols, rows,
                           row_count);
        j += cols;
    }
}

void qgemm_band(std::int64_t m0, std::int64_t m1, std::int64_t n,
                const std::int64_t* rows, std::int64_t row_count,
                const std::int64_t* out_rows, const std::int8_t* a,
                std::int64_t lda, const std::int8_t* b, std::int64_t ldb,
                std::int32_t* c, std::int64_t ldc) {
    for (std::int64_t i = m0; i < m1; i += 4) {
        const std::int64_t rows_n = std::min<std::int64_t>(4, m1 - i);
        std::int64_t ri[4];
        for (std::int64_t r = 0; r < rows_n; ++r) {
            ri[r] = stored_row(out_rows, i + r);
        }
        switch (rows_n) {
            case 4:
                qrow_group<4>(a, lda, b, ldb, c, ldc, ri, n, rows, row_count);
                break;
            case 3:
                qrow_group<3>(a, lda, b, ldb, c, ldc, ri, n, rows, row_count);
                break;
            case 2:
                qrow_group<2>(a, lda, b, ldb, c, ldc, ri, n, rows, row_count);
                break;
            default:
                qrow_group<1>(a, lda, b, ldb, c, ldc, ri, n, rows, row_count);
                break;
        }
    }
}

#else  // scalar fallback

void qgemm_band(std::int64_t m0, std::int64_t m1, std::int64_t n,
                const std::int64_t* rows, std::int64_t row_count,
                const std::int64_t* out_rows, const std::int8_t* a,
                std::int64_t lda, const std::int8_t* b, std::int64_t ldb,
                std::int32_t* c, std::int64_t ldc) {
    for (std::int64_t i = m0; i < m1; ++i) {
        const std::int64_t row = stored_row(out_rows, i);
        std::int32_t* crow = c + row * ldc;
        std::memset(crow, 0, static_cast<std::size_t>(n) * sizeof(*crow));
        const std::int8_t* arow = a + row * lda;
        for (std::int64_t p = 0; p < row_count; ++p) {
            const std::int64_t k = stored_row(rows, p);
            const auto av = static_cast<std::int32_t>(arow[k]);
            if (av == 0) {
                continue;
            }
            const std::int8_t* brow = b + k * ldb;
            for (std::int64_t j = 0; j < n; ++j) {
                crow[j] += av * static_cast<std::int32_t>(brow[j]);
            }
        }
    }
}

#endif

// `m` counts the computed rows: the output-row list's length.
void qgemm_dispatch(std::int64_t m, std::int64_t n, const std::int64_t* rows,
                    std::int64_t row_count, const std::int64_t* out_rows,
                    const std::int8_t* a, std::int64_t lda,
                    const std::int8_t* b, std::int64_t ldb, std::int32_t* c,
                    std::int64_t ldc, ThreadPool* pool) {
    if (pool == nullptr || pool->size() <= 1 || m < 2 * kQBlockM) {
        qgemm_band(0, m, n, rows, row_count, out_rows, a, lda, b, ldb, c,
                   ldc);
        return;
    }
    const std::int64_t bands =
        std::min<std::int64_t>(static_cast<std::int64_t>(pool->size()),
                               (m + kQBlockM - 1) / kQBlockM);
    const std::int64_t band_rows = (m + bands - 1) / bands;
    for (std::int64_t b0 = 0; b0 < m; b0 += band_rows) {
        const std::int64_t b1 = std::min(b0 + band_rows, m);
        pool->submit([=] {
            qgemm_band(b0, b1, n, rows, row_count, out_rows, a, lda, b, ldb,
                       c, ldc);
        });
    }
    pool->wait_idle();
}

void validate_common(std::int64_t m, std::int64_t n, std::int64_t k,
                     const std::int8_t* a, const std::int8_t* b,
                     const std::int32_t* c) {
    MIME_REQUIRE(m >= 0 && n >= 0 && k >= 0, "qgemm dimensions must be >= 0");
    MIME_REQUIRE(a != nullptr && b != nullptr && c != nullptr,
                 "qgemm operands must be non-null");
    MIME_REQUIRE(k <= kQgemmMaxK,
                 "qgemm contraction depth " + std::to_string(k) +
                     " could overflow int32 accumulators (max " +
                     std::to_string(kQgemmMaxK) + ")");
}

}  // namespace

void qgemm(std::int64_t m, std::int64_t n, std::int64_t k,
           const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
           std::int64_t ldb, std::int32_t* c, std::int64_t ldc,
           ThreadPool* pool) {
    validate_common(m, n, k, a, b, c);
    if (m == 0 || n == 0) {
        return;
    }
    qgemm_dispatch(m, n, /*rows=*/nullptr, k, /*out_rows=*/nullptr, a, lda,
                   b, ldb, c, ldc, pool);
}

void qgemm_rows(std::int64_t m, std::int64_t n, std::int64_t k,
                const std::int64_t* rows, std::int64_t row_count,
                const std::int64_t* out_rows, std::int64_t out_row_count,
                const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
                std::int64_t ldb, std::int32_t* c, std::int64_t ldc,
                ThreadPool* pool) {
    validate_common(m, n, k, a, b, c);
    require_index_list(rows, row_count, k, "qgemm_rows row");
    require_index_list(out_rows, out_row_count, m, "qgemm_rows output row");
    if (out_row_count == 0 || n == 0) {
        return;
    }
    // An empty live set writes C = 0 (the contraction over nothing),
    // matching the dense kernel against an all-zero operand.
    qgemm_dispatch(out_row_count, n, rows, row_count, out_rows, a, lda, b,
                   ldb, c, ldc, pool);
}

const char* qgemm_kernel_name() {
#if defined(MIME_QGEMM_AVX2)
    return "avx2-int8";
#else
    return "scalar";
#endif
}

void qgemm_reference(std::int64_t m, std::int64_t n, std::int64_t k,
                     const std::int8_t* a, std::int64_t lda,
                     const std::int8_t* b, std::int64_t ldb, std::int32_t* c,
                     std::int64_t ldc) {
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            std::int64_t acc = 0;
            for (std::int64_t p = 0; p < k; ++p) {
                acc += static_cast<std::int64_t>(a[i * lda + p]) *
                       static_cast<std::int64_t>(b[p * ldb + j]);
            }
            c[i * ldc + j] = static_cast<std::int32_t>(acc);
        }
    }
}

}  // namespace mime
