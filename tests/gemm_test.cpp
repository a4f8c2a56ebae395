// Tests for the blocked GEMM kernel against the reference triple loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <tuple>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "tensor/gemm.h"

namespace mime {
namespace {

std::vector<float> random_matrix(std::int64_t rows, std::int64_t cols,
                                 Rng& rng) {
    std::vector<float> m(static_cast<std::size_t>(rows * cols));
    for (auto& v : m) {
        v = static_cast<float>(rng.normal());
    }
    return m;
}

void expect_close(const std::vector<float>& a, const std::vector<float>& b,
                  float tol = 2e-3f) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_NEAR(a[i], b[i], tol) << "at index " << i;
    }
}

// (m, n, k, trans_a, trans_b)
using GemmCase = std::tuple<int, int, int, bool, bool>;

class GemmParamTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmParamTest, MatchesReference) {
    const auto [m, n, k, ta, tb] = GetParam();
    Rng rng(static_cast<std::uint64_t>(m * 73 + n * 31 + k + (ta ? 7 : 0) +
                                       (tb ? 13 : 0)));
    // Stored dimensions depend on the transpose flags.
    const std::int64_t lda = ta ? m : k;
    const std::int64_t ldb = tb ? k : n;
    const auto a = random_matrix(ta ? k : m, lda, rng);
    const auto b = random_matrix(tb ? n : k, ldb, rng);

    std::vector<float> c_ref(static_cast<std::size_t>(m * n), 0.5f);
    std::vector<float> c_fast = c_ref;

    gemm_reference(ta, tb, m, n, k, 1.3f, a.data(), lda, b.data(), ldb, 0.7f,
                   c_ref.data(), n);
    gemm(ta, tb, m, n, k, 1.3f, a.data(), lda, b.data(), ldb, 0.7f,
         c_fast.data(), n);
    expect_close(c_ref, c_fast);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmParamTest,
    ::testing::Values(GemmCase{1, 1, 1, false, false},
                      GemmCase{3, 5, 7, false, false},
                      GemmCase{3, 5, 7, true, false},
                      GemmCase{3, 5, 7, false, true},
                      GemmCase{3, 5, 7, true, true},
                      GemmCase{64, 64, 64, false, false},
                      GemmCase{65, 33, 17, false, false},
                      GemmCase{65, 33, 17, true, true},
                      GemmCase{128, 1, 256, false, false},
                      GemmCase{1, 128, 256, false, true},
                      GemmCase{200, 150, 300, false, false},
                      GemmCase{200, 150, 300, true, false}));

TEST(Gemm, ThreadedMatchesSingle) {
    Rng rng(9);
    const int m = 300;
    const int n = 120;
    const int k = 80;
    const auto a = random_matrix(m, k, rng);
    const auto b = random_matrix(k, n, rng);
    std::vector<float> c1(static_cast<std::size_t>(m) * n, 0.0f);
    std::vector<float> c2 = c1;

    gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
         c1.data(), n);
    ThreadPool pool(4);
    gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
         c2.data(), n, &pool);
    expect_close(c1, c2, 1e-4f);
}

TEST(Gemm, BetaAccumulates) {
    const std::vector<float> a{1, 2, 3, 4};  // 2x2
    const std::vector<float> b{1, 0, 0, 1};  // identity
    std::vector<float> c{10, 10, 10, 10};
    gemm(false, false, 2, 2, 2, 1.0f, a.data(), 2, b.data(), 2, 1.0f, c.data(),
         2);
    EXPECT_FLOAT_EQ(c[0], 11.0f);
    EXPECT_FLOAT_EQ(c[3], 14.0f);
}

TEST(Gemm, ZeroSizeIsNoop) {
    std::vector<float> c{1.0f};
    const std::vector<float> a{1.0f};
    const std::vector<float> b{1.0f};
    gemm(false, false, 0, 1, 1, 1.0f, a.data(), 1, b.data(), 1, 0.0f, c.data(),
         1);
    EXPECT_FLOAT_EQ(c[0], 1.0f);
}

TEST(Gemm, RejectsNullOperands) {
    std::vector<float> c{0.0f};
    EXPECT_THROW(gemm(false, false, 1, 1, 1, 1.0f, nullptr, 1, nullptr, 1,
                      0.0f, c.data(), 1),
                 check_error);
}

TEST(GemmRows, MatchesCompactedReference) {
    Rng rng(41);
    const std::int64_t m = 37;
    const std::int64_t n = 53;
    const std::int64_t k = 300;
    const auto a = random_matrix(m, k, rng);
    const auto b = random_matrix(k, n, rng);
    // Every 3rd row live: strictly ascending, spans several K blocks.
    std::vector<std::int64_t> rows;
    for (std::int64_t r = 0; r < k; r += 3) {
        rows.push_back(r);
    }
    const auto rc = static_cast<std::int64_t>(rows.size());

    // Reference: gather the live columns of A / rows of B into dense
    // compacted operands and run the oracle triple loop.
    std::vector<float> a_c(static_cast<std::size_t>(m * rc));
    std::vector<float> b_c(static_cast<std::size_t>(rc * n));
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t p = 0; p < rc; ++p) {
            a_c[i * rc + p] = a[i * k + rows[p]];
        }
    }
    for (std::int64_t p = 0; p < rc; ++p) {
        for (std::int64_t j = 0; j < n; ++j) {
            b_c[p * n + j] = b[rows[p] * n + j];
        }
    }
    std::vector<float> c_ref(static_cast<std::size_t>(m * n), 0.25f);
    std::vector<float> c_rows = c_ref;
    gemm_reference(false, false, m, n, rc, 1.1f, a_c.data(), rc, b_c.data(),
                   n, 0.5f, c_ref.data(), n);
    gemm_rows(false, false, m, n, k, rows.data(), rc, nullptr, m, 1.1f,
              a.data(), k, b.data(), n, 0.5f, c_rows.data(), n);
    expect_close(c_ref, c_rows);
}

TEST(GemmRows, BitMatchesDenseWhenSkippedRowsAreZero) {
    Rng rng(42);
    const std::int64_t m = 19;
    const std::int64_t n = 47;
    const std::int64_t k = 160;
    const auto a = random_matrix(m, k, rng);
    auto b = random_matrix(k, n, rng);
    std::vector<std::int64_t> rows;
    for (std::int64_t r = 0; r < k; ++r) {
        if (r % 5 == 2) {
            rows.push_back(r);
        } else {
            // Dead row: zero it so the dense contraction provably adds
            // nothing for it.
            std::fill(b.begin() + r * n, b.begin() + (r + 1) * n, 0.0f);
        }
    }
    std::vector<float> c_dense(static_cast<std::size_t>(m * n), -7.0f);
    std::vector<float> c_sparse = c_dense;
    gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
         c_dense.data(), n);
    gemm_rows(false, false, m, n, k, rows.data(),
              static_cast<std::int64_t>(rows.size()), nullptr, m, 1.0f,
              a.data(), k, b.data(), n, 0.0f, c_sparse.data(), n);
    // Bit-exact, not just close: the contract the sparse planned
    // executor relies on.
    EXPECT_EQ(0, std::memcmp(c_dense.data(), c_sparse.data(),
                             c_dense.size() * sizeof(float)));
}

TEST(GemmRows, TransBBitMatchesDenseWhenSkippedRowsAreZero) {
    Rng rng(43);
    const std::int64_t m = 7;
    const std::int64_t n = 33;
    const std::int64_t k = 96;
    // op(B) = stored-B^T, so op(B)'s row r is stored column r. Zeroing
    // op(A)'s dead columns instead exercises the A-side zero skip the
    // masked-linear path relies on.
    auto a = random_matrix(m, k, rng);
    const auto b = random_matrix(n, k, rng);
    std::vector<std::int64_t> rows;
    for (std::int64_t r = 0; r < k; ++r) {
        if (r % 4 != 1) {
            rows.push_back(r);
        } else {
            for (std::int64_t i = 0; i < m; ++i) {
                a[i * k + r] = 0.0f;
            }
        }
    }
    std::vector<float> c_dense(static_cast<std::size_t>(m * n), 3.0f);
    std::vector<float> c_sparse = c_dense;
    gemm(false, true, m, n, k, 1.0f, a.data(), k, b.data(), k, 0.0f,
         c_dense.data(), n);
    gemm_rows(false, true, m, n, k, rows.data(),
              static_cast<std::int64_t>(rows.size()), nullptr, m, 1.0f,
              a.data(), k, b.data(), k, 0.0f, c_sparse.data(), n);
    EXPECT_EQ(0, std::memcmp(c_dense.data(), c_sparse.data(),
                             c_dense.size() * sizeof(float)));
}

TEST(GemmRows, FullRowListBitMatchesDense) {
    Rng rng(44);
    const std::int64_t m = 65;
    const std::int64_t n = 40;
    const std::int64_t k = 70;
    const auto a = random_matrix(m, k, rng);
    const auto b = random_matrix(k, n, rng);
    std::vector<std::int64_t> rows(static_cast<std::size_t>(k));
    for (std::int64_t r = 0; r < k; ++r) {
        rows[static_cast<std::size_t>(r)] = r;
    }
    std::vector<float> c_dense(static_cast<std::size_t>(m * n), 0.0f);
    std::vector<float> c_sparse = c_dense;
    gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
         c_dense.data(), n);
    gemm_rows(false, false, m, n, k, rows.data(), k, nullptr, m, 1.0f,
              a.data(), k, b.data(), n, 0.0f, c_sparse.data(), n);
    EXPECT_EQ(0, std::memcmp(c_dense.data(), c_sparse.data(),
                             c_dense.size() * sizeof(float)));
}

TEST(GemmRows, EmptyRowListAppliesBeta) {
    const std::vector<float> a{1.0f, 2.0f};
    const std::vector<float> b{3.0f, 4.0f};
    std::vector<float> c{5.0f, 6.0f};
    gemm_rows(false, false, 1, 2, 2, nullptr, 0, nullptr, 1, 1.0f, a.data(), 2,
              b.data(), 2, 0.5f, c.data(), 2);
    EXPECT_FLOAT_EQ(c[0], 2.5f);
    EXPECT_FLOAT_EQ(c[1], 3.0f);
}

TEST(GemmRows, RejectsUnsortedRows) {
    const std::vector<float> a{1.0f, 2.0f};
    const std::vector<float> b{3.0f, 4.0f};
    std::vector<float> c{0.0f, 0.0f};
    const std::vector<std::int64_t> bad{1, 0};
    EXPECT_THROW(gemm_rows(false, false, 1, 2, 2, bad.data(), 2, nullptr, 1,
                           1.0f, a.data(), 2, b.data(), 2, 0.0f, c.data(), 2),
                 check_error);
    const std::vector<std::int64_t> oob{0, 2};
    EXPECT_THROW(gemm_rows(false, false, 1, 2, 2, oob.data(), 2, nullptr, 1,
                           1.0f, a.data(), 2, b.data(), 2, 0.0f, c.data(), 2),
                 check_error);
}

/// Sequential-std::fma oracle for one element of gemm_rows (no
/// transposes): beta-scale C, then one fma per listed contraction row in
/// ascending order, skipping exact-zero alpha*A entries.
float fma_chain(const std::vector<float>& a, const std::vector<float>& b,
                std::int64_t k, std::int64_t n, std::int64_t i, std::int64_t j,
                const std::vector<std::int64_t>& rows, float alpha,
                float beta, float c) {
    float acc = beta == 0.0f ? 0.0f : (beta == 1.0f ? c : c * beta);
    for (const std::int64_t p : rows) {
        const float av = alpha * a[static_cast<std::size_t>(i * k + p)];
        if (av == 0.0f) {
            continue;
        }
        acc = std::fma(av, b[static_cast<std::size_t>(p * n + j)], acc);
    }
    return acc;
}

bool same_bits(float x, float y) {
    return std::memcmp(&x, &y, sizeof(float)) == 0;
}

TEST(GemmRows, OutputRowListsBitMatchFmaOracleAndDenseForEveryNarrowN) {
    // m crosses the 64-row block, k the 256-row block; every N in 1..33
    // covers the 16/8-wide kernels and the 4-wide and masked 1-3 column
    // tails.
    const std::int64_t m = 70;
    const std::int64_t k = 300;
    std::vector<std::int64_t> out_rows;
    for (std::int64_t i = 0; i < m; ++i) {
        if (i % 3 != 1) {
            out_rows.push_back(i);
        }
    }
    std::vector<std::int64_t> live;
    std::vector<std::int64_t> all(static_cast<std::size_t>(k));
    for (std::int64_t p = 0; p < k; ++p) {
        all[static_cast<std::size_t>(p)] = p;
        if (p % 4 != 2) {
            live.push_back(p);
        }
    }
    const float sentinel = -1234.5f;
    const float garbage = std::numeric_limits<float>::quiet_NaN();
    for (std::int64_t n = 1; n <= 33; ++n) {
        Rng rng(static_cast<std::uint64_t>(100 + n));
        auto a = random_matrix(m, k, rng);
        for (std::size_t e = 0; e < a.size(); e += 7) {
            a[e] = 0.0f;  // exact zeros the kernel must skip
        }
        const auto b = random_matrix(k, n, rng);
        for (const bool compact_k : {false, true}) {
            const std::vector<std::int64_t>& rows = compact_k ? live : all;
            // The kernel sees garbage in the dead rows of B; the dense
            // run sees zeros there, so its skipped terms are exact zeros.
            std::vector<float> b_kernel = b;
            std::vector<float> b_dense = b;
            for (std::int64_t p = 0; p < k; ++p) {
                if (compact_k && p % 4 == 2) {
                    std::fill_n(b_kernel.begin() + p * n, n, garbage);
                    std::fill_n(b_dense.begin() + p * n, n, 0.0f);
                }
            }
            std::vector<float> dense(static_cast<std::size_t>(m * n), 0.0f);
            gemm(false, false, m, n, k, 1.0f, a.data(), k, b_dense.data(), n,
                 0.0f, dense.data(), n);
            for (const auto& [alpha, beta] :
                 {std::pair{1.0f, 0.0f}, std::pair{0.75f, 0.5f}}) {
                std::vector<float> c(static_cast<std::size_t>(m * n),
                                     sentinel);
                gemm_rows(false, false, m, n, k,
                          compact_k ? live.data() : nullptr,
                          static_cast<std::int64_t>(rows.size()),
                          out_rows.data(),
                          static_cast<std::int64_t>(out_rows.size()), alpha,
                          a.data(), k, b_kernel.data(), n, beta, c.data(), n);
                for (std::int64_t i = 0; i < m; ++i) {
                    const bool listed = i % 3 != 1;
                    for (std::int64_t j = 0; j < n; ++j) {
                        const float got = c[static_cast<std::size_t>(i * n + j)];
                        if (!listed) {
                            ASSERT_TRUE(same_bits(got, sentinel))
                                << "unlisted row " << i << " written, n=" << n;
                            continue;
                        }
                        ASSERT_TRUE(same_bits(
                            got, fma_chain(a, b_kernel, k, n, i, j, rows,
                                           alpha, beta, sentinel)))
                            << "n=" << n << " compact_k=" << compact_k
                            << " alpha=" << alpha << " (" << i << "," << j
                            << ")";
                        if (beta == 0.0f) {
                            ASSERT_TRUE(same_bits(
                                got,
                                dense[static_cast<std::size_t>(i * n + j)]))
                                << "n=" << n << " compact_k=" << compact_k
                                << " (" << i << "," << j << ")";
                        }
                    }
                }
            }
        }
    }
}

TEST(GemmRows, ThreadedOutputRowListBitMatchesSingle) {
    Rng rng(45);
    const std::int64_t m = 300;
    const std::int64_t n = 20;
    const std::int64_t k = 50;
    const auto a = random_matrix(m, k, rng);
    const auto b = random_matrix(k, n, rng);
    std::vector<std::int64_t> out_rows;
    for (std::int64_t i = 0; i < m; i += 2) {
        out_rows.push_back(i);
    }
    const auto count = static_cast<std::int64_t>(out_rows.size());
    std::vector<float> c1(static_cast<std::size_t>(m * n), 9.0f);
    std::vector<float> c2 = c1;
    gemm_rows(false, false, m, n, k, nullptr, k, out_rows.data(), count,
              1.0f, a.data(), k, b.data(), n, 0.0f, c1.data(), n);
    ThreadPool pool(4);
    gemm_rows(false, false, m, n, k, nullptr, k, out_rows.data(), count,
              1.0f, a.data(), k, b.data(), n, 0.0f, c2.data(), n, &pool);
    EXPECT_EQ(0, std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(float)));
}

TEST(GemmRows, RejectsUnsortedOutputRows) {
    const std::vector<float> a{1.0f, 2.0f, 3.0f, 4.0f};
    const std::vector<float> b{3.0f, 4.0f, 5.0f, 6.0f};
    std::vector<float> c(4, 0.0f);
    const std::vector<std::int64_t> bad{1, 0};
    EXPECT_THROW(gemm_rows(false, false, 2, 2, 2, nullptr, 2, bad.data(), 2,
                           1.0f, a.data(), 2, b.data(), 2, 0.0f, c.data(), 2),
                 check_error);
    const std::vector<std::int64_t> oob{2};
    EXPECT_THROW(gemm_rows(false, false, 2, 2, 2, nullptr, 2, oob.data(), 1,
                           1.0f, a.data(), 2, b.data(), 2, 0.0f, c.data(), 2),
                 check_error);
}

TEST(Matmul, TensorInterface) {
    const Tensor a({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
    const Tensor b({3, 2}, std::vector<float>{7, 8, 9, 10, 11, 12});
    const Tensor c = matmul(a, b);
    EXPECT_EQ(c.shape(), Shape({2, 2}));
    EXPECT_FLOAT_EQ(c.at({0, 0}), 58.0f);
    EXPECT_FLOAT_EQ(c.at({1, 1}), 154.0f);
}

TEST(Matmul, RejectsBadShapes) {
    const Tensor a({2, 3});
    const Tensor b({2, 3});
    EXPECT_THROW(matmul(a, b), check_error);
    const Tensor v({3});
    EXPECT_THROW(matmul(a, v), check_error);
}

}  // namespace
}  // namespace mime
