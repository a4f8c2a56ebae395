// Tests for im2col / col2im lowering.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "tensor/im2col.h"

namespace mime {
namespace {

ConvGeometry make_geometry(std::int64_t c, std::int64_t h, std::int64_t w,
                           std::int64_t k, std::int64_t stride,
                           std::int64_t pad) {
    ConvGeometry g;
    g.in_channels = c;
    g.in_height = h;
    g.in_width = w;
    g.kernel = k;
    g.stride = stride;
    g.padding = pad;
    return g;
}

TEST(ConvGeometry, OutputExtents) {
    const auto g = make_geometry(3, 32, 32, 3, 1, 1);
    EXPECT_EQ(g.out_height(), 32);
    EXPECT_EQ(g.out_width(), 32);
    EXPECT_EQ(g.col_rows(), 27);
    EXPECT_EQ(g.col_cols(), 1024);
}

TEST(ConvGeometry, StridedExtents) {
    const auto g = make_geometry(1, 8, 8, 2, 2, 0);
    EXPECT_EQ(g.out_height(), 4);
    EXPECT_EQ(g.out_width(), 4);
}

TEST(ConvGeometry, RejectsDegenerate) {
    auto g = make_geometry(1, 2, 2, 5, 1, 0);
    EXPECT_THROW(g.validate(), check_error);
    g = make_geometry(0, 2, 2, 1, 1, 0);
    EXPECT_THROW(g.validate(), check_error);
}

TEST(Im2col, IdentityKernel) {
    // 1x1 kernel, stride 1: columns equal the input exactly.
    const auto g = make_geometry(2, 3, 3, 1, 1, 0);
    std::vector<float> input(18);
    std::iota(input.begin(), input.end(), 0.0f);
    std::vector<float> cols(
        static_cast<std::size_t>(g.col_rows() * g.col_cols()));
    im2col(g, input.data(), cols.data());
    for (std::size_t i = 0; i < input.size(); ++i) {
        EXPECT_EQ(cols[i], input[i]);
    }
}

TEST(Im2col, KnownWindow) {
    // 1 channel 3x3 input, 2x2 kernel, stride 1, no padding → 2x2 output.
    const auto g = make_geometry(1, 3, 3, 2, 1, 0);
    const std::vector<float> input{1, 2, 3, 4, 5, 6, 7, 8, 9};
    std::vector<float> cols(static_cast<std::size_t>(4 * 4));
    im2col(g, input.data(), cols.data());
    // Row 0 is kernel tap (0,0): top-left of each window.
    EXPECT_EQ(cols[0], 1);
    EXPECT_EQ(cols[1], 2);
    EXPECT_EQ(cols[2], 4);
    EXPECT_EQ(cols[3], 5);
    // Row 3 is tap (1,1): bottom-right of each window.
    EXPECT_EQ(cols[12], 5);
    EXPECT_EQ(cols[15], 9);
}

TEST(Im2col, PaddingProducesZeros) {
    const auto g = make_geometry(1, 2, 2, 3, 1, 1);
    const std::vector<float> input{1, 2, 3, 4};
    std::vector<float> cols(static_cast<std::size_t>(9 * 4));
    im2col(g, input.data(), cols.data());
    // Tap (0,0) for output (0,0) reads input (-1,-1) → zero.
    EXPECT_EQ(cols[0], 0.0f);
    // Tap (1,1) for output (0,0) reads input (0,0) = 1.
    EXPECT_EQ(cols[4 * 4 + 0], 1.0f);
}

TEST(Col2im, AdjointOfIm2col) {
    // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
    // adjoint property used by the convolution backward pass.
    const auto g = make_geometry(3, 7, 6, 3, 2, 1);
    Rng rng(21);
    const std::int64_t in_size = 3 * 7 * 6;
    const std::int64_t col_size = g.col_rows() * g.col_cols();

    std::vector<float> x(static_cast<std::size_t>(in_size));
    std::vector<float> y(static_cast<std::size_t>(col_size));
    for (auto& v : x) {
        v = static_cast<float>(rng.normal());
    }
    for (auto& v : y) {
        v = static_cast<float>(rng.normal());
    }

    std::vector<float> cols(static_cast<std::size_t>(col_size));
    im2col(g, x.data(), cols.data());
    double lhs = 0.0;
    for (std::int64_t i = 0; i < col_size; ++i) {
        lhs += static_cast<double>(cols[static_cast<std::size_t>(i)]) *
               y[static_cast<std::size_t>(i)];
    }

    std::vector<float> back(static_cast<std::size_t>(in_size), 0.0f);
    col2im(g, y.data(), back.data());
    double rhs = 0.0;
    for (std::int64_t i = 0; i < in_size; ++i) {
        rhs += static_cast<double>(x[static_cast<std::size_t>(i)]) *
               back[static_cast<std::size_t>(i)];
    }
    EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Col2im, AccumulatesOverlaps) {
    // 3x3 kernel stride 1: center input pixel of a 3x3 map is covered by
    // all windows that include it; ones in columns accumulate the
    // coverage count.
    const auto g = make_geometry(1, 3, 3, 3, 1, 1);
    std::vector<float> cols(static_cast<std::size_t>(9 * 9), 1.0f);
    std::vector<float> grad(9, 0.0f);
    col2im(g, cols.data(), grad.data());
    // Center pixel (1,1) is read by all 9 windows.
    EXPECT_FLOAT_EQ(grad[4], 9.0f);
    // Corner pixel (0,0) is read by the 4 windows whose tap grid covers it.
    EXPECT_FLOAT_EQ(grad[0], 4.0f);
}

class Im2colRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(Im2colRoundTrip, AdjointHoldsAcrossGeometries) {
    const auto [channels, size, kernel, stride] = GetParam();
    const auto g =
        make_geometry(channels, size, size, kernel, stride, kernel / 2);
    Rng rng(5);
    const std::int64_t in_size = channels * size * size;
    const std::int64_t col_size = g.col_rows() * g.col_cols();

    std::vector<float> x(static_cast<std::size_t>(in_size));
    std::vector<float> y(static_cast<std::size_t>(col_size));
    for (auto& v : x) {
        v = static_cast<float>(rng.normal());
    }
    for (auto& v : y) {
        v = static_cast<float>(rng.normal());
    }
    std::vector<float> cols(static_cast<std::size_t>(col_size));
    im2col(g, x.data(), cols.data());
    std::vector<float> back(static_cast<std::size_t>(in_size), 0.0f);
    col2im(g, y.data(), back.data());

    double lhs = 0.0;
    double rhs = 0.0;
    for (std::int64_t i = 0; i < col_size; ++i) {
        lhs += static_cast<double>(cols[static_cast<std::size_t>(i)]) *
               y[static_cast<std::size_t>(i)];
    }
    for (std::int64_t i = 0; i < in_size; ++i) {
        rhs += static_cast<double>(x[static_cast<std::size_t>(i)]) *
               back[static_cast<std::size_t>(i)];
    }
    EXPECT_NEAR(lhs, rhs, 2e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2colRoundTrip,
    ::testing::Values(std::tuple{1, 5, 3, 1}, std::tuple{2, 8, 3, 2},
                      std::tuple{4, 6, 1, 1}, std::tuple{3, 9, 5, 2},
                      std::tuple{2, 4, 2, 2}));

/// Naive oracle: one bounds check per column-matrix element.
template <typename T>
std::vector<T> im2col_oracle(const ConvGeometry& g, const std::vector<T>& x) {
    const std::int64_t ho = g.out_height();
    const std::int64_t wo = g.out_width();
    std::vector<T> cols(static_cast<std::size_t>(g.col_rows() * ho * wo));
    for (std::int64_t c = 0; c < g.in_channels; ++c) {
        for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
            for (std::int64_t kx = 0; kx < g.kernel; ++kx) {
                const std::int64_t row = (c * g.kernel + ky) * g.kernel + kx;
                for (std::int64_t oy = 0; oy < ho; ++oy) {
                    for (std::int64_t ox = 0; ox < wo; ++ox) {
                        const std::int64_t iy = oy * g.stride + ky - g.padding;
                        const std::int64_t ix = ox * g.stride + kx - g.padding;
                        const bool in = iy >= 0 && iy < g.in_height &&
                                        ix >= 0 && ix < g.in_width;
                        cols[static_cast<std::size_t>((row * ho + oy) * wo +
                                                      ox)] =
                            in ? x[static_cast<std::size_t>(
                                     (c * g.in_height + iy) * g.in_width + ix)]
                               : T{};
                    }
                }
            }
        }
    }
    return cols;
}

TEST(Im2col, MatchesOracleAcrossGeometriesFloatAndInt8) {
    // Same-padding stride-1 shapes at every small width (the framed
    // small-plane path: up to 256 bytes a plane) and past it (one copy
    // per tap), plus valid, over-padded and strided ones.
    std::vector<ConvGeometry> geometries;
    for (const std::int64_t size : {1, 2, 3, 4, 7, 8, 9, 16, 17, 32}) {
        for (const std::int64_t k : {1, 3, 5}) {
            geometries.push_back(make_geometry(3, size, size, k, 1, k / 2));
        }
        geometries.push_back(make_geometry(2, size, size + 2, 3, 1, 1));
    }
    geometries.push_back(make_geometry(2, 6, 6, 3, 1, 0));
    geometries.push_back(make_geometry(2, 5, 5, 3, 1, 2));
    geometries.push_back(make_geometry(2, 9, 9, 3, 2, 1));
    Rng rng(13);
    for (const ConvGeometry& g : geometries) {
        const std::int64_t in_size = g.in_channels * g.in_height * g.in_width;
        std::vector<float> xf(static_cast<std::size_t>(in_size));
        std::vector<std::int8_t> xq(static_cast<std::size_t>(in_size));
        for (std::size_t i = 0; i < xf.size(); ++i) {
            xf[i] = static_cast<float>(rng.normal());
            xq[i] = static_cast<std::int8_t>(
                static_cast<std::int64_t>(rng.uniform_index(255)) - 127);
        }
        const std::string where = "c" + std::to_string(g.in_channels) + " " +
                                  std::to_string(g.in_height) + "x" +
                                  std::to_string(g.in_width) + " k" +
                                  std::to_string(g.kernel) + " s" +
                                  std::to_string(g.stride) + " p" +
                                  std::to_string(g.padding);
        // Stale values in the destination must be overwritten.
        std::vector<float> cf(
            static_cast<std::size_t>(g.col_rows() * g.col_cols()), 7.0f);
        std::vector<std::int8_t> cq(cf.size(), std::int8_t{7});
        im2col(g, xf.data(), cf.data());
        im2col(g, xq.data(), cq.data());
        EXPECT_EQ(cf, im2col_oracle(g, xf)) << where;
        EXPECT_EQ(cq, im2col_oracle(g, xq)) << where;

        // A null channel list lowers every channel.
        std::vector<float> nf(cf.size(), 7.0f);
        im2col(g, xf.data(), nf.data(), nullptr, g.in_channels);
        EXPECT_EQ(nf, cf) << where;

        // Int8 with a row pitch: two samples side by side, each block
        // the oracle's, and the pitch's spare columns left untouched.
        const std::int64_t cols = g.col_cols();
        const std::int64_t ld = 2 * cols + 3;
        std::vector<std::int8_t> xq2(xq.rbegin(), xq.rend());
        std::vector<std::int8_t> wide(
            static_cast<std::size_t>(g.col_rows() * ld), std::int8_t{7});
        im2col(g, xq.data(), wide.data(), ld, nullptr, g.in_channels);
        im2col(g, xq2.data(), wide.data() + cols, ld, nullptr,
               g.in_channels);
        const std::vector<std::int8_t> ref1 = im2col_oracle(g, xq);
        const std::vector<std::int8_t> ref2 = im2col_oracle(g, xq2);
        for (std::int64_t r = 0; r < g.col_rows(); ++r) {
            for (std::int64_t j = 0; j < ld; ++j) {
                const std::int8_t got =
                    wide[static_cast<std::size_t>(r * ld + j)];
                const std::int8_t want =
                    j < cols ? ref1[static_cast<std::size_t>(r * cols + j)]
                    : j < 2 * cols
                        ? ref2[static_cast<std::size_t>(r * cols + j - cols)]
                        : std::int8_t{7};
                ASSERT_EQ(got, want) << where << " row " << r << " col " << j;
            }
        }

        // Live-channel lowering writes exactly the live channels' rows.
        const std::int64_t live[] = {0, 2};
        const std::int64_t live_count = g.in_channels > 2 ? 2 : 1;
        std::vector<float> pf(cf.size(), 7.0f);
        im2col(g, xf.data(), pf.data(), live, live_count);
        const std::int64_t block = g.kernel * g.kernel * g.col_cols();
        for (std::int64_t c = 0; c < g.in_channels; ++c) {
            const bool is_live = c == 0 || (c == 2 && live_count == 2);
            for (std::int64_t e = c * block; e < (c + 1) * block; ++e) {
                const auto i = static_cast<std::size_t>(e);
                ASSERT_EQ(pf[i], is_live ? cf[i] : 7.0f) << where;
            }
        }
    }
}

}  // namespace
}  // namespace mime
