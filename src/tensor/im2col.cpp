#include "tensor/im2col.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "common/check.h"

namespace mime {

void ConvGeometry::validate() const {
    MIME_REQUIRE(in_channels > 0 && in_height > 0 && in_width > 0,
                 "conv input extents must be positive");
    MIME_REQUIRE(kernel > 0, "conv kernel must be positive");
    MIME_REQUIRE(stride > 0, "conv stride must be positive");
    MIME_REQUIRE(padding >= 0, "conv padding must be non-negative");
    MIME_REQUIRE(out_height() > 0 && out_width() > 0,
                 "conv output extent is non-positive; kernel/stride/padding "
                 "incompatible with input size");
}

namespace {

// Lowers one input channel into its K*K block of rows starting at
// `columns + c*K*K*ld` (`ld` >= Hout*Wout is the row pitch; only the
// first Hout*Wout entries of each row are written); shared by the dense
// and live-channel paths so the bytes written for a given channel are
// identical in both. The element type is templated — float for the f32
// path, int8 for the quantized executor (pure data movement either way;
// out-of-image taps are the type's zero, which for int8 dequantizes to
// exactly 0).
template <typename T>
void im2col_channel(const ConvGeometry& g, const T* input, T* columns,
                    std::int64_t ld, std::int64_t c) {
    const std::int64_t ho = g.out_height();
    const std::int64_t wo = g.out_width();
    const std::int64_t cols = ho * wo;
    const T* channel = input + c * g.in_height * g.in_width;
    std::int64_t row = c * g.kernel * g.kernel;
    // 'Same' stride-1 convolution (every conv in the reproduced nets):
    // the output plane has the input's width, so a tap's in-image rows
    // are one contiguous run of the input shifted by (dy, dx). One copy
    // per tap, then zero the rows past the top/bottom edge and the |dx|
    // columns per row that wrapped around a side edge.
    if (g.stride == 1 && wo == g.in_width && ho == g.in_height) {
        const std::int64_t w = wo;
        const std::int64_t plane = g.in_height * w;
        for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
            for (std::int64_t kx = 0; kx < g.kernel; ++kx, ++row) {
                T* out_row = columns + row * ld;
                const std::int64_t dy = ky - g.padding;
                const std::int64_t dx = kx - g.padding;
                const std::int64_t oy0 = std::max<std::int64_t>(0, -dy);
                const std::int64_t oy1 =
                    std::min<std::int64_t>(ho, g.in_height - dy);
                if (oy0 >= oy1) {
                    std::fill(out_row, out_row + cols, T{});
                    continue;
                }
                std::fill(out_row, out_row + oy0 * w, T{});
                std::fill(out_row + oy1 * w, out_row + cols, T{});
                // Output element i reads input element i + shift; trim
                // the ends that fall outside the plane (they are wrapped
                // columns, zeroed below).
                const std::int64_t shift = dy * w + dx;
                const std::int64_t first = std::max(oy0 * w, -shift);
                const std::int64_t last = std::min(oy1 * w, plane - shift);
                if (first < last) {
                    std::memcpy(out_row + first, channel + first + shift,
                                static_cast<std::size_t>(last - first) *
                                    sizeof(T));
                }
                const std::int64_t x0 =
                    dx < 0 ? 0 : std::max<std::int64_t>(0, w - dx);
                const std::int64_t x1 =
                    dx < 0 ? std::min<std::int64_t>(w, -dx) : w;
                // Column-major so each store is one element, not a
                // memset call per row.
                for (std::int64_t x = x0; x < x1; ++x) {
                    for (std::int64_t oy = oy0; oy < oy1; ++oy) {
                        out_row[oy * w + x] = T{};
                    }
                }
            }
        }
        return;
    }
    for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
        for (std::int64_t kx = 0; kx < g.kernel; ++kx, ++row) {
            T* out_row = columns + row * ld;
            for (std::int64_t oy = 0; oy < ho; ++oy) {
                const std::int64_t iy = oy * g.stride + ky - g.padding;
                if (iy < 0 || iy >= g.in_height) {
                    for (std::int64_t ox = 0; ox < wo; ++ox) {
                        out_row[oy * wo + ox] = T{};
                    }
                    continue;
                }
                const T* in_row = channel + iy * g.in_width;
                for (std::int64_t ox = 0; ox < wo; ++ox) {
                    const std::int64_t ix = ox * g.stride + kx - g.padding;
                    out_row[oy * wo + ox] =
                        (ix >= 0 && ix < g.in_width) ? in_row[ix] : T{};
                }
            }
        }
    }
}

// Small 'same' stride-1 planes (the deep layers: up to 8x8 float,
// 16x16 int8), where the per-tap fills, copy and column loop of
// im2col_channel cost
// more than the bytes they move. Each tap row is the plane shifted by
// dy*w + dx with the columns that wrapped around a side edge zeroed:
// reading from a copy of the channel framed by zero margins turns the
// top/bottom edges into plain reads of zeros, and a keep mask per dx
// zeroes the side edges, so every tap is one branch-free loop. Writes
// the same bytes as im2col_channel. Past 256 bytes per plane the copy
// per tap of im2col_channel is the faster of the two.
constexpr std::int64_t kSmallPlaneBytes = 256;
constexpr std::int64_t kSmallMaxPad = 3;
constexpr std::int64_t kSmallFrame = 1024;

template <typename T>
constexpr std::int64_t kSmallPlane =
    kSmallPlaneBytes / static_cast<std::int64_t>(sizeof(T));

template <typename T>
bool small_same(const ConvGeometry& g) {
    const std::int64_t plane = g.in_height * g.in_width;
    return g.stride == 1 && g.out_height() == g.in_height &&
           g.out_width() == g.in_width && g.padding <= kSmallMaxPad &&
           plane <= kSmallPlane<T> &&
           plane + 2 * (g.padding * g.in_width + g.padding) <= kSmallFrame;
}

template <typename T>
void im2col_small_same(const ConvGeometry& g, const T* input, T* columns,
                       std::int64_t ld, const std::int64_t* live_channels,
                       std::int64_t live_count) {
    const std::int64_t w = g.in_width;
    const std::int64_t plane = g.in_height * w;
    const std::int64_t p = g.padding;
    const std::int64_t margin = p * w + p;
    // keep[kx][i]: output column i % w reads an in-image column at
    // horizontal offset kx - p. Mask elements as wide as T keep the tap
    // loop a plain vector select.
    using Keep = std::conditional_t<sizeof(T) == 4, std::int32_t,
                                    std::int8_t>;
    static_assert(sizeof(Keep) == sizeof(T));
    Keep keep[2 * kSmallMaxPad + 1][kSmallPlane<T>];
    for (std::int64_t kx = 0; kx < g.kernel; ++kx) {
        for (std::int64_t x = 0; x < w; ++x) {
            keep[kx][x] = x + kx - p >= 0 && x + kx - p < w ? 1 : 0;
        }
        for (std::int64_t i = w; i < plane; ++i) {
            keep[kx][i] = keep[kx][i - w];
        }
    }
    T frame[kSmallFrame];
    std::fill(frame, frame + margin, T{});
    std::fill(frame + margin + plane, frame + plane + 2 * margin, T{});
    for (std::int64_t l = 0; l < live_count; ++l) {
        const std::int64_t c = live_channels != nullptr ? live_channels[l] : l;
        std::memcpy(frame + margin, input + c * plane,
                    static_cast<std::size_t>(plane) * sizeof(T));
        std::int64_t row = c * g.kernel * g.kernel;
        for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
            for (std::int64_t kx = 0; kx < g.kernel; ++kx, ++row) {
                const T* src = frame + margin + (ky - p) * w + (kx - p);
                const Keep* k = keep[kx];
                T* out_row = columns + row * ld;
                for (std::int64_t i = 0; i < plane; ++i) {
                    const T v = src[i];  // always in the frame
                    out_row[i] = k[i] != 0 ? v : T{};
                }
            }
        }
    }
}

template <typename T>
void im2col_live(const ConvGeometry& g, const T* input, T* columns,
                 std::int64_t ld, const std::int64_t* live_channels,
                 std::int64_t live_count) {
    g.validate();
    MIME_REQUIRE(ld >= g.col_cols(),
                 "im2col row pitch must be >= Hout*Wout");
    require_index_list(live_channels, live_count, g.in_channels,
                       "im2col live channel");
    if (small_same<T>(g)) {
        im2col_small_same(g, input, columns, ld, live_channels, live_count);
        return;
    }
    for (std::int64_t i = 0; i < live_count; ++i) {
        const std::int64_t c = live_channels != nullptr ? live_channels[i] : i;
        im2col_channel(g, input, columns, ld, c);
    }
}

template <typename T>
void im2col_all(const ConvGeometry& g, const T* input, T* columns) {
    im2col_live(g, input, columns, g.col_cols(), nullptr, g.in_channels);
}

}  // namespace

void im2col(const ConvGeometry& g, const float* input, float* columns) {
    im2col_all(g, input, columns);
}

void im2col(const ConvGeometry& g, const std::int8_t* input,
            std::int8_t* columns) {
    im2col_all(g, input, columns);
}

void im2col(const ConvGeometry& g, const float* input, float* columns,
            const std::int64_t* live_channels, std::int64_t live_count) {
    im2col_live(g, input, columns, g.col_cols(), live_channels, live_count);
}

void im2col(const ConvGeometry& g, const std::int8_t* input,
            std::int8_t* columns, std::int64_t ld,
            const std::int64_t* live_channels, std::int64_t live_count) {
    im2col_live(g, input, columns, ld, live_channels, live_count);
}

void col2im(const ConvGeometry& g, const float* columns, float* input_grad) {
    g.validate();
    const std::int64_t ho = g.out_height();
    const std::int64_t wo = g.out_width();
    const std::int64_t cols = ho * wo;

    std::int64_t row = 0;
    for (std::int64_t c = 0; c < g.in_channels; ++c) {
        float* channel = input_grad + c * g.in_height * g.in_width;
        for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
            for (std::int64_t kx = 0; kx < g.kernel; ++kx, ++row) {
                const float* in_row_vals = columns + row * cols;
                for (std::int64_t oy = 0; oy < ho; ++oy) {
                    const std::int64_t iy = oy * g.stride + ky - g.padding;
                    if (iy < 0 || iy >= g.in_height) {
                        continue;
                    }
                    float* grad_row = channel + iy * g.in_width;
                    for (std::int64_t ox = 0; ox < wo; ++ox) {
                        const std::int64_t ix = ox * g.stride + kx - g.padding;
                        if (ix >= 0 && ix < g.in_width) {
                            grad_row[ix] += in_row_vals[oy * wo + ox];
                        }
                    }
                }
            }
        }
    }
}

}  // namespace mime
