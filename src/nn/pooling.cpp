#include "nn/pooling.h"

#include <algorithm>
#include <string>

#include "common/check.h"

namespace mime::nn {

namespace {
struct PoolGeometry {
    std::int64_t batch, channels, in_h, in_w, out_h, out_w;
};

PoolGeometry pool_geometry(const Shape& shape, std::int64_t kernel,
                           std::int64_t stride, const char* who) {
    MIME_REQUIRE(shape.rank() == 4,
                 std::string(who) + " expects [N, C, H, W], got " +
                     shape.to_string());
    PoolGeometry g;
    g.batch = shape.dim(0);
    g.channels = shape.dim(1);
    g.in_h = shape.dim(2);
    g.in_w = shape.dim(3);
    MIME_REQUIRE(kernel <= g.in_h && kernel <= g.in_w,
                 std::string(who) + ": window larger than input");
    g.out_h = (g.in_h - kernel) / stride + 1;
    g.out_w = (g.in_w - kernel) / stride + 1;
    MIME_REQUIRE(g.out_h > 0 && g.out_w > 0,
                 std::string(who) + ": window larger than input");
    return g;
}

PoolGeometry pool_geometry(const Tensor& input, std::int64_t kernel,
                           std::int64_t stride, const char* who) {
    return pool_geometry(input.shape(), kernel, stride, who);
}

/// Window max of one [in_h, in_w] plane into its [out_h, out_w] output.
/// Each window starts from its top-left element and takes a later one
/// only when strictly greater, in row-major window order; `argmax`
/// (optional) receives `plane_base` + the winner's in-plane index.
void max_pool_plane(const PoolGeometry& g, std::int64_t kernel,
                    std::int64_t stride, const float* plane, float* out,
                    std::int64_t* argmax, std::int64_t plane_base) {
    if (kernel == 2 && stride == 2 && argmax == nullptr) {
        // The 2x2/2 window every reproduced net uses, unrolled: the same
        // comparisons in the same order as the general loop below.
        for (std::int64_t oy = 0; oy < g.out_h; ++oy) {
            const float* r0 = plane + 2 * oy * g.in_w;
            const float* r1 = r0 + g.in_w;
            float* o = out + oy * g.out_w;
            for (std::int64_t ox = 0; ox < g.out_w; ++ox) {
                float best = r0[2 * ox];
                best = r0[2 * ox + 1] > best ? r0[2 * ox + 1] : best;
                best = r1[2 * ox] > best ? r1[2 * ox] : best;
                best = r1[2 * ox + 1] > best ? r1[2 * ox + 1] : best;
                o[ox] = best;
            }
        }
        return;
    }
    std::int64_t out_idx = 0;
    for (std::int64_t oy = 0; oy < g.out_h; ++oy) {
        for (std::int64_t ox = 0; ox < g.out_w; ++ox, ++out_idx) {
            const std::int64_t y0 = oy * stride;
            const std::int64_t x0 = ox * stride;
            float best = plane[y0 * g.in_w + x0];
            std::int64_t best_idx = y0 * g.in_w + x0;
            for (std::int64_t ky = 0; ky < kernel; ++ky) {
                for (std::int64_t kx = 0; kx < kernel; ++kx) {
                    const std::int64_t idx = (y0 + ky) * g.in_w + (x0 + kx);
                    if (plane[idx] > best) {
                        best = plane[idx];
                        best_idx = idx;
                    }
                }
            }
            out[out_idx] = best;
            if (argmax != nullptr) {
                argmax[out_idx] = plane_base + best_idx;
            }
        }
    }
}

/// The one plane loop shared by MaxPool2d::forward (argmax recorded for
/// backward) and forward_into (argmax null): legacy and planned paths
/// cannot diverge. With `live` given, only the listed channels are
/// pooled and every other output plane is zero-filled.
void max_pool_compute(const PoolGeometry& g, std::int64_t kernel,
                      std::int64_t stride, const Tensor& input,
                      Tensor& output, std::int64_t* argmax,
                      const ActiveIndexView* live = nullptr) {
    const std::int64_t in_plane = g.in_h * g.in_w;
    const std::int64_t out_plane = g.out_h * g.out_w;
    for (std::int64_t n = 0; n < g.batch; ++n) {
        std::int64_t next_live = 0;
        for (std::int64_t c = 0; c < g.channels; ++c) {
            const std::int64_t plane = n * g.channels + c;
            float* out = output.data() + plane * out_plane;
            if (live != nullptr) {
                if (next_live < live->count &&
                    live->indices[next_live] == c) {
                    ++next_live;
                } else {
                    std::fill(out, out + out_plane, 0.0f);
                    continue;
                }
            }
            max_pool_plane(g, kernel, stride,
                           input.data() + plane * in_plane, out,
                           argmax != nullptr ? argmax + plane * out_plane
                                             : nullptr,
                           plane * in_plane);
        }
    }
}
}  // namespace

MaxPool2d::MaxPool2d(std::int64_t kernel, std::int64_t stride)
    : kernel_(kernel), stride_(stride) {
    MIME_REQUIRE(kernel > 0 && stride > 0,
                 "MaxPool2d kernel/stride must be positive");
}

Tensor MaxPool2d::forward(const Tensor& input) {
    const PoolGeometry g = pool_geometry(input, kernel_, stride_, "MaxPool2d");
    cached_input_shape_ = input.shape();
    Tensor output({g.batch, g.channels, g.out_h, g.out_w});
    std::int64_t* argmax = nullptr;
    if (!eval_mode()) {
        cached_argmax_.assign(static_cast<std::size_t>(output.numel()), 0);
        argmax = cached_argmax_.data();
    }
    max_pool_compute(g, kernel_, stride_, input, output, argmax);
    return output;
}

Shape MaxPool2d::output_shape(const Shape& input_shape) const {
    const PoolGeometry g =
        pool_geometry(input_shape, kernel_, stride_, "MaxPool2d");
    return Shape({g.batch, g.channels, g.out_h, g.out_w});
}

void MaxPool2d::forward_into(const Tensor& input, Tensor& output,
                             const ActiveIndexView* live_channels) {
    const PoolGeometry g = pool_geometry(input, kernel_, stride_, "MaxPool2d");
    MIME_REQUIRE(eval_mode(),
                 "MaxPool2d::forward_into is inference-only; set_eval_mode "
                 "first");
    MIME_REQUIRE(output.shape() ==
                     Shape({g.batch, g.channels, g.out_h, g.out_w}),
                 "MaxPool2d::forward_into output shape mismatch: " +
                     output.shape().to_string());
    if (live_channels != nullptr) {
        MIME_REQUIRE(live_channels->total == g.channels,
                     "MaxPool2d live-channel view covers " +
                         std::to_string(live_channels->total) +
                         " channels, input has " +
                         std::to_string(g.channels));
        require_index_list(live_channels->indices, live_channels->count,
                           g.channels, "MaxPool2d live channel");
    }
    max_pool_compute(g, kernel_, stride_, input, output, /*argmax=*/nullptr,
                     live_channels);
}

void MaxPool2d::set_eval_mode(bool eval) {
    Module::set_eval_mode(eval);
    if (eval) {
        cached_argmax_.clear();
        cached_argmax_.shrink_to_fit();
    }
}

std::int64_t MaxPool2d::cached_state_bytes() const {
    return static_cast<std::int64_t>(cached_argmax_.size() *
                                     sizeof(std::int64_t));
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
    MIME_REQUIRE(
        static_cast<std::size_t>(grad_output.numel()) == cached_argmax_.size(),
        "MaxPool2d::backward grad size mismatch");
    Tensor grad_input(cached_input_shape_);
    for (std::int64_t i = 0; i < grad_output.numel(); ++i) {
        grad_input[cached_argmax_[static_cast<std::size_t>(i)]] +=
            grad_output[i];
    }
    return grad_input;
}

AvgPool2d::AvgPool2d(std::int64_t kernel, std::int64_t stride)
    : kernel_(kernel), stride_(stride) {
    MIME_REQUIRE(kernel > 0 && stride > 0,
                 "AvgPool2d kernel/stride must be positive");
}

Tensor AvgPool2d::forward(const Tensor& input) {
    const PoolGeometry g = pool_geometry(input, kernel_, stride_, "AvgPool2d");
    cached_input_shape_ = input.shape();
    Tensor output({g.batch, g.channels, g.out_h, g.out_w});
    const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);

    std::int64_t out_idx = 0;
    for (std::int64_t n = 0; n < g.batch; ++n) {
        for (std::int64_t c = 0; c < g.channels; ++c) {
            const float* plane =
                input.data() + (n * g.channels + c) * g.in_h * g.in_w;
            for (std::int64_t oy = 0; oy < g.out_h; ++oy) {
                for (std::int64_t ox = 0; ox < g.out_w; ++ox, ++out_idx) {
                    double acc = 0.0;
                    for (std::int64_t ky = 0; ky < kernel_; ++ky) {
                        for (std::int64_t kx = 0; kx < kernel_; ++kx) {
                            acc += plane[(oy * stride_ + ky) * g.in_w +
                                         (ox * stride_ + kx)];
                        }
                    }
                    output[out_idx] = static_cast<float>(acc) * inv;
                }
            }
        }
    }
    return output;
}

Tensor AvgPool2d::backward(const Tensor& grad_output) {
    const std::int64_t batch = cached_input_shape_.dim(0);
    const std::int64_t channels = cached_input_shape_.dim(1);
    const std::int64_t in_h = cached_input_shape_.dim(2);
    const std::int64_t in_w = cached_input_shape_.dim(3);
    const std::int64_t out_h = (in_h - kernel_) / stride_ + 1;
    const std::int64_t out_w = (in_w - kernel_) / stride_ + 1;
    MIME_REQUIRE(grad_output.shape() == Shape({batch, channels, out_h, out_w}),
                 "AvgPool2d::backward grad shape mismatch");

    Tensor grad_input(cached_input_shape_);
    const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);
    std::int64_t out_idx = 0;
    for (std::int64_t n = 0; n < batch; ++n) {
        for (std::int64_t c = 0; c < channels; ++c) {
            float* plane = grad_input.data() + (n * channels + c) * in_h * in_w;
            for (std::int64_t oy = 0; oy < out_h; ++oy) {
                for (std::int64_t ox = 0; ox < out_w; ++ox, ++out_idx) {
                    const float share = grad_output[out_idx] * inv;
                    for (std::int64_t ky = 0; ky < kernel_; ++ky) {
                        for (std::int64_t kx = 0; kx < kernel_; ++kx) {
                            plane[(oy * stride_ + ky) * in_w +
                                  (ox * stride_ + kx)] += share;
                        }
                    }
                }
            }
        }
    }
    return grad_input;
}

}  // namespace mime::nn
