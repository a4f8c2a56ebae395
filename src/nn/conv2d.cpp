#include "nn/conv2d.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/sync.h"
#include "tensor/gemm.h"
#include "tensor/qgemm.h"

namespace mime::nn {

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t padding,
               Rng& rng, bool bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding) {
    MIME_REQUIRE(in_channels > 0 && out_channels > 0 && kernel > 0,
                 "Conv2d extents must be positive");
    MIME_REQUIRE(stride > 0 && padding >= 0, "Conv2d stride/padding invalid");
    const std::int64_t fan_in = in_channels * kernel * kernel;
    const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
    weight_ = Parameter(
        "weight",
        Tensor::randn({out_channels, in_channels, kernel, kernel}, rng, 0.0f,
                      stddev));
    if (bias) {
        bias_.emplace("bias", Tensor::zeros({out_channels}));
    }
}

ConvGeometry Conv2d::geometry_for(const Tensor& input) const {
    MIME_REQUIRE(input.shape().rank() == 4,
                 "Conv2d expects [N, C, H, W], got " +
                     input.shape().to_string());
    MIME_REQUIRE(input.shape().dim(1) == in_channels_,
                 "Conv2d channel mismatch: layer expects " +
                     std::to_string(in_channels_) + ", input has " +
                     std::to_string(input.shape().dim(1)));
    return geometry(input.shape().dim(2), input.shape().dim(3));
}

Tensor Conv2d::forward(const Tensor& input) {
    const ConvGeometry g = geometry_for(input);
    const std::int64_t batch = input.shape().dim(0);
    const std::int64_t ho = g.out_height();
    const std::int64_t wo = g.out_width();
    const std::int64_t spatial = ho * wo;
    const std::int64_t ckk = g.col_rows();

    if (!eval_mode()) {
        cached_input_ = input;
    }
    Tensor output({batch, out_channels_, ho, wo});

    const std::int64_t in_stride = in_channels_ * g.in_height * g.in_width;
    const std::int64_t out_stride = out_channels_ * spatial;

    auto run_sample = [&](std::int64_t n, std::vector<float>& cols,
                          ThreadPool* gemm_pool) {
        im2col(g, input.data() + n * in_stride, cols.data());
        float* out = output.data() + n * out_stride;
        gemm(false, false, out_channels_, spatial, ckk, 1.0f,
             weight_.value.data(), ckk, cols.data(), spatial, 0.0f, out,
             spatial, gemm_pool);
        if (bias_) {
            const float* b = bias_->value.data();
            for (std::int64_t c = 0; c < out_channels_; ++c) {
                float* row = out + c * spatial;
                for (std::int64_t s = 0; s < spatial; ++s) {
                    row[s] += b[c];
                }
            }
        }
    };

    if (pool_ != nullptr && batch > 1) {
        // Parallelize across samples; each sample's GEMM stays
        // single-threaded to avoid nested pool usage.
        parallel_for(
            *pool_, static_cast<std::size_t>(batch),
            [&](std::size_t begin, std::size_t end) {
                std::vector<float> cols(
                    static_cast<std::size_t>(ckk * spatial));
                for (std::size_t n = begin; n < end; ++n) {
                    run_sample(static_cast<std::int64_t>(n), cols, nullptr);
                }
            },
            /*min_chunk=*/1);
    } else {
        std::vector<float> cols(static_cast<std::size_t>(ckk * spatial));
        for (std::int64_t n = 0; n < batch; ++n) {
            run_sample(n, cols, pool_);
        }
    }
    return output;
}

void Conv2d::set_eval_mode(bool eval) {
    Module::set_eval_mode(eval);
    if (eval) {
        cached_input_ = Tensor();
    }
}

std::int64_t Conv2d::cached_state_bytes() const {
    return cached_tensor_bytes(cached_input_);
}

ConvGeometry Conv2d::geometry(std::int64_t in_height,
                              std::int64_t in_width) const {
    ConvGeometry g;
    g.in_channels = in_channels_;
    g.in_height = in_height;
    g.in_width = in_width;
    g.kernel = kernel_;
    g.stride = stride_;
    g.padding = padding_;
    g.validate();
    return g;
}

std::int64_t Conv2d::conv_bands(std::int64_t batch) const {
    if (pool_ == nullptr || batch <= 1) {
        return 1;
    }
    return std::min<std::int64_t>(
        static_cast<std::int64_t>(pool_->size()), batch);
}

std::int64_t Conv2d::workspace_floats(std::int64_t in_height,
                                      std::int64_t in_width,
                                      std::int64_t batch) const {
    const ConvGeometry g = geometry(in_height, in_width);
    return conv_bands(batch) *
           static_cast<std::int64_t>(
               Workspace::aligned_floats(g.col_rows() * g.col_cols()));
}

bool Conv2d::use_live(const ActiveIndexView* live, std::int64_t total,
                      const char* side) const {
    if (live == nullptr || live->indices == nullptr || live->all_live() ||
        live->density() > sparse_density_cutoff_) {
        return false;
    }
    MIME_REQUIRE(live->total == total,
                 std::string("Conv2d live-") + side + "-channel view covers " +
                     std::to_string(live->total) + " channels, layer has " +
                     std::to_string(total));
    return true;
}

Conv2d::LiveSelection Conv2d::select_live(
    const ActiveIndexView* live_in_channels,
    const ActiveIndexView* live_out_channels, std::int64_t ckk) {
    LiveSelection sel;
    sel.k_rows = ckk;
    sel.out_channels = out_channels_;
    if (use_live(live_in_channels, in_channels_, "input")) {
        // Expand live channels to the K*K GEMM rows each one owns in
        // the column matrix; ascending channels give ascending rows.
        live_rows_.clear();
        const std::int64_t kk = kernel_ * kernel_;
        for (std::int64_t i = 0; i < live_in_channels->count; ++i) {
            const std::int64_t base = live_in_channels->indices[i] * kk;
            for (std::int64_t t = 0; t < kk; ++t) {
                live_rows_.push_back(base + t);
            }
        }
        sel.live_in = live_in_channels;
        sel.rows = live_rows_.data();
        sel.k_rows = static_cast<std::int64_t>(live_rows_.size());
    }
    if (use_live(live_out_channels, out_channels_, "output")) {
        sel.out_rows = live_out_channels->indices;
        sel.out_channels = live_out_channels->count;
    }
    return sel;
}

ConvWork Conv2d::forward_into(const Tensor& input, Workspace& workspace,
                              Tensor& output,
                              const ActiveIndexView* live_in_channels,
                              const ActiveIndexView* live_out_channels) {
    const ConvGeometry g = geometry_for(input);
    const std::int64_t batch = input.shape().dim(0);
    const std::int64_t ho = g.out_height();
    const std::int64_t wo = g.out_width();
    const std::int64_t spatial = ho * wo;
    const std::int64_t ckk = g.col_rows();
    MIME_REQUIRE(eval_mode(),
                 "Conv2d::forward_into is inference-only; set_eval_mode "
                 "first");
    MIME_REQUIRE(output.shape() == Shape({batch, out_channels_, ho, wo}),
                 "Conv2d::forward_into output must be preallocated to " +
                     Shape({batch, out_channels_, ho, wo}).to_string() +
                     ", got " + output.shape().to_string());

    const LiveSelection sel =
        select_live(live_in_channels, live_out_channels, ckk);
    const std::int64_t in_stride = in_channels_ * g.in_height * g.in_width;
    const std::int64_t out_stride = out_channels_ * spatial;

    auto run_sample = [&](std::int64_t n, float* cols,
                          ThreadPool* gemm_pool) {
        float* out = output.data() + n * out_stride;
        if (sel.live_in != nullptr) {
            // Lower only the live channels; the dead channels' rows of
            // `cols` keep stale garbage the compacted GEMM never reads.
            im2col(g, input.data() + n * in_stride, cols,
                   sel.live_in->indices, sel.live_in->count);
        } else {
            im2col(g, input.data() + n * in_stride, cols);
        }
        // Dead output channels are neither computed nor biased: their
        // rows keep stale values that the threshold mask downstream
        // zeroes.
        gemm_rows(false, false, out_channels_, spatial, ckk, sel.rows,
                  sel.k_rows, sel.out_rows, sel.out_channels, 1.0f,
                  weight_.value.data(), ckk, cols, spatial, 0.0f, out,
                  spatial, gemm_pool);
        if (bias_) {
            const float* b = bias_->value.data();
            for (std::int64_t i = 0; i < sel.out_channels; ++i) {
                const std::int64_t c = sel.out_channel(i);
                float* row = out + c * spatial;
                for (std::int64_t s = 0; s < spatial; ++s) {
                    row[s] += b[c];
                }
            }
        }
    };

    const Workspace::Checkpoint mark = workspace.checkpoint();
    const std::int64_t bands = conv_bands(batch);
    const std::int64_t band_stride =
        static_cast<std::int64_t>(Workspace::aligned_floats(ckk * spatial));
    // One carve for all bands, on this thread — Workspace is not
    // thread-safe, so workers must never touch it.
    float* cols_base = workspace.alloc_floats(bands * band_stride);
    if (bands > 1) {
        const std::int64_t per_band = (batch + bands - 1) / bands;
        for (std::int64_t band = 0; band < bands; ++band) {
            const std::int64_t n0 = band * per_band;
            const std::int64_t n1 = std::min(n0 + per_band, batch);
            if (n0 >= n1) {
                break;
            }
            float* cols = cols_base + band * band_stride;
            pool_->submit([&run_sample, cols, n0, n1] {
                for (std::int64_t n = n0; n < n1; ++n) {
                    // Workers keep their sample GEMMs single-threaded;
                    // the parallelism is the per-sample banding itself.
                    run_sample(n, cols, nullptr);
                }
            });
        }
        pool_->wait_idle();
    } else {
        for (std::int64_t n = 0; n < batch; ++n) {
            run_sample(n, cols_base, pool_);
        }
    }
    workspace.rewind(mark);
    return {sel.k_rows, sel.out_channels};
}

std::int64_t Conv2d::quantized_group(std::int64_t spatial,
                                     std::int64_t batch) const {
    const std::int64_t bands = conv_bands(batch);
    const std::int64_t per_band = (batch + bands - 1) / bands;
    const std::int64_t wanted =
        (kQuantizedGroupCols + spatial - 1) / spatial;
    return std::max<std::int64_t>(1, std::min(wanted, per_band));
}

std::size_t Conv2d::quantized_workspace_bytes(std::int64_t in_height,
                                              std::int64_t in_width,
                                              std::int64_t batch) const {
    const ConvGeometry g = geometry(in_height, in_width);
    const std::int64_t width =
        quantized_group(g.col_cols(), batch) * g.col_cols();
    const auto cols = static_cast<std::size_t>(g.col_rows() * width);
    const auto acc = static_cast<std::size_t>(out_channels_ * width) *
                     sizeof(std::int32_t);
    const auto slab = static_cast<std::size_t>(batch * in_channels_ *
                                               in_height * in_width);
    return Workspace::aligned_bytes(slab) +
           Workspace::aligned_bytes(static_cast<std::size_t>(batch) *
                                    sizeof(float)) +
           static_cast<std::size_t>(conv_bands(batch)) *
               (Workspace::aligned_bytes(cols) +
                Workspace::aligned_bytes(acc));
}

ConvWork Conv2d::forward_into_quantized(
    const Tensor& input, Workspace& workspace, Tensor& output,
    const nn::QuantizedTensor& qweight,
    const ActiveIndexView* live_in_channels,
    const ActiveIndexView* live_out_channels) {
    const ConvGeometry g = geometry_for(input);
    const std::int64_t batch = input.shape().dim(0);
    const std::int64_t ho = g.out_height();
    const std::int64_t wo = g.out_width();
    const std::int64_t spatial = ho * wo;
    const std::int64_t ckk = g.col_rows();
    MIME_REQUIRE(eval_mode(),
                 "Conv2d::forward_into_quantized is inference-only; "
                 "set_eval_mode first");
    MIME_REQUIRE(output.shape() == Shape({batch, out_channels_, ho, wo}),
                 "Conv2d::forward_into_quantized output must be "
                 "preallocated to " +
                     Shape({batch, out_channels_, ho, wo}).to_string() +
                     ", got " + output.shape().to_string());
    MIME_REQUIRE(qweight.rows == out_channels_ && qweight.cols == ckk,
                 "quantized weights are [" + std::to_string(qweight.rows) +
                     ", " + std::to_string(qweight.cols) +
                     "], layer needs [" + std::to_string(out_channels_) +
                     ", " + std::to_string(ckk) + "]");

    const LiveSelection sel =
        select_live(live_in_channels, live_out_channels, ckk);
    const std::int64_t plane = g.in_height * g.in_width;
    const std::int64_t in_stride = in_channels_ * plane;
    const std::int64_t out_stride = out_channels_ * spatial;
    // Samples lowered side by side into one column matrix, so a deep
    // layer's tiny plane still feeds the kernel full-width tiles.
    const std::int64_t group = quantized_group(spatial, batch);
    const std::int64_t ld = group * spatial;

    const Workspace::Checkpoint mark = workspace.checkpoint();
    // One dynamic scale *per sample*: a hot outlier in one image must
    // not inflate the quantization step of the rest of the batch. Each
    // sample's scale depends only on its own bytes, so the band workers
    // can quantize their own (disjoint) sample slices and thread count
    // never changes the produced bytes.
    auto* qinput = workspace.alloc<std::int8_t>(batch * in_stride);
    auto* x_scales = workspace.alloc<float>(batch);

    const std::int64_t bands = conv_bands(batch);
    const std::size_t cols_stride =
        Workspace::aligned_bytes(static_cast<std::size_t>(ckk * ld));
    const std::size_t acc_stride = Workspace::aligned_bytes(
        static_cast<std::size_t>(out_channels_ * ld * sizeof(std::int32_t)));
    auto* cols_base = static_cast<std::int8_t*>(
        workspace.alloc_bytes(static_cast<std::size_t>(bands) * cols_stride));
    auto* acc_base = static_cast<std::int32_t*>(
        workspace.alloc_bytes(static_cast<std::size_t>(bands) * acc_stride));

    const float* bias = bias_ ? bias_->value.data() : nullptr;
    const float* w_scales = qweight.scales.data();
    const std::int8_t* w_data = qweight.data.data();
    // The quantized spans of one sample: each live channel's plane, or
    // the whole sample as one span when the input side is dense.
    const std::int64_t spans =
        sel.live_in != nullptr ? sel.live_in->count : 1;
    const std::int64_t span_len =
        sel.live_in != nullptr ? plane : in_stride;
    auto span_offset = [&](std::int64_t i) {
        return sel.live_in != nullptr ? sel.live_in->indices[i] * plane
                                      : std::int64_t{0};
    };
    const std::int64_t* lowered =
        sel.live_in != nullptr ? sel.live_in->indices : nullptr;
    const std::int64_t lowered_count =
        sel.live_in != nullptr ? sel.live_in->count : in_channels_;

    // Samples [n0, n1) (at most `group`): quantize and lower each into
    // its column block, contract once, dequantize per sample.
    auto run_group = [&](std::int64_t n0, std::int64_t n1,
                         std::int8_t* cols, std::int32_t* acc,
                         ThreadPool* gemm_pool) {
        for (std::int64_t n = n0; n < n1; ++n) {
            const float* x = input.data() + n * in_stride;
            std::int8_t* qx = qinput + n * in_stride;
            // Dead input channels are exact zeros, so the absmax over
            // the live ones is the sample's absmax; only the spans that
            // get lowered are quantized.
            float absmax = 0.0f;
            for (std::int64_t i = 0; i < spans; ++i) {
                absmax = std::max(absmax, nn::activation_absmax(
                                              x + span_offset(i), span_len));
            }
            const float inv = absmax == 0.0f ? 0.0f : 127.0f / absmax;
            for (std::int64_t i = 0; i < spans; ++i) {
                nn::quantize_with_scale(x + span_offset(i), span_len, inv,
                                        qx + span_offset(i));
            }
            x_scales[n] = absmax == 0.0f ? 0.0f : absmax / 127.0f;
            im2col(g, qx, cols + (n - n0) * spatial, ld, lowered,
                   lowered_count);
        }
        qgemm_rows(out_channels_, (n1 - n0) * spatial, ckk, sel.rows,
                   sel.k_rows, sel.out_rows, sel.out_channels, w_data, ckk,
                   cols, ld, acc, ld, gemm_pool);
        // Dead output channels are never dequantized; the threshold mask
        // downstream zeroes their stale rows.
        for (std::int64_t i = 0; i < sel.out_channels; ++i) {
            const std::int64_t c = sel.out_channel(i);
            for (std::int64_t n = n0; n < n1; ++n) {
                nn::dequantize_affine(acc + c * ld + (n - n0) * spatial,
                                      spatial, w_scales[c] * x_scales[n],
                                      bias != nullptr ? bias[c] : 0.0f,
                                      output.data() + n * out_stride +
                                          c * spatial);
            }
        }
    };
    auto run_band = [&run_group, group](std::int64_t n0, std::int64_t n1,
                                        std::int8_t* cols,
                                        std::int32_t* acc,
                                        ThreadPool* gemm_pool) {
        for (std::int64_t n = n0; n < n1; n += group) {
            run_group(n, std::min(n + group, n1), cols, acc, gemm_pool);
        }
    };

    if (bands > 1) {
        const std::int64_t per_band = (batch + bands - 1) / bands;
        for (std::int64_t band = 0; band < bands; ++band) {
            const std::int64_t n0 = band * per_band;
            const std::int64_t n1 = std::min(n0 + per_band, batch);
            if (n0 >= n1) {
                break;
            }
            std::int8_t* cols =
                cols_base + static_cast<std::size_t>(band) * cols_stride;
            auto* acc = reinterpret_cast<std::int32_t*>(
                reinterpret_cast<std::int8_t*>(acc_base) +
                static_cast<std::size_t>(band) * acc_stride);
            pool_->submit([&run_band, cols, acc, n0, n1] {
                run_band(n0, n1, cols, acc, nullptr);
            });
        }
        pool_->wait_idle();
    } else {
        run_band(0, batch, cols_base, acc_base, pool_);
    }
    workspace.rewind(mark);
    return {sel.k_rows, sel.out_channels};
}

Tensor Conv2d::backward(const Tensor& grad_output) {
    MIME_REQUIRE(cached_input_.shape().rank() == 4,
                 "Conv2d::backward called before forward");
    const ConvGeometry g = geometry_for(cached_input_);
    const std::int64_t batch = cached_input_.shape().dim(0);
    const std::int64_t ho = g.out_height();
    const std::int64_t wo = g.out_width();
    const std::int64_t spatial = ho * wo;
    const std::int64_t ckk = g.col_rows();

    MIME_REQUIRE(grad_output.shape() ==
                     Shape({batch, out_channels_, ho, wo}),
                 "Conv2d::backward grad shape mismatch: " +
                     grad_output.shape().to_string());

    Tensor grad_input(cached_input_.shape());
    const std::int64_t in_stride = in_channels_ * g.in_height * g.in_width;
    const std::int64_t out_stride = out_channels_ * spatial;

    Mutex accumulate_mutex;

    auto run_range = [&](std::size_t begin, std::size_t end) {
        std::vector<float> cols(static_cast<std::size_t>(ckk * spatial));
        std::vector<float> grad_cols(static_cast<std::size_t>(ckk * spatial));
        Tensor local_grad_w(weight_.grad.shape());
        Tensor local_grad_b =
            bias_ ? Tensor(bias_->grad.shape()) : Tensor();

        for (std::size_t un = begin; un < end; ++un) {
            const auto n = static_cast<std::int64_t>(un);
            const float* gout = grad_output.data() + n * out_stride;

            // grad_W += gout [Cout, S] x cols^T [S, CKK]
            im2col(g, cached_input_.data() + n * in_stride, cols.data());
            gemm(false, true, out_channels_, ckk, spatial, 1.0f, gout, spatial,
                 cols.data(), spatial, 1.0f, local_grad_w.data(), ckk,
                 nullptr);

            if (bias_) {
                float* gb = local_grad_b.data();
                for (std::int64_t c = 0; c < out_channels_; ++c) {
                    const float* row = gout + c * spatial;
                    double acc = 0.0;
                    for (std::int64_t s = 0; s < spatial; ++s) {
                        acc += row[s];
                    }
                    gb[c] += static_cast<float>(acc);
                }
            }

            // grad_cols = W^T [CKK, Cout] x gout [Cout, S]
            gemm(true, false, ckk, spatial, out_channels_, 1.0f,
                 weight_.value.data(), ckk, gout, spatial, 0.0f,
                 grad_cols.data(), spatial, nullptr);
            col2im(g, grad_cols.data(), grad_input.data() + n * in_stride);
        }

        MutexLock lock(accumulate_mutex);
        weight_.grad.axpy(1.0f, local_grad_w);
        if (bias_) {
            bias_->grad.axpy(1.0f, local_grad_b);
        }
    };

    if (pool_ != nullptr && batch > 1) {
        parallel_for(*pool_, static_cast<std::size_t>(batch), run_range,
                     /*min_chunk=*/1);
    } else {
        run_range(0, static_cast<std::size_t>(batch));
    }
    return grad_input;
}

std::vector<Parameter*> Conv2d::parameters() {
    std::vector<Parameter*> params{&weight_};
    if (bias_) {
        params.push_back(&*bias_);
    }
    return params;
}

}  // namespace mime::nn
