// Spatial pooling layers (NCHW).
#pragma once

#include <vector>

#include "nn/module.h"
#include "nn/sparse.h"

namespace mime::nn {

/// Max pooling with a square window. Stores the argmax of each window for
/// the backward pass.
class MaxPool2d : public Module {
public:
    MaxPool2d(std::int64_t kernel, std::int64_t stride);

    Tensor forward(const Tensor& input) override;
    Tensor backward(const Tensor& grad_output) override;
    std::string kind() const override { return "MaxPool2d"; }
    void set_eval_mode(bool eval) override;
    std::int64_t cached_state_bytes() const override;

    /// Planned-executor forward: writes into the caller-preallocated
    /// `output`; no heap allocation and no argmax bookkeeping (that
    /// exists only for backward). Bit-identical to forward().
    ///
    /// `live_channels`, when given, lists (strictly ascending) the
    /// channels of `input` that may hold a nonzero. Every other channel
    /// must be all +0.0 (a threshold mask zeroed it), so its output
    /// plane is written as zeros without reading the input — the bytes
    /// forward() would produce.
    void forward_into(const Tensor& input, Tensor& output,
                      const ActiveIndexView* live_channels = nullptr);

    /// Output shape for pooling `input_shape` (validates geometry).
    Shape output_shape(const Shape& input_shape) const;

    std::int64_t kernel() const noexcept { return kernel_; }
    std::int64_t stride() const noexcept { return stride_; }

private:
    std::int64_t kernel_;
    std::int64_t stride_;
    Shape cached_input_shape_;
    std::vector<std::int64_t> cached_argmax_;  ///< flat input index per output
};

/// Average pooling with a square window (no padding).
class AvgPool2d : public Module {
public:
    AvgPool2d(std::int64_t kernel, std::int64_t stride);

    Tensor forward(const Tensor& input) override;
    Tensor backward(const Tensor& grad_output) override;
    std::string kind() const override { return "AvgPool2d"; }

private:
    std::int64_t kernel_;
    std::int64_t stride_;
    Shape cached_input_shape_;
};

}  // namespace mime::nn
