// 2-D convolution layer (NCHW, square kernels, symmetric padding).
#pragma once

#include <optional>
#include <vector>

#include "nn/module.h"
#include "nn/quantize.h"
#include "nn/sparse.h"
#include "tensor/im2col.h"
#include "tensor/workspace.h"

namespace mime::nn {

/// The share of its GEMM a planned conv forward computed: contraction
/// rows of the column matrix (C*K*K when the input side ran dense) and
/// output channels (Cout when the output side ran dense).
struct ConvWork {
    std::int64_t k_rows = 0;
    std::int64_t out_channels = 0;
};

/// Conv2d lowered to GEMM via im2col. Weight layout is
/// [out_channels, in_channels, k, k]; contiguity makes the same buffer a
/// [out_channels, in_channels*k*k] row-major matrix for the GEMM.
class Conv2d : public Module {
public:
    /// He-normal weight init (fan-in), zero bias.
    Conv2d(std::int64_t in_channels, std::int64_t out_channels,
           std::int64_t kernel, std::int64_t stride, std::int64_t padding,
           Rng& rng, bool bias = true);

    Tensor forward(const Tensor& input) override;
    Tensor backward(const Tensor& grad_output) override;
    std::string kind() const override { return "Conv2d"; }
    std::vector<Parameter*> parameters() override;
    void set_eval_mode(bool eval) override;
    std::int64_t cached_state_bytes() const override;

    /// Planned-executor forward: writes into the caller-preallocated
    /// `output` ([N, Cout, Ho, Wo]) using `workspace` for the im2col
    /// scratch — no tensor-storage allocation, no backward caching.
    /// When this module has a pool and batch > 1, samples are split
    /// across conv_bands() workers, each with its own pre-carved
    /// workspace slice (the band scratch is allocated up front on the
    /// calling thread because Workspace is not thread-safe); outputs
    /// are bit-identical to the sequential order because each output
    /// row's FMA chain is the same either way.
    ///
    /// `live_in_channels`, when given, lists the input channels that can
    /// be nonzero (the rest were structurally pruned by an upstream
    /// threshold mask); if its density is at or below the cutoff, im2col
    /// lowers only the live channels and the GEMM contracts over their
    /// rows only — bit-identical to dense because the skipped rows
    /// contribute exact zeros.
    ///
    /// `live_out_channels`, when given, lists the output channels whose
    /// values can survive the threshold mask that consumes this output
    /// (directly or through BatchNorm); under the same cutoff rule only
    /// those rows are computed and biased. The other rows of `output`
    /// keep stale values, so the caller must guarantee that the mask
    /// zeroes them before anything reads them. Computed rows are
    /// bit-identical to dense. Returns the work actually done.
    ConvWork forward_into(const Tensor& input, Workspace& workspace,
                          Tensor& output,
                          const ActiveIndexView* live_in_channels = nullptr,
                          const ActiveIndexView* live_out_channels = nullptr);

    /// Int8 planned forward: quantizes each sample of the input (one
    /// dynamic scale per sample, so a hot outlier in one image never
    /// inflates the others' step size — and each sample's bytes depend
    /// only on its own data, so banding never changes them), lowers to
    /// an int8 column matrix, contracts against `qweight`
    /// (per-output-channel scales, prebuilt by the plan from the float
    /// master weights) into int32 accumulators, and dequantizes + bias
    /// into the float `output`.
    /// Same live-channel semantics as forward_into: a compacted input
    /// side also takes the absmax over, and quantizes, the live channels
    /// only (the dead ones are exact zeros, so the scale is unchanged),
    /// and dead output rows are never computed or dequantized. Small
    /// planes are lowered several samples side by side and contracted
    /// with one qgemm_rows call (quantized_group); integer accumulation
    /// is exact, so the grouping never changes the output. Scratch
    /// comes from `workspace` (quantized_workspace_bytes), so steady
    /// state allocates nothing.
    ConvWork forward_into_quantized(
        const Tensor& input, Workspace& workspace, Tensor& output,
        const nn::QuantizedTensor& qweight,
        const ActiveIndexView* live_in_channels = nullptr,
        const ActiveIndexView* live_out_channels = nullptr);

    /// Validated convolution geometry for an input of the given spatial
    /// extents — the single source of truth for output sizes that both
    /// the forwards and ForwardPlan's buffer pre-sizing derive from.
    ConvGeometry geometry(std::int64_t in_height, std::int64_t in_width) const;

    /// Workspace floats forward_into() allocates for one forward at
    /// this input geometry and batch size (already alignment-rounded):
    /// one im2col scratch slice per band.
    std::int64_t workspace_floats(std::int64_t in_height,
                                  std::int64_t in_width,
                                  std::int64_t batch = 1) const;

    /// Workspace bytes forward_into_quantized() allocates at this input
    /// geometry and batch size (alignment-rounded): the int8 input
    /// slab plus, per band, an int8 column matrix and an int32
    /// accumulator tile, each quantized_group() samples wide.
    std::size_t quantized_workspace_bytes(std::int64_t in_height,
                                          std::int64_t in_width,
                                          std::int64_t batch = 1) const;

    /// Number of per-sample bands forward_into() splits a batch of the
    /// given size into: min(pool size, batch) with a pool, else 1.
    std::int64_t conv_bands(std::int64_t batch) const;

    /// Samples forward_into_quantized() lowers side by side into one
    /// column matrix (and contracts with one qgemm_rows call): enough
    /// for kQuantizedGroupCols columns, capped by the samples per band.
    std::int64_t quantized_group(std::int64_t spatial,
                                 std::int64_t batch) const;

    /// Density above which forward_into ignores a live-channel view and
    /// runs that side dense (compaction bookkeeping beats the win near
    /// 1.0).
    void set_sparse_density_cutoff(double cutoff) noexcept {
        sparse_density_cutoff_ = cutoff;
    }
    double sparse_density_cutoff() const noexcept {
        return sparse_density_cutoff_;
    }

    Parameter& weight() noexcept { return weight_; }
    Parameter& bias() { return bias_.value(); }
    bool has_bias() const noexcept { return bias_.has_value(); }

    std::int64_t in_channels() const noexcept { return in_channels_; }
    std::int64_t out_channels() const noexcept { return out_channels_; }
    std::int64_t kernel() const noexcept { return kernel_; }
    std::int64_t stride() const noexcept { return stride_; }
    std::int64_t padding() const noexcept { return padding_; }

private:
    /// Column width forward_into_quantized() aims for when it lowers
    /// several samples into one column matrix: at 64 a 2x2 plane groups
    /// 16 samples, and planes of 8x8 and up run one sample at a time.
    static constexpr std::int64_t kQuantizedGroupCols = 64;

    /// The compacted index lists one planned forward runs with; a null
    /// list is the identity prefix of its count (see gemm_rows).
    struct LiveSelection {
        const ActiveIndexView* live_in = nullptr;  ///< null: dense input
        const std::int64_t* rows = nullptr;
        std::int64_t k_rows = 0;
        const std::int64_t* out_rows = nullptr;
        std::int64_t out_channels = 0;

        std::int64_t out_channel(std::int64_t i) const {
            return out_rows != nullptr ? out_rows[i] : i;
        }
    };

    ConvGeometry geometry_for(const Tensor& input) const;
    /// Whether a live view applies under the density cutoff (validating
    /// its extent when it does).
    bool use_live(const ActiveIndexView* live, std::int64_t total,
                  const char* side) const;
    LiveSelection select_live(const ActiveIndexView* live_in_channels,
                              const ActiveIndexView* live_out_channels,
                              std::int64_t ckk);

    std::int64_t in_channels_;
    std::int64_t out_channels_;
    std::int64_t kernel_;
    std::int64_t stride_;
    std::int64_t padding_;
    Parameter weight_;
    std::optional<Parameter> bias_;
    Tensor cached_input_;  ///< saved by forward for the backward pass
    double sparse_density_cutoff_ = kDefaultSparseDensityCutoff;
    /// Scratch for the live-channel -> live-GEMM-row (c*K*K + t)
    /// expansion; member so steady-state sparse forwards reuse its
    /// capacity instead of reallocating.
    std::vector<std::int64_t> live_rows_;
};

}  // namespace mime::nn
